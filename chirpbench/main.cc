/**
 * @file
 * chirpbench: the repo benchmark program.
 *
 *   chirpbench --workload NAME --seed N --seconds S --trace 0|1
 *              --work-dir DIR [--spans FILE] [--golden FILE]
 *              [--tiny] [--perturb-digest]
 *              [--write-golden FILE]
 *
 * Sets the workload up (suite enumeration, Runner construction and,
 * for warm workloads, filling a fresh trace cache) several times and
 * reports the median as setup_s; then either runs the suite through
 * Runner::runSuiteMulti for S seconds (--trace 0, end-to-end metrics)
 * or does the traced per-layer run (--trace 1).  Every job's stats are
 * checked against golden digests (default seed) and a sample is
 * recomputed with a plain Simulator::run.  The last stdout line is the
 * JSON result.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "bench.hh"
#include "sim/simulator.hh"
#include "tlb/tlb.hh"
#include "trace/trace_store.hh"
#include "util/random.hh"
#include "util/simd.hh"
#include "util/thread_pool.hh"

extern char **environ;

namespace chirpbench
{

using namespace chirp;

namespace
{

/** The default suite seed; golden digests are kept for it. */
constexpr std::uint64_t kDefaultSeed = 42;
/** Jobs recomputed per run with a plain Simulator::run. */
constexpr std::size_t kCrossCheckJobs = 3;
/** Suite worker threads, capped at the host's hardware threads. */
constexpr unsigned kJobs = 4;

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    int trace = 0;
    std::string workDir;
    std::string spans;
    std::string golden;
    std::string writeGolden;
    bool tiny = false;
    bool perturbDigest = false;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr, "chirpbench: %s\n", msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + flag).c_str());
            return argv[++i];
        };
        if (flag == "--workload")
            args.workload = value();
        else if (flag == "--seed")
            args.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (flag == "--seconds")
            args.seconds = std::strtod(value().c_str(), nullptr);
        else if (flag == "--trace")
            args.trace = std::atoi(value().c_str());
        else if (flag == "--work-dir")
            args.workDir = value();
        else if (flag == "--spans")
            args.spans = value();
        else if (flag == "--golden")
            args.golden = value();
        else if (flag == "--write-golden")
            args.writeGolden = value();
        else if (flag == "--tiny")
            args.tiny = true;
        else if (flag == "--perturb-digest")
            args.perturbDigest = true;
        else
            usage(("unknown argument " + flag).c_str());
    }
    if (args.workload.empty() || args.workDir.empty())
        usage("--workload and --work-dir are required");
    if (args.trace != 0 && args.trace != 1)
        usage("--trace must be 0 or 1");
    if (!(args.seconds > 0.0))
        usage("--seconds must be positive");
    return args;
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
cpuModel()
{
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

std::string
fingerprint(const Args &args, unsigned jobs)
{
    std::ostringstream os;
    os << "{\"cpu_model\": " << jsonString(cpuModel())
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"jobs\": " << jobs << ", \"simd_backend\": "
       << jsonString(simd::backendName(simd::activeBackend()))
       << ", \"build_type\": " << jsonString(CHIRPBENCH_BUILD_TYPE)
       << ", \"compiler\": " << jsonString(compilerName())
       << ", \"trace_format\": "
       << jsonString(traceFormatName(traceFormat()))
       << ", \"miss_path\": "
       << jsonString(batchMissPath() ? "batched" : "scalar")
       << ", \"workload\": " << jsonString(args.workload)
       << ", \"seed\": " << args.seed
       << ", \"size\": " << jsonString(args.tiny ? "tiny" : "full")
       << "}";
    return os.str();
}

/**
 * Golden digests, one line per (workload, size, seed):
 *   <workload> <full|tiny> <seed> <hex digest per job, job order>
 * Job order is workload-major, policy-minor, as in jobIndex().
 */
bool
loadGolden(const std::string &path, const Args &args,
           std::vector<std::uint64_t> &out)
{
    std::ifstream in(path);
    std::string line;
    const std::string size = args.tiny ? "tiny" : "full";
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string name, line_size;
        std::uint64_t seed = 0;
        if (!(fields >> name >> line_size >> seed) || name != args.workload ||
            line_size != size || seed != args.seed)
            continue;
        std::string hex;
        while (fields >> hex)
            out.push_back(std::strtoull(hex.c_str(), nullptr, 16));
        return true;
    }
    return false;
}

using SuiteResults = std::vector<std::vector<WorkloadResult>>;

/** Checks every round's job stats and counts failed operations. */
class Checker
{
  public:
    Checker(const Workload &wl, std::size_t workloads, bool perturb)
        : wl_(wl), workloads_(workloads), perturb_(perturb)
    {
    }

    std::size_t jobIndex(std::size_t w, std::size_t p) const
    {
        return w * wl_.policies.size() + p;
    }

    std::size_t jobs() const { return workloads_ * wl_.policies.size(); }

    void setExpected(std::vector<std::uint64_t> golden)
    {
        expected_ = std::move(golden);
        haveGolden_ = true;
    }

    bool haveGolden() const { return haveGolden_; }

    /** The digest the benchmark attributes to job (w, p). */
    std::uint64_t
    digestOf(const SimStats &stats, std::size_t w, std::size_t p) const
    {
        std::uint64_t d = statsDigest(stats);
        if (perturb_ && w == 0 && p == wl_.chirpIdx)
            d ^= 1; // deliberately wrong output, for the self-test
        return d;
    }

    /**
     * Check one suite run.  @p health_failures are the jobs SuiteHealth
     * recorded as failed during it.  Returns the failed-job count.
     */
    std::uint64_t
    checkRound(const SuiteResults &results,
               const std::vector<JobResult> &health_failures)
    {
        std::vector<std::uint64_t> digests(jobs());
        for (std::size_t p = 0; p < wl_.policies.size(); ++p)
            for (std::size_t w = 0; w < workloads_; ++w)
                digests[jobIndex(w, p)] =
                    digestOf(results[p][w].stats, w, p);
        if (expected_.empty())
            expected_ = digests; // first round: verified by crossCheck
        if (expected_.size() != digests.size()) {
            // Golden line for another suite shape: every job fails.
            return digests.size();
        }
        std::set<std::size_t> failed;
        for (std::size_t j = 0; j < digests.size(); ++j)
            if (digests[j] != expected_[j])
                failed.insert(j);
        for (const JobResult &job : health_failures) {
            for (std::size_t p = 0; p < wl_.policies.size(); ++p)
                for (std::size_t w = 0; w < workloads_; ++w)
                    if (results[p][w].workload.name == job.workload &&
                        wl_.policies[p].tag == job.policy)
                        failed.insert(jobIndex(w, p));
        }
        if (firstDigests_.empty())
            firstDigests_ = digests;
        return failed.size();
    }

    /**
     * Recompute a sample of jobs with a plain Simulator::run on a
     * freshly generated trace; returns the number of mismatches.
     */
    std::uint64_t
    crossCheck(const std::vector<WorkloadConfig> &suite,
               std::uint64_t seed)
    {
        std::vector<std::pair<std::size_t, std::size_t>> sample = {
            {0, wl_.chirpIdx}};
        Rng rng(mix64(seed ^ 0xc4ec4));
        while (sample.size() < std::min(kCrossCheckJobs, jobs())) {
            const std::pair<std::size_t, std::size_t> job = {
                rng.below(workloads_), rng.below(wl_.policies.size())};
            if (std::find(sample.begin(), sample.end(), job) ==
                sample.end())
                sample.push_back(job);
        }
        if (expected_.size() != jobs())
            return sample.size(); // no reference for this suite shape
        const std::uint32_t assoc = wl_.config.tlbs.l2.assoc;
        const std::uint32_t sets = wl_.config.tlbs.l2.entries / assoc;
        std::uint64_t mismatches = 0;
        for (const auto &[w, p] : sample) {
            TraceStore store("");
            MemoryTraceSource source(store.get(suite[w]), suite[w].name);
            Simulator sim(wl_.config, wl_.policies[p].factory(sets, assoc));
            const std::uint64_t want = expected_[jobIndex(w, p)];
            if (statsDigest(sim.run(source)) != want) {
                std::fprintf(stderr,
                             "chirpbench: cross-check mismatch on %s x %s\n",
                             suite[w].name.c_str(),
                             wl_.policies[p].tag.c_str());
                ++mismatches;
            }
        }
        return mismatches;
    }

    const std::vector<std::uint64_t> &firstDigests() const
    {
        return firstDigests_;
    }

  private:
    const Workload &wl_;
    std::size_t workloads_;
    bool perturb_;
    bool haveGolden_ = false;
    std::vector<std::uint64_t> expected_;
    std::vector<std::uint64_t> firstDigests_;
};

/** What one set-up produced. */
struct Setup
{
    std::vector<WorkloadConfig> suite;
    std::unique_ptr<Runner> runner;
    std::string cacheDir;
};

/**
 * Enumerate the suite, construct the Runner and, for a warm workload,
 * fill a fresh trace-cache directory @p cache_dir with every trace.
 */
Setup
setUp(const Workload &wl, unsigned jobs, const std::string &cache_dir)
{
    Setup s;
    s.suite = makeSuite(wl.suite);
    s.runner = std::make_unique<Runner>(wl.config, jobs);
    if (!wl.warm)
        return s;
    std::filesystem::remove_all(cache_dir);
    std::filesystem::create_directories(cache_dir);
    s.cacheDir = cache_dir;
    s.runner->setTraceCacheDir(cache_dir);
    TraceStore &store = s.runner->traceStore();
    {
        ThreadPool pool(jobs);
        std::vector<std::future<void>> fills;
        for (const WorkloadConfig &cfg : s.suite)
            fills.push_back(pool.submit([&store, &cfg] {
                store.get(cfg);
                store.drop(cfg);
            }));
        for (auto &fill : fills)
            fill.get();
    }
    return s;
}

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                      usage.ru_stime.tv_usec);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

std::vector<PolicyFactory>
factoriesOf(const Workload &wl, std::vector<std::string> &tags)
{
    std::vector<PolicyFactory> factories;
    for (const PolicySpec &policy : wl.policies) {
        factories.push_back(policy.factory);
        tags.push_back(policy.tag);
    }
    return factories;
}

/** One timed runSuiteMulti call; failures come from the health delta. */
struct Round
{
    SuiteResults results;
    std::vector<JobResult> failures;
    double wall = 0.0;
    double cpu = 0.0;
};

Round
runRound(const Runner &runner, const std::vector<WorkloadConfig> &suite,
         const std::vector<PolicyFactory> &factories,
         const std::vector<std::string> &tags)
{
    Round round;
    const std::size_t failed_before = runner.health()->failureCount();
    const double cpu0 = cpuSeconds();
    const double t0 = nowSeconds();
    round.results = runner.runSuiteMulti(suite, factories, "", {}, tags);
    round.wall = nowSeconds() - t0;
    round.cpu = cpuSeconds() - cpu0;
    const std::vector<JobResult> all = runner.health()->failures();
    round.failures.assign(all.begin() + static_cast<std::ptrdiff_t>(
                                            std::min(failed_before, all.size())),
                          all.end());
    return round;
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const MetricMap &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    bool first = true;
    for (const auto &[name, metric] : metrics) {
        const double value = std::isfinite(metric.value) ? metric.value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", name.c_str(), value,
                    metric.unit.c_str());
        first = false;
    }
    std::printf("}}\n");
}

int
run(int argc, char **argv)
{
    // The benchmark measures the production paths only: any CHIRP_*
    // variable could select a reference path or a fault, so refuse.
    for (char **env = environ; *env; ++env) {
        if (std::strncmp(*env, "CHIRP_", 6) == 0) {
            std::fprintf(stderr,
                         "chirpbench: refusing to run with %s set; "
                         "unset every CHIRP_* variable\n",
                         *env);
            return 2;
        }
    }
    const Args args = parseArgs(argc, argv);
    Workload wl;
    if (!makeWorkload(args.workload, args.seed, args.tiny, wl))
        usage(("unknown workload " + args.workload).c_str());
    // Disk-cache loads map traces zero-copy.  Only loads differ between
    // the mmap and the default columnar format, so the memory-only
    // store of a cold workload runs the same code under either.
    setenv("CHIRP_TRACE_FORMAT", "mmap", 1);

    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const unsigned jobs = std::min(kJobs, hw);
    const std::string fp = fingerprint(args, jobs);
    std::printf("{\"fingerprint\": %s}\n", fp.c_str());
    std::fflush(stdout);
    std::filesystem::create_directories(args.workDir);

    // Set-up, several times; the last one is measured.  A pause before
    // each lets it start from cold caches, as a process's one real
    // set-up does: back-to-back repeats of the microsecond cold set-up
    // timed a cache-warm figure that flipped between two modes from one
    // process to the next.
    const int setups = wl.warm ? 3 : 21;
    std::vector<double> setup_s;
    Setup setup;
    for (int k = 0; k < setups; ++k) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        const std::string dir =
            args.workDir + "/trace-cache-" + std::to_string(k);
        const double t0 = nowSeconds();
        Setup next = setUp(wl, jobs, dir);
        setup_s.push_back(nowSeconds() - t0);
        if (!setup.cacheDir.empty())
            std::filesystem::remove_all(setup.cacheDir);
        setup = std::move(next);
    }

    std::vector<std::string> tags;
    const std::vector<PolicyFactory> factories = factoriesOf(wl, tags);
    Checker checker(wl, setup.suite.size(), args.perturbDigest);
    std::vector<std::uint64_t> golden;
    if (!args.golden.empty() && loadGolden(args.golden, args, golden))
        checker.setExpected(std::move(golden));

    MetricMap metrics;
    std::uint64_t attempted = 0, failed = 0;
    const double job_insts = static_cast<double>(wl.suite.traceLength);
    const double round_minst =
        job_insts * static_cast<double>(checker.jobs()) / 1e6;

    if (args.trace == 0) {
        std::vector<double> rates;
        SuiteResults first;
        const double t_start = nowSeconds();
        while (rates.size() < 3 || nowSeconds() - t_start < args.seconds) {
            Round round = runRound(*setup.runner, setup.suite, factories,
                                   tags);
            rates.push_back(round_minst / round.wall);
            attempted += checker.jobs();
            failed += checker.checkRound(round.results, round.failures);
            if (first.empty())
                first = std::move(round.results);
        }
        failed += checker.crossCheck(setup.suite, args.seed);
        metrics["setup_s"] = {median(setup_s), "s"};
        metrics["sim_minst_per_s"] = {median(rates), "Minst/s"};
        metrics["peak_rss_mb"] = {peakRssMb(), "MB"};
        metrics["chirp_mpki_reduction_pct"] = {
            mpkiReductionPct(first[wl.lruIdx], first[wl.chirpIdx]), "%"};
        metrics["chirp_speedup_pct"] = {
            speedupPct(first[wl.lruIdx], first[wl.chirpIdx], 150), "%"};
        std::fprintf(stderr, "chirpbench: %zu rounds, %.3f..%.3f Minst/s\n",
                     rates.size(),
                     *std::min_element(rates.begin(), rates.end()),
                     *std::max_element(rates.begin(), rates.end()));
    } else {
        // Untraced reference runs: jobs=1 (wall time the spans are
        // compared with, and the trace store's counters) and the
        // configured job count (CPU utilization).
        Runner serial(wl.config, 1);
        serial.setTraceCacheDir(setup.cacheDir);
        const Round one = runRound(serial, setup.suite, factories, tags);
        failed += checker.checkRound(one.results, one.failures);
        const Round many =
            runRound(*setup.runner, setup.suite, factories, tags);
        failed += checker.checkRound(many.results, many.failures);
        attempted += 2 * checker.jobs();

        const TraceStore &store = serial.traceStore();
        const double gets = static_cast<double>(
            store.generated() + store.diskLoads() + store.ingested());
        metrics["trace.generated"] = {
            static_cast<double>(store.generated()), "count"};
        metrics["trace.mapped_loads"] = {
            static_cast<double>(store.mappedLoads()), "count"};
        metrics["trace.rejected_caches"] = {
            static_cast<double>(store.rejectedCaches()), "count"};
        metrics["trace.warm_hit_ratio"] = {
            gets > 0 ? static_cast<double>(store.mappedLoads()) / gets : 0.0,
            "ratio"};
        metrics["sim.runner_cpu_util"] = {
            many.cpu / (many.wall * static_cast<double>(jobs)), "ratio"};

        TracedInputs in;
        in.workload = &wl;
        in.suite = setup.suite;
        in.cacheDir = setup.cacheDir;
        in.workDir = args.workDir;
        in.runnerWallJobs1 = one.wall;
        in.fingerprint = fp;
        const std::string spans = args.spans.empty()
                                      ? args.workDir + "/spans.json"
                                      : args.spans;
        runTraced(in, spans, metrics);
        failed += checker.crossCheck(setup.suite, args.seed);
    }

    if (!args.writeGolden.empty()) {
        std::ofstream out(args.writeGolden, std::ios::app);
        out << args.workload << ' ' << (args.tiny ? "tiny" : "full") << ' '
            << args.seed;
        for (const std::uint64_t d : checker.firstDigests())
            out << ' ' << digestHex(d);
        out << '\n';
    }
    if (!setup.cacheDir.empty())
        std::filesystem::remove_all(setup.cacheDir);
    std::fprintf(stderr, "chirpbench: golden digests %s\n",
                 checker.haveGolden() ? "checked" : "not kept for this seed");
    printResult(failed == 0, attempted, failed, metrics);
    return 0;
}

} // namespace
} // namespace chirpbench

int
main(int argc, char **argv)
{
    return chirpbench::run(argc, argv);
}
