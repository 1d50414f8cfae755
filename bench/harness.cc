#include "bench/harness.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <unistd.h>

#include "trace/ingest/ingest.hh"
#include "util/hashing.hh"
#include "util/logging.hh"
#include "util/quarantine.hh"
#include "util/thread_pool.hh"

namespace chirp::bench
{

namespace
{

unsigned
parseJobs(const char *text)
{
    char *end = nullptr;
    const unsigned long value = std::strtoul(text, &end, 10);
    if (end == text || *end != '\0')
        chirp_fatal("--jobs expects a non-negative integer, got '", text,
                    "'");
    return static_cast<unsigned>(value);
}

std::uint64_t
parseCount(const char *flag, const char *text)
{
    char *end = nullptr;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0')
        chirp_fatal(flag, " expects a non-negative integer, got '",
                    text, "'");
    return value;
}

std::string
benchBasename(const char *argv0)
{
    std::string name = argv0 ? argv0 : "bench";
    const std::size_t slash = name.find_last_of('/');
    if (slash != std::string::npos)
        name.erase(0, slash + 1);
    return name;
}

/** "<argv0 basename>.csv.journal" — the sidecar of the bench's CSV. */
std::string
defaultJournalPath(const char *argv0)
{
    return benchBasename(argv0) + ".csv.journal";
}

std::string
absolutePath(const std::string &path)
{
    if (path.empty() || path[0] == '/')
        return path;
    char cwd[4096];
    if (!::getcwd(cwd, sizeof(cwd)))
        chirp_fatal("getcwd: ", std::strerror(errno));
    return std::string(cwd) + "/" + path;
}

std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char c : text) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Last path component without its extension: "a/b/t.champsim" -> "t". */
std::string
traceWorkloadName(const std::string &path)
{
    std::string name = path;
    const std::size_t slash = name.find_last_of('/');
    if (slash != std::string::npos)
        name.erase(0, slash + 1);
    const std::size_t dot = name.find_last_of('.');
    if (dot != std::string::npos && dot > 0)
        name.erase(dot);
    return name.empty() ? "trace" : name;
}

/**
 * When CHIRP_TRACE_IN names one or more external trace files
 * (comma-separated), replace the synthetic suite with one workload
 * per file.  Paths are absolutized, so the journal identity does not
 * depend on the working directory.  The format choice is validated
 * eagerly so a typo fails the run up front rather than inside the
 * first job.
 */
void
applyExternalSuite(BenchContext &ctx)
{
    const char *env = std::getenv("CHIRP_TRACE_IN");
    if (!env)
        return;
    if (!*env)
        chirp_fatal("CHIRP_TRACE_IN is set but empty; expected one or "
                    "more trace file paths (comma-separated)");
    externalTraceFormatFromEnv(); // validate now, not at first use
    std::vector<std::string> paths;
    const std::string list(env);
    std::size_t start = 0;
    while (start <= list.size()) {
        std::size_t comma = list.find(',', start);
        if (comma == std::string::npos)
            comma = list.size();
        if (comma > start)
            paths.push_back(absolutePath(list.substr(start,
                                                     comma - start)));
        start = comma + 1;
    }
    if (paths.empty())
        chirp_fatal("CHIRP_TRACE_IN contains no paths");
    std::vector<WorkloadConfig> suite;
    for (const std::string &path : paths) {
        WorkloadConfig config;
        config.tracePath = path;
        config.name = traceWorkloadName(path);
        // Distinct names even when two files share a basename.
        for (const WorkloadConfig &prior : suite) {
            if (prior.name == config.name) {
                config.name += '.';
                config.name += std::to_string(suite.size());
                break;
            }
        }
        config.seed = fnv1a(path);
        config.length = 0; // stream content comes from the file
        suite.push_back(std::move(config));
    }
    ctx.suite = std::move(suite);
}

} // namespace

unsigned
jobsFromEnv()
{
    if (const char *env = std::getenv("CHIRP_JOBS"))
        return parseJobs(env);
    return ThreadPool::defaultConcurrency();
}

BenchContext
makeContext(std::size_t default_suite_size, bool mpki_only)
{
    BenchContext ctx;
    ctx.options = suiteOptionsFromEnv(default_suite_size);
    ctx.suite = makeSuite(ctx.options);
    ctx.jobs = jobsFromEnv();
    if (const char *env = std::getenv("CHIRP_TRACE_CACHE"); env && *env)
        ctx.traceCacheDir = env;
    if (mpki_only) {
        ctx.config.simulateCaches = false;
        ctx.config.simulateBranch = false;
    }
    if (const char *env = std::getenv("CHIRP_RETRIES"); env && *env) {
        ctx.resilience.retries = static_cast<unsigned>(
            parseCount("CHIRP_RETRIES", env));
    }
    if (const char *env = std::getenv("CHIRP_JOB_TIMEOUT_MS");
        env && *env) {
        ctx.resilience.jobTimeoutMs =
            parseCount("CHIRP_JOB_TIMEOUT_MS", env);
    }
    applyExternalSuite(ctx);
    return ctx;
}

JournalIdentity
BenchContext::identity() const
{
    JournalIdentity id;
    id.suite = benchName;
    std::uint64_t sh = mix64(0x43484952ull /* "CHIR" */);
    sh = hashCombine(sh, suite.size());
    sh = hashCombine(sh, options.traceLength);
    sh = hashCombine(sh, options.baseSeed);
    sh = hashCombine(sh, static_cast<std::uint64_t>(
                             options.onlyCategory + 1));
    // External suites are defined by their files, not the synthetic
    // knobs above; fold the paths so swapping traces refuses a resume.
    for (const WorkloadConfig &workload : suite) {
        if (!workload.tracePath.empty())
            sh = hashCombine(sh, fnv1a(workload.tracePath));
    }
    id.suiteHash = sh;
    std::uint64_t ch = mix64(0x434647ull /* "CFG" */);
    ch = hashCombine(ch, config.simulateCaches ? 1 : 0);
    ch = hashCombine(ch, config.simulateBranch ? 1 : 0);
    ch = hashCombine(ch, config.tlbs.l2.entries);
    id.configHash = hashCombine(ch, config.tlbs.l2.assoc);
    return id;
}

BenchContext
makeContext(int argc, char **argv, std::size_t default_suite_size,
            bool mpki_only)
{
    BenchContext ctx = makeContext(default_suite_size, mpki_only);
    ctx.benchName = benchBasename(argc > 0 ? argv[0] : nullptr);
    ctx.journalPath = defaultJournalPath(argc > 0 ? argv[0] : nullptr);
    bool no_journal = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--jobs" || arg == "-j") {
            if (i + 1 >= argc)
                chirp_fatal(arg, " needs a value");
            ctx.jobs = parseJobs(argv[++i]);
        } else if (arg.rfind("--jobs=", 0) == 0) {
            ctx.jobs = parseJobs(arg.c_str() + std::strlen("--jobs="));
        } else if (arg == "--trace-cache") {
            if (i + 1 >= argc)
                chirp_fatal(arg, " needs a directory");
            ctx.traceCacheDir = argv[++i];
        } else if (arg.rfind("--trace-cache=", 0) == 0) {
            ctx.traceCacheDir =
                arg.substr(std::strlen("--trace-cache="));
        } else if (arg == "--trace-in" ||
                   arg.rfind("--trace-in=", 0) == 0) {
            std::string value;
            if (arg == "--trace-in") {
                if (i + 1 >= argc)
                    chirp_fatal(arg, " needs a trace file path");
                value = argv[++i];
            } else {
                value = arg.substr(std::strlen("--trace-in="));
            }
            if (value.empty())
                chirp_fatal("--trace-in needs a non-empty path");
            // Accumulate into CHIRP_TRACE_IN (the flag is repeatable);
            // applyExternalSuite rebuilds the suite from it below.
            std::string list;
            if (const char *prior = std::getenv("CHIRP_TRACE_IN");
                prior && *prior) {
                list = prior;
                list += ',';
            }
            list += absolutePath(value);
            ::setenv("CHIRP_TRACE_IN", list.c_str(), 1);
        } else if (arg == "--trace-in-format" ||
                   arg.rfind("--trace-in-format=", 0) == 0) {
            std::string value;
            if (arg == "--trace-in-format") {
                if (i + 1 >= argc)
                    chirp_fatal(arg, " needs a format");
                value = argv[++i];
            } else {
                value = arg.substr(std::strlen("--trace-in-format="));
            }
            ::setenv("CHIRP_TRACE_IN_FORMAT", value.c_str(), 1);
            externalTraceFormatFromEnv(); // validate now
        } else if (arg == "--ingest-bad-budget" ||
                   arg.rfind("--ingest-bad-budget=", 0) == 0) {
            std::string value;
            if (arg == "--ingest-bad-budget") {
                if (i + 1 >= argc)
                    chirp_fatal(arg, " needs a value");
                value = argv[++i];
            } else {
                value = arg.substr(
                    std::strlen("--ingest-bad-budget="));
            }
            parseCount("--ingest-bad-budget", value.c_str());
            ::setenv("CHIRP_INGEST_BAD_BUDGET", value.c_str(), 1);
        } else if (arg == "--retries") {
            if (i + 1 >= argc)
                chirp_fatal(arg, " needs a value");
            ctx.resilience.retries = static_cast<unsigned>(
                parseCount("--retries", argv[++i]));
        } else if (arg.rfind("--retries=", 0) == 0) {
            ctx.resilience.retries = static_cast<unsigned>(parseCount(
                "--retries", arg.c_str() + std::strlen("--retries=")));
        } else if (arg == "--job-timeout") {
            if (i + 1 >= argc)
                chirp_fatal(arg, " needs a value");
            ctx.resilience.jobTimeoutMs =
                parseCount("--job-timeout", argv[++i]);
        } else if (arg.rfind("--job-timeout=", 0) == 0) {
            ctx.resilience.jobTimeoutMs = parseCount(
                "--job-timeout",
                arg.c_str() + std::strlen("--job-timeout="));
        } else if (arg == "--resume") {
            ctx.resume = true;
        } else if (arg == "--journal") {
            if (i + 1 >= argc)
                chirp_fatal(arg, " needs a path");
            ctx.journalPath = argv[++i];
        } else if (arg.rfind("--journal=", 0) == 0) {
            ctx.journalPath = arg.substr(std::strlen("--journal="));
        } else if (arg == "--no-journal") {
            no_journal = true;
        } else if (arg == "--workers") {
            if (i + 1 >= argc)
                chirp_fatal(arg, " needs a value");
            ctx.workers = static_cast<unsigned>(
                parseCount("--workers", argv[++i]));
        } else if (arg.rfind("--workers=", 0) == 0) {
            ctx.workers = static_cast<unsigned>(parseCount(
                "--workers", arg.c_str() + std::strlen("--workers=")));
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: %s [--jobs N] [--trace-cache DIR]\n"
                "       [--trace-in PATH]... "
                "[--trace-in-format auto|champsim|cvp]\n"
                "       [--ingest-bad-budget N]\n"
                "       [--retries N] [--job-timeout MS] [--resume]\n"
                "       [--journal PATH] [--no-journal] [--workers N]\n"
                "  --jobs N, -j N     suite-runner worker threads\n"
                "                     (default: hardware concurrency or\n"
                "                     CHIRP_JOBS; 1 = serial)\n"
                "  --trace-cache DIR  persist materialized traces in DIR\n"
                "                     and map them zero-copy on later\n"
                "                     runs (default: CHIRP_TRACE_CACHE)\n"
                "  --trace-in PATH    replace the synthetic suite with\n"
                "                     external trace files (repeatable;\n"
                "                     or CHIRP_TRACE_IN, comma-\n"
                "                     separated); malformed files fail\n"
                "                     their jobs, never the suite\n"
                "  --trace-in-format F  external container: auto\n"
                "                     (default), champsim or cvp; sets\n"
                "                     CHIRP_TRACE_IN_FORMAT\n"
                "  --ingest-bad-budget N  bad records tolerated per\n"
                "                     ingested file before its job\n"
                "                     fails (default 1024; sets\n"
                "                     CHIRP_INGEST_BAD_BUDGET)\n"
                "  --retries N        extra attempts for jobs failing\n"
                "                     transiently (default 1, or\n"
                "                     CHIRP_RETRIES)\n"
                "  --job-timeout MS   cancel jobs running longer than\n"
                "                     MS and record them as timed out\n"
                "                     (default off, or\n"
                "                     CHIRP_JOB_TIMEOUT_MS)\n"
                "  --resume           skip jobs already completed in the\n"
                "                     journal of an interrupted run\n"
                "  --journal PATH     journal location (default:\n"
                "                     <binary>.csv.journal)\n"
                "  --no-journal       disable job journaling\n"
                "  --workers N        fork up to N worker processes per\n"
                "                     suite run, one per shard of its\n"
                "                     workloads; a worker that dies only\n"
                "                     re-runs its unfinished workloads\n"
                "                     in-process (CSVs stay byte-\n"
                "                     identical to a serial run)\n"
                "Suite fidelity scales via CHIRP_SUITE_SIZE,\n"
                "CHIRP_TRACE_LEN and CHIRP_SEED; CHIRP_FAULT injects\n"
                "deterministic faults for resilience testing.\n",
                argv[0]);
            std::exit(0);
        } else {
            chirp_fatal("unknown argument '", arg, "' (try --help)");
        }
    }
    if (no_journal)
        ctx.journalPath.clear();
    if (ctx.resume && ctx.journalPath.empty())
        chirp_fatal("--resume needs a journal (drop --no-journal)");
    // --trace-in may have extended CHIRP_TRACE_IN above.
    applyExternalSuite(ctx);
    return ctx;
}

int
finish(const BenchContext &ctx)
{
    const SuiteHealth &health = *ctx.health;
    if (health.resumedJobs() || health.retriedJobs() ||
        health.hungJobs() || health.timedOutJobs()) {
        chirp_inform("jobs: ", health.okJobs(), "/", health.totalJobs(),
                     " ok (", health.resumedJobs(), " resumed, ",
                     health.retriedJobs(), " retried, ",
                     health.hungJobs(), " hung, ",
                     health.timedOutJobs(), " timed out)");
    }
    if (health.lostWorkers() || health.rerunWorkloads()) {
        chirp_inform("workers: ", health.lostWorkers(), " lost, ",
                     health.rerunWorkloads(),
                     " workloads re-run in-process");
    }
    // Satellite hygiene: one line accounting for every artifact the
    // run quarantined (.corrupt caches, .stale journals), so nothing
    // is moved aside silently.
    const std::string quarantined = quarantineSummaryLine();
    if (!quarantined.empty())
        chirp_inform(quarantined);
    const std::size_t failed = health.failureCount();
    if (failed == 0)
        return 0;
    chirp_warn(failed, " of ", health.totalJobs(),
               " jobs failed; results are incomplete",
               ctx.journal ? " (rerun with --resume to retry only "
                             "the failed jobs)"
                           : "");
    return 1;
}

void
printBanner(const std::string &title, const BenchContext &ctx)
{
    std::printf("== %s ==\n", title.c_str());
    if (!ctx.suite.empty() && !ctx.suite.front().tracePath.empty()) {
        std::printf("suite: %zu external trace file(s) (%s); "
                    "L2 TLB %u entries, %u-way; %u jobs\n\n",
                    ctx.suite.size(),
                    externalTraceFormatName(
                        externalTraceFormatFromEnv()),
                    ctx.config.tlbs.l2.entries,
                    ctx.config.tlbs.l2.assoc,
                    ctx.jobs ? ctx.jobs
                             : ThreadPool::defaultConcurrency());
        return;
    }
    std::printf("suite: %zu workloads x %llu instructions (seed %llu); "
                "L2 TLB %u entries, %u-way; %u jobs\n\n",
                ctx.suite.size(),
                static_cast<unsigned long long>(ctx.options.traceLength),
                static_cast<unsigned long long>(ctx.options.baseSeed),
                ctx.config.tlbs.l2.entries, ctx.config.tlbs.l2.assoc,
                ctx.jobs ? ctx.jobs : ThreadPool::defaultConcurrency());
}

std::map<PolicyKind, std::vector<WorkloadResult>>
runAllPolicies(const BenchContext &ctx)
{
    std::map<PolicyKind, std::vector<WorkloadResult>> results;
    const Runner runner = ctx.runner();
    std::vector<PolicyFactory> factories;
    std::vector<std::string> tags;
    for (const PolicyKind kind : allPolicyKinds()) {
        factories.push_back(Runner::factoryFor(kind));
        tags.push_back(policyKindName(kind));
    }
    auto all = runner.runSuiteMulti(ctx.suite, factories, "policies",
                                    {}, tags);
    std::size_t i = 0;
    for (const PolicyKind kind : allPolicyKinds())
        results[kind] = std::move(all[i++]);
    return results;
}

std::string
paperCell(double value)
{
    return TableFormatter::num(value, 2);
}

} // namespace chirp::bench
