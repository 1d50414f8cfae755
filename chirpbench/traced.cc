/**
 * @file
 * The traced per-layer run.  Spans are recorded from the benchmark's
 * own code around the public calls of each layer (the program itself
 * carries no span code), kept in memory, and written out as JSON when
 * the run ends.
 *
 * For every suite workload, at jobs=1, a "job" span covers the
 * public-call equivalent of one runSuiteMulti workload job — trace
 * acquire, LRU recorder, policy-parallel replay.  Separate "probe"
 * spans time each layer alone on the same inputs, for an evenly spaced
 * sample of at most kProbeWorkloads workloads, which bounds the traced
 * run's length on the large suites.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench.hh"
#include "sim/simulator.hh"
#include "trace/trace_store.hh"

namespace chirpbench
{

using namespace chirp;

namespace
{

/** Most workloads the layer probes run on. */
constexpr std::size_t kProbeWorkloads = 64;

/** One timed interval; parent is an index into the log or -1. */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    int workload = -1;
};

/** In-memory span log. */
class SpanLog
{
  public:
    int
    open(std::string name, int parent, int workload)
    {
        spans_.push_back({std::move(name), nowSeconds(), 0.0, parent,
                          workload});
        return static_cast<int>(spans_.size() - 1);
    }

    /** Close span @p id and return its duration in seconds. */
    double
    close(int id)
    {
        Span &span = spans_[static_cast<std::size_t>(id)];
        span.end = nowSeconds();
        return span.end - span.start;
    }

    /** Time @p fn as a span; returns the duration in seconds. */
    template <typename Fn>
    double
    time(std::string name, int parent, int workload, Fn &&fn)
    {
        const int id = open(std::move(name), parent, workload);
        fn();
        return close(id);
    }

    /**
     * Span durations per name: total, and self time (duration minus
     * the part of the interval covered by direct children; children
     * of one span never overlap, the run being single-threaded).
     */
    void
    summarize(std::map<std::string, std::pair<double, double>> &out,
              std::map<std::string, std::size_t> &counts) const
    {
        std::vector<double> child(spans_.size(), 0.0);
        for (const Span &span : spans_) {
            if (span.parent >= 0)
                child[static_cast<std::size_t>(span.parent)] +=
                    span.end - span.start;
        }
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const double total = spans_[i].end - spans_[i].start;
            auto &slot = out[spans_[i].name];
            slot.first += total;
            slot.second += total - child[i];
            ++counts[spans_[i].name];
        }
    }

    void
    write(const std::string &path, const std::string &header) const
    {
        std::ofstream os(path);
        if (!os) {
            std::fprintf(stderr, "chirpbench: cannot write %s\n",
                         path.c_str());
            return;
        }
        const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
        os.precision(12);
        os << "{" << header << ",\n\"summary\": {";
        std::map<std::string, std::pair<double, double>> sums;
        std::map<std::string, std::size_t> counts;
        summarize(sums, counts);
        bool first = true;
        for (const auto &[name, sum] : sums) {
            os << (first ? "\n" : ",\n") << "  \"" << name
               << "\": {\"count\": " << counts[name]
               << ", \"total_s\": " << sum.first
               << ", \"self_s\": " << sum.second << "}";
            std::fprintf(stderr,
                         "chirpbench: span %-26s n=%-5zu total %9.4f s  "
                         "self %9.4f s\n",
                         name.c_str(), counts[name], sum.first, sum.second);
            first = false;
        }
        os << "},\n\"spans\": [";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &span = spans_[i];
            os << (i ? ",\n" : "\n") << "  {\"id\": " << i
               << ", \"name\": \"" << span.name << "\", \"start_s\": "
               << span.start - t0 << ", \"end_s\": " << span.end - t0
               << ", \"parent\": " << span.parent
               << ", \"workload\": " << span.workload << "}";
        }
        os << "\n]}\n";
    }

  private:
    std::vector<Span> spans_;
};

/** Per-policy replay totals of the core probe. */
struct CoreTotals
{
    double seconds = 0.0;
    std::uint64_t events = 0;
    std::uint64_t tableAccesses = 0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t l2Hits = 0;
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** The recorded L2 events as the columns Tlb::accessBatch takes. */
struct L2Columns
{
    explicit L2Columns(const std::vector<L2Event> &events)
        : n(events.size()), vaddrs(n), keys(n), nows(n), shifts(n),
          hits(n), infos(n)
    {
        for (std::size_t i = 0; i < n; ++i) {
            vaddrs[i] = events[i].vaddr;
            shifts[i] = events[i].pageShift;
            nows[i] = events[i].now;
            infos[i].pc = events[i].pc;
            infos[i].vaddr = events[i].vaddr;
            infos[i].cls = events[i].cls;
            infos[i].isInstr = events[i].isInstr != 0;
        }
    }

    /** Tlb::keysOf plus accessBatch, chunk by chunk, on @p tlb. */
    void
    replay(Tlb &tlb)
    {
        for (std::size_t off = 0; off < n; off += kReplayBatch) {
            const std::size_t len = std::min(kReplayBatch, n - off);
            Tlb::keysOf(vaddrs.data() + off, shifts.data() + off, len, 0,
                        keys.data() + off);
            tlb.accessBatch(infos.data() + off, keys.data() + off,
                            nows.data() + off, len, 0, hits.data() + off);
        }
    }

    std::size_t n;
    std::vector<Addr> vaddrs, keys;
    std::vector<std::uint64_t> nows;
    std::vector<std::uint8_t> shifts, hits;
    std::vector<AccessInfo> infos;
};

} // namespace

void
runTraced(const TracedInputs &in, const std::string &span_path,
          MetricMap &out)
{
    const Workload &wl = *in.workload;
    const SimConfig &config = wl.config;
    const std::uint32_t assoc = config.tlbs.l2.assoc;
    const std::uint32_t sets = config.tlbs.l2.entries / assoc;

    // Throwaway cache for the warm-get probe of a cold workload.
    std::string probe_cache = in.cacheDir;
    if (probe_cache.empty()) {
        probe_cache = in.workDir + "/traced-cache";
        std::filesystem::create_directories(probe_cache);
    }

    const std::vector<PolicySpec> variants = chirpVariants();
    const std::size_t probe_stride =
        (in.suite.size() + kProbeWorkloads - 1) / kProbeWorkloads;
    SpanLog log;
    double path_get = 0.0, path_record = 0.0, path_replay = 0.0;
    double probed_record = 0.0, mem_s = 0.0, branch_s = 0.0, tlb_s = 0.0;
    std::uint64_t insts = 0, events_total = 0, tlb_accesses = 0;
    std::uint64_t l1i_acc = 0, l1i_miss = 0, l1d_acc = 0, l1d_miss = 0;
    std::uint64_t mem_accesses = 0, branches = 0, mispredicts = 0;
    std::uint64_t l1d_hits = 0, l1d_misses = 0, l2_hits = 0,
                  l2_misses = 0, l3_hits = 0, l3_misses = 0;
    std::vector<double> cold_ms, warm_ms, variant_ns;
    std::map<PolicyKind, CoreTotals> core;

    for (std::size_t wi = 0; wi < in.suite.size(); ++wi) {
        const WorkloadConfig &cfg = in.suite[wi];
        const int w = static_cast<int>(wi);

        // --- The public-call path of one runSuiteMulti job. ---
        const int job = log.open("job", -1, w);
        SharedTrace trace;
        path_get += log.time("trace.get", job, w, [&] {
            TraceStore store(in.cacheDir);
            trace = store.get(cfg);
        });
        std::vector<L2Event> events;
        SimStats base;
        const double record_s = log.time("sim.record", job, w, [&] {
            Simulator recorder(config,
                               makePolicy(PolicyKind::Lru, sets, assoc));
            recorder.tlbs().setL2EventSink(&events);
            MemoryTraceSource source(trace, cfg.name);
            base = recorder.run(source);
        });
        path_replay += log.time("sim.replay", job, w, [&] {
            std::vector<std::unique_ptr<Simulator>> sims;
            std::vector<Simulator *> raw;
            for (const PolicySpec &policy : wl.policies) {
                sims.push_back(std::make_unique<Simulator>(
                    config, policy.factory(sets, assoc)));
                raw.push_back(sims.back().get());
            }
            Simulator::replayL2Multi(raw, *trace, events, base);
        });
        log.close(job);
        path_record += record_s;
        insts += trace->size();
        events_total += events.size();
        l1i_acc += base.l1iTlbAccesses;
        l1i_miss += base.l1iTlbMisses;
        l1d_acc += base.l1dTlbAccesses;
        l1d_miss += base.l1dTlbMisses;
        if (wi % probe_stride != 0)
            continue;
        probed_record += record_s;

        // --- trace: cold generate and warm mmap+verify, alone. ---
        cold_ms.push_back(1e3 * log.time("probe.trace.get_cold", -1, w,
                                         [&] {
                                             TraceStore store("");
                                             store.get(cfg);
                                         }));
        if (in.cacheDir.empty()) {
            log.time("probe.trace.fill", -1, w, [&] {
                TraceStore store(probe_cache);
                store.get(cfg);
            });
        }
        for (int rep = 0; rep < 3; ++rep) {
            warm_ms.push_back(1e3 * log.time("probe.trace.get_warm", -1,
                                             w, [&] {
                                                 TraceStore store(
                                                     probe_cache);
                                                 store.get(cfg);
                                             }));
        }
        if (in.cacheDir.empty()) // keep one scratch file on disk at most
            std::filesystem::remove(TraceStore(probe_cache).cachePath(cfg));

        // --- core: each paper policy and each CHiRP variant replayed
        // alone over this workload's recorded events. ---
        for (const PolicyKind kind : allPolicyKinds()) {
            Simulator sim(config, makePolicy(kind, sets, assoc));
            SimStats stats;
            CoreTotals &totals = core[kind];
            totals.seconds += log.time(
                std::string("probe.core.") + policyKindName(kind), -1, w,
                [&] { stats = sim.replayL2(*trace, events, base); });
            totals.events += events.size();
            totals.tableAccesses += stats.tableReads + stats.tableWrites;
            totals.l2Accesses += stats.l2TlbAccesses;
            totals.l2Hits += stats.l2TlbHits;
        }
        for (const PolicySpec &variant : variants) {
            Simulator sim(config, variant.factory(sets, assoc));
            const double s =
                log.time("probe.core.chirp_variant", -1, w,
                         [&] { sim.replayL2(*trace, events, base); });
            variant_ns.push_back(
                1e9 * ratio(s, static_cast<double>(events.size())));
        }

        // --- tlb: a fresh LRU L2 over the recorded events. ---
        L2Columns columns(events);
        Tlb l2(config.tlbs.l2, makePolicy(PolicyKind::Lru, sets, assoc));
        tlb_s += log.time("probe.tlb.l2_lru", -1, w,
                          [&] { columns.replay(l2); });
        tlb_accesses += events.size();

        // --- mem and branch over this workload's records. ---
        const Addr *pcs = trace->pc();
        const Addr *effs = trace->effAddr();
        const std::size_t n = trace->size();
        CacheHierarchy caches(config.caches);
        mem_s += log.time("probe.mem", -1, w, [&] {
            for (std::size_t i = 0; i < n; ++i) {
                const InstClass cls = trace->cls(i);
                caches.accessInstr(pcs[i]);
                if (isMemory(cls))
                    caches.accessData(effs[i], cls == InstClass::Store);
            }
        });
        for (std::size_t i = 0; i < n; ++i)
            mem_accesses += isMemory(trace->cls(i)) ? 2 : 1;
        l1d_hits += caches.l1d().hits();
        l1d_misses += caches.l1d().misses();
        l2_hits += caches.l2().hits();
        l2_misses += caches.l2().misses();
        l3_hits += caches.l3().hits();
        l3_misses += caches.l3().misses();

        BranchUnit unit(config.branch);
        branch_s += log.time("probe.branch", -1, w, [&] {
            for (std::size_t i = 0; i < n; ++i) {
                if (isBranch(trace->cls(i)))
                    unit.onBranch(trace->record(i));
            }
        });
        branches += unit.branches();
        mispredicts += unit.mispredicts();
    }
    if (in.cacheDir.empty())
        std::filesystem::remove_all(probe_cache);

    const auto put = [&](const std::string &name, double value,
                         const char *unit) { out[name] = {value, unit}; };
    const double path = path_get + path_record + path_replay;
    const auto p = static_cast<double>(wl.policies.size());
    const auto ev = static_cast<double>(events_total);

    put("trace.get_cold_ms.p50", median(cold_ms), "ms");
    put("trace.get_cold_ms.ptail", tailValue(cold_ms), "ms");
    put("trace.get_warm_ms.p50", median(warm_ms), "ms");
    put("trace.get_warm_ms.ptail", tailValue(warm_ms), "ms");
    put("trace.get_share", ratio(path_get, path), "ratio");

    put("sim.record_ns_per_inst",
        1e9 * ratio(path_record, static_cast<double>(insts)), "ns");
    put("sim.l2_events_per_kinst",
        1e3 * ratio(ev, static_cast<double>(insts)), "1/kinst");
    put("sim.replay_ns_per_event_policy",
        1e9 * ratio(path_replay, ev * p), "ns");
    put("sim.record_share", ratio(path_record, path), "ratio");
    put("sim.replay_share", ratio(path_replay, path), "ratio");
    put("sim.runner_self_s", in.runnerWallJobs1 - path, "s");
    put("sim.trace_coverage", ratio(path, in.runnerWallJobs1), "ratio");

    for (const auto &[kind, totals] : core) {
        const std::string prefix =
            std::string("core.") + policyKindName(kind) + ".";
        put(prefix + "replay_ns_per_event",
            1e9 * ratio(totals.seconds, static_cast<double>(totals.events)),
            "ns");
        put(prefix + "table_accesses_per_l2",
            ratio(static_cast<double>(totals.tableAccesses),
                  static_cast<double>(totals.l2Accesses)),
            "ratio");
        put(prefix + "l2_hit_ratio",
            ratio(static_cast<double>(totals.l2Hits),
                  static_cast<double>(totals.l2Accesses)),
            "ratio");
    }
    put("core.chirp_variants.replay_ns_per_event.p50", median(variant_ns),
        "ns");
    put("core.chirp_variants.replay_ns_per_event.ptail",
        tailValue(variant_ns), "ns");

    put("tlb.l2_lru_ns_per_access",
        1e9 * ratio(tlb_s, static_cast<double>(tlb_accesses)), "ns");
    put("tlb.l1i_miss_ratio",
        ratio(static_cast<double>(l1i_miss), static_cast<double>(l1i_acc)),
        "ratio");
    put("tlb.l1d_miss_ratio",
        ratio(static_cast<double>(l1d_miss), static_cast<double>(l1d_acc)),
        "ratio");

    put("mem.ns_per_access",
        1e9 * ratio(mem_s, static_cast<double>(mem_accesses)), "ns");
    put("mem.l1d_miss_ratio",
        ratio(static_cast<double>(l1d_misses),
              static_cast<double>(l1d_hits + l1d_misses)),
        "ratio");
    put("mem.l2_miss_ratio",
        ratio(static_cast<double>(l2_misses),
              static_cast<double>(l2_hits + l2_misses)),
        "ratio");
    put("mem.l3_miss_ratio",
        ratio(static_cast<double>(l3_misses),
              static_cast<double>(l3_hits + l3_misses)),
        "ratio");
    // Share of the recorder span the layer accounts for; 0 where the
    // workload's model does not run the layer at all.
    put("mem.record_share",
        config.simulateCaches ? ratio(mem_s, probed_record) : 0.0,
        "ratio");
    put("branch.ns_per_branch",
        1e9 * ratio(branch_s, static_cast<double>(branches)), "ns");
    put("branch.mispredict_ratio",
        ratio(static_cast<double>(mispredicts),
              static_cast<double>(branches)),
        "ratio");
    put("branch.record_share",
        config.simulateBranch ? ratio(branch_s, probed_record) : 0.0,
        "ratio");

    std::fprintf(stderr,
                 "chirpbench: public-call path %.3f s vs runSuiteMulti "
                 "jobs=1 %.3f s (runner self %.3f s; negative means the "
                 "runner's internal path is faster)\n",
                 path, in.runnerWallJobs1, in.runnerWallJobs1 - path);

    std::ostringstream header;
    header << "\"fingerprint\": " << in.fingerprint
           << ",\n\"workload\": \"" << wl.name << "\""
           << ",\n\"runner_wall_jobs1_s\": " << in.runnerWallJobs1
           << ",\n\"public_path_s\": " << path
           << ",\n\"samples\": {\"trace.get_cold_ms\": " << cold_ms.size()
           << ", \"trace.get_warm_ms\": " << warm_ms.size()
           << ", \"core.chirp_variants\": " << variant_ns.size()
           << "},\n\"ptail_percentile\": {\"trace.get_cold_ms\": "
           << tailPercentile(cold_ms.size())
           << ", \"trace.get_warm_ms\": " << tailPercentile(warm_ms.size())
           << ", \"core.chirp_variants\": "
           << tailPercentile(variant_ns.size()) << "}";
    log.write(span_path, header.str());
}

} // namespace chirpbench
