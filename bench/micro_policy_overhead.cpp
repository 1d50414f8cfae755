/**
 * @file
 * Microbenchmark (google-benchmark): simulation cost per L2 TLB
 * access for each replacement policy, plus the cost of CHiRP's
 * history updates.
 *
 * This backs the §VI-B/§VI-E discussion: CHiRP's selective updates
 * keep its per-access work (and hence the modeled energy) close to
 * LRU's, unlike per-access predictors.  Absolute numbers are host
 * timings of the simulator, not hardware latencies.
 *
 * Besides the usual console table, writes BENCH_policy_overhead.json
 * (ns/access per policy, stable schema) so CI can archive the perf
 * trajectory of the policy hot paths and soft-gate regressions
 * against the committed baseline.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/chirp.hh"
#include "core/ghrp.hh"
#include "core/policy_factory.hh"
#include "tlb/tlb.hh"
#include "util/atomic_file.hh"
#include "util/random.hh"
#include "util/simd.hh"

namespace chirp
{
namespace
{

/** Accesses driven per benchmark iteration (one replay chunk). */
constexpr std::size_t kChunk = 256;

/** The pre-generated mixed hit/miss stream every series replays. */
struct BenchStream
{
    std::vector<AccessInfo> infos;
    std::vector<Addr> vaddrs;
    std::vector<std::uint8_t> shifts;
    std::vector<Addr> keys;

    BenchStream()
    {
        Rng rng(42);
        // 70% from a hot set (hits), 30% cold.
        for (int i = 0; i < 4096; ++i) {
            AccessInfo info;
            info.pc = 0x400000 + 4 * rng.below(256);
            info.cls = InstClass::Load;
            info.vaddr = rng.chance(0.7)
                             ? rng.below(512) * kPageSize
                             : (1000 + rng.below(1u << 20)) * kPageSize;
            infos.push_back(info);
            vaddrs.push_back(info.vaddr);
            shifts.push_back(kPageShift);
        }
        keys.resize(infos.size());
        Tlb::keysOf(vaddrs.data(), shifts.data(), infos.size(), 0,
                    keys.data());
    }
};

/**
 * Drive a policy-backed TLB with the mixed stream through the batched
 * translate pipeline — vectorized key precompute plus one
 * accessBatch() per chunk, exactly what the simulator's chunk runner
 * issues per 256 records — so the series tracks the cost the suite
 * actually pays per access.  Each benchmark iteration replays one
 * chunk; the reported ns/iteration is divided by kChunk in the JSON.
 */
void
runAccessStream(benchmark::State &state, PolicyKind kind)
{
    TlbConfig config;
    config.entries = 1024;
    config.assoc = 8;
    Tlb tlb(config, makePolicy(kind, 128, 8));
    BenchStream stream;

    // Retire events are delivered the way TlbHierarchy delivers them
    // in full runs: through a typed pointer when the policy is exactly
    // CHiRP or GHRP (the hooks inline), skipped for retire-blind
    // policies, virtual only for the generic remainder.
    ReplacementPolicy &pol = tlb.policy();
    auto *chirp_pol = dynamic_cast<ChirpPolicy *>(&pol);
    auto *ghrp_pol = dynamic_cast<GhrpPolicy *>(&pol);
    const bool wants_retire = pol.wantsRetireEvents();

    std::uint64_t nows[kChunk];
    std::uint8_t hits[kChunk];
    Addr keys[kChunk];
    std::uint64_t now = 0;
    std::size_t pos = 0;
    for (auto _ : state) {
        // The key precompute is part of the per-chunk pipeline cost.
        Tlb::keysOf(stream.vaddrs.data() + pos,
                    stream.shifts.data() + pos, kChunk, 0, keys);
        for (std::size_t i = 0; i < kChunk; ++i)
            nows[i] = now + i;
        tlb.accessBatch(stream.infos.data() + pos, keys, nows, kChunk,
                        0, hits);
        benchmark::DoNotOptimize(hits[0]);
        // Branch/instruction events at a realistic ratio.
        for (std::size_t i = 0; i < kChunk; ++i) {
            const AccessInfo &info = stream.infos[pos + i];
            if (chirp_pol)
                chirp_pol->onInstRetired(info.pc, InstClass::Load);
            else if (!ghrp_pol && wants_retire)
                pol.onInstRetired(info.pc, InstClass::Load);
            if (((now + i) & 7) == 7) {
                const Addr bpc = info.pc + 60;
                const bool taken = ((now + i) & 8) != 0;
                if (chirp_pol)
                    chirp_pol->onBranchRetired(
                        bpc, InstClass::CondBranch, taken);
                else if (ghrp_pol)
                    ghrp_pol->onBranchRetired(
                        bpc, InstClass::CondBranch, taken);
                else if (wants_retire)
                    pol.onBranchRetired(bpc, InstClass::CondBranch,
                                        taken);
            }
        }
        now += kChunk;
        pos = (pos + kChunk) & 4095;
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * kChunk);
}

/**
 * The framework floor: vectorized key precompute plus a probe-only
 * set scan per access — no policy hooks, no fills, no statistics.
 * This is what translate costs with the policy study removed, the
 * floor every policy series above sits on; its own soft gate keeps
 * the batched pipeline itself from regressing unnoticed.
 */
void
BM_TranslateOnly(benchmark::State &state)
{
    TlbConfig config;
    config.entries = 1024;
    config.assoc = 8;
    Tlb tlb(config, makePolicy(PolicyKind::Lru, 128, 8));
    BenchStream stream;
    // Prefill so probes see the steady-state hit/miss mix.
    {
        std::uint64_t nows[kChunk];
        std::uint8_t hits[kChunk];
        for (std::size_t pos = 0; pos < stream.infos.size();
             pos += kChunk) {
            for (std::size_t i = 0; i < kChunk; ++i)
                nows[i] = pos + i;
            tlb.accessBatch(stream.infos.data() + pos,
                            stream.keys.data() + pos, nows, kChunk, 0,
                            hits);
        }
    }
    Addr keys[kChunk];
    std::size_t pos = 0;
    std::uint64_t found = 0;
    for (auto _ : state) {
        Tlb::keysOf(stream.vaddrs.data() + pos,
                    stream.shifts.data() + pos, kChunk, 0, keys);
        for (std::size_t i = 0; i < kChunk; ++i)
            found += tlb.probe(stream.vaddrs[pos + i], 0) ? 1 : 0;
        benchmark::DoNotOptimize(found);
        pos = (pos + kChunk) & 4095;
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * kChunk);
}
BENCHMARK(BM_TranslateOnly);

void BM_Lru(benchmark::State &s) { runAccessStream(s, PolicyKind::Lru); }
void BM_Random(benchmark::State &s)
{
    runAccessStream(s, PolicyKind::Random);
}
void BM_Srrip(benchmark::State &s)
{
    runAccessStream(s, PolicyKind::Srrip);
}
void BM_Ship(benchmark::State &s) { runAccessStream(s, PolicyKind::Ship); }
void BM_Ghrp(benchmark::State &s) { runAccessStream(s, PolicyKind::Ghrp); }
void BM_Chirp(benchmark::State &s)
{
    runAccessStream(s, PolicyKind::Chirp);
}

BENCHMARK(BM_Lru);
BENCHMARK(BM_Random);
BENCHMARK(BM_Srrip);
BENCHMARK(BM_Ship);
BENCHMARK(BM_Ghrp);
BENCHMARK(BM_Chirp);

/** Cost of one CHiRP history update (the per-retire hardware path). */
void
BM_ChirpHistoryUpdate(benchmark::State &state)
{
    auto policy = makeChirp(128, 8, ChirpConfig{});
    Addr pc = 0x400000;
    for (auto _ : state) {
        policy->onInstRetired(pc, InstClass::Load);
        pc += 4;
        benchmark::DoNotOptimize(policy);
    }
}
BENCHMARK(BM_ChirpHistoryUpdate);

/** Cost of composing one CHiRP signature. */
void
BM_ChirpSignature(benchmark::State &state)
{
    auto policy = makeChirp(128, 8, ChirpConfig{});
    Addr pc = 0x400000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(policy->currentSignature(pc));
        pc += 4;
    }
}
BENCHMARK(BM_ChirpSignature);

/**
 * Console reporting as usual, plus capture of each benchmark's
 * per-iteration real time for the JSON summary.
 */
class CapturingReporter : public benchmark::ConsoleReporter
{
  public:
    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs) {
            if (!run.error_occurred)
                captured_.emplace_back(run.benchmark_name(),
                                       run.GetAdjustedRealTime());
        }
        ConsoleReporter::ReportRuns(runs);
    }

    /** (benchmark name, ns per iteration) in run order. */
    const std::vector<std::pair<std::string, double>> &
    captured() const
    {
        return captured_;
    }

  private:
    std::vector<std::pair<std::string, double>> captured_;
};

/**
 * Write the stable-schema summary: one "policies" key per benchmark,
 * value ns/access (ns/update for the two CHiRP component benches).
 */
void
writeJson(const CapturingReporter &reporter, const char *path)
{
    // Stable JSON keys for the benchmark functions above, with the
    // accesses driven per benchmark iteration (the chunked series
    // replay kChunk accesses per iteration; the captured ns is per
    // iteration, so the JSON divides it back to ns/access).
    struct NameMap
    {
        const char *bench;
        const char *key;
        double itemsPerIter;
    };
    static const NameMap kNames[] = {
        {"BM_TranslateOnly", "translate_only",
         static_cast<double>(kChunk)},
        {"BM_Lru", "lru", static_cast<double>(kChunk)},
        {"BM_Random", "random", static_cast<double>(kChunk)},
        {"BM_Srrip", "srrip", static_cast<double>(kChunk)},
        {"BM_Ship", "ship", static_cast<double>(kChunk)},
        {"BM_Ghrp", "ghrp", static_cast<double>(kChunk)},
        {"BM_Chirp", "chirp", static_cast<double>(kChunk)},
        {"BM_ChirpHistoryUpdate", "chirp_history_update", 1.0},
        {"BM_ChirpSignature", "chirp_signature", 1.0},
    };
    std::string json = "{\n"
                       "  \"bench\": \"micro_policy_overhead\",\n"
                       "  \"unit\": \"ns_per_access\",\n"
                       "  \"note\": \"simd_backend=";
    json += simd::backendName(simd::activeBackend());
    json += "\",\n"
            "  \"policies\": {\n";
    bool first = true;
    for (const auto &entry : kNames) {
        for (const auto &[name, ns] : reporter.captured()) {
            if (name != entry.bench)
                continue;
            char line[128];
            std::snprintf(line, sizeof(line), "%s    \"%s\": %.2f",
                          first ? "" : ",\n", entry.key,
                          ns / entry.itemsPerIter);
            json += line;
            first = false;
            break;
        }
    }
    json += "\n  }\n}\n";
    std::string error;
    if (!atomicWriteFile(path, json, &error)) {
        std::fprintf(stderr, "cannot write '%s': %s\n", path,
                     error.c_str());
        return;
    }
    std::printf("JSON written to %s\n", path);
}

} // namespace
} // namespace chirp

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    chirp::CapturingReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    chirp::writeJson(reporter, "BENCH_policy_overhead.json");
    return 0;
}
