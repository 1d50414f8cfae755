/**
 * @file
 * Every production engine against the test-side oracle (ReferenceSim,
 * one record at a time through virtual policy hooks): Simulator::run
 * over a memory-backed and a generator source, Simulator::replayL2
 * over a recorded L2 event stream, and Runner::runSuiteMulti at one
 * and four jobs must each reproduce the oracle's statistics field for
 * field, l2Efficiency bit-identical.  The policy set is every
 * PolicyKind, Fig 2's and the parameter sweep's CHiRP history
 * variants, Fig 9's table sizes, the plru and drrip extension policies
 * and a Generic-dispatch policy; the workloads are synthetic
 * suite members and ingested CVP and ChampSim fixtures; the warmup is
 * either zero or a boundary off the 256-record chunk grid.
 * Simulator::run is also checked with mixed 4KB/2MB pages.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "core/policy_factory.hh"
#include "sim/runner.hh"
#include "sim/simulator.hh"
#include "support/expect_stats.hh"
#include "support/generic_policy.hh"
#include "support/reference_sim.hh"
#include "trace/ingest/ingest.hh"
#include "trace/synthetic/program.hh"
#include "util/random.hh"

namespace chirp
{
namespace
{

struct NamedPolicy
{
    std::string name;
    PolicyFactory make;
};

/**
 * Every policy kind, the CHiRP history and table-size variants, the
 * named extension policies, one Generic policy.
 */
std::vector<NamedPolicy>
oraclePolicies()
{
    std::vector<NamedPolicy> policies;
    for (const PolicyKind kind : allPolicyKinds())
        policies.push_back({policyKindName(kind), Runner::factoryFor(kind)});
    const auto add_chirp = [&](std::string name, const ChirpConfig &config) {
        policies.push_back(
            {"chirp:" + name, [config](std::uint32_t sets,
                                       std::uint32_t assoc) {
                 return std::unique_ptr<ReplacementPolicy>(
                     makeChirp(sets, assoc, config));
             }});
    };
    // Fig 2: path length with and without the branch histories.
    for (const unsigned length : {4u, 8u, 12u, 16u, 24u, 32u, 40u}) {
        for (const bool branch : {false, true}) {
            ChirpConfig config;
            config.history.pathEvents = length;
            config.history.useCondHist = branch;
            config.history.useUncondHist = branch;
            add_chirp("len" + std::to_string(length) +
                          (branch ? "+br" : ""),
                      config);
        }
    }
    // The parameter sweep's history and hashing variants.
    ChirpConfig config;
    config.history.pathPcBits = 4;
    add_chirp("pcbits=4", config);
    config = {};
    config.history.pathPcLowBit = 0;
    add_chirp("pc-lowbit=0", config);
    config = {};
    config.history.pathFilter = PathFilter::All;
    add_chirp("path=all-insts", config);
    config = {};
    config.history.pathFilter = PathFilter::Branch;
    add_chirp("path=branches", config);
    config = {};
    config.history.pathFilter = PathFilter::Memory;
    config.history.pathZeroBits = 0;
    add_chirp("path=memory", config);
    config = {};
    config.hash = HashKind::Fold;
    add_chirp("hash=fold", config);
    config = {};
    config.hash = HashKind::Crc;
    add_chirp("hash=crc", config);
    // Fig 9: the prediction-table budget, 128B..8KB of 2-bit counters.
    for (const std::size_t bytes : {128u, 256u, 512u, 1024u, 2048u,
                                    4096u, 8192u}) {
        config = {};
        config.tableEntries = bytes * 8 / config.counterBits;
        add_chirp("entries=" + std::to_string(config.tableEntries), config);
    }
    // The named extension policies the extra_policies bench sweeps.
    for (const std::string name : {"plru", "drrip"}) {
        policies.push_back(
            {name, [name](std::uint32_t sets, std::uint32_t assoc) {
                 return makePolicy(name, sets, assoc);
             }});
    }
    policies.push_back({"generic", makePathHashPolicy});
    return policies;
}

/** Write @p bytes to a temp file; the path names the container. */
std::string
writeFixture(const std::string &name, const std::string &bytes)
{
    const std::string path = ::testing::TempDir() + "chirp_oracle_" + name;
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return path;
}

/** Three synthetic suite workloads plus a CVP and a ChampSim file. */
std::vector<WorkloadConfig>
oracleWorkloads()
{
    SuiteOptions options;
    options.size = 3;
    options.traceLength = 20010;
    std::vector<WorkloadConfig> workloads = makeSuite(options);

    // Code spread over more pages than the L1 i-TLB holds, and loads
    // that sometimes read their own code page: back-to-back i-side
    // and d-side L2 accesses to one page, the repeat-hit memo's case.
    Rng gen(0x0ac1e);
    std::vector<TraceRecord> records(12000);
    for (TraceRecord &rec : records) {
        rec.pc = 0x400000 + 4 * gen.below(1 << 18);
        rec.cls = gen.chance(0.25)  ? InstClass::CondBranch
                  : gen.chance(0.1) ? InstClass::UncondIndirect
                  : gen.chance(0.5) ? InstClass::Load
                                    : InstClass::Alu;
        if (isMemory(rec.cls)) {
            rec.effAddr = gen.chance(0.3)
                              ? rec.pc
                              : (1 + gen.below(1 << 14)) * kPageSize;
        }
        if (isBranch(rec.cls)) {
            rec.taken = gen.chance(0.5);
            rec.target = 0x400000 + 4 * gen.below(4096);
        }
    }
    std::string cvp;
    appendCvpHeader(cvp, records.size());
    std::string champsim;
    for (const TraceRecord &rec : records) {
        appendCvpRecord(cvp, rec);
        appendChampSimRecord(champsim, rec);
    }
    for (const auto &[name, bytes] :
         {std::pair<std::string, std::string>{"fixture.cvp", cvp},
          {"fixture.champsim", champsim}}) {
        WorkloadConfig workload;
        workload.name = name;
        workload.tracePath = writeFixture(name, bytes);
        workloads.push_back(workload);
    }
    return workloads;
}

/** Full timing model with the default (half-trace) warmup. */
SimConfig
warmConfig()
{
    return SimConfig{};
}

/** Full timing model, every record measured. */
SimConfig
coldConfig()
{
    SimConfig config;
    config.warmupFraction = 0.0;
    return config;
}

/** The shared world: workloads, their traces, the oracle's answers. */
struct World
{
    std::vector<NamedPolicy> policies = oraclePolicies();
    std::vector<WorkloadConfig> workloads = oracleWorkloads();
    std::vector<SharedTrace> traces;
    //! want[c][w][p] for configs() [c], workload w, policy p
    std::vector<std::vector<std::vector<SimStats>>> want;

    static std::vector<SimConfig> configs()
    {
        return {warmConfig(), coldConfig()};
    }

    World()
    {
        TraceStore store("");
        for (const WorkloadConfig &workload : workloads)
            traces.push_back(store.get(workload));
        for (const SimConfig &config : configs()) {
            auto &per_config = want.emplace_back();
            for (const SharedTrace &trace : traces) {
                auto &per_workload = per_config.emplace_back();
                for (const NamedPolicy &policy : policies) {
                    ReferenceSim oracle(config, policy.make(sets(config),
                                                            config.tlbs.l2
                                                                .assoc));
                    per_workload.push_back(oracle.run(*trace));
                }
            }
        }
    }

    static std::uint32_t
    sets(const SimConfig &config)
    {
        return config.tlbs.l2.entries / config.tlbs.l2.assoc;
    }
};

const World &
world()
{
    static const World instance;
    return instance;
}

std::string
where(const SimConfig &config, const WorkloadConfig &workload,
      const NamedPolicy &policy)
{
    return "warmup " + std::to_string(config.warmupFraction) + ", " +
           workload.name + " x " + policy.name;
}

TEST(Oracle, WarmupBoundaryIsOffTheChunkGrid)
{
    const World &w = world();
    for (const SharedTrace &trace : w.traces) {
        const auto warmup = static_cast<InstCount>(
            static_cast<double>(trace->size()) *
            warmConfig().warmupFraction);
        EXPECT_NE(warmup % kReplayBatch, 0u) << trace->size();
    }
    EXPECT_GT(w.want[0][0][0].l2TlbMisses, 0u);
}

TEST(Oracle, SimulatorRunMatches)
{
    const World &w = world();
    const auto configs = World::configs();
    for (std::size_t c = 0; c < configs.size(); ++c) {
        const SimConfig &config = configs[c];
        for (std::size_t wl = 0; wl < w.workloads.size(); ++wl) {
            const WorkloadConfig &workload = w.workloads[wl];
            for (std::size_t p = 0; p < w.policies.size(); ++p) {
                const NamedPolicy &policy = w.policies[p];
                SCOPED_TRACE(where(config, workload, policy));
                Simulator sim(config, policy.make(World::sets(config),
                                                  config.tlbs.l2.assoc));
                MemoryTraceSource source(w.traces[wl], workload.name);
                expectSameStats(w.want[c][wl][p], sim.run(source));
                if (workload.tracePath.empty() &&
                    policy.name.rfind("chirp:", 0) != 0) {
                    // The generator feeds the row-major chunk loop; the
                    // history variants add nothing to that path.
                    const auto program = buildWorkload(workload);
                    expectSameStats(w.want[c][wl][p], sim.run(*program));
                }
            }
        }
    }
}

TEST(Oracle, ReplayL2Matches)
{
    const World &w = world();
    const auto configs = World::configs();
    for (std::size_t c = 0; c < configs.size(); ++c) {
        const SimConfig &config = configs[c];
        const std::uint32_t sets = World::sets(config);
        const std::uint32_t assoc = config.tlbs.l2.assoc;
        for (std::size_t wl = 0; wl < w.workloads.size(); ++wl) {
            const WorkloadConfig &workload = w.workloads[wl];
            std::vector<L2Event> events;
            Simulator recorder(config, makePolicy(PolicyKind::Lru, sets,
                                                  assoc));
            recorder.tlbs().setL2EventSink(&events);
            MemoryTraceSource source(w.traces[wl], workload.name);
            const SimStats base = recorder.run(source);
            for (std::size_t p = 0; p < w.policies.size(); ++p) {
                const NamedPolicy &policy = w.policies[p];
                SCOPED_TRACE(where(config, workload, policy));
                Simulator sim(config, policy.make(sets, assoc));
                expectSameStats(w.want[c][wl][p],
                                sim.replayL2(*w.traces[wl], events, base));
            }
        }
    }
}

TEST(Oracle, RunSuiteMultiMatchesAtOneAndFourJobs)
{
    const World &w = world();
    std::vector<PolicyFactory> factories;
    for (const NamedPolicy &policy : w.policies)
        factories.push_back(policy.make);
    const auto configs = World::configs();
    for (std::size_t c = 0; c < configs.size(); ++c) {
        for (const unsigned jobs : {1u, 4u}) {
            Runner runner(configs[c], jobs);
            runner.setTraceCacheDir("");
            const auto got = runner.runSuiteMulti(w.workloads, factories);
            EXPECT_EQ(runner.health()->failureCount(), 0u);
            ASSERT_EQ(got.size(), w.policies.size());
            for (std::size_t p = 0; p < w.policies.size(); ++p) {
                ASSERT_EQ(got[p].size(), w.workloads.size());
                for (std::size_t wl = 0; wl < w.workloads.size(); ++wl) {
                    SCOPED_TRACE(where(configs[c], w.workloads[wl],
                                       w.policies[p]) +
                                 ", jobs " + std::to_string(jobs));
                    expectSameStats(w.want[c][wl][p], got[p][wl].stats);
                }
            }
        }
    }
}

TEST(Oracle, MixedPageRunMatches)
{
    // mixed_page_study's substrate: every large allocation of each
    // synthetic workload backed by 2MB pages.
    const World &w = world();
    const SimConfig config = warmConfig();
    std::size_t huge_pages = 0;
    for (std::size_t wl = 0; wl < w.workloads.size(); ++wl) {
        const WorkloadConfig &workload = w.workloads[wl];
        if (!workload.tracePath.empty())
            continue;
        const auto program = buildWorkload(workload);
        PageMap map;
        for (const auto &alloc : program->dataLayout().allocations()) {
            if (alloc.npages >= 512)
                map.mapHuge(alloc.base, alloc.npages * kPageSize);
        }
        huge_pages += map.hugePages();
        for (const NamedPolicy &policy : w.policies) {
            if (policy.name.rfind("chirp:", 0) == 0)
                continue; // the history variants add nothing here
            SCOPED_TRACE(where(config, workload, policy));
            ReferenceSim oracle(config, policy.make(World::sets(config),
                                                    config.tlbs.l2.assoc));
            oracle.setPageMap(&map);
            Simulator sim(config, policy.make(World::sets(config),
                                              config.tlbs.l2.assoc));
            sim.tlbs().setPageMap(&map);
            expectSameStats(oracle.run(*w.traces[wl]), sim.run(*program));
        }
    }
    EXPECT_GT(huge_pages, 0u);
}

TEST(Oracle, SinglePolicyRunSuiteMultiMatches)
{
    // With one pending policy there is no batch pass: the policy's own
    // guarded job replays it through replayL2.
    const World &w = world();
    const SimConfig config = warmConfig();
    for (std::size_t p = 0; p < w.policies.size(); ++p) {
        const NamedPolicy &policy = w.policies[p];
        if (policy.name != "random" && policy.name != "ghrp" &&
            policy.name != "chirp" && policy.name != "generic")
            continue;
        Runner runner(config, 1);
        runner.setTraceCacheDir("");
        const auto got = runner.runSuiteMulti(w.workloads, {policy.make});
        EXPECT_EQ(runner.health()->failureCount(), 0u);
        ASSERT_EQ(got.size(), 1u);
        for (std::size_t wl = 0; wl < w.workloads.size(); ++wl) {
            SCOPED_TRACE(where(config, w.workloads[wl], policy));
            expectSameStats(w.want[0][wl][p], got[0][wl].stats);
        }
    }
}

} // namespace
} // namespace chirp
