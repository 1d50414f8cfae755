/** @file Tests for the timing simulator, runner and OPT bound. */

#include <gtest/gtest.h>

#include "core/policy_factory.hh"
#include "sim/opt_bound.hh"
#include "sim/runner.hh"
#include "sim/simulator.hh"
#include "support/expect_stats.hh"
#include "trace/trace_store.hh"

namespace chirp
{
namespace
{

WorkloadConfig
testWorkload(Category category = Category::Spec, std::uint64_t seed = 21,
             InstCount length = 150000)
{
    WorkloadConfig config;
    config.category = category;
    config.seed = seed;
    config.length = length;
    return config;
}

std::unique_ptr<ReplacementPolicy>
l2Policy(const SimConfig &config, PolicyKind kind = PolicyKind::Lru)
{
    return makePolicy(kind,
                      config.tlbs.l2.entries / config.tlbs.l2.assoc,
                      config.tlbs.l2.assoc);
}

TEST(Simulator, BasicInvariants)
{
    SimConfig config;
    Simulator sim(config, l2Policy(config));
    const auto program = buildWorkload(testWorkload());
    const SimStats stats = sim.run(*program);

    EXPECT_EQ(stats.instructions + stats.warmupInstructions, 150000u);
    EXPECT_EQ(stats.warmupInstructions, 75000u);
    EXPECT_GT(stats.cycles, stats.instructions)
        << "an in-order machine with stalls runs below 1 IPC";
    EXPECT_GT(stats.l2TlbAccesses, 0u);
    EXPECT_EQ(stats.l2TlbHits + stats.l2TlbMisses, stats.l2TlbAccesses);
    EXPECT_LE(stats.l2TlbAccesses,
              stats.l1iTlbMisses + stats.l1dTlbMisses)
        << "every L2 access comes from an L1 miss";
    EXPECT_GT(stats.branches, 0u);
    EXPECT_GT(stats.ipc(), 0.0);
    EXPECT_LT(stats.ipc(), 1.0);
    EXPECT_GT(stats.mpki(), 0.0);
    EXPECT_EQ(stats.walkLatency, config.pageWalkLatency);
}

TEST(Simulator, DeterministicAcrossRuns)
{
    SimConfig config;
    const auto workload = testWorkload(Category::Database, 5, 100000);
    Simulator a(config, l2Policy(config, PolicyKind::Chirp));
    Simulator b(config, l2Policy(config, PolicyKind::Chirp));
    const auto pa = buildWorkload(workload);
    const auto pb = buildWorkload(workload);
    const SimStats sa = a.run(*pa);
    const SimStats sb = b.run(*pb);
    EXPECT_EQ(sa.cycles, sb.cycles);
    EXPECT_EQ(sa.l2TlbMisses, sb.l2TlbMisses);
    EXPECT_EQ(sa.tableReads, sb.tableReads);
    EXPECT_EQ(sa.branchMispredicts, sb.branchMispredicts);
}

TEST(Simulator, RunIsRepeatableOnTheSameInstance)
{
    SimConfig config;
    config.simulateCaches = false;
    Simulator sim(config, l2Policy(config));
    const auto program = buildWorkload(testWorkload());
    const SimStats first = sim.run(*program);
    const SimStats second = sim.run(*program);
    EXPECT_EQ(first.cycles, second.cycles);
    EXPECT_EQ(first.l2TlbMisses, second.l2TlbMisses);
}

SimConfig
mpkiOnlyConfig()
{
    SimConfig config;
    config.simulateCaches = false;
    config.simulateBranch = false;
    return config;
}

SharedTrace
sharedTrace(const WorkloadConfig &workload)
{
    return std::make_shared<const ColumnarTrace>(
        materializeWorkload(workload));
}

TEST(Simulator, SecondRunResetsTheLazilyBuiltLayers)
{
    // The first timing run builds the cache hierarchy and branch
    // unit; the second must reset them, not carry their warm state.
    // A simulator that first ran another trace must also match a
    // fresh one: a reset layer equals a newly built one.
    const SharedTrace trace = sharedTrace(testWorkload());
    const SharedTrace other =
        sharedTrace(testWorkload(Category::Database, 9, 60000));
    for (const SimConfig &config : {SimConfig{}, mpkiOnlyConfig()}) {
        SCOPED_TRACE(config.simulateCaches ? "timing" : "mpki-only");
        MemoryTraceSource source(trace, "trace");
        MemoryTraceSource warm(other, "other");
        Simulator sim(config, l2Policy(config, PolicyKind::Chirp));
        const SimStats first = sim.run(source);
        expectSameStats(first, sim.run(source));
        Simulator used(config, l2Policy(config, PolicyKind::Chirp));
        used.run(warm);
        expectSameStats(first, used.run(source));
    }
}

TEST(Simulator, MpkiOnlyRunCountsNoBranches)
{
    const SimConfig config = mpkiOnlyConfig();
    Simulator sim(config, l2Policy(config));
    const auto program = buildWorkload(testWorkload());
    const SimStats stats = sim.run(*program);
    EXPECT_GT(stats.l2TlbAccesses, 0u);
    EXPECT_EQ(stats.branches, 0u);
    EXPECT_EQ(stats.branchMispredicts, 0u);
}

TEST(Simulator, ReplayOnAnUnrunTimingSimulatorMatchesRun)
{
    // A replay lane never builds caches or a branch unit, even in the
    // timing config; its result must still equal a full run.
    const SimConfig config; // timing: caches + branch unit
    const SharedTrace trace = sharedTrace(testWorkload());
    Simulator recorder(config, l2Policy(config));
    std::vector<L2Event> events;
    recorder.tlbs().setL2EventSink(&events);
    MemoryTraceSource source(trace, "trace");
    const SimStats base = recorder.run(source);
    for (const PolicyKind kind : {PolicyKind::Lru, PolicyKind::Chirp}) {
        Simulator full(config, l2Policy(config, kind));
        Simulator lane(config, l2Policy(config, kind));
        expectSameStats(full.run(source),
                        lane.replayL2(*trace, events, base));
    }
}

TEST(Simulator, DisablingCachesRemovesCacheStalls)
{
    SimConfig with;
    SimConfig without;
    without.simulateCaches = false;
    const auto workload = testWorkload();
    Simulator a(with, l2Policy(with));
    Simulator b(without, l2Policy(without));
    const auto pa = buildWorkload(workload);
    const auto pb = buildWorkload(workload);
    const SimStats sa = a.run(*pa);
    const SimStats sb = b.run(*pb);
    EXPECT_GT(sa.cycles, sb.cycles);
    EXPECT_EQ(sa.l2TlbMisses, sb.l2TlbMisses)
        << "TLB behaviour is independent of the cache model";
}

TEST(Simulator, HigherWalkLatencyOnlyAddsWalkCycles)
{
    SimConfig low;
    low.pageWalkLatency = 20;
    SimConfig high;
    high.pageWalkLatency = 340;
    const auto workload = testWorkload(Category::BigData, 9, 120000);
    Simulator a(low, l2Policy(low));
    Simulator b(high, l2Policy(high));
    const auto pa = buildWorkload(workload);
    const auto pb = buildWorkload(workload);
    const SimStats sa = a.run(*pa);
    const SimStats sb = b.run(*pb);
    EXPECT_EQ(sa.l2TlbMisses, sb.l2TlbMisses);
    EXPECT_EQ(sa.cycles - sa.walkCycles, sb.cycles - sb.walkCycles)
        << "base cycles are penalty-independent";
    EXPECT_GT(sb.cycles, sa.cycles);
}

TEST(SimStats, IpcAtPenaltyMatchesActualSimulation)
{
    // Re-deriving IPC at another penalty must match a real run at
    // that penalty (the Fig 10 shortcut).
    SimConfig base;
    base.pageWalkLatency = 150;
    SimConfig other;
    other.pageWalkLatency = 320;
    const auto workload = testWorkload(Category::Database, 13, 120000);
    Simulator a(base, l2Policy(base));
    Simulator b(other, l2Policy(other));
    const auto pa = buildWorkload(workload);
    const auto pb = buildWorkload(workload);
    const SimStats sa = a.run(*pa);
    const SimStats sb = b.run(*pb);
    EXPECT_NEAR(sa.ipcAtPenalty(320), sb.ipc(), 1e-9);
    EXPECT_NEAR(sa.ipcAtPenalty(150), sa.ipc(), 1e-9);
}

TEST(Runner, SuiteProducesOneResultPerWorkload)
{
    SimConfig config;
    config.simulateCaches = false;
    config.simulateBranch = false;
    Runner runner(config);
    SuiteOptions options;
    options.size = 4;
    options.traceLength = 40000;
    const auto suite = makeSuite(options);
    const auto results =
        runner.runSuite(suite, Runner::factoryFor(PolicyKind::Lru));
    ASSERT_EQ(results.size(), 4u);
    for (std::size_t i = 0; i < results.size(); ++i)
        EXPECT_EQ(results[i].workload.name, suite[i].name);
    EXPECT_GE(averageMpki(results), 0.0);
}

TEST(Runner, AggregationHelpers)
{
    std::vector<WorkloadResult> base(2);
    std::vector<WorkloadResult> better(2);
    for (int i = 0; i < 2; ++i) {
        base[i].stats.instructions = 1000;
        base[i].stats.l2TlbMisses = 100;
        base[i].stats.cycles = 25000; // 10000 base + 100 x 150 walk
        base[i].stats.walkCycles = 15000;
        base[i].stats.walkLatency = 150;
        better[i] = base[i];
        better[i].stats.l2TlbMisses = 50;
        better[i].stats.cycles = 17500;
        better[i].stats.walkCycles = 7500;
    }
    EXPECT_DOUBLE_EQ(averageMpki(base), 100.0);
    EXPECT_DOUBLE_EQ(averageMpki(better), 50.0);
    EXPECT_DOUBLE_EQ(mpkiReductionPct(base, better), 50.0);
    EXPECT_NEAR(speedupPct(base, better, 150),
                (25000.0 / 17500.0 - 1.0) * 100.0, 1e-9);
}

TEST(OptBound, NeverWorseThanLru)
{
    SimConfig config;
    config.simulateCaches = false;
    config.simulateBranch = false;
    for (const Category category :
         {Category::Spec, Category::Database, Category::BigData}) {
        const auto workload = testWorkload(category, 31, 100000);
        Simulator sim(config, l2Policy(config));
        const auto program = buildWorkload(workload);
        const SimStats lru = sim.run(*program);
        const auto program2 = buildWorkload(workload);
        const OptBoundResult opt = computeOptBound(*program2);
        EXPECT_LE(opt.misses, lru.l2TlbMisses)
            << categoryName(category);
        EXPECT_EQ(opt.instructions, lru.instructions);
        EXPECT_GT(opt.misses, 0u) << "compulsory misses remain";
    }
}

TEST(OptBound, PerfectlyCacheableStreamHasOnlyColdMisses)
{
    // A trace that touches 8 pages repeatedly: OPT misses only the
    // compulsory fills (which all land in the warmup half here).
    std::vector<TraceRecord> records;
    for (int round = 0; round < 100; ++round) {
        for (Addr page = 0; page < 8; ++page) {
            TraceRecord rec;
            rec.pc = 0x400000;
            rec.cls = InstClass::Load;
            rec.effAddr = page * kPageSize;
            records.push_back(rec);
        }
    }
    VectorSource source(std::move(records));
    const OptBoundResult opt = computeOptBound(source);
    EXPECT_EQ(opt.misses, 0u);
}

} // namespace
} // namespace chirp
