/**
 * @file
 * Serial vs parallel suite runs must be indistinguishable: identical
 * WorkloadResult vectors (bit-identical stats, same order) at any job
 * count, order-independent aggregation, and per-job failure
 * isolation (a throwing job must not abort the suite).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "core/policy_factory.hh"
#include "sim/runner.hh"
#include "sim/simulator.hh"
#include "trace/synthetic/workload_factory.hh"

namespace chirp
{
namespace
{

SimConfig
fastConfig()
{
    SimConfig config;
    config.simulateCaches = false;
    config.simulateBranch = false;
    return config;
}

std::vector<WorkloadConfig>
smallSuite(std::size_t size = 8)
{
    SuiteOptions options;
    options.size = size;
    options.traceLength = 60000;
    return makeSuite(options);
}

void
expectIdenticalResults(const std::vector<WorkloadResult> &serial,
                       const std::vector<WorkloadResult> &parallel)
{
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(serial[i].workload.name);
        EXPECT_EQ(serial[i].workload.name, parallel[i].workload.name);
        EXPECT_EQ(serial[i].workload.seed, parallel[i].workload.seed);
        const SimStats &a = serial[i].stats;
        const SimStats &b = parallel[i].stats;
        EXPECT_EQ(a.instructions, b.instructions);
        EXPECT_EQ(a.cycles, b.cycles);
        EXPECT_EQ(a.l1iTlbMisses, b.l1iTlbMisses);
        EXPECT_EQ(a.l1dTlbMisses, b.l1dTlbMisses);
        EXPECT_EQ(a.l2TlbAccesses, b.l2TlbAccesses);
        EXPECT_EQ(a.l2TlbHits, b.l2TlbHits);
        EXPECT_EQ(a.l2TlbMisses, b.l2TlbMisses);
        EXPECT_EQ(a.tableReads, b.tableReads);
        EXPECT_EQ(a.tableWrites, b.tableWrites);
        EXPECT_EQ(a.walkCycles, b.walkCycles);
        // Doubles too: both paths run the same deterministic
        // computation, so these are bit-identical, not just close.
        EXPECT_EQ(a.l2Efficiency, b.l2Efficiency);
    }
}

TEST(RunnerParallel, MatchesSerialForLru)
{
    const auto suite = smallSuite();
    const auto factory = Runner::factoryFor(PolicyKind::Lru);
    expectIdenticalResults(
        Runner(fastConfig(), 1).runSuite(suite, factory),
        Runner(fastConfig(), 4).runSuite(suite, factory));
}

TEST(RunnerParallel, MatchesSerialForChirp)
{
    // CHiRP is the stateful policy with the most internal machinery;
    // if any state leaked across jobs this is where it would show.
    const auto suite = smallSuite();
    const auto factory = Runner::factoryFor(PolicyKind::Chirp);
    expectIdenticalResults(
        Runner(fastConfig(), 1).runSuite(suite, factory),
        Runner(fastConfig(), 4).runSuite(suite, factory));
}

TEST(RunnerParallel, ConfiguredJobsMatchSerial)
{
    const auto suite = smallSuite(6);
    const auto factory = Runner::factoryFor(PolicyKind::Srrip);
    const Runner serial(fastConfig(), 1);
    const Runner parallel(fastConfig(), 3);
    EXPECT_EQ(serial.jobs(), 1u);
    EXPECT_EQ(parallel.jobs(), 3u);
    expectIdenticalResults(serial.runSuite(suite, factory),
                           parallel.runSuite(suite, factory));
}

TEST(RunnerParallel, MoreJobsThanWorkloads)
{
    const auto suite = smallSuite(3);
    const auto factory = Runner::factoryFor(PolicyKind::Random);
    expectIdenticalResults(
        Runner(fastConfig(), 1).runSuite(suite, factory),
        Runner(fastConfig(), 16).runSuite(suite, factory));
}

TEST(RunnerParallel, IsolatesJobExceptions)
{
    // A throwing job must not abort the suite: the run completes,
    // the failure lands in the health ledger with the job's error,
    // and only the failed slot carries empty stats.
    const Runner runner(fastConfig(), 4);
    const auto suite = smallSuite(6);
    const PolicyFactory throwing =
        [](std::uint32_t, std::uint32_t)
        -> std::unique_ptr<ReplacementPolicy> {
        throw std::runtime_error("factory exploded");
    };
    const auto results = runner.runSuite(suite, throwing);
    ASSERT_EQ(results.size(), suite.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].workload.name, suite[i].name);
        EXPECT_EQ(results[i].stats.instructions, 0u);
    }
    const SuiteHealth &health = *runner.health();
    EXPECT_EQ(health.totalJobs(), suite.size());
    EXPECT_EQ(health.okJobs(), 0u);
    ASSERT_EQ(health.failureCount(), suite.size());
    EXPECT_EQ(health.failures()[0].error, "factory exploded");
}

TEST(RunnerParallel, AggregateIsOrderIndependent)
{
    const Runner runner(fastConfig());
    const auto suite = smallSuite(6);
    auto results =
        runner.runSuite(suite, Runner::factoryFor(PolicyKind::Lru));

    const SimStats forward = aggregateStats(results);
    std::reverse(results.begin(), results.end());
    const SimStats backward = aggregateStats(results);

    EXPECT_EQ(forward.instructions, backward.instructions);
    EXPECT_EQ(forward.cycles, backward.cycles);
    EXPECT_EQ(forward.l2TlbAccesses, backward.l2TlbAccesses);
    EXPECT_EQ(forward.l2TlbMisses, backward.l2TlbMisses);
    EXPECT_EQ(forward.tableReads, backward.tableReads);
    EXPECT_EQ(forward.walkCycles, backward.walkCycles);
    EXPECT_GT(forward.instructions, 0u);
}

TEST(RunnerMulti, MatchesPlainSimulatorRuns)
{
    // The materialized-replay sweep must be bit-identical to a full
    // Simulator::run of each policy over the generator, serial or not.
    const auto suite = smallSuite(6);
    const std::vector<PolicyFactory> factories = {
        Runner::factoryFor(PolicyKind::Lru),
        Runner::factoryFor(PolicyKind::Srrip),
        Runner::factoryFor(PolicyKind::Ghrp),
        Runner::factoryFor(PolicyKind::Chirp),
    };
    const Runner serial(fastConfig(), 1);
    const Runner parallel(fastConfig(), 4);
    const auto multi_serial = serial.runSuiteMulti(suite, factories);
    const auto multi_parallel = parallel.runSuiteMulti(suite, factories);
    ASSERT_EQ(multi_serial.size(), factories.size());
    ASSERT_EQ(multi_parallel.size(), factories.size());
    const SimConfig config = fastConfig();
    const std::uint32_t sets = config.tlbs.l2.entries / config.tlbs.l2.assoc;
    for (std::size_t p = 0; p < factories.size(); ++p) {
        SCOPED_TRACE("policy " + std::to_string(p));
        std::vector<WorkloadResult> standalone;
        for (const WorkloadConfig &workload : suite) {
            Simulator sim(config,
                          factories[p](sets, config.tlbs.l2.assoc));
            standalone.push_back(
                {workload, sim.run(*buildWorkload(workload))});
        }
        expectIdenticalResults(standalone, multi_serial[p]);
        expectIdenticalResults(standalone, multi_parallel[p]);
    }
}

TEST(RunnerMulti, GeneratesEachWorkloadOnce)
{
    const auto suite = smallSuite(5);
    const std::vector<PolicyFactory> factories = {
        Runner::factoryFor(PolicyKind::Lru),
        Runner::factoryFor(PolicyKind::Random),
        Runner::factoryFor(PolicyKind::Ship),
    };
    const Runner runner(fastConfig(), 2);
    runner.runSuiteMulti(suite, factories);
    EXPECT_EQ(runner.traceStore().generated(), suite.size())
        << "one materialization per workload, not per policy job";
    EXPECT_EQ(runner.traceStore().residentTraces(), 0u)
        << "all traces dropped after their last policy job";
}

TEST(RunnerMulti, ObserverSeesEveryJob)
{
    const auto suite = smallSuite(4);
    const std::vector<PolicyFactory> factories = {
        Runner::factoryFor(PolicyKind::Lru),
        Runner::factoryFor(PolicyKind::Chirp),
    };
    std::mutex mutex;
    std::vector<std::pair<std::size_t, std::size_t>> seen;
    const SimObserver observer = [&](std::size_t p, std::size_t w,
                                     const Simulator &sim) {
        EXPECT_GT(sim.tlbs().l2().accesses(), 0u);
        std::lock_guard<std::mutex> lock(mutex);
        seen.emplace_back(p, w);
    };
    const Runner runner(fastConfig(), 3);
    runner.runSuiteMulti(suite, factories, "", observer);
    ASSERT_EQ(seen.size(), factories.size() * suite.size());
    std::sort(seen.begin(), seen.end());
    for (std::size_t p = 0; p < factories.size(); ++p)
        for (std::size_t w = 0; w < suite.size(); ++w)
            EXPECT_EQ(seen[p * suite.size() + w],
                      std::make_pair(p, w));
}

TEST(RunnerParallel, MergeSumsCounters)
{
    SimStats a;
    a.instructions = 1000;
    a.l2TlbMisses = 10;
    a.l2Efficiency = 0.5;
    a.walkLatency = 150;
    SimStats b;
    b.instructions = 3000;
    b.l2TlbMisses = 2;
    b.l2Efficiency = 0.9;

    const SimStats merged = a + b;
    EXPECT_EQ(merged.instructions, 4000u);
    EXPECT_EQ(merged.l2TlbMisses, 12u);
    EXPECT_EQ(merged.walkLatency, 150u);
    // Instruction-weighted efficiency: (0.5*1000 + 0.9*3000) / 4000.
    EXPECT_DOUBLE_EQ(merged.l2Efficiency, 0.8);
    EXPECT_DOUBLE_EQ(merged.mpki(), 3.0);
}

} // namespace
} // namespace chirp
