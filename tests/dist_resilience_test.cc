/**
 * @file
 * Resilience tests for forked suite workers (Runner::setWorkers).
 * Each test runs a sweep with workers and asserts the result grid is
 * bit-identical to a serial single-process reference, with every job
 * ok: with healthy workers, with a worker killed mid-shard, with a
 * worker desyncing the wire, and when resuming a partially journaled
 * run.  An observer call must stay in-process and see every job.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/policy_factory.hh"
#include "sim/run_journal.hh"
#include "sim/runner.hh"
#include "util/fault_injection.hh"

namespace chirp
{
namespace
{

class DistResilienceTest : public ::testing::Test
{
  protected:
    void SetUp() override { FaultInjector::instance().reset(); }
    void TearDown() override { FaultInjector::instance().reset(); }
};

SimConfig
fastConfig()
{
    SimConfig config;
    config.simulateCaches = false;
    config.simulateBranch = false;
    return config;
}

std::vector<WorkloadConfig>
smallSuite()
{
    SuiteOptions options;
    options.size = 4;
    options.traceLength = 40000;
    return makeSuite(options);
}

std::vector<PolicyFactory>
twoPolicies()
{
    return {Runner::factoryFor(PolicyKind::Lru),
            Runner::factoryFor(PolicyKind::Chirp)};
}

/** A runner forking @p workers children per suite run. */
Runner
forkingRunner(unsigned workers)
{
    Runner runner(fastConfig(), 1);
    runner.setWorkers(workers);
    return runner;
}

void
expectGridIdentical(
    const std::vector<std::vector<WorkloadResult>> &got,
    const std::vector<std::vector<WorkloadResult>> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t p = 0; p < got.size(); ++p) {
        ASSERT_EQ(got[p].size(), want[p].size());
        for (std::size_t w = 0; w < got[p].size(); ++w) {
            SCOPED_TRACE("policy " + std::to_string(p) +
                         " workload " + std::to_string(w));
            // encodeSimStats is bit-exact (doubles travel as their
            // IEEE-754 bit patterns), so string equality is the same
            // claim as byte-identical CSVs.
            EXPECT_EQ(encodeSimStats(got[p][w].stats),
                      encodeSimStats(want[p][w].stats));
        }
    }
}

/** Serial reference grid for the small suite. */
std::vector<std::vector<WorkloadResult>>
serialReference()
{
    const Runner serial(fastConfig(), 1);
    return serial.runSuiteMulti(smallSuite(), twoPolicies());
}

TEST_F(DistResilienceTest, ForkedSweepMatchesSerial)
{
    const auto suite = smallSuite();
    const Runner runner = forkingRunner(2);
    const auto results = runner.runSuiteMulti(suite, twoPolicies());

    expectGridIdentical(results, serialReference());
    const SuiteHealth &health = *runner.health();
    EXPECT_EQ(health.okJobs(), suite.size() * 2);
    EXPECT_EQ(health.failureCount(), 0u);
    EXPECT_EQ(health.lostWorkers(), 0u);
    EXPECT_EQ(health.rerunWorkloads(), 0u)
        << "every job must have run in a worker";
}

TEST_F(DistResilienceTest, WorkerKilledMidShardIsRerunInProcess)
{
    // Worker 0 _Exit(137)s at its third job event — mid-shard, after
    // at least one result already streamed back (exactly a kill -9).
    FaultInjector::instance().configure("worker-crash@0");
    const auto suite = smallSuite();
    const Runner runner = forkingRunner(2);
    const auto results = runner.runSuiteMulti(suite, twoPolicies());
    FaultInjector::instance().reset();

    expectGridIdentical(results, serialReference());
    const SuiteHealth &health = *runner.health();
    EXPECT_EQ(health.okJobs(), suite.size() * 2);
    EXPECT_EQ(health.failureCount(), 0u);
    EXPECT_EQ(health.lostWorkers(), 1u);
    // Shard 0 holds workloads 0 and 2; the crash lands inside
    // workload 0, so neither finished in the worker.
    EXPECT_EQ(health.rerunWorkloads(), 2u);
}

TEST_F(DistResilienceTest, WireDesyncDropsWorkerNotResults)
{
    // Worker 1 truncates its last Result frame mid-write; the parent
    // must drop the torn stream and re-run what it lost in-process
    // rather than merge garbage.
    FaultInjector::instance().configure("msg-truncate@1");
    const auto suite = smallSuite();
    const Runner runner = forkingRunner(2);
    const auto results = runner.runSuiteMulti(suite, twoPolicies());
    FaultInjector::instance().reset();

    expectGridIdentical(results, serialReference());
    const SuiteHealth &health = *runner.health();
    EXPECT_EQ(health.okJobs(), suite.size() * 2);
    EXPECT_EQ(health.failureCount(), 0u);
    EXPECT_EQ(health.lostWorkers(), 1u);
    EXPECT_EQ(health.rerunWorkloads(), 1u);
}

TEST_F(DistResilienceTest, ResumedSweepRunsOnlyTheJournalHole)
{
    const auto suite = smallSuite();
    const auto factories = twoPolicies();
    const std::string path =
        ::testing::TempDir() + "chirp_dist_resume.journal";
    std::filesystem::remove(path);
    const std::uint64_t fp = 0xd15c0;

    {
        // Seed run: one injected hard fault leaves exactly workload
        // 0's second policy missing from the journal — the same hole
        // a parent killed mid-sweep leaves behind.
        Runner first(fastConfig(), 1);
        first.setJournal(
            std::make_shared<RunJournal>(path, fp, /*resume=*/false));
        FaultInjector::instance().configure("hard-throw@2");
        first.runSuiteMulti(suite, factories);
        EXPECT_EQ(first.health()->failureCount(), 1u);
    }
    FaultInjector::instance().reset();

    Runner resumed = forkingRunner(2);
    auto journal =
        std::make_shared<RunJournal>(path, fp, /*resume=*/true);
    EXPECT_EQ(journal->loaded(), suite.size() * factories.size() - 1);
    resumed.setJournal(journal);
    const auto results = resumed.runSuiteMulti(suite, factories);

    expectGridIdentical(results, serialReference());
    const SuiteHealth &health = *resumed.health();
    EXPECT_EQ(health.okJobs(), suite.size() * factories.size());
    EXPECT_EQ(health.resumedJobs(), suite.size() * factories.size() - 1)
        << "only the missing job re-executes";
    EXPECT_EQ(health.lostWorkers(), 0u);
    EXPECT_EQ(health.rerunWorkloads(), 0u);
    std::filesystem::remove(path);
}

TEST_F(DistResilienceTest, ObserverCallStaysInProcess)
{
    const auto suite = smallSuite();
    const Runner runner = forkingRunner(2);
    std::mutex mutex;
    std::set<std::pair<std::size_t, std::size_t>> seen;
    const auto results = runner.runSuiteMulti(
        suite, twoPolicies(), "", [&](std::size_t p, std::size_t w,
                                      const Simulator &) {
            std::lock_guard<std::mutex> lock(mutex);
            seen.emplace(p, w);
        });

    expectGridIdentical(results, serialReference());
    EXPECT_EQ(seen.size(), suite.size() * 2)
        << "the observer must see every (policy, workload) job";
    EXPECT_EQ(runner.health()->okJobs(), suite.size() * 2);
}

} // namespace
} // namespace chirp
