/**
 * @file
 * End-to-end integration tests: the full stack (workload -> TLB
 * hierarchy -> policies -> stats) behaves per the paper's
 * qualitative claims on miniature suites.
 */

#include <gtest/gtest.h>

#include "core/policy_factory.hh"
#include "sim/runner.hh"
#include "sim/simulator.hh"
#include "trace/trace_file.hh"
#include "trace/trace_store.hh"

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

TEST(Integration, ChirpBeatsLruOnContextDependentWorkloads)
{
    // Averaged over a small mixed suite, CHiRP must reduce MPKI
    // relative to LRU — the paper's headline claim.
    Runner runner(fastConfig());
    SuiteOptions options;
    options.size = 6;
    options.traceLength = 300000;
    const auto suite = makeSuite(options);
    const auto lru =
        runner.runSuite(suite, Runner::factoryFor(PolicyKind::Lru));
    const auto chirp_results =
        runner.runSuite(suite, Runner::factoryFor(PolicyKind::Chirp));
    EXPECT_GT(mpkiReductionPct(lru, chirp_results), 5.0);
}

TEST(Integration, ChirpImprovesTlbEfficiency)
{
    Runner runner(fastConfig());
    SuiteOptions options;
    options.size = 6;
    options.traceLength = 300000;
    const auto suite = makeSuite(options);
    const auto lru =
        runner.runSuite(suite, Runner::factoryFor(PolicyKind::Lru));
    const auto chirp_results =
        runner.runSuite(suite, Runner::factoryFor(PolicyKind::Chirp));
    EXPECT_GT(efficiencyGainPct(lru, chirp_results), 0.0);
}

TEST(Integration, ChirpTouchesItsTableFarLessThanGhrp)
{
    // §IV-E / Fig 11: CHiRP's selective updates cut prediction-table
    // traffic by an order of magnitude relative to per-access
    // policies.
    Runner runner(fastConfig());
    SuiteOptions options;
    options.size = 4;
    options.traceLength = 200000;
    const auto suite = makeSuite(options);
    const auto ghrp =
        runner.runSuite(suite, Runner::factoryFor(PolicyKind::Ghrp));
    const auto chirp_results =
        runner.runSuite(suite, Runner::factoryFor(PolicyKind::Chirp));
    const double ghrp_rate = meanTableAccessRate(ghrp);
    const double chirp_rate = meanTableAccessRate(chirp_results);
    EXPECT_GT(ghrp_rate, 1.0) << "GHRP reads+writes on every access";
    EXPECT_LT(chirp_rate, ghrp_rate / 5.0);
}

TEST(Integration, CryptoWorkloadsFitTheTlb)
{
    const Runner runner(fastConfig(), 1);
    WorkloadConfig workload;
    workload.category = Category::Crypto;
    workload.seed = 12;
    workload.length = 200000;
    const SimStats stats =
        runner.runSuite({workload}, Runner::factoryFor(PolicyKind::Lru))[0]
            .stats;
    EXPECT_LT(stats.mpki(), 0.5)
        << "compute-bound tiny-footprint workloads barely miss";
}

TEST(Integration, BiggerTlbNeverHurtsBadly)
{
    // MPKI with a 2048-entry L2 TLB should be <= MPKI with 1024
    // entries (modulo tiny indexing effects) under LRU.
    const auto workload = [] {
        WorkloadConfig config;
        config.category = Category::Database;
        config.seed = 33;
        config.length = 200000;
        return config;
    }();
    SimConfig small = fastConfig();
    SimConfig big = fastConfig();
    big.tlbs.l2.entries = 2048;
    const auto lru = Runner::factoryFor(PolicyKind::Lru);
    const SimStats s_small =
        Runner(small, 1).runSuite({workload}, lru)[0].stats;
    const SimStats s_big = Runner(big, 1).runSuite({workload}, lru)[0].stats;
    EXPECT_LE(s_big.mpki(), s_small.mpki() * 1.05);
}

TEST(Integration, FileRoundTripPreservesSimulation)
{
    // Simulating a trace from a file must give identical stats to
    // simulating the generator directly.
    WorkloadConfig workload;
    workload.category = Category::Web;
    workload.seed = 8;
    workload.length = 60000;
    const std::string path = ::testing::TempDir() + "roundtrip_sim.chtr";
    ASSERT_TRUE(writeTraceFile(
        path, ColumnarTrace(materializeWorkload(workload))));
    const SimConfig config = fastConfig();
    const std::uint32_t sets =
        config.tlbs.l2.entries / config.tlbs.l2.assoc;

    Simulator direct(config, makePolicy(PolicyKind::Chirp, sets,
                                        config.tlbs.l2.assoc));
    const auto program = buildWorkload(workload);
    const SimStats from_generator = direct.run(*program);

    Simulator replay(config, makePolicy(PolicyKind::Chirp, sets,
                                        config.tlbs.l2.assoc));
    std::string reason;
    SharedTrace mapped = mapTraceFile(path, &reason);
    ASSERT_NE(mapped, nullptr) << reason;
    MemoryTraceSource source(std::move(mapped), path);
    const SimStats from_file = replay.run(source);

    EXPECT_EQ(from_generator.cycles, from_file.cycles);
    EXPECT_EQ(from_generator.l2TlbMisses, from_file.l2TlbMisses);
    EXPECT_EQ(from_generator.tableReads, from_file.tableReads);
    std::remove(path.c_str());
}

TEST(Integration, PolicyFactoryByNameMatchesByKind)
{
    for (const PolicyKind kind : allPolicyKinds()) {
        const auto by_kind = makePolicy(kind, 128, 8);
        const auto by_name = makePolicy(
            std::string(policyKindName(kind)), 128, 8);
        EXPECT_EQ(by_kind->name(), by_name->name());
        EXPECT_EQ(by_kind->storageBits(), by_name->storageBits());
    }
}

TEST(Integration, UnknownPolicyNameIsFatal)
{
    EXPECT_EXIT({ makePolicy(std::string("belady"), 128, 8); },
                ::testing::ExitedWithCode(1), "unknown replacement");
}

} // namespace
} // namespace chirp
