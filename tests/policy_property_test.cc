/**
 * @file
 * Property tests that every replacement policy must satisfy,
 * parameterized over the full policy set and several geometries.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <tuple>

#include "core/policy_factory.hh"
#include "sim/runner.hh"
#include "tlb/tlb.hh"
#include "trace/ingest/ingest.hh"
#include "util/random.hh"

namespace chirp
{
namespace
{

using Geometry = std::pair<std::uint32_t, std::uint32_t>; // sets, ways
using Param = std::tuple<PolicyKind, Geometry>;

class PolicyProperty : public ::testing::TestWithParam<Param>
{
  protected:
    PolicyKind kind() const { return std::get<0>(GetParam()); }
    std::uint32_t sets() const { return std::get<1>(GetParam()).first; }
    std::uint32_t ways() const { return std::get<1>(GetParam()).second; }

    std::unique_ptr<ReplacementPolicy>
    make() const
    {
        return makePolicy(kind(), sets(), ways());
    }

    static AccessInfo
    randomAccess(Rng &rng)
    {
        AccessInfo info;
        info.pc = 0x400000 + 4 * rng.below(4096);
        info.vaddr = rng.below(1 << 20) * kPageSize;
        info.cls = rng.chance(0.5) ? InstClass::Load : InstClass::Store;
        return info;
    }
};

TEST_P(PolicyProperty, VictimIsAlwaysAValidWay)
{
    auto policy = make();
    Rng rng(kind() == PolicyKind::Lru ? 1 : 2);
    // Fill everything, then hammer with random events.
    for (std::uint32_t set = 0; set < sets(); ++set)
        for (std::uint32_t way = 0; way < ways(); ++way)
            policy->onFill(set, way, randomAccess(rng));
    for (int i = 0; i < 3000; ++i) {
        const std::uint32_t set =
            static_cast<std::uint32_t>(rng.below(sets()));
        const AccessInfo info = randomAccess(rng);
        switch (rng.below(4)) {
          case 0:
            policy->onHit(set,
                          static_cast<std::uint32_t>(rng.below(ways())),
                          info);
            break;
          case 1: {
            const std::uint32_t victim = policy->selectVictim(set, info);
            ASSERT_LT(victim, ways());
            policy->onFill(set, victim, info);
            break;
          }
          case 2:
            policy->onBranchRetired(info.pc, InstClass::CondBranch,
                                    rng.chance(0.5));
            policy->onInstRetired(info.pc, InstClass::Alu);
            break;
          default:
            policy->onAccessEnd(set, info);
            break;
        }
    }
}

TEST_P(PolicyProperty, ResetIsReproducible)
{
    auto policy = make();
    Rng script_rng(77);
    std::vector<AccessInfo> script;
    for (int i = 0; i < 400; ++i)
        script.push_back(randomAccess(script_rng));

    auto run = [&](ReplacementPolicy &p) {
        std::vector<std::uint32_t> victims;
        std::uint32_t set = 0;
        for (const auto &info : script) {
            set = (set + 1) % sets();
            p.onFill(set, 0, info);
            p.onAccessEnd(set, info);
            victims.push_back(p.selectVictim(set, info));
        }
        return victims;
    };

    const auto first = run(*policy);
    policy->reset();
    const auto second = run(*policy);
    EXPECT_EQ(first, second);
}

TEST_P(PolicyProperty, StorageIsPositiveAndBounded)
{
    auto policy = make();
    EXPECT_GT(policy->storageBits(), 0u);
    // No policy should need more than 64KB of metadata for these
    // geometries (the paper's point is small predictors).
    EXPECT_LT(policy->storageBits() / 8, 64u * 1024u);
}

TEST_P(PolicyProperty, SinglePageAlwaysHitsAfterFirstAccess)
{
    TlbConfig config;
    config.entries = sets() * ways();
    config.assoc = ways();
    Tlb tlb(config, make());
    AccessInfo info;
    info.pc = 0x400000;
    info.vaddr = 0x7000;
    info.cls = InstClass::Load;
    EXPECT_FALSE(tlb.access(info, 0, 0));
    for (int i = 1; i <= 50; ++i)
        EXPECT_TRUE(tlb.access(info, 0, i)) << "access " << i;
}

TEST_P(PolicyProperty, WorkingSetWithinCapacityEventuallyAllHits)
{
    // Random policy can evict resident pages even below capacity, so
    // this guarantee only applies to the deterministic policies.
    if (kind() == PolicyKind::Random)
        GTEST_SKIP();
    TlbConfig config;
    config.entries = sets() * ways();
    config.assoc = ways();
    Tlb tlb(config, make());
    // A working set of one page per set can never collide.
    std::vector<Addr> pages;
    for (std::uint32_t set = 0; set < sets(); ++set)
        pages.push_back(static_cast<Addr>(set) * kPageSize);
    std::uint64_t now = 0;
    for (const Addr va : pages) {
        AccessInfo info;
        info.pc = 0x400000;
        info.vaddr = va;
        info.cls = InstClass::Load;
        tlb.access(info, 0, now++);
    }
    for (int round = 0; round < 3; ++round) {
        for (const Addr va : pages) {
            AccessInfo info;
            info.pc = 0x400000;
            info.vaddr = va;
            info.cls = InstClass::Load;
            EXPECT_TRUE(tlb.access(info, 0, now++));
        }
    }
}

TEST_P(PolicyProperty, RunsOverAnIngestedExternalTrace)
{
    // Every policy must also digest a stream that came through the
    // untrusted ingest front-end, not just the synthetic generator.
    // One geometry suffices; the fixture is shared across policies.
    if (sets() != 16)
        GTEST_SKIP();
    static const std::string path = [] {
        Rng rng(0xc5a11d);
        std::string data;
        appendCvpHeader(data, 12000);
        for (int i = 0; i < 12000; ++i) {
            TraceRecord rec;
            rec.pc = (0x400000 + 4 * rng.below(4096)) | 1;
            rec.cls = rng.chance(0.2) ? InstClass::CondBranch
                      : rng.chance(0.5) ? InstClass::Load
                                        : InstClass::Store;
            if (isMemory(rec.cls))
                rec.effAddr = rng.below(1 << 20) * kPageSize;
            if (isBranch(rec.cls)) {
                rec.taken = rng.chance(0.5);
                rec.target = 0x400000 + 4 * rng.below(4096);
            }
            appendCvpRecord(data, rec);
        }
        const std::string file =
            ::testing::TempDir() + "chirp_policy_ingest.cvp";
        std::ofstream out(file, std::ios::binary | std::ios::trunc);
        out.write(data.data(),
                  static_cast<std::streamsize>(data.size()));
        return file;
    }();
    WorkloadConfig workload;
    workload.tracePath = path;
    workload.name = "ingested";
    SimConfig config;
    config.simulateCaches = false;
    config.simulateBranch = false;
    const Runner runner(config, 1);
    const SimStats stats =
        runner.runSuite({workload}, Runner::factoryFor(kind()))[0].stats;
    EXPECT_EQ(stats.instructions + stats.warmupInstructions, 12000u);
    EXPECT_GT(stats.l2TlbAccesses, 0u);
}

std::string
paramName(const ::testing::TestParamInfo<Param> &info)
{
    const auto &[kind, geometry] = info.param;
    return std::string(policyKindName(kind)) + "_" +
           std::to_string(geometry.first) + "x" +
           std::to_string(geometry.second);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyProperty,
    ::testing::Combine(
        ::testing::Values(PolicyKind::Lru, PolicyKind::Random,
                          PolicyKind::Srrip, PolicyKind::Ship,
                          PolicyKind::Ghrp, PolicyKind::Chirp),
        ::testing::Values(Geometry{4, 4}, Geometry{16, 8},
                          Geometry{128, 8})),
    paramName);

} // namespace
} // namespace chirp
