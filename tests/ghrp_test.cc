/** @file Behavioural tests for the GHRP adaptation. */

#include <gtest/gtest.h>

#include "core/ghrp.hh"

namespace chirp
{
namespace
{

AccessInfo
loadAt(Addr pc)
{
    AccessInfo info;
    info.pc = pc;
    info.vaddr = 0x1000;
    info.cls = InstClass::Load;
    return info;
}

TEST(Ghrp, HistoryUpdatesOnConditionalBranchesOnly)
{
    GhrpPolicy policy(4, 4);
    EXPECT_EQ(policy.history(), 0u);
    policy.onBranchRetired(0x400010, InstClass::UncondDirect, true);
    EXPECT_EQ(policy.history(), 0u);
    policy.onBranchRetired(0x400010, InstClass::CondBranch, true);
    const std::uint64_t after_taken = policy.history();
    EXPECT_NE(after_taken, 0u);
    EXPECT_EQ(after_taken & 1, 1u) << "outcome bit is the LSB";
    policy.onBranchRetired(0x400010, InstClass::CondBranch, false);
    EXPECT_EQ(policy.history() & 1, 0u);
}

TEST(Ghrp, UntrainedFillsAreLive)
{
    GhrpPolicy policy(4, 4);
    policy.onFill(0, 0, loadAt(0x400000));
    EXPECT_FALSE(policy.isDead(0, 0));
}

TEST(Ghrp, RepeatedUnreusedEvictionsTrainDead)
{
    GhrpPolicy policy(1, 2);
    const AccessInfo info = loadAt(0x400700);
    policy.onFill(0, 0, info);
    policy.onFill(0, 1, info);
    // Fill/evict cycles with a constant context: dead evidence
    // accumulates for this signature.
    for (int i = 0; i < 12; ++i) {
        const std::uint32_t victim = policy.selectVictim(0, info);
        policy.onFill(0, victim, info);
    }
    // A fresh fill in the same context is now predicted dead.
    const std::uint32_t victim = policy.selectVictim(0, info);
    policy.onFill(0, victim, info);
    EXPECT_TRUE(policy.isDead(0, victim));
}

TEST(Ghrp, DeadEntriesArePreferredVictims)
{
    GhrpPolicy policy(1, 4);
    const AccessInfo info = loadAt(0x400800);
    for (std::uint32_t way = 0; way < 4; ++way)
        policy.onFill(0, way, info);
    // Saturate the signature dead, then refresh way 2's prediction
    // by re-filling it.
    for (int i = 0; i < 12; ++i) {
        const std::uint32_t victim = policy.selectVictim(0, info);
        policy.onFill(0, victim, info);
    }
    // At least one way should now be dead-predicted; the victim scan
    // picks the first dead way, not the LRU way.
    std::uint32_t first_dead = ~0u;
    for (std::uint32_t way = 0; way < 4; ++way) {
        if (policy.isDead(0, way)) {
            first_dead = way;
            break;
        }
    }
    ASSERT_NE(first_dead, ~0u);
    EXPECT_EQ(policy.selectVictim(0, info), first_dead);
}

TEST(Ghrp, HitsTrainLiveAndClearDeadBit)
{
    GhrpPolicy policy(1, 2);
    const AccessInfo info = loadAt(0x400900);
    policy.onFill(0, 0, info);
    policy.onFill(0, 1, info);
    for (int i = 0; i < 12; ++i) {
        const std::uint32_t victim = policy.selectVictim(0, info);
        policy.onFill(0, victim, info);
    }
    // Hits pour live evidence onto the signature; eventually fills
    // under this context go back to live.
    for (int i = 0; i < 12; ++i)
        policy.onHit(0, 0, info);
    EXPECT_FALSE(policy.isDead(0, 0));
    policy.onFill(0, 1, info);
    EXPECT_FALSE(policy.isDead(0, 1));
}

TEST(Ghrp, TableTrafficOnEveryAccess)
{
    GhrpPolicy policy(4, 4);
    const AccessInfo info = loadAt(0x400a00);
    policy.onFill(0, 0, info);
    const std::uint64_t reads = policy.tableReads();
    const std::uint64_t writes = policy.tableWrites();
    policy.onHit(0, 0, info);
    // A hit reads all three tables and writes all three (live
    // training) — the Fig 11 "over 100%" behaviour.
    EXPECT_EQ(policy.tableReads(), reads + 3);
    EXPECT_EQ(policy.tableWrites(), writes + 3);
}

TEST(Ghrp, MaxTablesTrainDeadAndTouchEveryTable)
{
    // The widest configuration goes through the same per-access
    // signature composition as the paper's three tables (Debug builds
    // assert it against signatureOf on every access).
    GhrpConfig config;
    config.numTables = kGhrpMaxTables;
    config.tableHistoryBits = {0, 5, 10, 15, 20, 25, 30, 35};
    GhrpPolicy policy(1, 2, config);
    const AccessInfo info = loadAt(0x400c00);
    policy.onFill(0, 0, info);
    policy.onFill(0, 1, info);
    for (int i = 0; i < 12; ++i) {
        const std::uint32_t victim = policy.selectVictim(0, info);
        policy.onFill(0, victim, info);
    }
    const std::uint32_t victim = policy.selectVictim(0, info);
    policy.onFill(0, victim, info);
    EXPECT_TRUE(policy.isDead(0, victim));
    const std::uint64_t reads = policy.tableReads();
    policy.onHit(0, victim, info);
    EXPECT_EQ(policy.tableReads(), reads + kGhrpMaxTables);
}

TEST(Ghrp, ContextSeparatesPredictions)
{
    GhrpPolicy policy(1, 2);
    const AccessInfo info = loadAt(0x400b00);
    // Context A: saturate dead.
    policy.onFill(0, 0, info);
    policy.onFill(0, 1, info);
    for (int i = 0; i < 12; ++i) {
        const std::uint32_t victim = policy.selectVictim(0, info);
        policy.onFill(0, victim, info);
    }
    // Switch context by retiring conditional branches.
    for (int i = 0; i < 30; ++i)
        policy.onBranchRetired(0x40f000 + 16 * i, InstClass::CondBranch,
                               (i % 2) == 0);
    policy.onFill(0, 0, info);
    EXPECT_FALSE(policy.isDead(0, 0))
        << "a different branch context maps to different signatures";
}

TEST(Ghrp, StorageAccountsTablesAndSignatures)
{
    GhrpConfig config;
    GhrpPolicy policy(128, 8, config);
    const std::uint64_t expected =
        128ull * 8 * (config.numTables * config.signatureBits + 1) +
        128ull * 8 * 3 +
        config.numTables * config.tableEntries * config.counterBits +
        64;
    EXPECT_EQ(policy.storageBits(), expected);
}

} // namespace
} // namespace chirp
