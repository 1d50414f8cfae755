/**
 * @file
 * Field-for-field SimStats equality for the tests: every counter
 * exactly, l2Efficiency bit-identical (both sides sum the same
 * integer generations, and a drift there would move the CSVs).
 */

#ifndef CHIRP_TESTS_SUPPORT_EXPECT_STATS_HH
#define CHIRP_TESTS_SUPPORT_EXPECT_STATS_HH

#include <gtest/gtest.h>

#include "sim/sim_stats.hh"

namespace chirp
{

inline void
expectSameStats(const SimStats &want, const SimStats &got)
{
    EXPECT_EQ(want.instructions, got.instructions);
    EXPECT_EQ(want.warmupInstructions, got.warmupInstructions);
    EXPECT_EQ(want.cycles, got.cycles);
    EXPECT_EQ(want.l1iTlbAccesses, got.l1iTlbAccesses);
    EXPECT_EQ(want.l1iTlbMisses, got.l1iTlbMisses);
    EXPECT_EQ(want.l1dTlbAccesses, got.l1dTlbAccesses);
    EXPECT_EQ(want.l1dTlbMisses, got.l1dTlbMisses);
    EXPECT_EQ(want.l2TlbAccesses, got.l2TlbAccesses);
    EXPECT_EQ(want.l2TlbHits, got.l2TlbHits);
    EXPECT_EQ(want.l2TlbMisses, got.l2TlbMisses);
    EXPECT_EQ(want.branches, got.branches);
    EXPECT_EQ(want.branchMispredicts, got.branchMispredicts);
    EXPECT_EQ(want.tableReads, got.tableReads);
    EXPECT_EQ(want.tableWrites, got.tableWrites);
    EXPECT_EQ(want.l2Efficiency, got.l2Efficiency);
    EXPECT_EQ(want.walkCycles, got.walkCycles);
    EXPECT_EQ(want.walkLatency, got.walkLatency);
}

} // namespace chirp

#endif // CHIRP_TESTS_SUPPORT_EXPECT_STATS_HH
