/** @file Tests for the branch-prediction substrate. */

#include <gtest/gtest.h>

#include "branch/branch_unit.hh"
#include "util/random.hh"

namespace chirp
{
namespace
{

TEST(HashedPerceptron, LearnsAStronglyBiasedBranch)
{
    HashedPerceptron predictor;
    const Addr pc = 0x401000;
    for (int i = 0; i < 200; ++i)
        predictor.update(pc, true);
    EXPECT_TRUE(predictor.predict(pc));

    for (int i = 0; i < 400; ++i)
        predictor.update(pc, false);
    EXPECT_FALSE(predictor.predict(pc));
}

TEST(HashedPerceptron, LearnsAPeriodicPattern)
{
    HashedPerceptron predictor;
    const Addr pc = 0x402000;
    // Period-4 pattern: T T T N. Train for a while...
    for (int i = 0; i < 2000; ++i)
        predictor.update(pc, (i % 4) != 3);
    // ...then measure accuracy over the next window.
    int correct = 0;
    for (int i = 0; i < 400; ++i) {
        const bool actual = (i % 4) != 3;
        correct += predictor.predict(pc) == actual;
        predictor.update(pc, actual);
    }
    EXPECT_GT(correct, 360) << "history-based predictor should track "
                               "a short periodic pattern";
}

TEST(HashedPerceptron, HistoryAdvances)
{
    HashedPerceptron predictor;
    const std::uint64_t before = predictor.history();
    predictor.update(0x400100, true);
    EXPECT_EQ(predictor.history(), (before << 1) | 1);
    predictor.update(0x400100, false);
    EXPECT_EQ(predictor.history() & 1, 0u);
}

TEST(HashedPerceptron, ResetClearsState)
{
    HashedPerceptron predictor;
    for (int i = 0; i < 100; ++i)
        predictor.update(0x400000, false);
    predictor.reset();
    EXPECT_EQ(predictor.history(), 0u);
    EXPECT_TRUE(predictor.predict(0x400000))
        << "zero weights predict taken (sum >= 0)";
}

TEST(HashedPerceptron, PredictAndUpdateMatchesTheTwoCalls)
{
    // The fused call trains with the prediction's own sum; over a
    // mixed stream it must predict and learn exactly like predict()
    // followed by update().
    HashedPerceptron fused;
    HashedPerceptron split;
    Rng rng(17);
    for (int i = 0; i < 20000; ++i) {
        const Addr pc = 0x400000 + 4 * rng.below(64);
        const bool taken = (pc & 0x8) != 0 ? rng.chance(0.9)
                                           : rng.chance(0.5);
        const bool want = split.predict(pc);
        split.update(pc, taken);
        ASSERT_EQ(fused.predictAndUpdate(pc, taken), want) << "branch " << i;
        ASSERT_EQ(fused.history(), split.history());
    }
    for (Addr pc = 0x400000; pc < 0x400000 + 4 * 64; pc += 4)
        EXPECT_EQ(fused.predict(pc), split.predict(pc));
}

TEST(Btb, StoresAndPredictsTargets)
{
    Btb btb(1024, 4);
    EXPECT_EQ(btb.predict(0x400000), 0u);
    btb.update(0x400000, 0x400400);
    EXPECT_EQ(btb.predict(0x400000), 0x400400u);
    btb.update(0x400000, 0x400800);
    EXPECT_EQ(btb.predict(0x400000), 0x400800u);
}

TEST(Btb, CapacityEviction)
{
    Btb btb(16, 2); // 8 sets x 2 ways
    // Fill one set (branches 0x0, 0x200, 0x400 all map to set 0 with
    // 8 sets of 4-byte keys: key = pc>>2, set = key & 7).
    btb.update(0x0, 0x100);
    btb.update(0x200, 0x300);
    btb.predict(0x0); // refresh recency via hit bookkeeping? (reads only)
    btb.update(0x400, 0x500);
    // One of the first two was evicted; the newest must be present.
    EXPECT_EQ(btb.predict(0x400), 0x500u);
}

TEST(IndirectPredictor, ConvergesOnAStableTarget)
{
    IndirectPredictor predictor(512);
    const Addr pc = 0x400abc;
    // The index mixes in a target-path history, so it stabilizes
    // once the register is full of the repeated target.
    for (int i = 0; i < 32; ++i)
        predictor.update(pc, 0x500000);
    EXPECT_EQ(predictor.predict(pc), 0x500000u);
}

TEST(BranchUnit, PenalizesColdBranchesThenLearns)
{
    BranchUnit unit;
    TraceRecord rec;
    rec.pc = 0x400100;
    rec.cls = InstClass::UncondDirect;
    rec.target = 0x400800;
    rec.taken = true;
    const Cycles first = unit.onBranch(rec);
    EXPECT_EQ(first, BranchUnitConfig{}.mispredictPenalty)
        << "cold BTB misses the target";
    const Cycles second = unit.onBranch(rec);
    EXPECT_EQ(second, 0u);
    EXPECT_EQ(unit.branches(), 2u);
    EXPECT_EQ(unit.mispredicts(), 1u);
}

TEST(BranchUnit, ConditionalDirectionAndTarget)
{
    BranchUnit unit;
    TraceRecord rec;
    rec.pc = 0x400200;
    rec.cls = InstClass::CondBranch;
    rec.target = 0x400900;
    rec.taken = true;
    // Train until the unit predicts this always-taken branch.
    for (int i = 0; i < 50; ++i)
        unit.onBranch(rec);
    EXPECT_EQ(unit.onBranch(rec), 0u);
    // A sudden not-taken outcome is a mispredict.
    rec.taken = false;
    EXPECT_EQ(unit.onBranch(rec), BranchUnitConfig{}.mispredictPenalty);
}

TEST(BranchUnit, IndirectTargetsResolveAfterTraining)
{
    BranchUnit unit;
    TraceRecord rec;
    rec.pc = 0x400300;
    rec.cls = InstClass::UncondIndirect;
    rec.target = 0x480000;
    rec.taken = true;
    for (int i = 0; i < 32; ++i)
        unit.onBranch(rec); // warm the target-path history
    EXPECT_EQ(unit.onBranch(rec), 0u) << "stable target is learned";
}

TEST(BranchUnit, NonBranchesAreIgnored)
{
    BranchUnit unit;
    TraceRecord rec;
    rec.pc = 0x400400;
    rec.cls = InstClass::Load;
    EXPECT_EQ(unit.onBranch(rec), 0u);
    EXPECT_EQ(unit.branches(), 1u) << "counted but no predictor state";
}

TEST(BranchUnit, MispredictRateOnRandomOutcomesIsBounded)
{
    BranchUnit unit;
    Rng rng(3);
    TraceRecord rec;
    rec.cls = InstClass::CondBranch;
    rec.target = 0x400800;
    int penalties = 0;
    for (int i = 0; i < 4000; ++i) {
        rec.pc = 0x400000 + 64 * (i % 4);
        rec.taken = rng.chance(0.9);
        penalties += unit.onBranch(rec) > 0;
    }
    // A 90%-biased random branch should mispredict roughly 10% of
    // the time once warmed, certainly less than 25%.
    EXPECT_LT(penalties, 1000);
}

} // namespace
} // namespace chirp
