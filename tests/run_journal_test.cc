/**
 * @file
 * RunJournal tests: bit-exact SimStats round trips (including the
 * l2Efficiency double via its IEEE-754 bit pattern), resume reload,
 * identity-mismatch restart (with .stale quarantine and field-level
 * divergence naming), torn-final-line tolerance, and job key
 * stability/distinctness.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "sim/run_journal.hh"
#include "support/expect_stats.hh"
#include "util/logging.hh"

namespace chirp
{
namespace
{

std::string
journalPath(const char *tag)
{
    const std::string path =
        ::testing::TempDir() + "chirp_journal_" + tag;
    std::filesystem::remove(path);
    return path;
}

SimStats
sampleStats(std::uint64_t salt)
{
    SimStats stats;
    stats.instructions = 1000000 + salt;
    stats.warmupInstructions = 200000 + salt;
    stats.cycles = 2345678 + salt;
    stats.l1iTlbAccesses = 900001 + salt;
    stats.l1iTlbMisses = 1201 + salt;
    stats.l1dTlbAccesses = 700003 + salt;
    stats.l1dTlbMisses = 4567 + salt;
    stats.l2TlbAccesses = 5768 + salt;
    stats.l2TlbHits = 5000 + salt;
    stats.l2TlbMisses = 768 + salt;
    stats.branches = 150000 + salt;
    stats.branchMispredicts = 9001 + salt;
    stats.tableReads = 4242 + salt;
    stats.tableWrites = 2121 + salt;
    // A value with no short decimal form: only a bit-pattern round
    // trip preserves it exactly.
    stats.l2Efficiency = 0.1 + 1e-17 * static_cast<double>(salt + 1);
    stats.walkCycles = 76800 + salt;
    stats.walkLatency = 100;
    return stats;
}

TEST(RunJournalCodec, RoundTripsBitExactly)
{
    const SimStats original = sampleStats(3);
    SimStats decoded;
    ASSERT_TRUE(decodeSimStats(encodeSimStats(original), decoded));
    expectSameStats(original, decoded);
}

TEST(RunJournalCodec, PreservesAwkwardDoubles)
{
    for (const double eff :
         {0.0, -0.0, 1.0 / 3.0, 1e-300, 0.9999999999999999}) {
        SimStats stats = sampleStats(0);
        stats.l2Efficiency = eff;
        SimStats decoded;
        ASSERT_TRUE(decodeSimStats(encodeSimStats(stats), decoded));
        EXPECT_EQ(std::signbit(decoded.l2Efficiency),
                  std::signbit(eff));
        EXPECT_EQ(decoded.l2Efficiency, eff);
    }
}

TEST(RunJournalCodec, RejectsGarbledLines)
{
    SimStats stats;
    EXPECT_FALSE(decodeSimStats("", stats));
    EXPECT_FALSE(decodeSimStats("1 2 3", stats));
    EXPECT_FALSE(decodeSimStats("not numbers at all", stats));
}

TEST(RunJournal, FreshJournalStartsEmpty)
{
    const std::string path = journalPath("fresh");
    RunJournal journal(path, 0xabcdef, /*resume=*/false);
    EXPECT_TRUE(journal.valid());
    EXPECT_EQ(journal.loaded(), 0u);
    EXPECT_EQ(journal.path(), path);
    SimStats stats;
    EXPECT_FALSE(journal.lookup(42, stats));
    std::filesystem::remove(path);
}

TEST(RunJournal, ResumeReloadsRecordedEntries)
{
    const std::string path = journalPath("resume");
    const std::uint64_t fp = 0x1122334455667788ull;
    const SimStats first = sampleStats(1);
    const SimStats second = sampleStats(2);
    {
        RunJournal journal(path, fp, /*resume=*/false);
        ASSERT_TRUE(journal.valid());
        journal.record(101, first);
        journal.record(202, second);
    }
    RunJournal resumed(path, fp, /*resume=*/true);
    EXPECT_TRUE(resumed.valid());
    EXPECT_EQ(resumed.loaded(), 2u);
    SimStats got;
    ASSERT_TRUE(resumed.lookup(101, got));
    expectSameStats(first, got);
    ASSERT_TRUE(resumed.lookup(202, got));
    expectSameStats(second, got);
    EXPECT_FALSE(resumed.lookup(303, got));
    std::filesystem::remove(path);
}

TEST(RunJournal, ResumedJournalKeepsAppending)
{
    const std::string path = journalPath("append");
    const std::uint64_t fp = 7;
    {
        RunJournal journal(path, fp, false);
        journal.record(1, sampleStats(1));
    }
    {
        RunJournal journal(path, fp, true);
        ASSERT_EQ(journal.loaded(), 1u);
        journal.record(2, sampleStats(2));
    }
    RunJournal third(path, fp, true);
    EXPECT_EQ(third.loaded(), 2u);
    SimStats got;
    EXPECT_TRUE(third.lookup(1, got));
    EXPECT_TRUE(third.lookup(2, got));
    std::filesystem::remove(path);
}

TEST(RunJournal, FingerprintMismatchRestartsEmpty)
{
    const std::string path = journalPath("mismatch");
    {
        RunJournal journal(path, 0xaaaa, false);
        journal.record(1, sampleStats(1));
    }
    // A different suite/config fingerprint must not resume against
    // the stale grid.
    RunJournal restarted(path, 0xbbbb, /*resume=*/true);
    EXPECT_TRUE(restarted.valid());
    EXPECT_EQ(restarted.loaded(), 0u);
    SimStats got;
    EXPECT_FALSE(restarted.lookup(1, got));
    std::filesystem::remove(path);
}

TEST(RunJournal, MismatchQuarantinesStaleFile)
{
    const std::string path = journalPath("quarantine");
    const std::string stale = path + ".stale";
    std::filesystem::remove(stale);
    {
        RunJournal journal(path, 0xaaaa, false);
        journal.record(1, sampleStats(1));
    }
    const auto stale_bytes = std::filesystem::file_size(path);
    RunJournal restarted(path, 0xbbbb, /*resume=*/true);
    EXPECT_EQ(restarted.loaded(), 0u);
    // The refused journal survives for inspection, byte for byte.
    ASSERT_TRUE(std::filesystem::exists(stale));
    EXPECT_EQ(std::filesystem::file_size(stale), stale_bytes);
    std::filesystem::remove(path);
    std::filesystem::remove(stale);
}

TEST(RunJournal, MismatchNamesDivergingFields)
{
    const std::string path = journalPath("fielddiff");
    JournalIdentity before;
    before.suite = "fig_before";
    before.suiteHash = 0x1111;
    before.configHash = 0x2222;
    {
        RunJournal journal(path, before, false);
        journal.record(1, sampleStats(1));
    }
    JournalIdentity after = before;
    after.configHash = 0x3333; // same suite, different sim config
    std::vector<std::string> lines;
    setLogSink([&lines](const std::string &line) {
        lines.push_back(line);
    });
    RunJournal restarted(path, after, /*resume=*/true);
    setLogSink({});
    EXPECT_EQ(restarted.loaded(), 0u);
    std::string all;
    for (const std::string &line : lines)
        all += line + "\n";
    EXPECT_NE(all.find("config hash"), std::string::npos)
        << "the diverging field must be named: " << all;
    EXPECT_EQ(all.find("suite name"), std::string::npos)
        << "matching fields must not be blamed: " << all;
    EXPECT_EQ(all.find("suite hash"), std::string::npos) << all;
    std::filesystem::remove(path);
    std::filesystem::remove(path + ".stale");
}

TEST(RunJournal, IdentityRoundTripsThroughHeader)
{
    const std::string path = journalPath("identity");
    JournalIdentity id;
    id.suite = "fig01";
    id.suiteHash = 0xdeadbeef;
    id.configHash = 0xfeedface;
    {
        RunJournal journal(path, id, false);
        journal.record(7, sampleStats(7));
    }
    RunJournal resumed(path, id, /*resume=*/true);
    EXPECT_EQ(resumed.loaded(), 1u);
    EXPECT_EQ(resumed.identity().suite, "fig01");
    SimStats got;
    EXPECT_TRUE(resumed.lookup(7, got));
    std::filesystem::remove(path);
}

TEST(RunJournal, WithoutResumeExistingJournalIsOverwritten)
{
    const std::string path = journalPath("overwrite");
    const std::uint64_t fp = 9;
    {
        RunJournal journal(path, fp, false);
        journal.record(1, sampleStats(1));
    }
    {
        // Same fingerprint but resume off: a deliberate fresh run.
        RunJournal journal(path, fp, false);
        EXPECT_EQ(journal.loaded(), 0u);
    }
    RunJournal check(path, fp, true);
    EXPECT_EQ(check.loaded(), 0u);
    std::filesystem::remove(path);
}

TEST(RunJournal, TornFinalLineIsIgnored)
{
    const std::string path = journalPath("torn");
    const std::uint64_t fp = 0xfeed;
    {
        RunJournal journal(path, fp, false);
        journal.record(1, sampleStats(1));
        journal.record(2, sampleStats(2));
    }
    {
        // Crash mid-append: the final record is cut off mid-fields.
        std::ofstream out(path, std::ios::binary | std::ios::app);
        out << "J 0000000000000003 12345 678";
    }
    RunJournal resumed(path, fp, true);
    EXPECT_EQ(resumed.loaded(), 2u) << "torn line must not resume";
    SimStats got;
    EXPECT_TRUE(resumed.lookup(1, got));
    EXPECT_TRUE(resumed.lookup(2, got));
    EXPECT_FALSE(resumed.lookup(3, got));
    std::filesystem::remove(path);
}

TEST(RunJournal, JobKeysAreStableAndDistinct)
{
    WorkloadConfig workload;
    workload.category = Category::Spec;
    workload.seed = 42;
    workload.length = 10000;
    workload.name = "wl-0";

    const std::uint64_t key = RunJournal::jobKey(0, workload, 0);
    EXPECT_EQ(key, RunJournal::jobKey(0, workload, 0))
        << "same job, same key, every run";

    EXPECT_NE(key, RunJournal::jobKey(1, workload, 0))
        << "suite sequence distinguishes repeated suites";
    EXPECT_NE(key, RunJournal::jobKey(0, workload, 1))
        << "policy index distinguishes the grid column";

    auto renamed = workload;
    renamed.name = "wl-renamed";
    EXPECT_NE(key, RunJournal::jobKey(0, renamed, 0))
        << "display name is part of the identity";

    auto reseeded = workload;
    reseeded.seed = 43;
    EXPECT_NE(key, RunJournal::jobKey(0, reseeded, 0));
}

TEST(RunJournal, SuiteSeqIsMonotonic)
{
    const std::string path = journalPath("seq");
    RunJournal journal(path, 1, false);
    EXPECT_EQ(journal.nextSuiteSeq(), 0u);
    EXPECT_EQ(journal.nextSuiteSeq(), 1u);
    EXPECT_EQ(journal.nextSuiteSeq(), 2u);
    std::filesystem::remove(path);
}

} // namespace
} // namespace chirp
