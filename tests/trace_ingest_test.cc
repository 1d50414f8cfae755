/**
 * @file
 * Adversarial tests for the hardened external-trace front-end:
 * golden round trips for both containers, format sniffing, every
 * truncation boundary class, bit-flips and length-field lies,
 * quarantine-and-resync byte-range accounting, the bad-record /
 * record-count / resident-size / wall-clock budgets, cancellation,
 * cross-format stream equivalence, suite-level failure isolation
 * through Runner + SuiteHealth, and the quarantine retention
 * satellite.  Everything here must also hold under ASan/UBSan (the
 * CI fuzz job runs the same ingest paths sanitized).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/policy_factory.hh"
#include "sim/runner.hh"
#include "trace/ingest/ingest.hh"
#include "util/quarantine.hh"
#include "util/random.hh"

namespace chirp
{
namespace
{

Addr
canonical(std::uint64_t raw)
{
    return raw & 0x0000'7fff'ffff'ffffull;
}

TraceRecord
sampleRecord(Rng &rng)
{
    TraceRecord rec;
    rec.pc = canonical(rng.next()) | 1;
    rec.cls = static_cast<InstClass>(
        rng.below(static_cast<std::uint64_t>(InstClass::NumClasses)));
    if (isMemory(rec.cls))
        rec.effAddr = canonical(rng.next());
    if (isBranch(rec.cls)) {
        rec.taken = rec.cls != InstClass::CondBranch || rng.chance(0.5);
        rec.target = canonical(rng.next()) | 1;
    }
    return rec;
}

std::vector<TraceRecord>
sampleStream(std::size_t n, std::uint64_t seed = 42)
{
    Rng rng(seed);
    std::vector<TraceRecord> records;
    records.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        records.push_back(sampleRecord(rng));
    return records;
}

std::string
encodeChampSim(const std::vector<TraceRecord> &records)
{
    std::string out;
    for (const TraceRecord &rec : records)
        appendChampSimRecord(out, rec);
    return out;
}

std::string
encodeCvp(const std::vector<TraceRecord> &records)
{
    std::string out;
    appendCvpHeader(out, records.size());
    for (const TraceRecord &rec : records)
        appendCvpRecord(out, rec);
    return out;
}

IngestResult
ingest(const std::string &data,
       ExternalTraceFormat format = ExternalTraceFormat::Auto,
       IngestLimits limits = {})
{
    return ingestTraceBytes(data.data(), data.size(), "test", limits,
                            format);
}

std::string
writeTemp(const char *tag, const std::string &data)
{
    const std::string path =
        ::testing::TempDir() + "chirp_ingest_" + tag;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
    return path;
}

TEST(ChampSimIngest, RoundTripsCanonicalStream)
{
    const auto records = sampleStream(300);
    const auto result = ingest(encodeChampSim(records),
                               ExternalTraceFormat::ChampSim);
    ASSERT_EQ(result.trace->size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i)
        EXPECT_EQ(result.trace->record(i),
                  champSimCanonical(records[i]))
            << "record " << i;
    EXPECT_EQ(result.stats.badRecords, 0u);
    EXPECT_EQ(result.stats.quarantinedBytes, 0u);
    EXPECT_EQ(result.format, ExternalTraceFormat::ChampSim);
}

TEST(CvpIngest, RoundTripsExactly)
{
    const auto records = sampleStream(300);
    const auto result =
        ingest(encodeCvp(records), ExternalTraceFormat::Cvp);
    ASSERT_EQ(result.trace->size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i)
        EXPECT_EQ(result.trace->record(i), records[i])
            << "record " << i;
    EXPECT_EQ(result.stats.badRecords, 0u);
}

TEST(Ingest, AutoSniffsBothContainers)
{
    const auto records = sampleStream(64);
    EXPECT_EQ(ingest(encodeChampSim(records)).format,
              ExternalTraceFormat::ChampSim);
    EXPECT_EQ(ingest(encodeCvp(records)).format,
              ExternalTraceFormat::Cvp);
}

TEST(Ingest, CrossFormatEquivalence)
{
    // The same canonical stream encoded in both containers must
    // materialize identically — the invariant the CI CSV-equality
    // matrix leans on.
    std::vector<TraceRecord> canon;
    for (const TraceRecord &rec : sampleStream(256))
        canon.push_back(champSimCanonical(rec));
    const auto a = ingest(encodeChampSim(canon));
    const auto b = ingest(encodeCvp(canon));
    ASSERT_EQ(a.trace->size(), b.trace->size());
    for (std::size_t i = 0; i < canon.size(); ++i)
        EXPECT_EQ(a.trace->record(i), b.trace->record(i));
}

TEST(Ingest, EmptyInputIsAHardError)
{
    try {
        ingest("");
        FAIL() << "empty input must not produce a trace";
    } catch (const IngestError &err) {
        EXPECT_EQ(err.kind(), DecodeErrorKind::TruncatedHeader);
    }
}

TEST(Ingest, UnrecognizableInputIsAHardError)
{
    // 100 bytes: no CVPT magic, not a 64-byte multiple.
    try {
        ingest(std::string(100, 'x'));
        FAIL() << "unrecognizable input must not produce a trace";
    } catch (const IngestError &err) {
        EXPECT_EQ(err.kind(), DecodeErrorKind::UnknownFormat);
    }
}

TEST(Ingest, AllGarbageExhaustsIntoHardError)
{
    // Sniffs as ChampSim (multiple of 64) but no slot decodes; the
    // stream must end in an error, not an empty "success".
    Rng rng(9);
    std::string garbage;
    for (std::size_t i = 0; i < 64 * 8; ++i)
        garbage += static_cast<char>(0x80 | (rng.next() & 0x7f));
    EXPECT_THROW(ingest(garbage), IngestError);
}

TEST(ChampSimIngest, TruncationAtEveryBoundaryClass)
{
    const auto records = sampleStream(8);
    const std::string whole = encodeChampSim(records);
    // Chop inside every record slot: the prefix records survive, the
    // stub is quarantined, and nothing crashes.
    for (std::size_t cut = 1; cut < 64; cut += 13) {
        for (std::size_t slot = 0; slot < records.size(); ++slot) {
            const std::string data =
                whole.substr(0, slot * 64 + cut);
            if (data.size() % 64 == 0)
                continue; // re-sniffs as well-formed; not this test
            if (slot == 0) {
                // Only a stub: no decodable records is a hard error.
                EXPECT_THROW(
                    ingest(data, ExternalTraceFormat::ChampSim),
                    IngestError);
                continue;
            }
            const auto result =
                ingest(data, ExternalTraceFormat::ChampSim);
            EXPECT_EQ(result.trace->size(), slot);
            EXPECT_GE(result.stats.badRecords, 1u);
        }
    }
}

TEST(CvpIngest, TruncationNearEveryFieldBoundary)
{
    const auto records = sampleStream(4);
    const std::string whole = encodeCvp(records);
    for (std::size_t cut = 17; cut < whole.size(); ++cut) {
        const std::string data = whole.substr(0, cut);
        try {
            const auto result =
                ingest(data, ExternalTraceFormat::Cvp);
            EXPECT_LE(result.trace->size(), records.size());
        } catch (const IngestError &) {
            // Acceptable when nothing decodes.
        }
    }
}

TEST(CvpIngest, ResyncSkipsCorruptRegionAndLogsRange)
{
    const auto records = sampleStream(64);
    std::string data = encodeCvp(records);
    // Stomp a run of bytes in the middle of the body.
    const std::size_t at = data.size() / 2;
    for (std::size_t i = 0; i < 24; ++i)
        data[at + i] = static_cast<char>(0xee);
    const auto result = ingest(data, ExternalTraceFormat::Cvp);
    // Most records survive; the corrupt region is quarantined with
    // its byte range on the books.
    EXPECT_GT(result.trace->size(), records.size() / 2);
    EXPECT_LT(result.trace->size(), records.size() + 1);
    EXPECT_GE(result.stats.quarantinedRangeCount, 1u);
    ASSERT_FALSE(result.stats.ranges.empty());
    const auto &range = result.stats.ranges.front();
    EXPECT_LT(range.begin, range.end);
    EXPECT_LE(range.end, data.size());
}

TEST(CvpIngest, LengthFieldLiesAreRejectedNotTrusted)
{
    // nRegs = 255 would walk far past the record: ImpossibleLength,
    // quarantined, stream continues.
    const auto records = sampleStream(8);
    std::string data;
    appendCvpHeader(data, records.size() + 1);
    for (std::size_t i = 0; i < 4; ++i)
        appendCvpRecord(data, records[i]);
    std::string lie;
    lie.append(8, '\x01'); // pc
    lie += static_cast<char>(0); // Alu
    lie += static_cast<char>(0); // flags
    lie += static_cast<char>(0xff); // nRegs lie
    data += lie;
    for (std::size_t i = 4; i < 8; ++i)
        appendCvpRecord(data, records[i]);
    const auto result = ingest(data, ExternalTraceFormat::Cvp);
    EXPECT_GE(result.trace->size(), 8u);
    EXPECT_GE(result.stats.badRecords, 1u);
}

TEST(CvpIngest, HugeDeclaredCountDoesNotPreallocate)
{
    // A header claiming 2^32 records over an empty body must fail
    // fast on "no decodable records" — not OOM on a reserve.
    std::string data;
    appendCvpHeader(data, 0xffff'ffffull);
    EXPECT_THROW(ingest(data, ExternalTraceFormat::Cvp), IngestError);
}

TEST(CvpIngest, DeclaredCountMismatchIsChargedNotFatal)
{
    const auto records = sampleStream(16);
    std::string data;
    appendCvpHeader(data, 1000); // lies: body holds 16
    for (const TraceRecord &rec : records)
        appendCvpRecord(data, rec);
    const auto result = ingest(data, ExternalTraceFormat::Cvp);
    EXPECT_EQ(result.trace->size(), records.size());
    EXPECT_GE(result.stats.badRecords, 1u);
}

TEST(CvpIngest, ReservedFlagBitsQuarantine)
{
    const auto records = sampleStream(4);
    std::string data = encodeCvp(records);
    data[16 + 9] = static_cast<char>(0x80); // reserved flag bit set
    const auto result = ingest(data, ExternalTraceFormat::Cvp);
    EXPECT_GE(result.stats.badRecords, 1u);
    EXPECT_LT(result.trace->size(), records.size() + 1);
}

TEST(Ingest, BadRecordBudgetFailsTheStream)
{
    // 32 corrupt slots against a budget of 8: IngestError, suite
    // health decides what happens next — never a crash.
    const auto good = sampleStream(4);
    std::string data = encodeChampSim(good);
    for (std::size_t i = 0; i < 32; ++i) {
        std::string bad(64, '\0');
        bad[8] = '\x07'; // is_branch out of range
        data += bad;
    }
    IngestLimits limits;
    limits.badRecordBudget = 8;
    try {
        ingest(data, ExternalTraceFormat::ChampSim, limits);
        FAIL() << "budget exhaustion must throw";
    } catch (const IngestError &err) {
        EXPECT_EQ(err.kind(), DecodeErrorKind::BudgetExceeded);
    }
}

TEST(Ingest, MaxRecordsCapsTheMaterialization)
{
    const auto records = sampleStream(100);
    IngestLimits limits;
    limits.maxRecords = 25;
    const auto result =
        ingest(encodeCvp(records), ExternalTraceFormat::Cvp, limits);
    EXPECT_EQ(result.trace->size(), 25u);
}

TEST(Ingest, ResidentByteBudgetFailsTheStream)
{
    const auto records = sampleStream(30000);
    IngestLimits limits;
    limits.maxResidentBytes = 1024; // ~40 records worth
    try {
        ingest(encodeChampSim(records), ExternalTraceFormat::ChampSim,
               limits);
        FAIL() << "resident budget must throw";
    } catch (const IngestError &err) {
        EXPECT_EQ(err.kind(), DecodeErrorKind::BudgetExceeded);
    }
}

TEST(Ingest, CancelTokenAbortsPromptly)
{
    const auto records = sampleStream(5000);
    std::atomic<bool> cancel{true};
    IngestLimits limits;
    limits.cancel = &cancel;
    try {
        ingest(encodeCvp(records), ExternalTraceFormat::Cvp, limits);
        FAIL() << "pre-raised cancel token must abort the ingest";
    } catch (const IngestError &err) {
        EXPECT_EQ(err.kind(), DecodeErrorKind::Cancelled);
    }
}

TEST(Ingest, ScopedCancelTokenAppliesWhenLimitsCarryNone)
{
    const auto records = sampleStream(5000);
    std::atomic<bool> cancel{true};
    ScopedIngestCancel scope(&cancel);
    EXPECT_THROW(ingest(encodeCvp(records), ExternalTraceFormat::Cvp),
                 IngestError);
}

TEST(Ingest, MissingFileIsUnreadable)
{
    try {
        ingestTraceFile("/nonexistent/chirp-no-such-trace");
        FAIL() << "missing file must throw";
    } catch (const IngestError &err) {
        EXPECT_EQ(err.kind(), DecodeErrorKind::Unreadable);
    }
}

TEST(Ingest, FileAndBytesPathsAgree)
{
    const auto records = sampleStream(128);
    const std::string data = encodeCvp(records);
    const std::string path = writeTemp("agree.cvp", data);
    const auto from_file = ingestTraceFile(path);
    const auto from_bytes = ingest(data);
    ASSERT_EQ(from_file.trace->size(), from_bytes.trace->size());
    for (std::size_t i = 0; i < from_file.trace->size(); ++i)
        EXPECT_EQ(from_file.trace->record(i),
                  from_bytes.trace->record(i));
    std::filesystem::remove(path);
}

TEST(Ingest, RepeatedIngestIsDeterministic)
{
    // Two independent ingests of the same bytes must materialize the
    // identical trace — the property CSV byte-equality rests on.
    const auto records = sampleStream(50);
    const auto once = ingest(encodeCvp(records));
    const auto twice = ingest(encodeCvp(records));
    ASSERT_EQ(once.trace->size(), twice.trace->size());
    for (std::size_t i = 0; i < once.trace->size(); ++i)
        EXPECT_EQ(once.trace->record(i), twice.trace->record(i));
}

TEST(IngestRunner, ExternalWorkloadRunsThroughTheSuite)
{
    const auto records = sampleStream(20000, 7);
    const std::string path =
        writeTemp("suite.cvp", encodeCvp(records));
    WorkloadConfig workload;
    workload.tracePath = path;
    workload.name = "external";
    SimConfig config;
    config.simulateCaches = false;
    config.simulateBranch = false;
    const Runner runner(config, 1);
    const SimStats stats =
        runner.runSuite({workload}, Runner::factoryFor(PolicyKind::Lru))[0]
            .stats;
    // Warmup instructions are accounted separately; together they
    // must cover exactly the ingested stream.
    EXPECT_EQ(stats.instructions + stats.warmupInstructions,
              records.size());
    EXPECT_GT(stats.instructions, 0u);
    std::filesystem::remove(path);
}

TEST(IngestRunner, CorruptFileFailsItsJobNotTheSuite)
{
    const auto records = sampleStream(20000, 8);
    const std::string good_path =
        writeTemp("good.cvp", encodeCvp(records));
    const std::string bad_path =
        writeTemp("bad.bin", std::string(100, 'z'));
    std::vector<WorkloadConfig> suite(2);
    suite[0].tracePath = bad_path;
    suite[0].name = "hostile";
    suite[1].tracePath = good_path;
    suite[1].name = "good";
    SimConfig config;
    config.simulateCaches = false;
    config.simulateBranch = false;
    Runner runner(config, 1);
    auto health = std::make_shared<SuiteHealth>();
    runner.setHealth(health);
    const auto results =
        runner.runSuite(suite, Runner::factoryFor(PolicyKind::Lru));
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].stats.instructions, 0u);
    EXPECT_EQ(results[1].stats.instructions +
                  results[1].stats.warmupInstructions,
              records.size());
    EXPECT_EQ(health->failureCount(), 1u);
    EXPECT_EQ(health->okJobs(), 1u);
    std::filesystem::remove(good_path);
    std::filesystem::remove(bad_path);
}

TEST(IngestRunner, ParallelJobsMatchSerial)
{
    const auto records = sampleStream(30000, 9);
    const std::string path =
        writeTemp("par.champsim", encodeChampSim(records));
    std::vector<WorkloadConfig> suite(3);
    for (std::size_t i = 0; i < suite.size(); ++i) {
        suite[i].tracePath = path;
        std::string name(1, 'w');
        name += std::to_string(i);
        suite[i].name = std::move(name);
    }
    SimConfig config;
    config.simulateCaches = false;
    config.simulateBranch = false;
    const Runner serial(config, 1);
    const Runner parallel(config, 3);
    const auto a =
        serial.runSuite(suite, Runner::factoryFor(PolicyKind::Lru));
    const auto b =
        parallel.runSuite(suite, Runner::factoryFor(PolicyKind::Lru));
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].stats.instructions, b[i].stats.instructions);
        EXPECT_EQ(a[i].stats.l2TlbMisses, b[i].stats.l2TlbMisses);
    }
    std::filesystem::remove(path);
}

TEST(QuarantineRetention, KeepsOnlyNewestArtifacts)
{
    namespace fs = std::filesystem;
    resetQuarantineLog();
    const std::string dir =
        ::testing::TempDir() + "chirp_quarantine_retention";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::size_t keep = quarantineKeepCount();
    for (std::size_t i = 0; i < keep + 4; ++i) {
        std::string path = dir;
        path += "/trace";
        path += std::to_string(i);
        path += ".corrupt";
        std::ofstream(path) << "evidence " << i;
        noteQuarantined(path, "test corruption");
    }
    std::size_t remaining = 0;
    for (const auto &entry : fs::directory_iterator(dir))
        remaining += entry.is_regular_file();
    EXPECT_EQ(remaining, keep);
    EXPECT_EQ(quarantinedArtifactCount(), keep + 4);
    const std::string summary = quarantineSummaryLine();
    EXPECT_NE(summary.find("quarantined"), std::string::npos);
    fs::remove_all(dir);
    resetQuarantineLog();
}

TEST(DecodeErrors, FormatNamesKindAndOffset)
{
    const DecodeError err{DecodeErrorKind::TruncatedRecord, 128,
                          "need 64 bytes"};
    const std::string text = err.format();
    EXPECT_NE(text.find("truncated record"), std::string::npos);
    EXPECT_NE(text.find("128"), std::string::npos);
    EXPECT_NE(text.find("need 64 bytes"), std::string::npos);
}

} // namespace
} // namespace chirp
