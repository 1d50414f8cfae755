/** @file Tests for the binary trace file format: writer and mapped reader. */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>

#include <sys/stat.h>

#include "trace/ingest/decode_error.hh"
#include "trace/trace_file.hh"
#include "trace/trace_store.hh"

namespace chirp
{
namespace
{

std::vector<TraceRecord>
sampleRecords()
{
    std::vector<TraceRecord> records;
    for (int i = 0; i < 100; ++i) {
        TraceRecord rec;
        rec.pc = 0x400000 + 4 * i;
        rec.cls = static_cast<InstClass>(i % 8);
        rec.effAddr = isMemory(rec.cls) ? 0x100000000ull + 8 * i : 0;
        rec.target = isBranch(rec.cls) ? rec.pc + 64 : 0;
        rec.taken = (i % 3) == 0;
        records.push_back(rec);
    }
    return records;
}

/** Write @p records to a fresh temp file and return its path. */
std::string
writeTrace(const char *tag, const std::vector<TraceRecord> &records)
{
    const std::string path = ::testing::TempDir() + tag;
    EXPECT_TRUE(writeTraceFile(path, ColumnarTrace(records)));
    return path;
}

/** Write raw @p bytes to a fresh temp file and return its path. */
std::string
writeBytes(const char *tag, const std::vector<std::uint8_t> &bytes)
{
    const std::string path = ::testing::TempDir() + tag;
    std::FILE *f = std::fopen(path.c_str(), "wb");
    EXPECT_NE(f, nullptr);
    if (!bytes.empty())
        std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
    return path;
}

/** XOR @p mask into the byte at @p offset of @p path. */
void
flipByte(const std::string &path, long offset, int mask)
{
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, offset, SEEK_SET);
    const int c = std::fgetc(f);
    std::fseek(f, offset, SEEK_SET);
    std::fputc(c ^ mask, f);
    std::fclose(f);
}

/**
 * Map @p path, expect a refusal, and return its reason; the test
 * fails unless the reason names @p kind.
 */
std::string
expectRefused(const std::string &path, DecodeErrorKind kind)
{
    std::string reason;
    EXPECT_EQ(mapTraceFile(path, &reason), nullptr) << path;
    EXPECT_NE(reason.find(decodeErrorKindName(kind)), std::string::npos)
        << "expected '" << decodeErrorKindName(kind) << "', got '"
        << reason << "'";
    return reason;
}

TEST(TraceFile, RoundTripsRecords)
{
    const auto records = sampleRecords();
    const std::string path = writeTrace("roundtrip.chtr", records);
    std::string reason;
    const auto mapped = mapTraceFile(path, &reason);
    ASSERT_NE(mapped, nullptr) << reason;
    EXPECT_EQ(*mapped, records);
    std::remove(path.c_str());
}

TEST(TraceFile, ResetReplaysIdentically)
{
    const std::string path = writeTrace("reset.chtr", sampleRecords());
    MemoryTraceSource source(mapTraceFile(path), path);
    std::vector<TraceRecord> first;
    std::vector<TraceRecord> second;
    TraceRecord rec;
    while (source.next(rec))
        first.push_back(rec);
    source.reset();
    while (source.next(rec))
        second.push_back(rec);
    EXPECT_EQ(first, sampleRecords());
    EXPECT_EQ(first, second);
    std::remove(path.c_str());
}

TEST(TraceFile, EmptyTraceIsValid)
{
    const std::string path = writeTrace("empty.chtr", {});
    EXPECT_EQ(std::filesystem::file_size(path), 48u)
        << "header plus checksum footer";
    std::string reason;
    const auto mapped = mapTraceFile(path, &reason);
    ASSERT_NE(mapped, nullptr) << reason;
    EXPECT_EQ(mapped->size(), 0u);
    std::remove(path.c_str());
}

TEST(TraceFile, RejectsMissingFile)
{
    expectRefused(::testing::TempDir() + "does_not_exist.chtr",
                  DecodeErrorKind::Unreadable);
}

TEST(TraceFile, RejectsFifoWithoutBlocking)
{
    // A FIFO has no writer here: a blocking open would never return.
    const std::string path = ::testing::TempDir() + "fifo.chtr";
    std::remove(path.c_str());
    ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
    expectRefused(path, DecodeErrorKind::Unreadable);
    std::remove(path.c_str());
}

TEST(TraceFile, RejectsBadMagic)
{
    const char text[] = "this is not a trace";
    const std::string path = writeBytes(
        "garbage.chtr",
        std::vector<std::uint8_t>(text, text + sizeof(text) - 1));
    expectRefused(path, DecodeErrorKind::BadMagic);
    std::remove(path.c_str());
}

TEST(TraceFile, RejectsVersion1)
{
    const std::string path = writeTrace("v1.chtr", sampleRecords());
    flipByte(path, 4, 2 ^ 1); // version 2 -> 1
    const std::string reason =
        expectRefused(path, DecodeErrorKind::BadVersion);
    EXPECT_NE(reason.find("version 1"), std::string::npos) << reason;
    std::remove(path.c_str());
}

TEST(TraceFile, RejectsEmptyAndShortHeaderFiles)
{
    const std::string empty = writeBytes("zero.chtr", {});
    expectRefused(empty, DecodeErrorKind::BadMagic);
    std::remove(empty.c_str());

    // Magic and version intact, record count cut short.
    const std::string path =
        writeTrace("short_header.chtr", sampleRecords());
    std::filesystem::resize_file(path, 15);
    expectRefused(path, DecodeErrorKind::TruncatedHeader);
    std::remove(path.c_str());
}

TEST(TraceFile, RejectsSizeMismatch)
{
    // Header claims more records than the file holds.
    const std::string path = writeTrace("trunc.chtr", sampleRecords());
    std::filesystem::resize_file(path, 16 + 25 * 50);
    expectRefused(path, DecodeErrorKind::SizeMismatch);
    std::remove(path.c_str());

    // Trailing bytes past the footer: the count fits, the size does not.
    const std::string grown = writeTrace("grown.chtr", sampleRecords());
    std::filesystem::resize_file(grown,
                                 std::filesystem::file_size(grown) + 8);
    expectRefused(grown, DecodeErrorKind::SizeMismatch);
    std::remove(grown.c_str());
}

TEST(TraceFile, RejectsCountThatWrapsTheExpectedSize)
{
    // 72 bytes: magic, version 2, a record count whose expected file
    // size wraps around 2^64, and zero fill.  The count must be
    // bounded by the file size before any layout arithmetic, or the
    // checksum pass reads past the end of the mapping.
    std::vector<std::uint8_t> bytes(72, 0);
    const std::uint32_t version = 2;
    const std::uint64_t count = 0x70a3d70a3d70a3d8ull;
    std::memcpy(bytes.data(), "CHTR", 4);
    std::memcpy(bytes.data() + 4, &version, sizeof(version));
    std::memcpy(bytes.data() + 8, &count, sizeof(count));
    const std::string path = writeBytes("wrapped_count.chtr", bytes);
    expectRefused(path, DecodeErrorKind::SizeMismatch);
    std::remove(path.c_str());
}

TEST(TraceFile, RejectsBitFlipInEachColumn)
{
    const auto records = sampleRecords();
    const long n = static_cast<long>(records.size());
    // One byte inside each column: pc, effAddr, target, meta.
    const long offsets[4] = {16 + 8 * 10 + 3, 16 + 8 * n + 8 * 42,
                             16 + 16 * n + 8 * 7 + 5, 16 + 24 * n + 61};
    for (int c = 0; c < 4; ++c) {
        SCOPED_TRACE("column " + std::to_string(c));
        const std::string path =
            writeTrace("bitflip_column.chtr", records);
        flipByte(path, offsets[c], 0x01);
        const std::string reason =
            expectRefused(path, DecodeErrorKind::ChecksumMismatch);
        EXPECT_NE(reason.find("column " + std::to_string(c)),
                  std::string::npos)
            << reason;
        std::remove(path.c_str());
    }
}

/**
 * A record stream sized so the file ends mid-page: v2 files are
 * 16 + 24n + pad8(n) + 32 bytes, so 200 records give 5048 bytes --
 * two pages with a partial tail.  The mmap loader must still reach
 * the meta column and the checksum footer inside that tail page.
 */
std::vector<TraceRecord>
tailPageRecords()
{
    std::vector<TraceRecord> records;
    for (int i = 0; i < 200; ++i) {
        TraceRecord rec;
        rec.pc = 0x400000 + 4 * i;
        rec.cls = static_cast<InstClass>(i % 8);
        rec.effAddr = isMemory(rec.cls) ? 0x200000000ull + 16 * i : 0;
        rec.target = isBranch(rec.cls) ? rec.pc + 128 : 0;
        rec.taken = (i & 1) != 0;
        records.push_back(rec);
    }
    return records;
}

TEST(TraceMap, MapsPartialTailPage)
{
    const auto records = tailPageRecords();
    const std::string path = writeTrace("map_tail.chtr", records);
    ASSERT_NE(std::filesystem::file_size(path) % 4096, 0u)
        << "fixture must exercise a partial tail page";

    std::string reason;
    const auto mapped = mapTraceFile(path, &reason);
    ASSERT_NE(mapped, nullptr) << reason;
    ASSERT_EQ(mapped->size(), records.size());
    // Every record, most importantly the last ones living in the
    // partially used tail page, replays from the mapping.
    for (std::size_t i = 0; i < records.size(); ++i)
        EXPECT_EQ(mapped->record(i), records[i]) << "record " << i;
    std::remove(path.c_str());
}

TEST(TraceMap, MapOutlivesEarlierHandles)
{
    const auto records = tailPageRecords();
    const std::string path = writeTrace("map_alive.chtr", records);
    std::shared_ptr<const ColumnarTrace> survivor;
    {
        const auto mapped = mapTraceFile(path);
        ASSERT_NE(mapped, nullptr);
        survivor = mapped;
    }
    // The mapping is owned by the shared_ptr, not the call scope, and
    // stays valid after the file is unlinked (POSIX keeps the pages).
    std::remove(path.c_str());
    EXPECT_EQ(survivor->record(records.size() - 1),
              records.back());
}

TEST(TraceMap, RejectsTruncation)
{
    const std::string path =
        writeTrace("map_trunc.chtr", tailPageRecords());
    std::filesystem::resize_file(
        path, std::filesystem::file_size(path) - 40);
    expectRefused(path, DecodeErrorKind::SizeMismatch);
    std::remove(path.c_str());
}

TEST(InstClassHelpers, Classification)
{
    EXPECT_TRUE(isBranch(InstClass::CondBranch));
    EXPECT_TRUE(isBranch(InstClass::UncondDirect));
    EXPECT_TRUE(isBranch(InstClass::UncondIndirect));
    EXPECT_FALSE(isBranch(InstClass::Load));
    EXPECT_TRUE(isMemory(InstClass::Load));
    EXPECT_TRUE(isMemory(InstClass::Store));
    EXPECT_FALSE(isMemory(InstClass::Alu));
    EXPECT_STREQ(instClassName(InstClass::Load), "load");
    EXPECT_STREQ(instClassName(InstClass::UncondIndirect),
                 "uncondIndirect");
}

TEST(VectorSource, CapAndLength)
{
    VectorSource inner(sampleRecords());
    CappedSource capped(inner, 10);
    EXPECT_EQ(capped.expectedLength(), 10u);
    TraceRecord rec;
    int n = 0;
    while (capped.next(rec))
        ++n;
    EXPECT_EQ(n, 10);
    capped.reset();
    n = 0;
    while (capped.next(rec))
        ++n;
    EXPECT_EQ(n, 10);
}

} // namespace
} // namespace chirp
