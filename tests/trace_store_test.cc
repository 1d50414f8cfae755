/**
 * @file
 * Tests for the materialized trace store: one generation per
 * workload shared across getters, stream-key isolation, the mapped
 * on-disk cache tier (round trip, corruption rejection, quarantine,
 * regeneration), and residency bookkeeping via drop().
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>

#include "trace/trace_file.hh"
#include "trace/trace_store.hh"
#include "util/fault_injection.hh"

namespace chirp
{
namespace
{

WorkloadConfig
sampleConfig(Category category = Category::Spec,
             std::uint64_t seed = 42, InstCount length = 20000)
{
    WorkloadConfig config;
    config.category = category;
    config.seed = seed;
    config.length = length;
    config.name = "store-test";
    return config;
}

/** Fresh per-test temp dir so tests cannot see each other's files. */
std::string
freshCacheDir(const char *tag)
{
    const std::string dir =
        ::testing::TempDir() + "chirp_store_" + tag;
    std::filesystem::remove_all(dir);
    return dir;
}

TEST(TraceStore, SameConfigSharesOneMaterialization)
{
    TraceStore store("");
    const auto config = sampleConfig();
    const SharedTrace first = store.get(config);
    const SharedTrace second = store.get(config);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first.get(), second.get()) << "same stream object shared";
    EXPECT_EQ(store.generated(), 1u) << "generator ran exactly once";
    EXPECT_EQ(first->size(), config.length);
}

TEST(TraceStore, KeyIgnoresDisplayName)
{
    auto a = sampleConfig();
    auto b = sampleConfig();
    b.name = "renamed-copy";
    EXPECT_EQ(workloadTraceKey(a), workloadTraceKey(b));

    TraceStore store("");
    EXPECT_EQ(store.get(a).get(), store.get(b).get());
    EXPECT_EQ(store.generated(), 1u);
}

TEST(TraceStore, DistinctConfigsAreIsolated)
{
    TraceStore store("");
    const auto base = sampleConfig();
    auto other_seed = base;
    other_seed.seed = base.seed + 1;
    auto other_cat = base;
    other_cat.category = Category::Crypto;
    auto other_len = base;
    other_len.length = base.length / 2;
    auto other_scale = base;
    other_scale.scale = 2.0;

    const auto t0 = store.get(base);
    const auto t1 = store.get(other_seed);
    const auto t2 = store.get(other_cat);
    const auto t3 = store.get(other_len);
    const auto t4 = store.get(other_scale);
    EXPECT_EQ(store.generated(), 5u);
    EXPECT_NE(t0.get(), t1.get());
    EXPECT_NE(t0.get(), t2.get());
    EXPECT_NE(t0.get(), t3.get());
    EXPECT_NE(t0.get(), t4.get());
    EXPECT_NE(*t0, *t1) << "different seed, different stream";
}

TEST(TraceStore, MatchesDirectGeneration)
{
    TraceStore store("");
    const auto config = sampleConfig(Category::Database, 7, 5000);
    const auto trace = store.get(config);
    EXPECT_EQ(*trace, materializeWorkload(config));
}

TEST(TraceStore, DropReleasesResidency)
{
    TraceStore store("");
    const auto config = sampleConfig();
    {
        const auto trace = store.get(config);
        EXPECT_EQ(store.residentTraces(), 1u);
    }
    store.drop(config);
    EXPECT_EQ(store.residentTraces(), 0u);
    // A fresh get() after drop re-materializes.
    const auto again = store.get(config);
    EXPECT_EQ(store.generated(), 2u);
    EXPECT_EQ(*again, materializeWorkload(config));
}

TEST(TraceStore, DiskTierRoundTrips)
{
    const std::string dir = freshCacheDir("roundtrip");
    const auto config = sampleConfig(Category::Web, 9, 8000);

    TraceStore writer(dir);
    const auto generated = writer.get(config);
    EXPECT_EQ(writer.generated(), 1u);
    EXPECT_TRUE(std::filesystem::exists(writer.cachePath(config)))
        << "materialization persisted to the cache dir";

    // A second store must satisfy the request from disk alone, by
    // mapping the file rather than copying it.
    TraceStore reader(dir);
    const auto loaded = reader.get(config);
    EXPECT_EQ(reader.generated(), 0u);
    EXPECT_EQ(reader.diskLoads(), 1u);
    EXPECT_EQ(*loaded, *generated);
    EXPECT_EQ(*loaded, *mapTraceFile(writer.cachePath(config)));
    std::filesystem::remove_all(dir);
}

TEST(TraceStore, StaleLengthCacheIsRejected)
{
    const std::string dir = freshCacheDir("stale");
    auto config = sampleConfig(Category::Scientific, 13, 4000);

    {
        TraceStore store(dir);
        store.get(config);
    }
    // Same stream key cannot happen with a different length (length
    // is part of the key), but a truncated/rewritten file under the
    // same name must still be refused by the count check.
    const TraceStore probe(dir);
    const std::string path = probe.cachePath(config);
    ASSERT_TRUE(std::filesystem::exists(path));
    {
        // Rewrite the file with fewer records than the config needs.
        auto short_config = config;
        short_config.length = 100;
        ASSERT_TRUE(writeTraceFile(
            path, ColumnarTrace(materializeWorkload(short_config))));
    }
    TraceStore reader(dir);
    const auto trace = reader.get(config);
    EXPECT_EQ(reader.rejectedCaches(), 1u);
    EXPECT_EQ(reader.generated(), 1u);
    EXPECT_EQ(trace->size(), config.length);
    std::filesystem::remove_all(dir);
}

TEST(TraceStore, TruncatedCacheIsQuarantined)
{
    const std::string dir = freshCacheDir("truncated");
    const auto config = sampleConfig(Category::Web, 17, 3000);

    TraceStore writer(dir);
    const auto generated = writer.get(config);
    const std::string path = writer.cachePath(config);
    ASSERT_TRUE(std::filesystem::exists(path));

    // Cut the file in half: the size check must refuse it,
    // rename it aside as evidence, and regenerate.
    std::filesystem::resize_file(
        path, std::filesystem::file_size(path) / 2);

    TraceStore reader(dir);
    const auto regenerated = reader.get(config);
    EXPECT_EQ(reader.quarantinedCaches(), 1u);
    EXPECT_EQ(reader.rejectedCaches(), 1u);
    EXPECT_EQ(reader.generated(), 1u);
    EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"))
        << "bad file kept for post-mortem";
    EXPECT_TRUE(std::filesystem::exists(path))
        << "fresh cache file re-published after regeneration";
    EXPECT_EQ(*regenerated, *generated);

    // The re-published replacement must satisfy a third store.
    TraceStore again(dir);
    again.get(config);
    EXPECT_EQ(again.diskLoads(), 1u);
    EXPECT_EQ(again.quarantinedCaches(), 0u);
    std::filesystem::remove_all(dir);
}

TEST(TraceStore, BitFlippedCacheIsQuarantined)
{
    const std::string dir = freshCacheDir("bitflip");
    const auto config = sampleConfig(Category::Database, 29, 3000);

    TraceStore writer(dir);
    const auto generated = writer.get(config);
    const std::string path = writer.cachePath(config);
    ASSERT_TRUE(std::filesystem::exists(path));

    // Single flipped bit in the pc column: structure stays plausible,
    // so only the checksum pass over the mapping can catch it, and it
    // must do so before the trace is trusted.
    {
        std::FILE *f = std::fopen(path.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        std::fseek(f, 16 + 8 * 100, SEEK_SET);
        const int c = std::fgetc(f);
        std::fseek(f, -1, SEEK_CUR);
        std::fputc(c ^ 0x01, f);
        std::fclose(f);
    }

    TraceStore reader(dir);
    const auto regenerated = reader.get(config);
    EXPECT_EQ(reader.diskLoads(), 0u);
    EXPECT_EQ(reader.quarantinedCaches(), 1u);
    EXPECT_EQ(reader.rejectedCaches(), 1u);
    EXPECT_EQ(reader.generated(), 1u);
    EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"))
        << "bad file kept for post-mortem";
    EXPECT_EQ(*regenerated, *generated)
        << "regenerated stream is the pristine one";

    // The re-published replacement is mapped again.
    TraceStore again(dir);
    EXPECT_EQ(*again.get(config), *generated);
    EXPECT_EQ(again.diskLoads(), 1u);
    EXPECT_EQ(again.quarantinedCaches(), 0u);
    std::filesystem::remove_all(dir);
}

TEST(TraceStore, WrappedCountCacheIsQuarantined)
{
    const std::string dir = freshCacheDir("wrapped_count");
    const auto config = sampleConfig(Category::Crypto, 41, 2000);

    // A 72-byte cache file whose record count wraps the expected file
    // size around 2^64 back to 72 bytes.  It must be refused as a size
    // mismatch and quarantined, never mapped and read past its end.
    const TraceStore probe(dir);
    const std::string path = probe.cachePath(config);
    std::filesystem::create_directories(dir);
    {
        std::uint8_t bytes[72] = {};
        const std::uint32_t version = kTraceFormatVersion;
        const std::uint64_t count = 0x70a3d70a3d70a3d8ull;
        std::memcpy(bytes, "CHTR", 4);
        std::memcpy(bytes + 4, &version, sizeof(version));
        std::memcpy(bytes + 8, &count, sizeof(count));
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fwrite(bytes, 1, sizeof(bytes), f);
        std::fclose(f);
    }

    TraceStore reader(dir);
    const auto trace = reader.get(config);
    EXPECT_EQ(reader.quarantinedCaches(), 1u);
    EXPECT_EQ(reader.generated(), 1u);
    EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));
    EXPECT_EQ(*trace, materializeWorkload(config));
    std::filesystem::remove_all(dir);
}

/**
 * The CHIRP_FAULT cache-bitflip action against the v2 column format:
 * the injector corrupts the freshly published cache file, and the
 * next store to consider it must quarantine and regenerate.
 */
TEST(TraceStoreFault, InjectedBitflipIsQuarantined)
{
    const std::string dir = freshCacheDir("fault_bitflip");
    const auto config = sampleConfig(Category::Web, 37, 4000);

    FaultInjector &injector = FaultInjector::instance();
    injector.configure("cache-bitflip@0");
    TraceStore writer(dir);
    const auto generated = writer.get(config);
    EXPECT_EQ(injector.cacheEvents(), 1u)
        << "publishing the cache file must fire the armed action";
    injector.reset();

    TraceStore reader(dir);
    const auto regenerated = reader.get(config);
    EXPECT_EQ(reader.quarantinedCaches(), 1u)
        << "corrupted publish must be quarantined";
    EXPECT_EQ(reader.generated(), 1u);
    EXPECT_TRUE(std::filesystem::exists(
        writer.cachePath(config) + ".corrupt"));
    EXPECT_EQ(*regenerated, *generated);
    std::filesystem::remove_all(dir);
}

TEST(MemoryTraceSource, ReplaysSharedStream)
{
    const auto config = sampleConfig(Category::Crypto, 5, 3000);
    const auto trace = std::make_shared<const ColumnarTrace>(
        materializeWorkload(config));
    MemoryTraceSource source(trace, "replay");
    EXPECT_EQ(source.expectedLength(), trace->size());

    std::vector<TraceRecord> replayed;
    TraceRecord rec;
    while (source.next(rec))
        replayed.push_back(rec);
    EXPECT_EQ(*trace, replayed);

    // reset() rewinds to a byte-identical second pass.
    source.reset();
    std::size_t i = 0;
    while (source.next(rec))
        EXPECT_EQ(rec, trace->record(i++));
    EXPECT_EQ(i, trace->size());
}

} // namespace
} // namespace chirp
