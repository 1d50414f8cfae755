/**
 * @file
 * Tests for the materialized trace store: one generation per
 * workload shared across getters, stream-key isolation, the on-disk
 * cache tier (round trip, corruption rejection, regeneration), and
 * residency bookkeeping via drop().
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "bench/harness.hh"
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

    // A second store must satisfy the request from disk alone.
    TraceStore reader(dir);
    const auto loaded = reader.get(config);
    EXPECT_EQ(reader.generated(), 0u);
    EXPECT_EQ(reader.diskLoads(), 1u);
    EXPECT_EQ(*loaded, *generated);
    std::filesystem::remove_all(dir);
}

TEST(TraceStore, CorruptedCacheIsRejectedAndRegenerated)
{
    const std::string dir = freshCacheDir("corrupt");
    const auto config = sampleConfig(Category::BigData, 11, 6000);

    TraceStore writer(dir);
    const auto generated = writer.get(config);
    const std::string path = writer.cachePath(config);
    ASSERT_TRUE(std::filesystem::exists(path));

    // Flip one byte in the record payload; the eager checksum pass
    // must refuse the file and fall back to the generator.
    {
        std::FILE *f = std::fopen(path.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        std::fseek(f, 16 + 26 * 3 + 1, SEEK_SET);
        const int c = std::fgetc(f);
        std::fseek(f, -1, SEEK_CUR);
        std::fputc(c ^ 0xff, f);
        std::fclose(f);
    }

    TraceStore reader(dir);
    const auto regenerated = reader.get(config);
    EXPECT_EQ(reader.rejectedCaches(), 1u);
    EXPECT_EQ(reader.diskLoads(), 0u);
    EXPECT_EQ(reader.generated(), 1u);
    EXPECT_EQ(*regenerated, *generated)
        << "regenerated stream is the pristine one";
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
        TraceFileWriter writer(path);
        for (const auto &rec : materializeWorkload(short_config))
            writer.append(rec);
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

    // Cut the file in half: the probe's size check must refuse it,
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
    const auto config = sampleConfig(Category::Spec, 19, 3000);

    TraceStore writer(dir);
    const auto generated = writer.get(config);
    const std::string path = writer.cachePath(config);
    ASSERT_TRUE(std::filesystem::exists(path));

    // Single flipped bit mid-payload: structure stays plausible, so
    // only the checksum pass can catch it.
    {
        std::FILE *f = std::fopen(path.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        std::fseek(f, 16 + 26 * 10, SEEK_SET);
        const int c = std::fgetc(f);
        std::fseek(f, -1, SEEK_CUR);
        std::fputc(c ^ 0x01, f);
        std::fclose(f);
    }

    TraceStore reader(dir);
    const auto regenerated = reader.get(config);
    EXPECT_EQ(reader.quarantinedCaches(), 1u);
    EXPECT_EQ(reader.generated(), 1u);
    EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));
    EXPECT_EQ(*regenerated, *generated);
    std::filesystem::remove_all(dir);
}

/** Pin CHIRP_TRACE_FORMAT for one test, restoring the prior value. */
class ScopedTraceFormat
{
  public:
    explicit ScopedTraceFormat(const char *format)
    {
        if (const char *prev = std::getenv("CHIRP_TRACE_FORMAT"))
            saved_ = prev;
        ::setenv("CHIRP_TRACE_FORMAT", format, 1);
    }

    ~ScopedTraceFormat()
    {
        if (saved_.empty())
            ::unsetenv("CHIRP_TRACE_FORMAT");
        else
            ::setenv("CHIRP_TRACE_FORMAT", saved_.c_str(), 1);
    }

    ScopedTraceFormat(const ScopedTraceFormat &) = delete;
    ScopedTraceFormat &operator=(const ScopedTraceFormat &) = delete;

  private:
    std::string saved_;
};

TEST(TraceStoreMmap, DiskTierServesZeroCopyMappings)
{
    const ScopedTraceFormat format("mmap");
    const std::string dir = freshCacheDir("mmap_roundtrip");
    const auto config = sampleConfig(Category::Scientific, 23, 7000);

    TraceStore writer(dir);
    const auto generated = writer.get(config);
    EXPECT_EQ(writer.generated(), 1u);

    TraceStore reader(dir);
    const auto mapped = reader.get(config);
    EXPECT_EQ(reader.generated(), 0u);
    EXPECT_EQ(reader.diskLoads(), 1u);
    EXPECT_EQ(reader.mappedLoads(), 1u)
        << "the mmap tier must map, not copy, the cache file";
    EXPECT_EQ(*mapped, *generated);
    std::filesystem::remove_all(dir);
}

TEST(TraceStoreMmap, BitFlippedCacheQuarantinesLikeStreamingTier)
{
    const ScopedTraceFormat format("mmap");
    const std::string dir = freshCacheDir("mmap_bitflip");
    const auto config = sampleConfig(Category::Database, 29, 3000);

    TraceStore writer(dir);
    const auto generated = writer.get(config);
    const std::string path = writer.cachePath(config);
    ASSERT_TRUE(std::filesystem::exists(path));

    // Same single-bit corruption the streaming-tier test injects: the
    // mapped checksum pass must catch it before the trace is trusted,
    // quarantine the file identically, and fall back to the generator.
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
    EXPECT_EQ(reader.mappedLoads(), 0u);
    EXPECT_EQ(reader.quarantinedCaches(), 1u);
    EXPECT_EQ(reader.rejectedCaches(), 1u);
    EXPECT_EQ(reader.generated(), 1u);
    EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"))
        << "mmap tier keeps the same .corrupt evidence trail";
    EXPECT_EQ(*regenerated, *generated);

    // The re-published replacement serves zero-copy again.
    TraceStore again(dir);
    EXPECT_EQ(*again.get(config), *generated);
    EXPECT_EQ(again.mappedLoads(), 1u);
    EXPECT_EQ(again.quarantinedCaches(), 0u);
    std::filesystem::remove_all(dir);
}

/**
 * The CHIRP_FAULT cache-bitflip action against the v2 column format:
 * the injector corrupts the freshly published cache file, and the
 * next store to consider it must quarantine and regenerate on both
 * the streaming and the zero-copy tier.
 */
void
runFaultInjectedBitflip(const char *format_name, std::uint64_t seed)
{
    const ScopedTraceFormat format(format_name);
    const std::string dir =
        freshCacheDir((std::string("fault_") + format_name).c_str());
    const auto config = sampleConfig(Category::Web, seed, 4000);

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
        << format_name << ": corrupted publish must be quarantined";
    EXPECT_EQ(reader.generated(), 1u);
    EXPECT_TRUE(std::filesystem::exists(
        writer.cachePath(config) + ".corrupt"));
    EXPECT_EQ(*regenerated, *generated);
    std::filesystem::remove_all(dir);
}

TEST(TraceStoreFault, InjectedBitflipQuarantinesStreamingTier)
{
    runFaultInjectedBitflip("columnar", 31);
}

TEST(TraceStoreFault, InjectedBitflipQuarantinesMmapTier)
{
    runFaultInjectedBitflip("mmap", 37);
}

/**
 * Only "columnar" and "mmap" name a trace format: the retired
 * "legacy" tier and garbage alike exit through the one unknown-format
 * fatal, whether they arrive through the environment or the bench
 * --trace-format flag.
 */
TEST(TraceFormatDeathTest, LegacyAndGarbageEnvValuesAreFatal)
{
    for (const char *value : {"legacy", "no-such-format"}) {
        SCOPED_TRACE(value);
        const ScopedTraceFormat format(value);
        EXPECT_EXIT(traceFormat(), ::testing::ExitedWithCode(1),
                    "unknown format");
        // A store validates on construction, even without a disk tier.
        EXPECT_EXIT(TraceStore(""), ::testing::ExitedWithCode(1),
                    "unknown format");
    }
}

TEST(TraceFormatDeathTest, BenchFlagRejectsLegacy)
{
    char bench[] = "bench";
    char flag[] = "--trace-format";
    char legacy[] = "legacy";
    char *argv[] = {bench, flag, legacy, nullptr};
    EXPECT_EXIT(bench::makeContext(3, argv, 1, /*mpki_only=*/true),
                ::testing::ExitedWithCode(1), "unknown format");
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
