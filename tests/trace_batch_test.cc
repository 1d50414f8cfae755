/**
 * @file
 * Batched-pull equivalence: for every trace source, nextBatch() must
 * deliver exactly the record sequence that repeated next() calls
 * produce — across all six workload categories, at awkward batch
 * sizes, and through the capping/file-backed wrappers.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "trace/synthetic/workload_factory.hh"
#include "trace/trace_file.hh"
#include "trace/trace_store.hh"
#include "trace/workload_suite.hh"

namespace chirp
{
namespace
{

std::vector<TraceRecord>
drainScalar(TraceSource &source)
{
    source.reset();
    std::vector<TraceRecord> out;
    TraceRecord rec;
    while (source.next(rec))
        out.push_back(rec);
    return out;
}

std::vector<TraceRecord>
drainBatched(TraceSource &source, std::size_t batch)
{
    source.reset();
    std::vector<TraceRecord> out;
    std::vector<TraceRecord> buf(batch);
    std::size_t got;
    while ((got = source.nextBatch(buf.data(), batch)) > 0)
        out.insert(out.end(), buf.begin(),
                   buf.begin() + static_cast<std::ptrdiff_t>(got));
    return out;
}

const std::size_t kBatchSizes[] = {1, 7, 64, 256, 1000};

WorkloadConfig
makeConfig(Category category, std::uint64_t seed, InstCount length)
{
    WorkloadConfig config;
    config.category = category;
    config.seed = seed;
    config.length = length;
    return config;
}

std::vector<Category>
allCategories()
{
    std::vector<Category> cats;
    const auto ncat = static_cast<unsigned>(Category::NumCategories);
    for (unsigned c = 0; c < ncat; ++c)
        cats.push_back(static_cast<Category>(c));
    return cats;
}

TEST(TraceBatch, GeneratorMatchesScalarForAllCategories)
{
    for (const Category category : allCategories()) {
        WorkloadConfig config;
        config.category = category;
        config.seed = 0xBEE5 + static_cast<std::uint64_t>(category);
        config.length = 12000;
        SCOPED_TRACE(categoryName(category));

        const auto scalar_program = buildWorkload(config);
        const auto reference = drainScalar(*scalar_program);
        ASSERT_EQ(reference.size(), config.length);

        for (const std::size_t batch : kBatchSizes) {
            SCOPED_TRACE("batch=" + std::to_string(batch));
            const auto program = buildWorkload(config);
            EXPECT_EQ(drainBatched(*program, batch), reference);
        }
    }
}

TEST(TraceBatch, MemorySourceMatchesGenerator)
{
    for (const Category category : allCategories()) {
        WorkloadConfig config;
        config.category = category;
        config.seed = 0xFACE + static_cast<std::uint64_t>(category);
        config.length = 9000;
        SCOPED_TRACE(categoryName(category));

        const auto program = buildWorkload(config);
        const auto reference = drainScalar(*program);
        const auto trace = std::make_shared<const ColumnarTrace>(
            materializeWorkload(config));

        MemoryTraceSource source(trace);
        EXPECT_EQ(drainScalar(source), reference);
        for (const std::size_t batch : kBatchSizes) {
            SCOPED_TRACE("batch=" + std::to_string(batch));
            EXPECT_EQ(drainBatched(source, batch), reference);
        }
    }
}

TEST(TraceBatch, ShortFinalBatchSignalsEnd)
{
    const auto trace = std::make_shared<const ColumnarTrace>(
        materializeWorkload(makeConfig(Category::Spec, 3, 1000)));
    MemoryTraceSource source(trace);
    TraceRecord buf[300];
    EXPECT_EQ(source.nextBatch(buf, 300), 300u);
    EXPECT_EQ(source.nextBatch(buf, 300), 300u);
    EXPECT_EQ(source.nextBatch(buf, 300), 300u);
    EXPECT_EQ(source.nextBatch(buf, 300), 100u) << "short count at end";
    EXPECT_EQ(source.nextBatch(buf, 300), 0u) << "drained source";
}

TEST(TraceBatch, CappedSourceClampsBatches)
{
    const auto trace = std::make_shared<const ColumnarTrace>(
        materializeWorkload(makeConfig(Category::Database, 4, 2000)));
    MemoryTraceSource inner(trace);
    CappedSource capped(inner, 500);
    EXPECT_EQ(drainScalar(capped).size(), 500u);
    for (const std::size_t batch : kBatchSizes) {
        SCOPED_TRACE("batch=" + std::to_string(batch));
        inner.reset();
        const auto records = drainBatched(capped, batch);
        ASSERT_EQ(records.size(), 500u);
        for (std::size_t i = 0; i < records.size(); ++i)
            EXPECT_EQ(records[i], trace->record(i));
    }
}

TEST(TraceBatch, VectorSourceBatchesMatchScalar)
{
    const auto records =
        materializeWorkload(makeConfig(Category::Web, 6, 777));
    VectorSource source(records);
    const auto reference = drainScalar(source);
    ASSERT_EQ(reference, records);
    for (const std::size_t batch : kBatchSizes) {
        SCOPED_TRACE("batch=" + std::to_string(batch));
        EXPECT_EQ(drainBatched(source, batch), reference);
    }
}

TEST(TraceBatch, FileSourceBatchesMatchScalar)
{
    const std::string path = ::testing::TempDir() + "batch.chtr";
    const auto records =
        materializeWorkload(makeConfig(Category::Crypto, 8, 1500));
    ASSERT_TRUE(writeTraceFile(path, ColumnarTrace(records)));
    MemoryTraceSource source(mapTraceFile(path), path);
    EXPECT_EQ(drainScalar(source), records);
    for (const std::size_t batch : kBatchSizes) {
        SCOPED_TRACE("batch=" + std::to_string(batch));
        EXPECT_EQ(drainBatched(source, batch), records);
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace chirp
