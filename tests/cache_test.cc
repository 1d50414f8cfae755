/** @file Tests for the cache model and hierarchy. */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "mem/cache_hierarchy.hh"
#include "support/reference_cache.hh"
#include "util/random.hh"

namespace chirp
{
namespace
{

CacheConfig
tinyCache()
{
    // 4 sets x 2 ways x 64B lines = 512B.
    CacheConfig config;
    config.name = "tiny";
    config.sizeBytes = 512;
    config.assoc = 2;
    config.lineBytes = 64;
    config.latency = 3;
    return config;
}

TEST(Cache, MissThenHit)
{
    Cache cache(tinyCache());
    EXPECT_FALSE(cache.access(0x1000, false));
    EXPECT_TRUE(cache.access(0x1000, false));
    EXPECT_TRUE(cache.access(0x103f, false)) << "same 64B line";
    EXPECT_FALSE(cache.access(0x1040, false)) << "next line";
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(Cache, LruEviction)
{
    Cache cache(tinyCache());
    // Three lines mapping to the same set (4 sets, line 64B:
    // set = (addr/64) % 4). Addresses 0, 256, 512 all hit set 0.
    cache.access(0, false);
    cache.access(256, false);
    cache.access(0, false);   // 0 becomes MRU
    cache.access(512, false); // evicts 256 (LRU)
    EXPECT_TRUE(cache.probe(0));
    EXPECT_FALSE(cache.probe(256));
    EXPECT_TRUE(cache.probe(512));
}

TEST(Cache, ResetClears)
{
    Cache cache(tinyCache());
    cache.access(0x1000, true);
    cache.reset();
    EXPECT_FALSE(cache.probe(0x1000));
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
}

TEST(Cache, ResetForgetsTheLastLine)
{
    // A repeat of the line touched last is a hit without a set scan;
    // reset() must drop that memo along with the lines.
    Cache cache(tinyCache());
    EXPECT_FALSE(cache.access(0x1000, false));
    cache.reset();
    EXPECT_FALSE(cache.access(0x1000, false));
    EXPECT_TRUE(cache.access(0x1008, false));
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(Cache, MatchesReferenceLruUnderRepeats)
{
    // Reference: per-set recency lists, most recent first.  The
    // stream repeats the previous line often, so the last-line memo
    // and the set scan both run, and every outcome must match.
    const CacheConfig config = tinyCache();
    Cache cache(config);
    const std::size_t sets = config.sizeBytes / config.lineBytes /
                             config.assoc;
    std::vector<std::vector<Addr>> lru(sets);
    Rng rng(11);
    Addr addr = 0;
    for (int i = 0; i < 20000; ++i) {
        if (!rng.chance(0.4))
            addr = rng.below(32) * config.lineBytes + rng.below(64);
        const Addr line = addr / config.lineBytes;
        std::vector<Addr> &set = lru[line % sets];
        const auto it = std::find(set.begin(), set.end(), line);
        const bool hit = it != set.end();
        if (hit)
            set.erase(it);
        else if (set.size() == config.assoc)
            set.pop_back();
        set.insert(set.begin(), line);
        ASSERT_EQ(cache.access(addr, false), hit) << "access " << i;
    }
    for (Addr line = 0; line < 32; ++line) {
        const std::vector<Addr> &set = lru[line % sets];
        EXPECT_EQ(cache.probe(line * config.lineBytes),
                  std::find(set.begin(), set.end(), line) != set.end());
    }
}

TEST(Cache, RejectsIndivisibleGeometry)
{
    CacheConfig config = tinyCache();
    config.sizeBytes = 500;
    EXPECT_EXIT({ Cache c(config); }, ::testing::ExitedWithCode(1),
                "not divisible");
}

CacheConfig
levelOf(const std::string &name, std::uint32_t sets, std::uint32_t assoc,
        Cycles latency, std::uint32_t line_bytes = 64)
{
    return CacheConfig{name, std::uint64_t{sets} * assoc * line_bytes,
                       assoc, line_bytes, latency};
}

/** A small hierarchy of @p assoc-way levels with @p line_bytes lines. */
CacheHierarchyConfig
hierarchyOf(std::uint32_t assoc, std::uint32_t line_bytes = 64)
{
    CacheHierarchyConfig config;
    config.l1i = levelOf("l1i", 8, assoc, 4, line_bytes);
    config.l1d = levelOf("l1d", 8, assoc, 4, line_bytes);
    config.l2 = levelOf("l2", 32, assoc, 12, line_bytes);
    config.l3 = levelOf("l3", 64, assoc, 42, line_bytes);
    return config;
}

/** Address stream shapes the reference diff runs. */
using Stream = std::function<Addr(Rng &)>;

std::vector<std::pair<std::string, Stream>>
streams(Addr span)
{
    std::vector<std::pair<std::string, Stream>> out;
    out.emplace_back("random",
                     [span](Rng &rng) { return rng.below(span); });
    out.emplace_back("streaming", [span, pos = Addr{0}](Rng &rng) mutable {
        pos = rng.chance(0.002) ? rng.below(span) : pos + 8 * rng.below(3);
        return pos % span;
    });
    out.emplace_back("same-page", [span](Rng &rng) {
        const Addr page = rng.below(4) * (span / 4) & ~(kPageSize - 1);
        return page + rng.below(kPageSize);
    });
    // Demand misses in the first or the last 128 bytes of a page,
    // where the prefetch run is cut shortest.
    out.emplace_back("page-edge", [span](Rng &rng) {
        const Addr page = rng.below(span / kPageSize + 1) * kPageSize;
        const Addr edge = rng.below(128);
        return page + (rng.chance(0.5) ? edge : kPageSize - 1 - edge);
    });
    return out;
}

/**
 * Associativities the reference diffs run: powers of two (Table II
 * uses 8 and 16) and widths that a body specialised to 8 or 16 ways
 * would leave to a remainder loop, up to the 255-way maximum.
 */
const std::uint32_t kAssocs[] = {1, 2, 3, 4, 8, 12, 16, 32, 255};

TEST(CacheReference, LevelMatchesTickLru)
{
    std::vector<CacheConfig> configs;
    for (const std::uint32_t assoc : kAssocs)
        configs.push_back(levelOf("ways" + std::to_string(assoc), 16,
                                  assoc, 1));
    for (const std::uint32_t line_bytes : {32u, 128u}) {
        for (const std::uint32_t assoc : {8u, 16u}) {
            configs.push_back(levelOf("line" + std::to_string(line_bytes) +
                                          "/ways" + std::to_string(assoc),
                                      16, assoc, 1, line_bytes));
        }
    }
    const CacheHierarchyConfig table2;
    configs.push_back(table2.l1d);
    configs.push_back(table2.l2);
    configs.push_back(table2.l3);
    for (const CacheConfig &config : configs) {
        const Addr span = config.sizeBytes * 3;
        for (auto &[name, next] : streams(span)) {
            SCOPED_TRACE(config.name + " / " + name);
            Cache cache(config);
            RefCache ref(config);
            Rng rng(7);
            for (int i = 0; i < 20000; ++i) {
                const Addr addr = next(rng);
                ASSERT_EQ(cache.access(addr, rng.chance(0.3)),
                          ref.access(addr))
                    << "access " << i << " addr " << addr;
            }
            EXPECT_EQ(cache.hits(), ref.hits());
            EXPECT_EQ(cache.misses(), ref.misses());
            for (Addr a = 0; a < span; a += config.lineBytes)
                ASSERT_EQ(cache.probe(a), ref.probe(a)) << "line " << a;
        }
    }
}

/** Drive both hierarchies with one stream and diff every result. */
void
expectHierarchiesMatch(const CacheHierarchyConfig &config, Addr span)
{
    for (auto &[name, next] : streams(span)) {
        SCOPED_TRACE(name);
        CacheHierarchy hierarchy(config);
        RefHierarchy ref(config);
        Rng rng(23);
        for (int i = 0; i < 20000; ++i) {
            const Addr addr = next(rng);
            if (rng.chance(0.3)) {
                ASSERT_EQ(hierarchy.accessInstr(addr),
                          ref.accessInstr(addr))
                    << "fetch " << i << " addr " << addr;
            } else {
                const bool write = rng.chance(0.3);
                ASSERT_EQ(hierarchy.accessData(addr, write),
                          ref.accessData(addr, write))
                    << "access " << i << " addr " << addr;
            }
        }
        const std::pair<const Cache *, const RefCache *> levels[] = {
            {&hierarchy.l1i(), &ref.l1i},
            {&hierarchy.l1d(), &ref.l1d},
            {&hierarchy.l2(), &ref.l2},
            {&hierarchy.l3(), &ref.l3}};
        for (const auto &[cache, want] : levels) {
            EXPECT_EQ(cache->hits(), want->hits()) << cache->config().name;
            EXPECT_EQ(cache->misses(), want->misses())
                << cache->config().name;
        }
        EXPECT_EQ(hierarchy.prefetches(), ref.prefetches);
    }
}

TEST(CacheReference, HierarchyMatchesProbeThenAccessPrefetch)
{
    for (const std::uint32_t assoc : kAssocs) {
        SCOPED_TRACE("assoc " + std::to_string(assoc));
        const CacheHierarchyConfig config = hierarchyOf(assoc);
        expectHierarchiesMatch(config, config.l3.sizeBytes * 3);
    }
    SCOPED_TRACE("Table II");
    const CacheHierarchyConfig table2;
    expectHierarchiesMatch(table2, table2.l2.sizeBytes * 4);
}

TEST(CacheReference, HierarchyMatchesAcrossPrefetchShapes)
{
    // Degree 64 reaches past the page for every line size here, so
    // the page bound, not the degree, ends most runs.
    for (const std::uint32_t line_bytes : {32u, 64u, 128u}) {
        for (const unsigned degree : {0u, 1u, 8u, 64u}) {
            SCOPED_TRACE("line " + std::to_string(line_bytes) +
                         " degree " + std::to_string(degree));
            CacheHierarchyConfig config = hierarchyOf(8, line_bytes);
            config.prefetchDegree = degree;
            expectHierarchiesMatch(config, config.l3.sizeBytes * 3);
        }
    }
    SCOPED_TRACE("prefetch off");
    CacheHierarchyConfig config = hierarchyOf(8);
    config.nextLinePrefetch = false;
    expectHierarchiesMatch(config, config.l3.sizeBytes * 3);
}

TEST(CacheReference, PrefetchRunEndsAtThePageEdge)
{
    const Addr page = 16 * kPageSize;
    for (const std::uint32_t line_bytes : {32u, 64u, 128u}) {
        const Addr line = line_bytes;
        for (const unsigned degree : {0u, 1u, 8u, 64u}) {
            CacheHierarchyConfig config = hierarchyOf(8, line_bytes);
            config.prefetchDegree = degree;
            // Demand misses in the first two and the last two lines.
            for (const Addr offset :
                 {Addr{0}, line - 1, line, kPageSize - 2 * line,
                  kPageSize - line - 1, kPageSize - line, kPageSize - 1}) {
                SCOPED_TRACE("line " + std::to_string(line) + " degree " +
                             std::to_string(degree) + " offset " +
                             std::to_string(offset));
                const Addr addr = page + offset;
                // Whole lines after the demand line still in its page.
                Addr want = 0;
                while (want < degree &&
                       pageBase(addr + (want + 1) * line) == page)
                    ++want;
                CacheHierarchy hierarchy(config);
                RefHierarchy ref(config);
                EXPECT_EQ(hierarchy.accessData(addr, false),
                          ref.accessData(addr, false));
                EXPECT_EQ(hierarchy.prefetches(), want);
                EXPECT_EQ(ref.prefetches, want);
                for (Addr d = 1; d <= want; ++d)
                    EXPECT_TRUE(hierarchy.l1d().probe(addr + d * line));
                EXPECT_FALSE(
                    hierarchy.l1d().probe(addr + (want + 1) * line));
            }
        }
    }
}

TEST(CacheReference, ResetEqualsAFreshCache)
{
    for (const std::uint32_t assoc : kAssocs) {
        SCOPED_TRACE("assoc " + std::to_string(assoc));
        const CacheConfig config = levelOf("c", 16, assoc, 1);
        const Addr span = config.sizeBytes * 3;
        Cache used(config);
        Rng warm(3);
        for (int i = 0; i < 5000; ++i)
            used.access(warm.below(span), false);
        used.reset();
        Cache fresh(config);
        Rng a(5), b(5);
        for (int i = 0; i < 5000; ++i) {
            ASSERT_EQ(used.access(a.below(span), false),
                      fresh.access(b.below(span), false))
                << "access " << i;
        }
        EXPECT_EQ(used.hits(), fresh.hits());
        EXPECT_EQ(used.misses(), fresh.misses());
    }
}

TEST(CacheReference, FillIfAbsentLeavesAPresentLineAlone)
{
    // 4 sets x 2 ways: 0, 256 and 512 share set 0.
    Cache cache(tinyCache());
    cache.access(0, false);
    cache.access(256, false);
    EXPECT_TRUE(cache.fillIfAbsent(0));
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 2u);
    // 0 stayed LRU, so the next fill of the set evicts it.
    EXPECT_FALSE(cache.fillIfAbsent(512));
    EXPECT_EQ(cache.misses(), 3u);
    EXPECT_FALSE(cache.probe(0));
    EXPECT_TRUE(cache.probe(256));
    EXPECT_TRUE(cache.probe(512));
}

TEST(CacheReference, RejectsMoreThan255Ways)
{
    const CacheConfig config = levelOf("wide", 1, 256, 1);
    EXPECT_EXIT({ Cache c(config); }, ::testing::ExitedWithCode(1),
                "cache 'wide': 256 ways");
}

TEST(CacheHierarchy, LatencyAccumulatesDownTheHierarchy)
{
    CacheHierarchyConfig config; // Table II
    CacheHierarchy hierarchy(config);
    // Cold access: misses L1, L2, L3 -> 12 + 42 + 240.
    EXPECT_EQ(hierarchy.accessData(0x5000, false),
              config.l2.latency + config.l3.latency +
                  config.dramLatency);
    // Second access: L1 hit -> no stall.
    EXPECT_EQ(hierarchy.accessData(0x5000, false), 0u);
}

TEST(CacheHierarchy, InstrAndDataAreSeparateL1s)
{
    CacheHierarchy hierarchy;
    hierarchy.accessInstr(0x9000);
    // The same address on the data side still misses L1d but hits
    // the unified L2 (filled by the instruction access).
    const Cycles stall = hierarchy.accessData(0x9000, false);
    EXPECT_EQ(stall, CacheHierarchyConfig{}.l2.latency);
}

TEST(CacheHierarchy, L2HitAfterL1Eviction)
{
    CacheHierarchyConfig config;
    CacheHierarchy hierarchy(config);
    hierarchy.accessData(0x100000, false);
    // Sweep enough lines through L1d (64KB, 8-way, 64B lines = 128
    // sets) to evict the first one, but not enough to spill L2.
    for (Addr a = 0; a < 80 * 1024; a += 64)
        hierarchy.accessData(0x200000 + a, false);
    const Cycles stall = hierarchy.accessData(0x100000, false);
    EXPECT_EQ(stall, config.l2.latency);
}

} // namespace
} // namespace chirp
