/** @file Tests for the cache model and hierarchy. */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mem/cache_hierarchy.hh"
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
