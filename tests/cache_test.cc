/** @file Tests for the cache model and hierarchy. */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
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

/**
 * Test-side reference for one cache level, in the plainest form of
 * the replacement contract: per way a valid bit, a tag and a last-use
 * tick; the victim is the first invalid way, else the least recent
 * tick; a repeat of the last line hits without a tick.  Production's
 * byte-rank stacks must reproduce it access for access.
 */
class RefCache
{
  public:
    explicit RefCache(const CacheConfig &config)
        : lineBytes_(config.lineBytes), assoc_(config.assoc),
          sets_(config.sizeBytes / config.lineBytes / config.assoc),
          ways_(sets_ * assoc_)
    {
    }

    bool
    access(Addr addr)
    {
        const Addr line = addr / lineBytes_;
        if (memoValid_ && line == memoLine_) {
            ++hits_;
            return true;
        }
        ++tick_;
        memoLine_ = line;
        memoValid_ = true;
        Way *set = &ways_[(line % sets_) * assoc_];
        const Addr tag = line / sets_;
        for (std::size_t w = 0; w < assoc_; ++w) {
            if (set[w].valid && set[w].tag == tag) {
                set[w].lastUse = tick_;
                ++hits_;
                return true;
            }
        }
        ++misses_;
        std::size_t victim = assoc_;
        for (std::size_t w = 0; w < assoc_ && victim == assoc_; ++w) {
            if (!set[w].valid)
                victim = w;
        }
        if (victim == assoc_) {
            victim = 0;
            for (std::size_t w = 1; w < assoc_; ++w) {
                if (set[w].lastUse < set[victim].lastUse)
                    victim = w;
            }
        }
        set[victim] = Way{true, tag, tick_};
        return false;
    }

    bool
    probe(Addr addr) const
    {
        const Addr line = addr / lineBytes_;
        const Way *set = &ways_[(line % sets_) * assoc_];
        for (std::size_t w = 0; w < assoc_; ++w) {
            if (set[w].valid && set[w].tag == line / sets_)
                return true;
        }
        return false;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    struct Way
    {
        bool valid = false;
        Addr tag = 0;
        std::uint64_t lastUse = 0;
    };

    std::size_t lineBytes_;
    std::size_t assoc_;
    std::size_t sets_;
    std::vector<Way> ways_;
    std::uint64_t tick_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    Addr memoLine_ = 0;
    bool memoValid_ = false;
};

/** Reference hierarchy: RefCache levels, probe-then-access prefetch. */
struct RefHierarchy
{
    explicit RefHierarchy(const CacheHierarchyConfig &config)
        : config(config), l1i(config.l1i), l1d(config.l1d), l2(config.l2),
          l3(config.l3)
    {
    }

    Cycles accessInstr(Addr pc) { return access(l1i, pc); }
    Cycles accessData(Addr addr) { return access(l1d, addr); }

    Cycles
    access(RefCache &l1, Addr addr)
    {
        if (l1.access(addr))
            return 0;
        Cycles stall = config.l2.latency;
        if (!l2.access(addr)) {
            stall += config.l3.latency;
            if (!l3.access(addr))
                stall += config.dramLatency;
        }
        for (unsigned d = 1;
             config.nextLinePrefetch && d <= config.prefetchDegree; ++d) {
            const Addr next = addr + d * config.l2.lineBytes;
            if (next / kPageSize != addr / kPageSize)
                break;
            if (l1.probe(next))
                continue;
            l1.access(next);
            if (!l2.probe(next))
                l2.access(next);
            if (!l3.probe(next))
                l3.access(next);
            ++prefetches;
        }
        return stall;
    }

    CacheHierarchyConfig config;
    RefCache l1i, l1d, l2, l3;
    std::uint64_t prefetches = 0;
};

CacheConfig
levelOf(const std::string &name, std::uint32_t sets, std::uint32_t assoc,
        Cycles latency)
{
    return CacheConfig{name, std::uint64_t{sets} * assoc * 64, assoc, 64,
                       latency};
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
    return out;
}

const std::uint32_t kAssocs[] = {1, 2, 4, 8, 16};

TEST(CacheReference, LevelMatchesTickLru)
{
    std::vector<CacheConfig> configs;
    for (const std::uint32_t assoc : kAssocs)
        configs.push_back(levelOf("ways" + std::to_string(assoc), 16,
                                  assoc, 1));
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
                ASSERT_EQ(hierarchy.accessData(addr, rng.chance(0.3)),
                          ref.accessData(addr))
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
        CacheHierarchyConfig config;
        config.l1i = levelOf("l1i", 8, assoc, 4);
        config.l1d = levelOf("l1d", 8, assoc, 4);
        config.l2 = levelOf("l2", 32, assoc, 12);
        config.l3 = levelOf("l3", 64, assoc, 42);
        expectHierarchiesMatch(config, config.l3.sizeBytes * 3);
    }
    SCOPED_TRACE("Table II");
    const CacheHierarchyConfig table2;
    expectHierarchiesMatch(table2, table2.l2.sizeBytes * 4);
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
