/**
 * @file
 * Test-side reference for the cache model (Table II), written in the
 * plainest form of each contract and sharing no code with
 * `src/mem/` beyond its config structs.
 *
 * RefCache: per way a valid bit, a tag and a last-use tick; the
 * victim is the first invalid way, else the least recent tick; a
 * repeat of the last line hits without a tick.  RefHierarchy: RefCache
 * levels, inclusive fill on a demand miss, and a next-line prefetcher
 * that walks line by line, stops at the first line outside the page
 * and fills each level by probe-then-access.  Production's byte-rank
 * stacks, set scans and per-run page bound must reproduce them
 * access for access (`cache_test`), and `ReferenceSim` runs its
 * timing model on RefHierarchy (`oracle_test`).
 */

#ifndef CHIRP_TESTS_SUPPORT_REFERENCE_CACHE_HH
#define CHIRP_TESTS_SUPPORT_REFERENCE_CACHE_HH

#include <cstdint>
#include <vector>

#include "mem/cache_hierarchy.hh"
#include "util/types.hh"

namespace chirp
{

/** One reference cache level with tick LRU. */
class RefCache
{
  public:
    explicit RefCache(const CacheConfig &config)
        : lineBytes_(config.lineBytes), assoc_(config.assoc),
          sets_(config.sizeBytes / config.lineBytes / config.assoc),
          ways_(sets_ * assoc_)
    {
    }

    /** Look up @p addr, filling on a miss; true on a hit. */
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

    /** Hit check without any state change. */
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

/** Reference L1i/L1d + L2/L3 + DRAM; returns stall beyond an L1 hit. */
struct RefHierarchy
{
    explicit RefHierarchy(const CacheHierarchyConfig &config)
        : config(config), l1i(config.l1i), l1d(config.l1d), l2(config.l2),
          l3(config.l3)
    {
    }

    Cycles accessInstr(Addr pc) { return access(l1i, pc); }

    /** Writes allocate like reads, so @p write changes nothing. */
    Cycles accessData(Addr addr, bool /* write */)
    {
        return access(l1d, addr);
    }

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

} // namespace chirp

#endif // CHIRP_TESTS_SUPPORT_REFERENCE_CACHE_HH
