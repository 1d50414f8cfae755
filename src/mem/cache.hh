/**
 * @file
 * A simple set-associative cache model with LRU replacement, used
 * for the L1i/L1d/L2/L3 levels of the timing-approximate simulator
 * (Table II).  Timing, not data, is modeled: an access either hits
 * or misses-and-fills.
 *
 * Recency is one byte per way: its rank in the set's LRU stack
 * (0 = MRU).  Way w starts at rank assoc-1-w, so the empty ways sit
 * at the bottom of the stack in index order and the victim is always
 * the single way at rank assoc-1: the first invalid way while any
 * is left, else the least recently used.
 */

#ifndef CHIRP_MEM_CACHE_HH
#define CHIRP_MEM_CACHE_HH

#include <string>

#include "mem/set_assoc.hh"
#include "util/types.hh"

namespace chirp
{

/** Geometry and latency of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 64 * 1024;
    std::uint32_t assoc = 8;
    std::uint32_t lineBytes = 64;
    Cycles latency = 4; //!< access latency when this level hits
};

/** One level of cache. */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /**
     * Look up @p addr; on a miss the line is allocated (evicting
     * LRU).
     * @return true on hit.
     */
    bool
    access(Addr addr, bool write)
    {
        (void)write; // allocate-on-write; no dirty-state modeling needed
        const Addr key = lineKey(addr);
        // A repeat of the line touched last is present and already
        // the most recent in its set, so only the hit count moves:
        // skipping its recency tick leaves every LRU order unchanged.
        if (key == lastKey_ && lastValid_) {
            ++hits_;
            return true;
        }
        return accessLine(key);
    }

    /**
     * Prefetch fill: when the line of @p addr is present nothing
     * changes (no hit counted, no recency touched) and the result is
     * true; otherwise exactly access()'s miss path runs.  One set
     * scan instead of probe() followed by access(), and the same
     * state: the last-line memo's line is always resident, so a line
     * that is absent would miss in access() too.
     */
    bool
    fillIfAbsent(Addr addr)
    {
        const Addr key = lineKey(addr);
        const std::uint32_t set = array_.setIndex(key);
        if (array_.findWay(set, array_.tagOf(key)) >= 0)
            return true;
        fillMiss(set, key);
        return false;
    }

    /** Hit check without any state change (tests). */
    bool probe(Addr addr) const;

    /** Drop all lines and zero statistics. */
    void reset();

    const CacheConfig &config() const { return config_; }
    Cycles latency() const { return config_.latency; }

    /** Demand hits: access() calls that found their line. */
    std::uint64_t hits() const { return hits_; }
    /**
     * Every fill: access() misses plus the prefetch fills
     * fillIfAbsent() makes.  misses() / (hits() + misses()) is
     * therefore not the demand miss ratio when a prefetcher runs.
     */
    std::uint64_t misses() const { return misses_; }

  private:
    Addr lineKey(Addr addr) const { return addr >> lineShift_; }

    /** access() past the last-line memo. */
    bool accessLine(Addr key);

    /** Count a miss of @p key in @p set and fill it over the LRU way. */
    void
    fillMiss(std::uint32_t set, Addr key)
    {
        const std::uint32_t assoc = array_.assoc();
        std::uint8_t *rank = &array_.dataAt(set, 0);
        ++misses_;
        lastKey_ = key;
        lastValid_ = true;
        // Exactly one way holds the bottom rank: the lowest-index
        // empty way while any is left, else the LRU line.
        const auto victim =
            static_cast<std::uint32_t>(simd::firstLaneAtLeast(
                rank, assoc, static_cast<std::uint8_t>(assoc - 1)));
        array_.fill(set, victim, array_.tagOf(key));
        promote(rank, assoc, victim);
    }

    /**
     * Make @p way the MRU of the @p assoc ranks at @p rank.  Callers
     * read the geometry and the rank pointer into locals first: a
     * byte store may alias any member, so a bound read through
     * `this` would be reloaded on every lane and keep the loop
     * scalar.  With locals the compiler turns it into 16-lane vector
     * compares and adds (-O3).
     */
    static void
    promote(std::uint8_t *rank, std::uint32_t assoc, std::uint32_t way)
    {
        const std::uint8_t old = rank[way];
        for (std::uint32_t w = 0; w < assoc; ++w)
            rank[w] += rank[w] < old;
        rank[way] = 0;
    }

    /** Put every set's ranks back to the initial stack order. */
    void resetRanks();

    CacheConfig config_;
    unsigned lineShift_; //!< log2(lineBytes)
    SetAssocArray<std::uint8_t> array_; //!< payload: LRU rank, 0 = MRU
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    Addr lastKey_ = 0;       //!< line the previous access touched
    bool lastValid_ = false; //!< lastKey_ is meaningful
};

} // namespace chirp

#endif // CHIRP_MEM_CACHE_HH
