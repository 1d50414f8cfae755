/**
 * @file
 * Generic set-associative array shared by caches and TLBs.
 *
 * The array manages tags, valid bits and a per-slot payload; callers
 * layer replacement on top (caches keep a byte LRU rank as the
 * payload, TLBs delegate to a ReplacementPolicy).
 *
 * Storage is structure-of-arrays: the valid bytes and tags of a set
 * are contiguous runs, so the per-access tag match and invalid-way
 * probe are single SIMD kernel calls over the set's lanes instead of
 * a strided walk over Slot records.  The payload lives in its own
 * parallel array and is only touched on the matched way.
 */

#ifndef CHIRP_MEM_SET_ASSOC_HH
#define CHIRP_MEM_SET_ASSOC_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/bitfield.hh"
#include "util/logging.hh"
#include "util/simd.hh"
#include "util/types.hh"

namespace chirp
{

/** A tagged, set-associative storage array with payload @p Entry. */
template <typename Entry>
class SetAssocArray
{
  public:
    SetAssocArray(std::uint32_t num_sets, std::uint32_t assoc)
        : numSets_(num_sets), assoc_(assoc),
          valid_(static_cast<std::size_t>(num_sets) * assoc, 0),
          tags_(static_cast<std::size_t>(num_sets) * assoc, 0),
          data_(static_cast<std::size_t>(num_sets) * assoc)
    {
        if (num_sets == 0 || assoc == 0)
            chirp_fatal("set-assoc array needs nonzero geometry");
        if (!isPowerOfTwo(num_sets))
            chirp_fatal("set count ", num_sets, " must be a power of two");
        setMask_ = num_sets - 1;
    }

    /** Set index for a key (its low bits). */
    std::uint32_t
    setIndex(Addr key) const
    {
        return static_cast<std::uint32_t>(key & setMask_);
    }

    /** Tag for a key (the bits above the set index). */
    Addr
    tagOf(Addr key) const
    {
        return key >> floorLog2(static_cast<std::uint64_t>(numSets_));
    }

    /** Way holding @p tag in @p set, or -1. */
    int
    findWay(std::uint32_t set, Addr tag) const
    {
        const std::size_t base = baseOf(set);
        const std::size_t way = simd::matchTagLane(
            tags_.data() + base, valid_.data() + base, assoc_, tag);
        return way < assoc_ ? static_cast<int>(way) : -1;
    }

    /** First invalid way in @p set, or -1 when the set is full. */
    int
    invalidWay(std::uint32_t set) const
    {
        const std::size_t way =
            simd::firstClearLane(valid_.data() + baseOf(set), assoc_);
        return way < assoc_ ? static_cast<int>(way) : -1;
    }

    /**
     * Hint @p set's metadata toward the caches.  The batched access
     * pipeline issues this one chunk-slot ahead of the access that
     * will scan the set, hiding the (random-indexed) tag/valid loads
     * behind the in-flight accesses.  Purely a hint: no architectural
     * state changes.
     */
    void
    prefetchSet(std::uint32_t set) const
    {
#if defined(__GNUC__) || defined(__clang__)
        const std::size_t base = baseOf(set);
        __builtin_prefetch(valid_.data() + base, 0, 3);
        __builtin_prefetch(tags_.data() + base, 0, 3);
        __builtin_prefetch(data_.data() + base, 1, 3);
#else
        (void)set;
#endif
    }

    bool
    valid(std::uint32_t set, std::uint32_t way) const
    {
        return valid_[baseOf(set) + way] != 0;
    }

    Addr
    tag(std::uint32_t set, std::uint32_t way) const
    {
        return tags_[baseOf(set) + way];
    }

    /** Payload of one way (valid or not). */
    Entry &
    dataAt(std::uint32_t set, std::uint32_t way)
    {
        return data_[baseOf(set) + way];
    }

    const Entry &
    dataAt(std::uint32_t set, std::uint32_t way) const
    {
        return data_[baseOf(set) + way];
    }

    /** Mark @p way valid and holding @p tag; payload is untouched. */
    void
    fill(std::uint32_t set, std::uint32_t way, Addr tag)
    {
        const std::size_t i = baseOf(set) + way;
        valid_[i] = 1;
        tags_[i] = tag;
    }

    /** Invalidate one way and reset its payload. */
    void
    invalidate(std::uint32_t set, std::uint32_t way)
    {
        const std::size_t i = baseOf(set) + way;
        valid_[i] = 0;
        tags_[i] = 0;
        data_[i] = Entry{};
    }

    /** Invalidate every slot. */
    void
    invalidateAll()
    {
        std::fill(valid_.begin(), valid_.end(), 0);
        std::fill(tags_.begin(), tags_.end(), 0);
        std::fill(data_.begin(), data_.end(), Entry{});
    }

    std::uint32_t numSets() const { return numSets_; }
    std::uint32_t assoc() const { return assoc_; }

    /** Count of currently valid slots (tests/efficiency). */
    std::uint64_t
    validCount() const
    {
        std::uint64_t n = 0;
        for (const std::uint8_t v : valid_)
            n += v != 0 ? 1 : 0;
        return n;
    }

  private:
    std::size_t
    baseOf(std::uint32_t set) const
    {
        return static_cast<std::size_t>(set) * assoc_;
    }

    std::uint32_t numSets_;
    std::uint32_t assoc_;
    Addr setMask_;
    std::vector<std::uint8_t> valid_;
    std::vector<Addr> tags_;
    std::vector<Entry> data_;
};

} // namespace chirp

#endif // CHIRP_MEM_SET_ASSOC_HH
