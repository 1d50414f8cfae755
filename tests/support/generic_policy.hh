/**
 * @file
 * A test-local replacement policy outside Tlb's devirtualized policy
 * list, so every TLB holding it takes the Generic virtual-dispatch
 * arm — the path user-defined policies (examples/custom_policy.cpp)
 * run on.  It consumes the retire stream, lets a hash of the retired
 * path pick between the two least recently used ways, and counts
 * table traffic, so a slip in Generic dispatch, retire delivery or
 * table accounting changes its statistics.
 */

#ifndef CHIRP_TESTS_SUPPORT_GENERIC_POLICY_HH
#define CHIRP_TESTS_SUPPORT_GENERIC_POLICY_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/replacement_policy.hh"

namespace chirp
{

/** Two-choice LRU steered by a retired-path hash. */
class PathHashPolicy final : public ReplacementPolicy
{
  public:
    PathHashPolicy(std::uint32_t num_sets, std::uint32_t assoc)
        : ReplacementPolicy("path-hash", num_sets, assoc),
          stamps_(static_cast<std::size_t>(num_sets) * assoc, 0)
    {
    }

    void
    reset() override
    {
        std::fill(stamps_.begin(), stamps_.end(), 0);
        clock_ = 0;
        path_ = 0;
        resetTableCounters();
    }

    void
    onInstRetired(Addr pc, InstClass cls) override
    {
        if (isMemory(cls))
            path_ = (path_ << 1 | path_ >> 63) ^ (pc >> 2);
    }

    void
    onBranchRetired(Addr pc, InstClass cls, bool taken) override
    {
        (void)cls;
        path_ = (path_ << 3 | path_ >> 61) ^ (pc >> 2) ^ (taken ? 1 : 0);
    }

    void
    onHit(std::uint32_t set, std::uint32_t way,
          const AccessInfo &info) override
    {
        (void)info;
        stamps_[idx(set, way)] = ++clock_;
        countTableRead();
    }

    std::uint32_t
    selectVictim(std::uint32_t set, const AccessInfo &info) override
    {
        std::uint32_t oldest = 0, second = 1;
        if (stamps_[idx(set, second)] < stamps_[idx(set, oldest)])
            std::swap(oldest, second);
        for (std::uint32_t way = 2; way < assoc(); ++way) {
            const std::uint64_t stamp = stamps_[idx(set, way)];
            if (stamp < stamps_[idx(set, oldest)]) {
                second = oldest;
                oldest = way;
            } else if (stamp < stamps_[idx(set, second)]) {
                second = way;
            }
        }
        countTableRead();
        return ((path_ ^ info.pc) >> 2) & 1 ? second : oldest;
    }

    void
    onFill(std::uint32_t set, std::uint32_t way,
           const AccessInfo &info) override
    {
        (void)info;
        stamps_[idx(set, way)] = ++clock_;
        countTableWrite();
    }

    std::uint64_t
    storageBits() const override
    {
        return stamps_.size() * 64;
    }

  private:
    std::vector<std::uint64_t> stamps_;
    std::uint64_t clock_ = 0;
    std::uint64_t path_ = 0;
};

/** PolicyFactory-shaped constructor for PathHashPolicy. */
inline std::unique_ptr<ReplacementPolicy>
makePathHashPolicy(std::uint32_t num_sets, std::uint32_t assoc)
{
    return std::make_unique<PathHashPolicy>(num_sets, assoc);
}

} // namespace chirp

#endif // CHIRP_TESTS_SUPPORT_GENERIC_POLICY_HH
