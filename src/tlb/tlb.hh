/**
 * @file
 * A set-associative TLB with a pluggable replacement policy.
 *
 * The TLB is the structure under study: every policy event hook is
 * driven from here, and the per-entry efficiency accounting of Fig 1
 * hangs off the fill/hit/evict events.
 */

#ifndef CHIRP_TLB_TLB_HH
#define CHIRP_TLB_TLB_HH

#include <cstddef>
#include <memory>
#include <string>

#include "core/replacement_policy.hh"
#include "mem/set_assoc.hh"
#include "tlb/efficiency.hh"
#include "tlb/page_map.hh"
#include "util/types.hh"

namespace chirp
{

class ChirpPolicy;
class GhrpPolicy;
class LruPolicy;
class ShipPolicy;
class SrripPolicy;

/** A compile-time list of policy classes. */
template <typename... Policies>
struct PolicyList
{
    static constexpr std::size_t size = sizeof...(Policies);
};

/**
 * The policy classes Tlb devirtualizes, declared once.  A policy whose
 * dynamic type is exactly one of these (all are final and keep their
 * hot hooks in their headers) runs access loops instantiated for that
 * class, so every hook call inlines.  Any other type — Random, the
 * extra policies, a user-defined policy — runs the Generic
 * instantiation over plain virtual dispatch.
 */
using DevirtualizedPolicies = PolicyList<LruPolicy, ChirpPolicy,
                                         ShipPolicy, GhrpPolicy,
                                         SrripPolicy>;

/**
 * Kept so tooling that reports the miss path keeps building: the
 * batched miss path is the only one, so this is always true.
 */
constexpr bool
batchMissPath()
{
    return true;
}

/** Geometry and latency of one TLB level. */
struct TlbConfig
{
    std::string name = "tlb";
    std::uint32_t entries = 1024;
    std::uint32_t assoc = 8;
    Cycles hitLatency = 8;
};

/** One TLB level. */
class Tlb
{
  public:
    /** The policy is owned by the TLB. */
    Tlb(const TlbConfig &config,
        std::unique_ptr<ReplacementPolicy> policy);

    /**
     * Perform one access: drives the policy's onHit / selectVictim /
     * onFill / onAccessEnd hooks and allocates on miss.
     * @param info the access; the page comes from info.vaddr
     * @param asid address-space tag of the access
     * @param now current time (instruction index) for efficiency
     * @param page_shift log2 page size backing the address: one
     *        entry covers the whole 4KB or 2MB page
     * @return true on hit.
     *
     * The memo check lives inline so the dominant repeat-hit case
     * (sequential fetches within one page) resolves without leaving
     * the caller's loop; everything else goes out of line.
     */
    bool
    access(const AccessInfo &info, Asid asid, std::uint64_t now,
           unsigned page_shift = kPageShift)
    {
        ++accesses_;
        const Addr key = keyOf(info.vaddr, asid, page_shift);
        if (hotWay_ >= 0 && key == hotKey_) {
            // Repeat hit on the previous entry: counters and
            // timestamps advance exactly as in the general path; the
            // policy calls are no-ops by construction (see the memo
            // comment below).
            ++hits_;
            array_.dataAt(hotSet_, hotWay_).lastHitTime = now;
            return true;
        }
        return accessSlow(info, asid, now, key);
    }

    /**
     * Perform @p n accesses as one batch: exactly the state evolution
     * and counter updates of n sequential access() calls (hits[i]
     * mirrors each return value), with the policy dispatch resolved
     * once for the whole batch and each access's set metadata
     * prefetched a few slots ahead of its scan.  @p keys must hold
     * keysOf()/keyOf() of each access — callers precompute the column
     * so the key composition vectorizes over the chunk.
     */
    void accessBatch(const AccessInfo *infos, const Addr *keys,
                     const std::uint64_t *nows, std::size_t n,
                     Asid asid, std::uint8_t *hits);

    /**
     * Perform @p n consecutive accesses to the same page — @p key
     * precomputed, times now, now+1, ..., now+n-1 — with exactly the
     * state evolution and counters of n sequential access() calls.
     * Under the devirtualized plain-LRU dispatch every post-first
     * access is a provable repeat hit whose policy calls are no-ops
     * (see the memo comment below), so the n-1 repeats collapse to
     * bulk counter and timestamp updates; any other policy takes the
     * n accesses one by one.
     * @return the first access's hit result.
     */
    bool accessRun(const AccessInfo &info, Addr key, Asid asid,
                   std::uint64_t now, std::size_t n);

    /** Key combining page number, size class and ASID for set/tag
     *  mapping. */
    static Addr
    keyOf(Addr vaddr, Asid asid, unsigned page_shift)
    {
        // ASID and the size class mix into the tag bits only (the
        // set index stays a pure page-number slice, as in real L2
        // TLBs); the size bit keeps a 2MB entry from aliasing the
        // 4KB page sharing its number.
        const Addr size_bit =
            page_shift == kPageShift ? 0 : (Addr{1} << 51);
        return (vaddr >> page_shift) | size_bit |
               (static_cast<Addr>(asid) << 52);
    }

    /**
     * keyOf() over a column: keys[i] = keyOf(vaddrs[i], asid,
     * page_shifts[i]), composed by the lane-parallel simd kernel.
     */
    static void keysOf(const Addr *vaddrs,
                       const std::uint8_t *page_shifts, std::size_t n,
                       Asid asid, Addr *keys);

    /** Hit check with no state change. */
    bool probe(Addr vaddr, Asid asid,
               unsigned page_shift = kPageShift) const;

    /** Invalidate every entry (full flush). */
    void flushAll(std::uint64_t now);

    /** Invalidate all entries of @p asid (context flush). */
    void flushAsid(Asid asid, std::uint64_t now);

    /** Close out efficiency accounting for still-resident entries. */
    void finalizeEfficiency(std::uint64_t now);

    /** Reset entries, policy state and statistics. */
    void reset();

    const TlbConfig &config() const { return config_; }
    ReplacementPolicy &policy() { return *policy_; }
    const ReplacementPolicy &policy() const { return *policy_; }

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    /** Evictions of valid entries (capacity/conflict turnover). */
    std::uint64_t evictions() const { return evictions_; }

    const EfficiencyTracker &efficiency() const { return efficiency_; }

    std::uint32_t numSets() const { return array_.numSets(); }
    std::uint32_t assoc() const { return array_.assoc(); }

    /** Valid-entry count (tests). */
    std::uint64_t validCount() const { return array_.validCount(); }

  private:
    /** dispatch_ of a policy outside DevirtualizedPolicies. */
    static constexpr std::uint8_t kGenericDispatch =
        DevirtualizedPolicies::size;

    /**
     * Call @p f with the policy pointer cast to the class dispatch_
     * names (a ReplacementPolicy * for Generic).  The only place a
     * dispatch index turns back into a type.
     */
    template <typename F>
    decltype(auto) withPolicy(F &&f);

    /** General hit/miss handling once the memo fast path declined. */
    bool accessSlow(const AccessInfo &info, Asid asid,
                    std::uint64_t now, Addr key);

    /**
     * Statistics sinks for accessCore: DirectAcct writes the member
     * counters and the efficiency tracker per event (single
     * accesses); DeferredAcct accumulates a chunk's worth into
     * locals the batched miss path flushes in bulk at the chunk
     * boundary.  Addition is associative, so both land on
     * bit-identical totals.
     */
    struct DirectAcct;
    struct DeferredAcct;

    /**
     * One access's hit/miss sequence with hooks bound to @p Policy
     * and hit/miss/eviction statistics routed through @p Acct.
     */
    template <typename Policy, typename Acct>
    bool accessCore(Policy *policy, const AccessInfo &info, Asid asid,
                    std::uint64_t now, Addr key, Acct &acct);

    /** The access sequence with hooks bound to @p Policy. */
    template <typename Policy>
    bool accessSlowImpl(Policy *policy, const AccessInfo &info,
                        Asid asid, std::uint64_t now, Addr key);

    /** The batch loop with hooks bound to @p Policy. */
    template <typename Policy>
    void accessBatchImpl(Policy *policy, const AccessInfo *infos,
                         const Addr *keys, const std::uint64_t *nows,
                         std::size_t n, Asid asid, std::uint8_t *hits);

    /** Per-entry payload. */
    struct Entry
    {
        Asid asid = 0;
        std::uint64_t fillTime = 0;
        std::uint64_t lastHitTime = 0;
    };

    TlbConfig config_;
    SetAssocArray<Entry> array_;
    std::unique_ptr<ReplacementPolicy> policy_;
    EfficiencyTracker efficiency_;
    // Index of the policy's exact type in DevirtualizedPolicies
    // (kGenericDispatch when none matches), fixed at construction.
    std::uint8_t dispatch_ = kGenericDispatch;
    // Last-hit memo (LRU only): a repeat hit on the immediately-
    // preceding entry is a provable no-op for plain LRU (the way is
    // already MRU, so touch() does nothing and onAccessEnd is the
    // empty default), letting the hot sequential case skip the set
    // scan and all policy calls.  The memo holds the full key, so
    // ASID and page-size mismatches fall through.  Any miss, flush
    // or reset clears it, and only the LruPolicy dispatch ever sets
    // it.
    int hotWay_ = -1; //!< <0 = no memo
    std::uint32_t hotSet_ = 0;
    Addr hotKey_ = 0;
    std::uint64_t accesses_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace chirp

#endif // CHIRP_TLB_TLB_HH
