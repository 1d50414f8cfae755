#include "tlb/tlb.hh"

#include <cstring>
#include <type_traits>
#include <typeinfo>

#include "core/chirp.hh"
#include "core/ghrp.hh"
#include "core/lru.hh"
#include "core/ship.hh"
#include "core/srrip.hh"
#include "util/fault_injection.hh"
#include "util/logging.hh"

namespace chirp
{

namespace
{

/** Index of @p T in a policy list (the list size when absent). */
template <typename T, typename... Policies>
constexpr std::uint8_t
indexOf(PolicyList<Policies...>)
{
    std::uint8_t index = 0;
    // Stops at the first match; every mismatch advances the index.
    (void)((std::is_same_v<T, Policies> || (++index, false)) || ...);
    return index;
}

/** Index of @p policy's exact dynamic type in a policy list. */
template <typename... Policies>
std::uint8_t
dispatchIndex(const ReplacementPolicy &policy, PolicyList<Policies...>)
{
    std::uint8_t index = 0;
    (void)((typeid(policy) == typeid(Policies) || (++index, false)) ||
           ...);
    return index;
}

/** Past the end of the list: the Generic virtual-dispatch arm. */
template <typename F>
decltype(auto)
visitDispatch(std::uint8_t, ReplacementPolicy *policy, F &f, PolicyList<>)
{
    return f(policy);
}

/** Call @p f with @p policy cast to the list entry @p index names. */
template <typename F, typename First, typename... Rest>
decltype(auto)
visitDispatch(std::uint8_t index, ReplacementPolicy *policy, F &f,
              PolicyList<First, Rest...>)
{
    if (index == 0)
        return f(static_cast<First *>(policy));
    return visitDispatch(static_cast<std::uint8_t>(index - 1), policy, f,
                         PolicyList<Rest...>{});
}

constexpr std::uint8_t kLruDispatch =
    indexOf<LruPolicy>(DevirtualizedPolicies{});

} // namespace

Tlb::Tlb(const TlbConfig &config,
         std::unique_ptr<ReplacementPolicy> policy)
    : config_(config),
      array_(config.entries / config.assoc, config.assoc),
      policy_(std::move(policy))
{
    if (config.entries % config.assoc != 0)
        chirp_fatal("tlb '", config.name, "': ", config.entries,
                    " entries not divisible into ", config.assoc,
                    "-way sets");
    if (!policy_)
        chirp_fatal("tlb '", config.name, "' needs a replacement policy");
    if (policy_->numSets() != array_.numSets() ||
        policy_->assoc() != array_.assoc()) {
        chirp_fatal("tlb '", config.name, "': policy geometry ",
                    policy_->numSets(), "x", policy_->assoc(),
                    " does not match TLB geometry ", array_.numSets(), "x",
                    array_.assoc());
    }
    // Exact-type match: the devirtualized instantiations assume the
    // dynamic type.
    dispatch_ = dispatchIndex(*policy_, DevirtualizedPolicies{});
}

template <typename F>
decltype(auto)
Tlb::withPolicy(F &&f)
{
    return visitDispatch(dispatch_, policy_.get(), f,
                         DevirtualizedPolicies{});
}

/** Per-event statistics sink writing the TLB's members directly. */
struct Tlb::DirectAcct
{
    Tlb &tlb;

    void hit() { ++tlb.hits_; }
    void miss() { ++tlb.misses_; }
    void
    evict(std::uint64_t fill, std::uint64_t last_hit, std::uint64_t now)
    {
        ++tlb.evictions_;
        tlb.efficiency_.recordGeneration(fill, last_hit, now);
    }
};

/**
 * Chunk-local statistics sink: the batched miss path accumulates a
 * chunk's hit/miss/eviction counts and efficiency sums here and
 * flushes them in one bulk add at the chunk boundary (or on unwind).
 * The evict <= fill guard of recordGeneration() is applied per
 * generation before summing, so the flushed totals are bit-identical
 * to per-event accounting.
 */
struct Tlb::DeferredAcct
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t effLive = 0;
    std::uint64_t effResident = 0;
    std::uint64_t effGens = 0;

    void hit() { ++hits; }
    void miss() { ++misses; }
    void
    evict(std::uint64_t fill, std::uint64_t last_hit, std::uint64_t now)
    {
        ++evictions;
        if (now > fill) {
            effLive += last_hit - fill;
            effResident += now - fill;
            ++effGens;
        }
    }
};

/**
 * The full hit/miss sequence with every policy hook bound to Policy.
 * For the concrete (final) policy types the unqualified calls
 * devirtualize and inline; for Policy = ReplacementPolicy this is the
 * generic virtual-dispatch path.  The event order is identical in
 * every instantiation: onAccessBegin -> onHit|({selectVictim} ->
 * onFill) -> onAccessEnd.  Statistics go through @p acct so the
 * single-access path updates members per event while the batched path
 * defers a whole chunk into locals.
 */
template <typename Policy, typename Acct>
bool
Tlb::accessCore(Policy *policy, const AccessInfo &info, Asid asid,
                std::uint64_t now, Addr key, Acct &acct)
{
    constexpr bool kLru = std::is_same_v<Policy, LruPolicy>;
    const std::uint32_t set = array_.setIndex(key);
    const Addr tag = array_.tagOf(key);
    policy->onAccessBegin(info);

    int way = array_.findWay(set, tag);
    if (way >= 0) {
        acct.hit();
        array_.dataAt(set, way).lastHitTime = now;
        policy->onHit(set, static_cast<std::uint32_t>(way), info);
        policy->onAccessEnd(set, info);
        if constexpr (kLru) {
            hotKey_ = key;
            hotSet_ = set;
            hotWay_ = way;
        }
        return true;
    }

    acct.miss();
    // The fill below may evict any way, including the memoized one.
    if constexpr (kLru)
        hotWay_ = -1;
    way = array_.invalidWay(set);
    if (way < 0) {
        way = static_cast<int>(policy->selectVictim(set, info));
        if (way < 0 || static_cast<std::uint32_t>(way) >= array_.assoc())
            chirp_panic("tlb '", config_.name, "': policy '",
                        policy_->name(), "' chose invalid way ", way);
        const Entry &victim = array_.dataAt(set, way);
        acct.evict(victim.fillTime, victim.lastHitTime, now);
    }
    array_.fill(set, static_cast<std::uint32_t>(way), tag);
    Entry &entry = array_.dataAt(set, way);
    entry.asid = asid;
    entry.fillTime = now;
    entry.lastHitTime = now;
    policy->onFill(set, static_cast<std::uint32_t>(way), info);
    policy->onAccessEnd(set, info);
    return false;
}

template <typename Policy>
bool
Tlb::accessSlowImpl(Policy *policy, const AccessInfo &info, Asid asid,
                    std::uint64_t now, Addr key)
{
    DirectAcct acct{*this};
    return accessCore(policy, info, asid, now, key, acct);
}

bool
Tlb::accessSlow(const AccessInfo &info, Asid asid, std::uint64_t now,
                Addr key)
{
    return withPolicy([&](auto *policy) {
        return accessSlowImpl(policy, info, asid, now, key);
    });
}

bool
Tlb::accessRun(const AccessInfo &info, Addr key, Asid asid,
               std::uint64_t now, std::size_t n)
{
    if (dispatch_ != kLruDispatch)
        chirp_panic("tlb '", config_.name,
                    "': accessRun needs the plain-LRU dispatch");
    ++accesses_;
    bool first;
    if (hotWay_ >= 0 && key == hotKey_) {
        ++hits_;
        array_.dataAt(hotSet_, hotWay_).lastHitTime = now;
        first = true;
    } else {
        first = accessSlow(info, asid, now, key);
    }
    if (n > 1) {
        if (hotWay_ < 0) {
            // The first access missed (the fill clears the memo).
            // The entry is resident now, so re-point the memo at it
            // exactly where the next sequential access's slow-path
            // hit would have left it.
            const std::uint32_t set = array_.setIndex(key);
            hotWay_ = array_.findWay(set, array_.tagOf(key));
            hotSet_ = set;
            hotKey_ = key;
        }
        // Repeats 2..n: each is ++accesses_/++hits_ plus a
        // lastHitTime store the next one overwrites, so only the
        // final timestamp needs writing.
        accesses_ += n - 1;
        hits_ += n - 1;
        array_.dataAt(hotSet_, hotWay_).lastHitTime = now + (n - 1);
    }
    return first;
}

/**
 * Sequential-equivalent batch: same per-access sequence as the inline
 * access() (memo check first, then the full slow path), so counters
 * and policy state land exactly where n individual calls would leave
 * them.  The wins are batch-level: one policy dispatch per chunk
 * instead of per access, each access's set metadata (and the policy's
 * SoA rows) prefetched a few slots ahead so the random-indexed loads
 * overlap the in-flight accesses, the policy's signature/table-index
 * streams precomputed for the whole chunk in beginAccessBatch(), and
 * hit/miss/eviction/efficiency accounting deferred into chunk-local
 * sums flushed once at the boundary.
 *
 * Unwind contract (chunk faults armed): if the injected chunk fault
 * throws after i full accesses, the flushed counters and all
 * TLB/policy state equal exactly i sequential access() calls, and
 * endAccessBatch() still runs so the policy leaves batch mode.  With
 * faults disarmed nothing in the loop throws, so the common case runs
 * the same body outside any EH region.
 */
template <typename Policy>
void
Tlb::accessBatchImpl(Policy *policy, const AccessInfo *infos,
                     const Addr *keys, const std::uint64_t *nows,
                     std::size_t n, Asid asid, std::uint8_t *hits)
{
    constexpr std::size_t kPrefetchAhead = 8;
    policy->beginAccessBatch(infos, n);
    DeferredAcct acct;
    if (!FaultInjector::chunkFaultsArmed()) {
        // Nothing in this loop throws (chirp_panic aborts, and the
        // chunk-fault hook is the only deliberate throw site), so the
        // common case runs free of the EH region and the per-access
        // fault compare; policies without chunk compose hooks see the
        // batched loop as pure win.
        for (std::size_t i = 0; i < n; ++i) {
            if (i + kPrefetchAhead < n)
                array_.prefetchSet(
                    array_.setIndex(keys[i + kPrefetchAhead]));
            const Addr key = keys[i];
            if (hotWay_ >= 0 && key == hotKey_) {
                acct.hit();
                array_.dataAt(hotSet_, hotWay_).lastHitTime = nows[i];
                hits[i] = 1;
                continue;
            }
            hits[i] =
                accessCore(policy, infos[i], asid, nows[i], key, acct)
                    ? 1
                    : 0;
        }
        accesses_ += n;
        hits_ += acct.hits;
        misses_ += acct.misses;
        evictions_ += acct.evictions;
        efficiency_.addBulk(acct.effLive, acct.effResident,
                            acct.effGens);
        policy->endAccessBatch();
        return;
    }

    // Chunk-fault injection armed: fire the per-chunk event halfway
    // through so the unwind path is exercised with a torn chunk
    // (deferred counters partially accumulated).
    const std::size_t fault_at = n / 2;
    std::size_t i = 0;
    try {
        for (; i < n; ++i) {
            if (i + kPrefetchAhead < n)
                array_.prefetchSet(
                    array_.setIndex(keys[i + kPrefetchAhead]));
            if (i == fault_at)
                FaultInjector::instance().onBatchChunk();
            const Addr key = keys[i];
            if (hotWay_ >= 0 && key == hotKey_) {
                acct.hit();
                array_.dataAt(hotSet_, hotWay_).lastHitTime = nows[i];
                hits[i] = 1;
                continue;
            }
            hits[i] =
                accessCore(policy, infos[i], asid, nows[i], key, acct)
                    ? 1
                    : 0;
        }
    } catch (...) {
        // i full accesses completed; flush exactly their counts so
        // state matches i sequential access() calls, then let the
        // policy drop out of batch mode before rethrowing.
        accesses_ += i;
        hits_ += acct.hits;
        misses_ += acct.misses;
        evictions_ += acct.evictions;
        efficiency_.addBulk(acct.effLive, acct.effResident,
                            acct.effGens);
        policy->endAccessBatch();
        throw;
    }
    accesses_ += n;
    hits_ += acct.hits;
    misses_ += acct.misses;
    evictions_ += acct.evictions;
    efficiency_.addBulk(acct.effLive, acct.effResident, acct.effGens);
    policy->endAccessBatch();
}

void
Tlb::accessBatch(const AccessInfo *infos, const Addr *keys,
                 const std::uint64_t *nows, std::size_t n, Asid asid,
                 std::uint8_t *hits)
{
    withPolicy([&](auto *policy) {
        accessBatchImpl(policy, infos, keys, nows, n, asid, hits);
    });
}

void
Tlb::keysOf(const Addr *vaddrs, const std::uint8_t *page_shifts,
            std::size_t n, Asid asid, Addr *keys)
{
    const Addr asid_bits = static_cast<Addr>(asid) << 52;
    std::memcpy(keys, vaddrs, n * sizeof(Addr));
    simd::shiftOrLanes(keys, page_shifts, n,
                       static_cast<std::uint8_t>(kPageShift), asid_bits,
                       asid_bits | (Addr{1} << 51));
}

bool
Tlb::probe(Addr vaddr, Asid asid, unsigned page_shift) const
{
    const Addr key = keyOf(vaddr, asid, page_shift);
    return array_.findWay(array_.setIndex(key), array_.tagOf(key)) >= 0;
}

void
Tlb::flushAll(std::uint64_t now)
{
    hotWay_ = -1;
    for (std::uint32_t set = 0; set < array_.numSets(); ++set) {
        for (std::uint32_t way = 0; way < array_.assoc(); ++way) {
            if (!array_.valid(set, way))
                continue;
            const Entry &entry = array_.dataAt(set, way);
            efficiency_.recordGeneration(entry.fillTime,
                                         entry.lastHitTime, now);
            array_.invalidate(set, way);
            policy_->onInvalidate(set, way);
        }
    }
}

void
Tlb::flushAsid(Asid asid, std::uint64_t now)
{
    hotWay_ = -1;
    for (std::uint32_t set = 0; set < array_.numSets(); ++set) {
        for (std::uint32_t way = 0; way < array_.assoc(); ++way) {
            if (!array_.valid(set, way) ||
                array_.dataAt(set, way).asid != asid)
                continue;
            const Entry &entry = array_.dataAt(set, way);
            efficiency_.recordGeneration(entry.fillTime,
                                         entry.lastHitTime, now);
            array_.invalidate(set, way);
            policy_->onInvalidate(set, way);
        }
    }
}

void
Tlb::finalizeEfficiency(std::uint64_t now)
{
    for (std::uint32_t set = 0; set < array_.numSets(); ++set) {
        for (std::uint32_t way = 0; way < array_.assoc(); ++way) {
            if (!array_.valid(set, way))
                continue;
            const Entry &entry = array_.dataAt(set, way);
            efficiency_.recordGeneration(entry.fillTime,
                                         entry.lastHitTime, now);
        }
    }
}

void
Tlb::reset()
{
    hotWay_ = -1;
    array_.invalidateAll();
    policy_->reset();
    efficiency_.reset();
    accesses_ = 0;
    hits_ = 0;
    misses_ = 0;
    evictions_ = 0;
}

} // namespace chirp
