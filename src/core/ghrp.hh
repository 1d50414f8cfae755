/**
 * @file
 * Global History Reuse Prediction (Mirbagher-Ajorpaz et al., ISCA
 * 2018), adapted from instruction cache / BTB replacement to the L2
 * TLB (§II-C of the paper).
 *
 * GHRP forms a signature from the accessing PC and a global history
 * register fed by conditional-branch outcomes and low-order branch
 * address bits.  Three prediction tables, indexed by three different
 * hashes of the signature, vote via a thresholded counter sum; dead
 * entries are preferred victims.  Unlike CHiRP, GHRP reads and
 * trains its tables on *every* access, which is what Fig 11
 * measures.
 *
 * Hot-path layout: the per-entry signatures (one per table) are
 * flattened into a single contiguous array instead of a
 * vector-per-entry, the dead bits form their own per-set runs, and
 * the per-access signatures are composed once in onAccessBegin and
 * memoized across the hit/victim/fill hooks.  Alongside each stored
 * signature the policy caches the table index it hashes to, so
 * training and voting on a stored signature is a direct packed-
 * counter access with no hash recomputation — the per-access hash
 * work drops from ~4 table-index computations per event to one
 * vectorized composition (all tables' signatures and indices in SIMD
 * lanes) in onAccessBegin.  The cached indices are simulation-speed
 * state, not modeled storage: storageBits() counts only the
 * architected signatures, flags and tables.  The hook bodies are
 * inline so the TLB's devirtualized dispatch can flatten them into
 * its access loop.
 */

#ifndef CHIRP_CORE_GHRP_HH
#define CHIRP_CORE_GHRP_HH

#include <array>
#include <vector>

#include "core/replacement_policy.hh"
#include "util/bitfield.hh"
#include "util/hashing.hh"
#include "util/packed_counters.hh"
#include "util/simd.hh"

namespace chirp
{

/** Upper bound on GHRP tables (sizes the fixed per-access memo). */
inline constexpr unsigned kGhrpMaxTables = 8;

/** GHRP configuration. */
struct GhrpConfig
{
    /** Number of prediction tables (votes). */
    unsigned numTables = 3;
    /** Entries per table (power of two). */
    std::size_t tableEntries = 4096;
    /** Counter width. */
    unsigned counterBits = 2;
    /**
     * Dead when the counter sum exceeds this.  With 3 x 2-bit
     * counters the sum ranges 0..9.
     */
    unsigned deadThreshold = 4;
    /** Stored signature width per entry. */
    unsigned signatureBits = 16;
    /** Bits shifted into the history per conditional branch (one
     *  outcome bit + historyShift-1 branch-address bits). */
    unsigned historyShift = 5;
    /**
     * History bits each table sees (TAGE-style length spread): the
     * zero-length table is a stable PC-only fallback, the longer
     * ones add control-flow context.
     */
    std::vector<unsigned> tableHistoryBits = {0, 5, 10};
};

/** GHRP replacement for the TLB. */
class GhrpPolicy final : public ReplacementPolicy
{
  public:
    GhrpPolicy(std::uint32_t num_sets, std::uint32_t assoc,
               const GhrpConfig &config = {});

    void reset() override;

    void
    onBranchRetired(Addr pc, InstClass cls, bool taken) override
    {
        if (cls != InstClass::CondBranch)
            return;
        // Outcome bit plus low-order branch address bits, as in the
        // original GHRP history.
        const std::uint64_t event =
            (bits(pc, config_.historyShift, 2) << 1) | (taken ? 1 : 0);
        history_ = (history_ << config_.historyShift) | event;
        memoValid_ = false;
    }

    void
    onAccessBegin(const AccessInfo &info) override
    {
        if (batchActive_) {
            // Batched miss path: every table's signature and index
            // for this access were composed in beginAccessBatch; the
            // memo is a column pick, not a hash.  The history
            // register still advances per access so mid-chunk state
            // (and a mid-chunk unwind) matches the scalar path.
            if (histStream_)
                history_ = histStream_[histIdx_++];
            const std::size_t i = batchPos_++;
            const unsigned n = config_.numTables;
            for (unsigned t = 0; t < n; ++t) {
                memoSigs_[t] = batchSigs_[t * batchN_ + i];
                memoIdxs_[t] = batchIdxs_[t * batchN_ + i];
            }
            memoPc_ = info.pc;
            memoValid_ = true;
            return;
        }
        if (histStream_) {
            // Replay mode: the history register values this policy
            // would have accumulated from the retire stream were
            // precomputed, one per access in order, so the retire
            // stream need not be walked at all.  The memo only goes
            // stale when the value actually moves; an unchanged
            // register recomposes to bit-identical signatures, so
            // keeping the memo is unobservable.
            const std::uint64_t h = histStream_[histIdx_++];
            if (h != history_) {
                history_ = h;
                memoValid_ = false;
            }
        }
        // Compose the per-table signatures and table indices once;
        // the hit/fill hooks of this access reuse them.
        memoize(info.pc);
    }

    /**
     * Batched miss path (see ReplacementPolicy::beginAccessBatch):
     * compose the whole chunk's per-table signatures and table
     * indices as n-lane columns through the fused sigIndexLanes
     * kernel — base → fold → signature → salt → multiply → fold →
     * bank index in registers, one pass over the chunk per table,
     * instead of separate fill/fold/truncate/salt/hash passes each
     * streaming the chunk through memory.  In live-history mode the
     * register is frozen for the chunk, so each table's history term
     * is the kernel's xor constant and the pc lanes are shared by all
     * tables; in replay mode the stream supplies each access's
     * register value, one extra xor pass per table.
     */
    void
    beginAccessBatch(const AccessInfo *infos, std::size_t n) override
    {
        const unsigned tables = config_.numTables;
        // [0, n) holds the shared pc>>2 lanes; [n, 2n) is scratch for
        // the replay-mode per-access history xor.
        if (batchLanes_.size() < 2 * n) {
            batchLanes_.resize(2 * n);
            batchSigs_.resize(n * tables);
            batchIdxs_.resize(n * tables);
        } else if (batchSigs_.size() < n * tables) {
            batchSigs_.resize(n * tables);
            batchIdxs_.resize(n * tables);
        }
        std::uint64_t *lanes = batchLanes_.data();
        std::uint64_t *scratch = lanes + n;
        for (std::size_t i = 0; i < n; ++i)
            lanes[i] = infos[i].pc >> 2;
        for (unsigned t = 0; t < tables; ++t) {
            std::uint16_t *sigs = batchSigs_.data() + t * n;
            std::uint32_t *idxs = batchIdxs_.data() + t * n;
            const std::uint32_t bank = static_cast<std::uint32_t>(t)
                                       << indexBits_;
            if (histStream_) {
                const std::uint64_t mask = histMasks_[t];
                for (std::size_t i = 0; i < n; ++i)
                    scratch[i] =
                        lanes[i] ^ (histStream_[histIdx_ + i] & mask);
                simd::sigIndexLanes(scratch, n, 0, sigPlan_, salts_[t],
                                    kIndexHashMultiplier, idxPlan_,
                                    bank, sigs, idxs);
            } else {
                simd::sigIndexLanes(lanes, n, history_ & histMasks_[t],
                                    sigPlan_, salts_[t],
                                    kIndexHashMultiplier, idxPlan_,
                                    bank, sigs, idxs);
            }
        }
#ifndef NDEBUG
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t h =
                histStream_ ? histStream_[histIdx_ + i] : history_;
            for (unsigned t = 0; t < tables; ++t) {
                const std::uint16_t want = static_cast<std::uint16_t>(
                    foldXor((infos[i].pc >> 2) ^ (h & histMasks_[t]),
                            config_.signatureBits));
                assert(batchSigs_[t * n + i] == want);
                assert(batchIdxs_[t * n + i] ==
                       bankIndex(t, hashBy(HashKind::Index,
                                           static_cast<std::uint64_t>(
                                               want) ^
                                               salts_[t],
                                           indexBits_)));
            }
        }
#endif
        batchN_ = n;
        batchPos_ = 0;
        batchActive_ = true;
    }

    void
    endAccessBatch() override
    {
        // The memo keeps the last completed access's values, exactly
        // where a scalar onAccessBegin sequence would have left it.
        batchActive_ = false;
    }

    /**
     * Batched-loop metadata hint (shadows the base no-op; resolved
     * statically under devirtualized dispatch): pull the set's dead
     * bits, LRU ranks and cached table indices toward the caches one
     * chunk slot ahead of its scan.
     */
    void
    prefetchMeta(std::uint32_t set) const
    {
#if defined(__GNUC__) || defined(__clang__)
        const std::size_t base = idx(set, 0);
        __builtin_prefetch(dead_.data() + base, 0, 3);
        __builtin_prefetch(stack_.positions(set), 0, 3);
        __builtin_prefetch(
            sigIdxs_.data() + base * config_.numTables, 0, 3);
#else
        (void)set;
#endif
    }

    void
    onHit(std::uint32_t set, std::uint32_t way,
          const AccessInfo &info) override
    {
        stack_.touch(set, way);
        const std::size_t entry = idx(set, way);
        memoize(info.pc);
        // One fused pass per table: train live at the previous
        // signature's index, re-tag with the current context, and
        // read the vote under the new index.  Equivalent to the
        // separate train/retag/vote loops — each table only ever
        // sees its own old index (decrement) before its new one
        // (read), in that order either way.
        std::uint16_t *sigs = storedSigs(entry);
        std::uint32_t *idxs = storedIdxs(entry);
        const bool was_valid = sigValid_[entry] != 0;
        const unsigned n = config_.numTables;
        unsigned sum = 0;
        if (was_valid) {
            // The entry proved live under its previous signature.
            countTableWrites(n);
            for (unsigned t = 0; t < n; ++t)
                bankDecrementAt(idxs[t]);
        }
        countTableReads(n);
        for (unsigned t = 0; t < n; ++t) {
            sigs[t] = memoSigs_[t];
            idxs[t] = memoIdxs_[t];
            sum += bank_.get(memoIdxs_[t]);
        }
        sigValid_[entry] = 1;
        // A hit is direct evidence of liveness: predictions may only
        // clear the dead bit here, never set it on an entry in active
        // use (refreshing to dead on hits churns hot entries).
        if (sum <= config_.deadThreshold)
            dead_[entry] = false;
    }

    std::uint32_t
    selectVictim(std::uint32_t set, const AccessInfo &) override
    {
        // The dead bits of the set are one contiguous assoc-byte run:
        // the first-dead scan is a single SIMD kernel call.
        const std::size_t way =
            simd::firstSetLane(dead_.data() + idx(set, 0), assoc());
        const std::uint32_t victim = way < assoc()
                                         ? static_cast<std::uint32_t>(way)
                                         : stack_.lruWay(set);
        // The victim is leaving the TLB: dead evidence for its
        // signature.  Entries the predictor itself chose are skipped
        // so its own decisions do not self-reinforce (SDBP-style
        // training).
        const std::size_t entry = idx(set, victim);
        if (!dead_[entry] && sigValid_[entry])
            trainDead(entry);
        return victim;
    }

    void
    onFill(std::uint32_t set, std::uint32_t way,
           const AccessInfo &info) override
    {
        stack_.touch(set, way);
        const std::size_t entry = idx(set, way);
        memoize(info.pc);
        // Fused retag + vote, as in onHit (no training on fills).
        std::uint16_t *sigs = storedSigs(entry);
        std::uint32_t *idxs = storedIdxs(entry);
        const unsigned n = config_.numTables;
        unsigned sum = 0;
        countTableReads(n);
        for (unsigned t = 0; t < n; ++t) {
            sigs[t] = memoSigs_[t];
            idxs[t] = memoIdxs_[t];
            sum += bank_.get(memoIdxs_[t]);
        }
        sigValid_[entry] = 1;
        dead_[entry] = sum > config_.deadThreshold;
    }

    void
    onInvalidate(std::uint32_t set, std::uint32_t way) override
    {
        stack_.demote(set, way);
        const std::size_t entry = idx(set, way);
        std::uint16_t *stored = storedSigs(entry);
        for (unsigned t = 0; t < config_.numTables; ++t)
            stored[t] = 0;
        sigValid_[entry] = 0;
        dead_[entry] = false;
    }

    std::uint64_t storageBits() const override;

    const GhrpConfig &config() const { return config_; }

    /** Current global history register value (tests). */
    std::uint64_t history() const { return history_; }

    /** Dead bit of an entry (tests). */
    bool
    isDead(std::uint32_t set, std::uint32_t way) const
    {
        return dead_[idx(set, way)];
    }

    /**
     * Event-replay support: take the global history register value
     * at each access from @p hist (one per access, in access order)
     * instead of evolving it from retired branches, which then need
     * not be delivered.  The values must equal what the live
     * onBranchRetired sequence would have accumulated before each
     * access; the stream depends only on historyShift, so variants
     * sharing it share one stream.  The array must outlive the
     * policy's use; reset() rewinds to its start.  Null reverts to
     * the live register.
     */
    void
    setHistoryStream(const std::uint64_t *hist)
    {
        histStream_ = hist;
        histIdx_ = 0;
    }

    /** Is a replay history stream attached? */
    bool hasHistoryStream() const { return histStream_ != nullptr; }

  private:
    /** Scalar reference signature composition (debug checks/tests). */
    std::uint16_t
    signatureOf(Addr pc, unsigned table) const
    {
        const std::uint64_t hist =
            history_ & maskBits(config_.tableHistoryBits[table]);
        return static_cast<std::uint16_t>(
            foldXor((pc >> 2) ^ hist, config_.signatureBits));
    }

    /**
     * Compose every table's signature and table index for @p pc into
     * the memo arrays: the history mask and XOR-fold for the
     * signatures, then the multiplicative index hash of sig ^ salt for
     * the indices — the same math PredictionTable::indexOf performs
     * per call, done once for all tables.  One fused scalar pass: with
     * at most kGhrpMaxTables tables there is nothing for a lane kernel
     * to win, and the per-table chains overlap in the pipeline.
     */
    void
    composeSignatures(Addr pc)
    {
        const unsigned n = config_.numTables;
        const std::uint64_t base = pc >> 2;
        for (unsigned t = 0; t < n; ++t) {
            // Index formation sees the stored (16-bit truncated)
            // signature, exactly as indexOf(storedSig) would.
            // FoldPlan::apply IS foldXor of the same widths.
            const std::uint16_t sig = static_cast<std::uint16_t>(
                sigPlan_.apply(base ^ (history_ & histMasks_[t])));
            memoSigs_[t] = sig;
            memoIdxs_[t] = bankIndex(
                t, idxPlan_.apply((static_cast<std::uint64_t>(sig) ^
                                   salts_[t]) *
                                  kIndexHashMultiplier));
        }
#ifndef NDEBUG
        for (unsigned t = 0; t < n; ++t) {
            assert(memoSigs_[t] == signatureOf(pc, t));
            assert(memoIdxs_[t] ==
                   bankIndex(t, hashBy(HashKind::Index,
                                       static_cast<std::uint64_t>(
                                           memoSigs_[t]) ^
                                           salts_[t],
                                       indexBits_)));
        }
#endif
    }

    /**
     * Refresh the per-access memo for @p pc unless it is already
     * valid (the history has not advanced since and the PC matches —
     * tests drive hooks directly, so the hooks revalidate).
     */
    void
    memoize(Addr pc)
    {
        if (!memoValid_ || memoPc_ != pc) {
            composeSignatures(pc);
            memoPc_ = pc;
            memoValid_ = true;
        }
    }

    /** The flattened stored-signature run of one entry. */
    std::uint16_t *
    storedSigs(std::size_t entry)
    {
        return sigs_.data() + entry * config_.numTables;
    }

    /** The cached table indices of one entry's stored signatures. */
    std::uint32_t *
    storedIdxs(std::size_t entry)
    {
        return sigIdxs_.data() + entry * config_.numTables;
    }

    void
    trainDead(std::size_t entry)
    {
        const std::uint32_t *idxs = storedIdxs(entry);
        countTableWrites(config_.numTables);
        for (unsigned t = 0; t < config_.numTables; ++t)
            bankIncrementAt(idxs[t]);
    }

    /**
     * Flat bank index of table @p t's counter @p idx.  The memo and
     * the per-entry index cache store these table-global indices so
     * the train/vote loops address one contiguous array with no
     * per-table base arithmetic.
     */
    std::uint32_t
    bankIndex(unsigned t, std::uint64_t idx) const
    {
        return static_cast<std::uint32_t>(
            (static_cast<std::uint64_t>(t) << indexBits_) | idx);
    }

    /**
     * Saturating increment of one bank counter.  Branchless: the
     * saturation test compiles to a flag add, so the data-dependent
     * (and hence unpredictable) saturated/unsaturated branch never
     * reaches the branch predictor.  A saturated counter stores its
     * own value back — no state change.
     */
    void
    bankIncrementAt(std::uint32_t flat)
    {
        const std::uint16_t value = bank_.get(flat);
        bank_.set(flat, static_cast<std::uint16_t>(
                            value + (value < counterMax_ ? 1 : 0)));
    }

    /** Saturating decrement of one bank counter (branchless). */
    void
    bankDecrementAt(std::uint32_t flat)
    {
        const std::uint16_t value = bank_.get(flat);
        bank_.set(flat, static_cast<std::uint16_t>(
                            value - (value > 0 ? 1 : 0)));
    }

    GhrpConfig config_;
    // All tables' counters in one contiguous packed array: table t's
    // counter i lives at flat index (t << indexBits_) | i.  One base
    // pointer serves every train/vote op — no per-table object or
    // per-table heap block on the hot path.  The modeled budget is
    // unchanged: storageBits() counts numTables * entries counters.
    PackedCounterArray bank_;
    std::uint16_t counterMax_ = 0;
    // Structure-of-arrays entry metadata: the stored signatures of
    // entry e occupy sigs_[e*numTables .. e*numTables+numTables), the
    // cached table indices the matching u32 run, and the
    // has-signature and dead flags their own byte arrays.  The index
    // cache mirrors indexOf(stored sig) and is simulator state only
    // (not counted in storageBits).
    std::vector<std::uint16_t> sigs_;
    std::vector<std::uint32_t> sigIdxs_;
    std::vector<std::uint8_t> sigValid_;
    std::vector<std::uint8_t> dead_;
    LruStack stack_;
    std::uint64_t history_ = 0;
    unsigned indexBits_ = 0;
    // Fold ladders for the signature and index widths, built once.
    simd::FoldPlan sigPlan_;
    simd::FoldPlan idxPlan_;
    // Per-table constants and the per-access signature/index memo
    // (see onAccessBegin), all fixed-size arrays so the per-access
    // composition runs with no heap indirection.
    std::array<std::uint64_t, kGhrpMaxTables> histMasks_{};
    std::array<std::uint64_t, kGhrpMaxTables> salts_{};
    std::array<std::uint16_t, kGhrpMaxTables> memoSigs_{};
    std::array<std::uint32_t, kGhrpMaxTables> memoIdxs_{};
    bool memoValid_ = false;
    Addr memoPc_ = 0;
    // Replay history stream (see setHistoryStream).
    const std::uint64_t *histStream_ = nullptr;
    std::size_t histIdx_ = 0;
    // Batched miss path: per-table chunk columns (table t's lane i at
    // t * batchN_ + i) and the u64 scratch the kernels fold over (see
    // beginAccessBatch).
    std::vector<std::uint16_t> batchSigs_;
    std::vector<std::uint32_t> batchIdxs_;
    std::vector<std::uint64_t> batchLanes_;
    std::size_t batchN_ = 0;
    std::size_t batchPos_ = 0;
    bool batchActive_ = false;
};

} // namespace chirp

#endif // CHIRP_CORE_GHRP_HH
