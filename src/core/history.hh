/**
 * @file
 * Control-flow history registers (§IV-B of the paper).
 *
 * CHiRP tracks three shift-register histories:
 *
 *  - the global path history: PC bits [3:2] of each L2 TLB access,
 *    shifted in 4 positions at a time (2 PC bits followed by 2
 *    injected zeros — the paper's shifting/scaling transformation);
 *  - the conditional branch history: PC bits [11:4] of every retired
 *    conditional branch, 8 bits per event;
 *  - the unconditional-indirect branch history: same slice, for
 *    indirect branches.
 *
 * The paper's registers are 64 bits (16 accesses / 8 branches).  The
 * Fig 2 study sweeps path-history *length*, so WideShiftHistory
 * generalizes the register to arbitrary bit widths while remaining
 * bit-identical to a 64-bit register at the paper's configuration.
 */

#ifndef CHIRP_CORE_HISTORY_HH
#define CHIRP_CORE_HISTORY_HH

#include <cstdint>
#include <vector>

#include "util/bitfield.hh"
#include "util/types.hh"

namespace chirp
{

/**
 * A left-shifting history register of arbitrary width, folded to
 * 64 bits on demand for signature composition.
 *
 * The 64-bit XOR-fold is maintained *incrementally*: push() updates
 * it while it already has every word in hand, so folded() is a plain
 * load on the signature-composition hot path instead of a fresh
 * reduction over words_.  Registers no wider than 64 bits (every
 * paper configuration) take a branch-free single-word path.
 */
class WideShiftHistory
{
  public:
    /**
     * @param events number of events retained
     * @param shift_per_event bit positions shifted per event
     */
    WideShiftHistory(unsigned events, unsigned shift_per_event);

    /** Shift in the low @p shift bits of @p value. */
    void
    push(std::uint64_t value)
    {
        if (single_) {
            // Whole register in one word: the fold of one word is the
            // word itself, so folded_ IS the register and the push is
            // a member shift/mask with no words_ indirection.
            // shiftMask_ is maskBits(shift_) precomputed: push sits
            // on the per-retired-instruction path, so the mask must
            // not be re-derived per event.
            folded_ = ((folded_ << shift_) | (value & shiftMask_)) &
                      widthMask_;
            return;
        }
        pushWide(value);
    }

    /** XOR-fold of all words: the 64-bit view used in signatures. */
    std::uint64_t folded() const { return folded_; }

    /** Lowest 64 bits (exact register value when width <= 64). */
    std::uint64_t
    low64() const
    {
        if (single_)
            return folded_; // words_[0] is not maintained (see push)
        return words_.empty() ? 0 : words_[0];
    }

    /** Clear the register. */
    void reset();

    /** Total width in bits. */
    unsigned widthBits() const { return widthBits_; }

    unsigned events() const { return events_; }
    unsigned shiftPerEvent() const { return shift_; }

  private:
    /** Multi-word shift for registers wider than 64 bits. */
    void pushWide(std::uint64_t value);

    unsigned events_;
    unsigned shift_;
    unsigned widthBits_;
    bool single_;             //!< widthBits_ <= 64: one-word fast path
    std::uint64_t widthMask_; //!< mask of the top (partial) word
    std::uint64_t shiftMask_; //!< maskBits(shift_), precomputed
    std::uint64_t folded_ = 0;
    std::vector<std::uint64_t> words_;
};

/** Which retired instructions shift into the path history. */
enum class PathFilter
{
    All,    //!< every retired instruction
    Memory, //!< loads and stores only
    Branch, //!< branches only
};

/** Configuration for the full control-flow history set. */
struct HistoryConfig
{
    /** Path-history events retained (paper: 16). */
    unsigned pathEvents = 16;
    /** Instruction classes feeding the path register. */
    PathFilter pathFilter = PathFilter::All;
    /** PC bits shifted into the path history per access (paper: 2). */
    unsigned pathPcBits = 2;
    /** Lowest PC bit captured (paper: bit 2). */
    unsigned pathPcLowBit = 2;
    /**
     * Injected zero bits per access (paper: 2).  Zero disables the
     * shifting/scaling optimization for the Fig 6 ablation.
     */
    unsigned pathZeroBits = 2;
    /** Use the conditional-branch history? */
    bool useCondHist = true;
    /** Use the unconditional-indirect-branch history? */
    bool useUncondHist = true;
    /** Branch-history events retained (paper: 8). */
    unsigned branchEvents = 8;
    /** Branch PC slice: bits [11:4] (paper). */
    unsigned branchPcLowBit = 4;
    unsigned branchPcBits = 8;

    /**
     * Equal configurations evolve identical history state from the
     * same retire stream, so they share one replay signature stream
     * (ReplayStreamPlan).
     */
    bool operator==(const HistoryConfig &) const = default;
};

/**
 * The three history registers plus signature composition
 * (Algorithm 5 line 5): sign = (PC >> 2) ^ path ^ cond ^ uncond.
 */
class ControlFlowHistory
{
  public:
    explicit ControlFlowHistory(const HistoryConfig &config);

    /**
     * An L2 TLB access by the instruction at @p pc retired.  The PC
     * slice bounds are precomputed shift/mask members: this hook (and
     * the branch hooks below) runs once per retired instruction, so
     * the slice must not re-derive its mask per event.
     */
    void
    onAccess(Addr pc)
    {
        // Shift in PC[lo+n-1 : lo]; the injected zeros come from the
        // register shifting further than the pushed value is wide.
        path_.push((pc >> pathLow_) & pathMask_);
    }

    /** A conditional branch at @p pc retired. */
    void
    onCondBranch(Addr pc)
    {
        if (!config_.useCondHist)
            return;
        cond_.push((pc >> branchLow_) & branchMask_);
    }

    /** An unconditional indirect branch at @p pc retired. */
    void
    onUncondIndirectBranch(Addr pc)
    {
        if (!config_.useUncondHist)
            return;
        uncond_.push((pc >> branchLow_) & branchMask_);
    }

    /**
     * Compose the 64-bit signature for an access by @p pc using the
     * *current* (pre-update) history contents.  With incremental
     * folds this is three loads and three XORs.
     */
    std::uint64_t
    signature(Addr pc) const
    {
        std::uint64_t sign = pc >> 2;
        sign ^= path_.folded();
        if (config_.useCondHist)
            sign ^= cond_.folded();
        if (config_.useUncondHist)
            sign ^= uncond_.folded();
        return sign;
    }

    /** Clear all three registers. */
    void reset();

    /** Storage of the three registers in bits (Table I). */
    std::uint64_t storageBits() const;

    const WideShiftHistory &path() const { return path_; }
    const WideShiftHistory &cond() const { return cond_; }
    const WideShiftHistory &uncond() const { return uncond_; }

    const HistoryConfig &config() const { return config_; }

  private:
    HistoryConfig config_;
    WideShiftHistory path_;
    WideShiftHistory cond_;
    WideShiftHistory uncond_;
    // Precomputed PC-slice extraction (see onAccess).
    unsigned pathLow_;
    unsigned branchLow_;
    std::uint64_t pathMask_;
    std::uint64_t branchMask_;
};

} // namespace chirp

#endif // CHIRP_CORE_HISTORY_HH
