/**
 * @file
 * The two-level TLB hierarchy of Table II: 64-entry L1 i-TLB and
 * d-TLB (LRU, 1-cycle) backed by a unified 1024-entry 8-way L2 TLB
 * (8-cycle hit) whose replacement policy is the object of study,
 * backed by a page walker.
 */

#ifndef CHIRP_TLB_TLB_HIERARCHY_HH
#define CHIRP_TLB_TLB_HIERARCHY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/chirp.hh"
#include "core/ghrp.hh"
#include "tlb/page_walker.hh"
#include "tlb/tlb.hh"

namespace chirp
{

/** Hierarchy geometry/latency configuration (Table II defaults). */
struct TlbHierarchyConfig
{
    TlbConfig l1i{"l1i-tlb", 64, 8, 1};
    TlbConfig l1d{"l1d-tlb", 64, 8, 1};
    TlbConfig l2{"l2-tlb", 1024, 8, 8};
};

/** Result of one translation. */
struct TranslateResult
{
    bool l1Hit = false;
    bool l2Hit = false; //!< meaningful when !l1Hit
    Cycles stall = 0;   //!< cycles beyond the hidden L1 hit latency
};

/**
 * One L2 TLB access as observed during a recording run: everything
 * translate() hands the L2 on an L1 miss, plus the instruction index
 * it happened at.
 *
 * The L1 TLBs are plain LRU and never consult the L2, so the L1-miss
 * sequence — and with it this event stream — depends only on the
 * trace, not on the L2 replacement policy.  Recording it once per
 * workload lets every further policy replay just these events (plus
 * the retire stream for history-based policies) instead of
 * re-simulating both L1 TLBs for every record.
 */
struct L2Event
{
    Addr pc = 0;             //!< accessing instruction
    Addr vaddr = 0;          //!< address being translated
    std::uint64_t now = 0;   //!< instruction index of the access
    InstClass cls = InstClass::Alu;
    std::uint8_t isInstr = 0;   //!< i-side (1) or d-side (0) access
    std::uint8_t pageShift = 0; //!< log2 page size of the mapping
};

/** L1 i/d TLBs + unified L2 TLB + page walker. */
class TlbHierarchy
{
  public:
    /**
     * @param l2_policy replacement policy for the L2 TLB (owned)
     * @param walker page-walk latency model (owned)
     */
    TlbHierarchy(const TlbHierarchyConfig &config,
                 std::unique_ptr<ReplacementPolicy> l2_policy,
                 std::unique_ptr<PageWalker> walker);

    /** Convenience: Table II geometry with the given policy/walker. */
    static std::unique_ptr<TlbHierarchy>
    makeDefault(std::unique_ptr<ReplacementPolicy> l2_policy,
                std::unique_ptr<PageWalker> walker);

    /**
     * Translate one access.  `info.isInstr` selects the L1 TLB;
     * `info.vaddr` is the address being translated (the PC itself
     * for instruction fetches).  Inline so the all-L1-hit common
     * case stays inside the simulation loop.
     */
    TranslateResult
    translate(const AccessInfo &info, Asid asid, std::uint64_t now)
    {
        TranslateResult result;
        Tlb &l1 = info.isInstr ? l1i_ : l1d_;
        const unsigned page_shift = pageShiftFor(info.vaddr);

        if (l1.access(info, asid, now, page_shift)) {
            result.l1Hit = true;
            return result; // 1-cycle L1 hit is hidden by the pipeline
        }

        // L1 miss: probe the unified L2.
        if (l2Sink_) {
            l2Sink_->push_back({info.pc, info.vaddr, now, info.cls,
                                static_cast<std::uint8_t>(info.isInstr),
                                static_cast<std::uint8_t>(page_shift)});
        }
        result.stall += l2_.config().hitLatency;
        if (l2_.access(info, asid, now, page_shift)) {
            result.l2Hit = true;
            return result;
        }

        // L2 miss: walk the page table.
        result.stall += walker_->walk(info.vaddr);
        return result;
    }

    /**
     * The L1-miss tail of translate(): record the L2 event, probe the
     * unified L2 and walk on a miss.  The batched pipeline runs the
     * L1 lookups of a whole chunk as one pre-pass (the L1 TLBs are
     * plain LRU and never consult the L2, so their evolution is
     * independent of everything below them) and then replays only the
     * missing accesses through this tail in original record order,
     * keeping the L2 access and event-sink sequences — and with them
     * every statistic — bit-identical to the one-at-a-time loop.
     */
    Cycles
    translateL1Miss(const AccessInfo &info, Asid asid,
                    std::uint64_t now, unsigned page_shift)
    {
        if (l2Sink_) {
            l2Sink_->push_back({info.pc, info.vaddr, now, info.cls,
                                static_cast<std::uint8_t>(info.isInstr),
                                static_cast<std::uint8_t>(page_shift)});
        }
        Cycles stall = l2_.config().hitLatency;
        if (!l2_.access(info, asid, now, page_shift))
            stall += walker_->walk(info.vaddr);
        return stall;
    }

    /** log2 page size backing @p vaddr (4KB unless a page map says
     *  otherwise). */
    unsigned
    pageShiftFor(Addr vaddr) const
    {
        return pageMap_ ? pageMap_->pageShiftFor(vaddr) : kPageShift;
    }

    /**
     * Use @p map to decide each address's backing page size (mixed
     * 4KB/2MB operation).  Null reverts to uniform 4KB pages.  The
     * map must outlive the hierarchy.  The simulation consults the
     * mapping directly where hardware would probe both sizes; the
     * probe-order timing difference is not modeled.
     */
    void setPageMap(const PageMap *map) { pageMap_ = map; }

    /**
     * Append every L2 access to @p sink (null disables).  Used by
     * recording runs to capture the policy-independent L2 event
     * stream; the check sits on the L1-miss path only, so ordinary
     * runs pay nothing for it.  The sink must outlive the run.
     */
    void setL2EventSink(std::vector<L2Event> *sink) { l2Sink_ = sink; }

    /**
     * Deliver a retired branch to the L2 policy (CHiRP/GHRP build
     * their branch histories from the full instruction stream).
     * Skipped entirely for retire-blind policies; delivered through
     * a typed pointer (devirtualized, hooks inline) when the policy
     * is known to be exactly CHiRP or GHRP.
     */
    void
    onBranchRetired(Addr pc, InstClass cls, bool taken)
    {
        if (l2Chirp_) {
            l2Chirp_->onBranchRetired(pc, cls, taken);
            return;
        }
        if (l2Ghrp_) {
            l2Ghrp_->onBranchRetired(pc, cls, taken);
            return;
        }
        if (l2WantsRetire_)
            l2_.policy().onBranchRetired(pc, cls, taken);
    }

    /** Deliver every retired instruction to the L2 policy (path
     *  history updates).  Skipped for retire-blind policies;
     *  devirtualized for CHiRP (GHRP ignores non-branch retires). */
    void
    onInstRetired(Addr pc, InstClass cls)
    {
        if (l2Chirp_) {
            l2Chirp_->onInstRetired(pc, cls);
            return;
        }
        if (l2Ghrp_)
            return; // GHRP only consumes onBranchRetired
        if (l2WantsRetire_)
            l2_.policy().onInstRetired(pc, cls);
    }

    /** Close out L2 efficiency accounting at observation end. */
    void finalizeEfficiency(std::uint64_t now);

    /** Reset all levels and the walker. */
    void reset();

    Tlb &l1i() { return l1i_; }
    Tlb &l1d() { return l1d_; }
    Tlb &l2() { return l2_; }
    const Tlb &l1i() const { return l1i_; }
    const Tlb &l1d() const { return l1d_; }
    const Tlb &l2() const { return l2_; }
    PageWalker &walker() { return *walker_; }

  private:
    static std::unique_ptr<ReplacementPolicy>
    makeL1Policy(const TlbConfig &config);

    TlbHierarchyConfig config_;
    const PageMap *pageMap_ = nullptr;
    std::vector<L2Event> *l2Sink_ = nullptr;
    //! Cached wantsRetireEvents() of the L2 policy: skips two virtual
    //! calls per retired instruction for retire-blind policies.
    bool l2WantsRetire_ = true;
    //! Exact-type L2 policy views for the retire fast paths (both
    //! classes are final, so the calls devirtualize).  Null when the
    //! policy is any other type.
    ChirpPolicy *l2Chirp_ = nullptr;
    GhrpPolicy *l2Ghrp_ = nullptr;
    Tlb l1i_;
    Tlb l1d_;
    Tlb l2_;
    std::unique_ptr<PageWalker> walker_;
};

} // namespace chirp

#endif // CHIRP_TLB_TLB_HIERARCHY_HH
