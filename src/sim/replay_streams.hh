/**
 * @file
 * Replay history streams: the per-L2-event CHiRP signatures and GHRP
 * global-history values that history-fed policies consume during
 * Simulator::replayL2, computed for every streamed configuration of a
 * suite call in one walk of each workload's retire stream.
 */

#ifndef CHIRP_SIM_REPLAY_STREAMS_HH
#define CHIRP_SIM_REPLAY_STREAMS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/history.hh"
#include "tlb/tlb_hierarchy.hh"
#include "trace/columnar_trace.hh"

namespace chirp
{

/** One workload's replay streams, indexed as the plan numbered them. */
struct ReplayStreams
{
    /** Per signature stream: one CHiRP signature per L2 event. */
    std::vector<std::vector<std::uint16_t>> sigs;
    /** Per GHRP stream: the global history register at each event. */
    std::vector<std::vector<std::uint64_t>> ghrp;
};

/**
 * The replay streams one suite call needs, grouped by history shape
 * so the retire walk costs one register update per distinct shape,
 * not one per configuration.
 *
 * A signature is `PC>>2` XORed with the folds of three shift
 * registers (§IV-B).  Registers of different lengths fed the same
 * stream differ only in how many low bits they keep, so:
 *
 *  - a *path shape* is (pathFilter, pathPcBits, pathPcLowBit,
 *    pathZeroBits) and keeps one register as wide as the widest
 *    pathEvents among its users;
 *  - a *branch-slice shape* is (branchPcLowBit, branchPcBits) and
 *    keeps one conditional and one indirect register as wide as the
 *    widest branchEvents among its users.
 *
 * At each L2 event a user's fold is the XOR of the shape register's
 * words with the top one masked to the user's width — exactly what
 * WideShiftHistory::folded() of the user's own register returns.
 * GHRP streams keep one register per historyShift, since the shift
 * changes every event's content, not just its retention.
 *
 * Build the plan once per suite call; compute() is const and may run
 * concurrently for different workloads.
 */
class ReplayStreamPlan
{
  public:
    /**
     * Register a CHiRP signature stream for @p history folded to
     * @p signature_bits.  Returns its index in ReplayStreams::sigs;
     * equal requests share one index.
     */
    std::size_t addSignature(const HistoryConfig &history,
                             unsigned signature_bits);

    /**
     * Register a GHRP history stream for @p history_shift.  Returns
     * its index in ReplayStreams::ghrp; equal shifts share one index.
     */
    std::size_t addGhrp(unsigned history_shift);

    bool empty() const { return sigs_.empty() && ghrpShifts_.empty(); }

    std::size_t signatureStreams() const { return sigs_.size(); }
    std::size_t ghrpStreams() const { return ghrpShifts_.size(); }

    /** Distinct path shapes, i.e. path registers the walk updates. */
    std::size_t pathShapes() const { return paths_.size(); }

    /** Distinct branch-slice shapes (each a cond + indirect pair). */
    std::size_t branchShapes() const { return branches_.size(); }

    /**
     * Walk @p records once and capture every registered stream at
     * each of @p events (the recorder's L2 event stream, ordered by
     * instruction index), using the history state before the
     * record at the event's index retires — as onAccessBegin sees it.
     */
    ReplayStreams compute(const ColumnarTrace &records,
                          const std::vector<L2Event> &events) const;

  private:
    struct PathShape
    {
        PathFilter filter;
        unsigned pcBits;
        unsigned pcLowBit;
        unsigned zeroBits;
        unsigned events; //!< widest pathEvents among the users
    };

    struct BranchShape
    {
        unsigned pcLowBit;
        unsigned pcBits;
        unsigned events; //!< widest branchEvents among the users
    };

    struct SigSpec
    {
        HistoryConfig history;
        unsigned signatureBits;
        std::size_t path;   //!< index into paths_
        std::size_t branch; //!< index into branches_
    };

    std::vector<PathShape> paths_;
    std::vector<BranchShape> branches_;
    std::vector<SigSpec> sigs_;
    std::vector<unsigned> ghrpShifts_;
};

} // namespace chirp

#endif // CHIRP_SIM_REPLAY_STREAMS_HH
