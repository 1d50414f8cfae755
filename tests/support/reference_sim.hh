/**
 * @file
 * Test-side oracle for the timing model: the in-order pipeline of
 * Simulator, one record at a time, with the simplest implementation
 * of every policy-dependent part.
 *
 * The oracle keeps its own L1 i/d and L2 TLB tag arrays and drives
 * each level's replacement policy through `ReplacementPolicy &` —
 * plain virtual calls, no batching, no repeat-hit memo, no record /
 * replay, no SIMD.  Its cache hierarchy is the test-side RefHierarchy
 * (support/reference_cache.hh: tick LRU, line-by-line prefetch), so
 * the timing-config cases check cycles against a cache model that
 * production does not share.  It shares with production only
 * PageMap, BranchUnit, EfficiencyTracker and Tlb::keyOf; the branch
 * model has no test-side twin yet, so a BranchUnit bug shows only in
 * `branch_test`, the benchmark's golden digests and the fig08/fig10
 * CSVs.  The equality tests diff every production engine
 * (Simulator::run, replayL2, replayL2Multi, Runner::runSuiteMulti)
 * against it, field for field.
 */

#ifndef CHIRP_TESTS_SUPPORT_REFERENCE_SIM_HH
#define CHIRP_TESTS_SUPPORT_REFERENCE_SIM_HH

#include <memory>
#include <vector>

#include "branch/branch_unit.hh"
#include "core/replacement_policy.hh"
#include "sim/sim_config.hh"
#include "sim/sim_stats.hh"
#include "tlb/page_map.hh"
#include "trace/columnar_trace.hh"

namespace chirp
{

/** One reference processor model; run() may be called repeatedly. */
class ReferenceSim
{
  public:
    /**
     * @param config model parameters (the L1 TLBs get plain LRU, as
     *        in TlbHierarchy)
     * @param l2_policy replacement policy for the L2 TLB (owned)
     */
    ReferenceSim(const SimConfig &config,
                 std::unique_ptr<ReplacementPolicy> l2_policy);

    /**
     * Decide page sizes through @p map (null: uniform 4KB pages).
     * The map must outlive run().
     */
    void setPageMap(const PageMap *map) { pageMap_ = map; }

    /** Simulate @p trace from cold state; measured-phase stats. */
    SimStats run(const ColumnarTrace &trace);

  private:
    SimConfig config_;
    const PageMap *pageMap_ = nullptr;
    std::unique_ptr<ReplacementPolicy> l2Policy_;
    BranchUnit branch_;
};

} // namespace chirp

#endif // CHIRP_TESTS_SUPPORT_REFERENCE_SIM_HH
