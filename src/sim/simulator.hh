/**
 * @file
 * The timing-approximate performance model (§V).
 *
 * An in-order pipeline retiring one instruction per cycle plus
 * first-order stalls: i-side and d-side TLB misses (L2 TLB lookup
 * latency and page-walk penalty), cache misses down the three-level
 * hierarchy, and branch mispredictions.  The first
 * `warmupFraction` of the trace warms all structures; statistics
 * cover the remainder.
 */

#ifndef CHIRP_SIM_SIMULATOR_HH
#define CHIRP_SIM_SIMULATOR_HH

#include <atomic>
#include <memory>
#include <stdexcept>
#include <vector>

#include "branch/branch_unit.hh"
#include "mem/cache_hierarchy.hh"
#include "sim/sim_config.hh"
#include "sim/sim_stats.hh"
#include "tlb/tlb_hierarchy.hh"
#include "trace/columnar_trace.hh"
#include "trace/trace_source.hh"

namespace chirp
{

/**
 * Records pulled per TraceSource::nextBatch call in the simulation
 * loop: large enough to amortize the virtual dispatch, small enough
 * (8 KB of records) to stay L1-resident.
 */
constexpr std::size_t kReplayBatch = 256;

/**
 * Thrown out of a simulation whose cancel token fired: the enforcing
 * --job-timeout watchdog sets the token when an attempt overruns its
 * budget, and the runner records the abandoned job as timed out
 * (never retried — it would only time out again).
 */
class JobCancelled : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * One processor model instance.  It owns only the layers its runs
 * simulate: the TLB hierarchy always; the cache hierarchy and branch
 * unit are built by the first run whose config simulates them (and
 * reset by later runs), so MPKI-only runs and replay lanes never
 * allocate them.
 */
class Simulator
{
  public:
    /**
     * @param config model parameters
     * @param l2_policy replacement policy for the L2 TLB (owned)
     */
    Simulator(const SimConfig &config,
              std::unique_ptr<ReplacementPolicy> l2_policy);

    /**
     * Simulate @p source to completion (resetting it first) and
     * return measured-phase statistics.
     */
    SimStats run(TraceSource &source);

    /**
     * Multi-process mode: interleave several traces round-robin with
     * a context-switch quantum.  Process i runs under ASID i+1; with
     * @p flush_on_switch the TLBs are flushed at every switch
     * (non-ASID-tagged hardware), otherwise entries of all processes
     * coexist under their ASIDs.  Statistics cover the post-warmup
     * phase of the combined stream.
     */
    SimStats runInterleaved(const std::vector<TraceSource *> &sources,
                            InstCount quantum, bool flush_on_switch);

    /**
     * Replay a pre-recorded L2 event stream instead of re-simulating
     * the full pipeline.  @p events is the L2 access sequence some
     * recording run of @p records captured via
     * TlbHierarchy::setL2EventSink, and @p base that run's statistics.
     *
     * The L1 TLBs, caches and branch unit evolve independently of the
     * L2 replacement policy, so only the L2 (and, for history-based
     * policies, the retire hooks) needs to run per policy; every
     * policy-independent statistic is taken from @p base and the
     * cycle count is reassembled from its policy-independent part
     * plus this policy's L2 stalls.  The result is bit-identical to
     * run() over @p records with the same policy.  A one-lane
     * replayL2Multi().
     */
    SimStats replayL2(const ColumnarTrace &records,
                      const std::vector<L2Event> &events,
                      const SimStats &base);

    /**
     * Policy-parallel replay: evaluate several policies' table
     * updates in ONE pass over the shared L2 event stream (and, for
     * history-fed policies, the retire stream), instead of one walk
     * per policy.  Each simulator in @p sims is reset and driven with
     * the event/retire interleaving of a full run, so its result is
     * bit-identical to run() with its policy; the win is that the
     * event gather and the record walk are amortized over all
     * policies.  Simulators may differ in policy and warmup fraction.
     * Retire-blind lanes replay the event stream in chunks through
     * Tlb::accessBatch; the per-record walk runs only when some lane
     * consumes retire events.  Polls every simulator's cancel token.
     * Throws JobCancelled when one fires, and is fatal on misuse
     * (null @p sims entries).
     */
    static std::vector<SimStats>
    replayL2Multi(const std::vector<Simulator *> &sims,
                  const ColumnarTrace &records,
                  const std::vector<L2Event> &events,
                  const SimStats &base);

    /** The TLB hierarchy (inspection in tests/examples). */
    TlbHierarchy &tlbs() { return *tlbs_; }
    const TlbHierarchy &tlbs() const { return *tlbs_; }

    const SimConfig &config() const { return config_; }

    /**
     * Attach a cooperative cancel token: run/replayL2 poll it every
     * few thousand records and abandon the simulation with
     * JobCancelled once it reads true.  nullptr (the default)
     * disables polling.  The token must outlive the simulation.
     */
    void setCancelToken(const std::atomic<bool> *token)
    {
        cancel_ = token;
    }

  private:
    /** Throw JobCancelled when the attached token has fired. */
    void checkCancelled() const;

    /** Shared implementation of run/runInterleaved. */
    SimStats runImpl(const std::vector<TraceSource *> &sources,
                     InstCount quantum, bool flush_on_switch);

    Asid activeAsid_ = 0;

    const std::atomic<bool> *cancel_ = nullptr;

    SimConfig config_;
    std::unique_ptr<TlbHierarchy> tlbs_;
    std::unique_ptr<CacheHierarchy> caches_; //!< null until simulated
    std::unique_ptr<BranchUnit> branch_;     //!< null until simulated
};

} // namespace chirp

#endif // CHIRP_SIM_SIMULATOR_HH
