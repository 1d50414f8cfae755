/**
 * @file
 * Suite orchestration: run (workload x policy) grids and aggregate
 * the metrics the paper's figures report.
 */

#ifndef CHIRP_SIM_RUNNER_HH
#define CHIRP_SIM_RUNNER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/policy_factory.hh"
#include "sim/sim_config.hh"
#include "sim/sim_stats.hh"
#include "trace/trace_store.hh"
#include "trace/workload_suite.hh"

namespace chirp
{

namespace dist
{
class SweepFabric;
}

class RunJournal;
class Simulator;

/** Creates a fresh policy instance for a given TLB geometry. */
using PolicyFactory = std::function<std::unique_ptr<ReplacementPolicy>(
    std::uint32_t num_sets, std::uint32_t assoc)>;

/**
 * Optional per-job hook for runSuiteMulti: called right after the
 * simulation for (policy @p policy_idx, workload @p workload_idx)
 * completes, while its Simulator (and thus the policy instance with
 * any diagnostic counters) is still alive.  Invoked on the worker
 * thread that ran the job; observers must do their own locking.
 */
using SimObserver = std::function<void(
    std::size_t policy_idx, std::size_t workload_idx,
    const Simulator &sim)>;

/** Result of one (workload, policy) simulation. */
struct WorkloadResult
{
    WorkloadConfig workload;
    SimStats stats;
};

/** Per-job outcome recorded by the suite runner's isolation layer. */
struct JobResult
{
    std::string workload;       //!< workload display name
    std::string policy;         //!< policy tag / suite label
    bool ok = false;            //!< stats are valid
    bool resumed = false;       //!< satisfied from the run journal
    bool hung = false;          //!< flagged by the --job-timeout watchdog
    bool timedOut = false;      //!< cancelled after exceeding the budget
    unsigned attempts = 0;      //!< execution attempts (0 when resumed)
    std::uint64_t wallNs = 0;   //!< wall time across all attempts
    std::string error;          //!< what() of the last failure
};

/** Knobs for the suite runner's failure handling. */
struct ResilienceOptions
{
    /** Extra attempts granted to jobs failing with TransientError. */
    unsigned retries = 1;
    /**
     * Wall-time budget per job attempt; 0 disables the watchdog.
     * Enforcing: an attempt exceeding the budget is cancelled (the
     * simulator aborts at its next cancellation point), recorded as
     * timed-out, and not retried — under the distributed fabric its
     * shard is requeued instead.
     */
    std::uint64_t jobTimeoutMs = 0;
};

/**
 * Thread-safe ledger of every job outcome across a process's suite
 * runs.  Benches share one instance across all their Runner calls and
 * use failureCount() to pick their exit code: a suite with failed
 * jobs still completes and reports, but must not exit 0.
 */
class SuiteHealth
{
  public:
    /** Fold one job outcome into the ledger. */
    void add(const JobResult &job);

    std::uint64_t totalJobs() const;
    std::uint64_t okJobs() const;
    std::uint64_t resumedJobs() const;
    std::uint64_t hungJobs() const;
    std::uint64_t timedOutJobs() const;
    std::uint64_t retriedJobs() const;

    /** Outcomes of every failed job, in completion order. */
    std::vector<JobResult> failures() const;
    std::size_t failureCount() const;

  private:
    mutable std::mutex mutex_;
    std::vector<JobResult> failures_;
    std::uint64_t total_ = 0;
    std::uint64_t ok_ = 0;
    std::uint64_t resumed_ = 0;
    std::uint64_t hung_ = 0;
    std::uint64_t timedOut_ = 0;
    std::uint64_t retried_ = 0;
};

/** Drives suites of workloads through the simulator. */
class Runner
{
  public:
    /**
     * @param jobs worker threads for suite runs: 1 (the default)
     *        runs every job on the calling thread, 0 means hardware
     *        concurrency, N > 1 shards across N workers.  Results are
     *        bit-identical at every job count.
     */
    explicit Runner(const SimConfig &config, unsigned jobs = 1);

    /**
     * runSuiteMulti with the single factory @p factory, tagged with
     * @p label ("policy" when empty) in failure summaries.
     */
    std::vector<WorkloadResult>
    runSuite(const std::vector<WorkloadConfig> &suite,
             const PolicyFactory &factory,
             const std::string &label = "") const;

    /**
     * Run every factory in @p factories over @p suite with the
     * configured job count, materializing each workload's record
     * stream exactly once in the trace store and replaying it from
     * flat memory for all P policies — a P-policy sweep costs one
     * generation per workload instead of P.  Returns one result
     * vector per factory, each in suite order and bit-identical to a
     * plain Simulator::run of that policy at any job count: each job
     * gets a fresh policy instance and no state is shared across
     * workloads.  The store's reference to a workload is dropped as
     * soon as all policies have replayed it, so peak memory is
     * bounded by the in-flight jobs, not the suite.  Progress is
     * reported on stderr under @p label when it is non-empty.
     *
     * Failure isolation: a throwing job never aborts the suite.  The
     * failed slot keeps zeroed stats, the outcome (error text,
     * attempts, wall time, hung flag) is recorded in the shared
     * SuiteHealth ledger, and a per-job failure summary is logged at
     * the end of the run.  Jobs failing with TransientError are
     * retried per the ResilienceOptions.  A recorder failure fails
     * every pending policy of that workload.
     *
     * @p observer, when set, is invoked after each job (see
     * SimObserver) and disables the run journal for this call:
     * resumed jobs skip simulation, so any observer-derived data
     * would silently go missing.  @p tags, when non-empty, names each
     * factory in failure summaries (defaults to "p<idx>").
     */
    std::vector<std::vector<WorkloadResult>>
    runSuiteMulti(const std::vector<WorkloadConfig> &suite,
                  const std::vector<PolicyFactory> &factories,
                  const std::string &label = "",
                  const SimObserver &observer = {},
                  const std::vector<std::string> &tags = {}) const;

    /**
     * Point the trace store's disk tier at @p dir (resets the store;
     * empty disables the tier).  The constructor seeds the tier from
     * CHIRP_TRACE_CACHE.
     */
    void setTraceCacheDir(const std::string &dir);

    /** The materialized-trace store shared by runSuiteMulti calls. */
    TraceStore &traceStore() const { return *store_; }

    const SimConfig &config() const { return config_; }

    /** Worker threads used by suite runs (see constructor). */
    unsigned jobs() const { return jobs_; }

    /** Retry/watchdog knobs for subsequent suite runs. */
    void setResilience(const ResilienceOptions &opts)
    {
        resilience_ = opts;
    }
    const ResilienceOptions &resilience() const { return resilience_; }

    /**
     * Attach a journal: completed jobs are recorded to it, and jobs
     * it already holds are skipped (resume).  nullptr detaches.
     */
    void setJournal(std::shared_ptr<RunJournal> journal)
    {
        journal_ = std::move(journal);
    }

    /** Replace the health ledger job outcomes are reported to. */
    void setHealth(std::shared_ptr<SuiteHealth> health);

    /**
     * Attach a sweep fabric end.  On a coordinator, distributable
     * runSuiteMulti calls shard their pending workloads across
     * attached workers (merging streamed results into the same
     * slots, journal, and health ledger a local run fills) and fall
     * back to in-process execution for whatever the fabric hands
     * back.  On a worker, suite calls announce themselves and execute
     * granted shards, streaming every job outcome to the coordinator;
     * non-distributable calls (observer attached) return zero-shaped
     * results immediately — only the coordinator's CSVs are real.
     * nullptr detaches.
     */
    void setFabric(std::shared_ptr<dist::SweepFabric> fabric)
    {
        fabric_ = std::move(fabric);
    }

    /** The attached sweep fabric end, if any. */
    const std::shared_ptr<dist::SweepFabric> &fabric() const
    {
        return fabric_;
    }

    /** The health ledger for this runner's suite runs. */
    const std::shared_ptr<SuiteHealth> &health() const
    {
        return health_;
    }

    /** Factory for a default-configured policy of @p kind. */
    static PolicyFactory factoryFor(PolicyKind kind);

  private:
    SimConfig config_;
    unsigned jobs_ = 1;
    ResilienceOptions resilience_;
    /** Shared so copies of a Runner reuse one materialization cache. */
    std::shared_ptr<TraceStore> store_;
    std::shared_ptr<RunJournal> journal_;
    std::shared_ptr<SuiteHealth> health_;
    std::shared_ptr<dist::SweepFabric> fabric_;
};

/**
 * Sum of all per-workload counters in @p results (SimStats::merge
 * over the whole set).  Order-independent on the integer counters, so
 * serial and parallel suite runs aggregate identically.
 */
SimStats aggregateStats(const std::vector<WorkloadResult> &results);

/** Mean MPKI over a result set. */
double averageMpki(const std::vector<WorkloadResult> &results);

/**
 * Percent reduction of mean MPKI relative to a baseline result set
 * (the paper's "reduces MPKI by an average N%" metric).
 */
double mpkiReductionPct(const std::vector<WorkloadResult> &baseline,
                        const std::vector<WorkloadResult> &results);

/**
 * Geometric-mean speedup (percent) over a baseline at a given walk
 * penalty, re-deriving IPC via SimStats::ipcAtPenalty.
 */
double speedupPct(const std::vector<WorkloadResult> &baseline,
                  const std::vector<WorkloadResult> &results,
                  Cycles penalty);

/**
 * Mean percent gain in L2 TLB efficiency over a baseline (Fig 1's
 * summary numbers).  Workloads where the baseline recorded no
 * generations are skipped.
 */
double efficiencyGainPct(const std::vector<WorkloadResult> &baseline,
                         const std::vector<WorkloadResult> &results);

/** Mean prediction-table access rate (Fig 11 summary). */
double meanTableAccessRate(const std::vector<WorkloadResult> &results);

} // namespace chirp

#endif // CHIRP_SIM_RUNNER_HH
