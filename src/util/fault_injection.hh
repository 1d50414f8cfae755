/**
 * @file
 * Deterministic fault injection for resilience testing.
 *
 * Long suite runs fan hundreds of jobs across a thread pool and a
 * disk-backed trace cache; the failure-isolation, retry, resume, and
 * cache-quarantine machinery that protects them is only trustworthy
 * if it can be exercised on demand.  The injector arms a small set of
 * failure actions from a spec string (CHIRP_FAULT in the environment,
 * or configure() in tests) and fires them at two instrumented points:
 *
 *   job events    one per suite-job attempt (Runner's guarded jobs:
 *                 each workload's recorder attempt, then each of its
 *                 policy jobs' attempts)
 *   cache events  one per trace-cache file published to disk
 *
 * Events are numbered from 0 in program order, so a given spec always
 * hits the same attempt with `--jobs 1`; with more workers the event
 * an action lands on is racy but the *kind* of failure is not, which
 * is all the crash/resume CI smoke needs.
 *
 * Spec grammar (comma-separated actions, each fired at most once):
 *
 *   throw@N           TransientError at job event N (retryable)
 *   hard-throw@N      InjectedFault at job event N (not retryable)
 *   slow@N[:MS]       sleep MS milliseconds (default 200) at job event N
 *   crash@N[:CODE]    _Exit(CODE) (default 137) at job event N -- no
 *                     flushes, no destructors, like a SIGKILL
 *   chunk-throw@N     TransientError halfway through the Nth batched
 *                     access chunk (retryable) -- fires inside
 *                     Tlb::accessBatch with a torn chunk in flight,
 *                     exercising the deferred-counter unwind path
 *   cache-truncate@N[:BYTES]  cut BYTES (default half) off the Nth
 *                             published trace-cache file
 *   cache-bitflip@N[:OFFSET]  XOR one bit at OFFSET (default middle)
 *                             of the Nth published trace-cache file
 *
 * Worker-targeted actions (--workers sweeps): here @N selects a
 * *worker*, not an event index.  Runner::setWorkers forks one child
 * per shard, and child i takes shard index i as its worker id
 * (setWorkerId), restarting its job and wire event counts from 0.
 * The actions fire only in the child whose id equals N; the parent
 * (id -1) never fires them.  worker-crash fires at that child's third
 * local job event — mid-shard, after the recorder and one replay have
 * completed, so at least one result has streamed back; msg-truncate
 * fires on an outgoing wire frame.  N names a worker id in every
 * suite call, not one fork: a bench that makes several
 * runSuiteMulti calls with --workers (opt_bound, one per window)
 * forks a fresh worker N in each call, and each of them fires.
 *
 *   worker-crash@N[:CODE]  worker N _Exit(CODE)s (default 137) as if
 *                          kill -9'd mid-shard
 *   msg-truncate@N[:K]     worker N truncates its Kth (from 0; default
 *                          3) outgoing wire frame mid-write, desyncing
 *                          the stream so the parent drops the worker
 *
 * Example: CHIRP_FAULT=throw@3,cache-bitflip@0
 * Example: CHIRP_FAULT=worker-crash@1
 */

#ifndef CHIRP_UTIL_FAULT_INJECTION_HH
#define CHIRP_UTIL_FAULT_INJECTION_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace chirp
{

/**
 * A failure worth retrying: transient I/O blips and injected
 * transient faults.  The suite runner's retry policy (--retries)
 * applies only to this family; anything else fails the job at once.
 */
class TransientError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** A deterministic injected failure that must not be retried. */
class InjectedFault : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Process-wide injector; see the file comment for the spec grammar. */
class FaultInjector
{
  public:
    /** The singleton, armed from CHIRP_FAULT on first use. */
    static FaultInjector &instance();

    /**
     * Replace the armed actions with @p spec ("" disarms) and reset
     * the event counters.  Fatal on a malformed spec.
     */
    void configure(const std::string &spec);

    /** Disarm all actions and reset the event counters. */
    void reset() { configure(""); }

    /** Whether any action is armed (fired or not). */
    bool active() const;

    /**
     * Count one job-attempt event and fire any action armed for it.
     * May throw TransientError / InjectedFault, sleep, or _Exit.
     */
    void onJobStart();

    /**
     * Count one cache-publish event and corrupt @p path in place if
     * an action is armed for it.  Never throws.
     */
    void onCachePublish(const std::string &path);

    /**
     * Is any chunk-throw action armed and unfired?  A relaxed atomic
     * read with no lock: the batched access path consults this once
     * per chunk and must cost nothing when fault injection is idle.
     */
    static bool
    chunkFaultsArmed()
    {
        return chunkArmed_.load(std::memory_order_relaxed);
    }

    /**
     * Count one batched-chunk event and fire any chunk-throw action
     * armed for it (TransientError).  Only called from inside a
     * chunk when chunkFaultsArmed() was true at its start.
     */
    void onBatchChunk();

    /**
     * Identify this process as forked worker @p id (-1: not a
     * worker) and restart the job and wire event counts from 0.  Arms
     * the worker-targeted action family.
     */
    void setWorkerId(int id);

    /**
     * Count one outgoing wire frame of @p len bytes and return how
     * many of them to actually send: @p len normally, less when a
     * msg-truncate action targeting this worker fires.  Never throws.
     */
    std::size_t onWireSend(std::size_t len);

    /** Job-attempt events seen since the last configure(). */
    std::uint64_t jobEvents() const;

    /** Cache-publish events seen since the last configure(). */
    std::uint64_t cacheEvents() const;

  private:
    FaultInjector();

    enum class Kind
    {
        Throw,
        HardThrow,
        Slow,
        Crash,
        CacheTruncate,
        CacheBitFlip,
        WorkerCrash,
        MsgTruncate,
        ChunkThrow,
    };

    struct Action
    {
        Kind kind;
        std::uint64_t at = 0;  //!< event index the action fires on
        std::uint64_t arg = 0; //!< ms / exit code / bytes / offset
        bool hasArg = false;
        bool fired = false;
    };

    static bool isJobKind(Kind kind);
    static bool isWorkerKind(Kind kind);

    mutable std::mutex mutex_;
    std::vector<Action> actions_;
    std::uint64_t jobEvents_ = 0;
    std::uint64_t cacheEvents_ = 0;
    std::uint64_t wireEvents_ = 0;
    std::uint64_t chunkEvents_ = 0;
    int workerId_ = -1;
    // Lock-free mirror of "a ChunkThrow is armed and unfired" for the
    // per-chunk hot-path check.
    static std::atomic<bool> chunkArmed_;
};

} // namespace chirp

#endif // CHIRP_UTIL_FAULT_INJECTION_HH
