/**
 * @file
 * Crash-tolerant distributed sweep fabric (coordinator + workers).
 *
 * A suite run's (workload x policy) job matrix is partitioned by the
 * coordinator into shards of whole workloads — the unit that keeps
 * the record-once/replay-per-policy fast path intact on workers.
 * Worker processes re-execute the same bench binary (same arguments
 * minus the fabric flags, same environment), so they deterministically
 * rebuild the identical suite, factories, and suite-call sequence;
 * each suite call is numbered identically on both sides and workers
 * announce theirs to the coordinator, which replies Begin (claim
 * shards of this suite), or Skip (run it as zeros; the coordinator
 * keeps it local).  Workers execute granted shards through
 * Runner::runSuiteMulti and stream every finished job back as its
 * bit-exact encodeSimStats text; the coordinator merges them into the
 * same result slots, journal, health ledger, and progress ticks a
 * local run would have produced — byte-identical CSVs by
 * construction.
 *
 * Robustness model (at-least-once execution, idempotent merge):
 *  - Shards are leased.  A worker that dies (EOF, protocol garbage,
 *    heartbeat silence) or overruns its lease gets its shard
 *    re-dispatched with exponential backoff; a straggler racing the
 *    re-dispatch is harmless because results are deduplicated per
 *    (suite, workload, policy) before merging.
 *  - After maxShardAttempts dispatches (or with no live workers at
 *    all) a shard falls back to in-process execution on the
 *    coordinator, so a sweep always terminates.
 *  - Every merged job is journaled (fsynced) before the shard is
 *    acked, so a coordinator killed mid-sweep resumes with --resume
 *    exactly like a serial run would; the fsynced shard ledger keeps
 *    the orchestration trail.
 *  - Worker log lines travel over the wire and are printed by the
 *    coordinator prefixed with "[w<id>]", serialized on one stderr.
 *
 * The fabric deliberately knows nothing about simulators: it moves
 * (suite seq, workload index, policy index, payload text) tuples.
 * Runner owns the mapping to real jobs.
 */

#ifndef CHIRP_DIST_FABRIC_HH
#define CHIRP_DIST_FABRIC_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dist/shard_ledger.hh"
#include "dist/wire.hh"

#include <sys/types.h>

namespace chirp::dist
{

/** Tuning knobs; every one has a CHIRP_DIST_* environment override. */
struct FabricOptions
{
    /** Workloads per shard; 0 sizes shards from the worker count. */
    unsigned shardWorkloads = 0;
    /** Worker heartbeat period. */
    std::uint64_t heartbeatMs = 500;
    /** Silence after which a worker is declared dead. */
    std::uint64_t workerTimeoutMs = 5000;
    /** Shard lease; an overrun lease re-dispatches to another worker. */
    std::uint64_t leaseMs = 30000;
    /** Base re-dispatch backoff, doubled per shard attempt. */
    std::uint64_t backoffMs = 100;
    /** Dispatches per shard before it falls back to local execution. */
    unsigned maxShardAttempts = 3;
    /** Coordinator: also accept external workers on this AF_UNIX path. */
    std::string socketPath;
    /** Shard-ledger sidecar ("" disables it). */
    std::string ledgerPath;
    /** Fingerprint stamped into the shard ledger. */
    std::uint64_t ledgerFingerprint = 0;
    /** Scan an existing matching ledger instead of restarting it. */
    bool ledgerResume = false;
};

/** FabricOptions with CHIRP_DIST_* environment overrides applied. */
FabricOptions fabricOptionsFromEnv();

/** Counters the coordinator reports at the end of a run. */
struct FabricStats
{
    std::uint64_t workersSpawned = 0;
    std::uint64_t workersAttached = 0;
    std::uint64_t workersLost = 0;
    std::uint64_t shardsDispatched = 0;
    std::uint64_t shardsRequeued = 0;
    std::uint64_t shardsLocal = 0;
    std::uint64_t remoteResults = 0;
    std::uint64_t duplicateResults = 0; //!< dropped by the idempotent merge
    std::uint64_t staleResults = 0;     //!< for an already-settled suite
    std::uint64_t remoteTimeouts = 0;   //!< timed-out jobs awaiting requeue
};

/** One remotely executed job, as a worker reported it. */
struct RemoteOutcome
{
    bool ok = false;
    bool timedOut = false;
    bool hung = false;
    unsigned attempts = 0;
    std::uint64_t wallNs = 0;
    /** encodeSimStats text when ok, else the error message. */
    std::string payload;
};

/** One end of the sweep fabric; see the file comment. */
class SweepFabric
{
  public:
    enum class Role
    {
        Coordinator,
        Worker,
    };

    /** The coordinator's verdict on one announced suite call. */
    enum class SuiteRole
    {
        Participate, //!< claim and execute shards of this suite
        Skip,        //!< return zero-filled results immediately
    };

    /**
     * Invoked by the coordinator (on the fabric's service thread, at
     * most once per job, with the runner thread parked inside
     * coordinateSuite) for every remotely completed job.  Must not
     * call back into the fabric.
     */
    using RemoteDelivery = std::function<void(
        std::size_t workload_idx, std::size_t policy_idx,
        const RemoteOutcome &outcome)>;

    /** Coordinator end; spawn or adopt workers afterwards. */
    static std::shared_ptr<SweepFabric>
    makeCoordinator(const FabricOptions &opts);

    /**
     * Worker end speaking over inherited descriptor @p fd as worker
     * @p worker_id.  A worker fabric owns its process: losing the
     * coordinator exits the process (workers are disposable replicas
     * whose only purpose is feeding the coordinator).
     */
    static std::shared_ptr<SweepFabric>
    makeWorker(int fd, unsigned worker_id,
               const FabricOptions &opts = {});

    /** Worker end attaching over the coordinator's AF_UNIX socket. */
    static std::shared_ptr<SweepFabric>
    connectWorker(const std::string &socket_path,
                  const FabricOptions &opts = {});

    ~SweepFabric();

    SweepFabric(const SweepFabric &) = delete;
    SweepFabric &operator=(const SweepFabric &) = delete;

    Role role() const { return role_; }
    bool isCoordinator() const { return role_ == Role::Coordinator; }
    bool isWorker() const { return role_ == Role::Worker; }

    /** This end's worker id (workers only). */
    unsigned workerId() const { return workerId_; }

    /**
     * Next suite-call sequence number.  Coordinator and workers run
     * the same binary and issue the same suite calls in the same
     * order, so counting calls yields matching numbers on both sides.
     */
    std::uint64_t nextSuiteSeq() { return suiteSeq_.fetch_add(1); }

    // ------------------------- coordinator -------------------------

    /**
     * fork/exec one local worker running @p argv with a fresh wire
     * socketpair; "--worker-fd N --worker-id I" are appended to the
     * argv.  False when the spawn failed.
     */
    bool spawnWorker(const std::vector<std::string> &argv);

    /**
     * Adopt an already-connected worker wire (tests fork children
     * around plain socketpairs).  The worker introduces itself via
     * Hello.
     */
    void adoptWorker(int fd);

    /** Workers currently believed alive. */
    std::size_t liveWorkers() const;

    FabricStats stats() const;

    /**
     * Declare suite call @p seq not distributable (an observer is
     * attached): workers announcing it are released with Skip.
     */
    void skipSuite(std::uint64_t seq);

    /**
     * Distribute suite call @p seq: shard @p pending_workloads, feed
     * granted shards to announced workers, deliver every remote job
     * through @p deliver, and survive worker deaths per the file
     * comment.  Blocks until every shard is either done remotely or
     * assigned to local fallback; returns the workload indices the
     * caller must now execute in-process (empty in the happy path).
     */
    std::vector<std::size_t>
    coordinateSuite(std::uint64_t seq, std::size_t workloads,
                    std::size_t policies, std::uint64_t fingerprint,
                    const std::vector<std::size_t> &pending_workloads,
                    const RemoteDelivery &deliver);

    // --------------------------- worker ----------------------------

    /**
     * Announce suite call @p seq and block for the coordinator's
     * verdict.  Participate means: execute shards via
     * workerRunSuite.  Exits the process when the coordinator is
     * gone.
     */
    SuiteRole announceSuite(std::uint64_t seq, std::size_t workloads,
                            std::size_t policies,
                            std::uint64_t fingerprint);

    /**
     * Shard execution loop: receive grants for @p seq, run each
     * granted workload through @p run_workload (which must report
     * every job via reportJob), ack with ShardDone, and return when
     * the coordinator settles the suite.
     */
    void workerRunSuite(
        std::uint64_t seq,
        const std::function<void(std::size_t workload_idx)> &run_workload);

    /** Stream one finished job (called from inside run_workload). */
    void reportJob(std::uint64_t seq, std::size_t workload_idx,
                   std::size_t policy_idx, const RemoteOutcome &out);

    /**
     * Worker log sink: forward one line to the coordinator's stderr
     * (falling back to local stderr when the wire is gone).
     */
    void emitLog(const std::string &line);

  private:
    struct WorkerConn;
    struct Shard;
    struct ActiveSuite;

    explicit SweepFabric(Role role);

    // Coordinator internals (all *Locked expect mutex_ held).
    void serviceLoop();
    void wakeService();
    void handleFrameLocked(WorkerConn &conn, const Frame &frame);
    void markDeadLocked(WorkerConn &conn, const std::string &reason);
    void requeueShardLocked(std::size_t shard_idx,
                            const std::string &reason);
    void resolveParkedLocked();
    void checkCompleteLocked();
    void sweepLocked();
    std::size_t liveWorkersLocked() const;

    // Worker internals.
    void heartbeatLoop();
    [[noreturn]] void coordinatorGone(const std::string &why);

    const Role role_;
    FabricOptions opts_;
    std::atomic<std::uint64_t> suiteSeq_{0};

    mutable std::mutex mutex_;
    std::condition_variable cv_;

    // Coordinator state.
    std::vector<std::unique_ptr<WorkerConn>> workers_;
    std::unique_ptr<ActiveSuite> active_;
    // Disposition of every registered suite call.
    enum class Disposition
    {
        Skipped,
        Active,
        Finished,
    };
    std::vector<std::pair<std::uint64_t, Disposition>> dispositions_;
    std::unique_ptr<ShardLedger> ledger_;
    FabricStats stats_;
    unsigned nextWorkerId_ = 0;
    int listenFd_ = -1;
    int selfPipe_[2] = {-1, -1};
    bool stop_ = false;
    bool degraded_ = false; //!< service plumbing failed; run local
    std::thread service_;

    // Worker state.
    int fd_ = -1;
    unsigned workerId_ = 0;
    std::unique_ptr<FrameReader> reader_;
    std::mutex sendMutex_;
    bool shardTimedOut_ = false;
    bool heartbeatStop_ = false;
    std::condition_variable heartbeatCv_;
    std::thread heartbeat_;
};

} // namespace chirp::dist

#endif // CHIRP_DIST_FABRIC_HH
