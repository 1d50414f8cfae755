/**
 * @file
 * Shared scaffolding for the figure/table-reproduction benches.
 *
 * Every bench binary prints a paper-vs-measured table on stdout and
 * writes a CSV into the working directory.  Fidelity scales through
 * the CHIRP_SUITE_SIZE / CHIRP_TRACE_LEN / CHIRP_SEED environment
 * variables (see workload_suite.hh).  Suite runs shard across worker
 * threads: `--jobs N` (or the CHIRP_JOBS environment variable) picks
 * the worker count, defaulting to hardware concurrency; `--jobs 1`
 * runs every job on the main thread.  Multi-policy sweeps materialize
 * each workload's trace once in the runner's TraceStore and replay
 * it for every policy; `--trace-cache DIR` (or CHIRP_TRACE_CACHE)
 * persists those traces on disk across runs.  CSVs are bit-identical
 * across all of those modes at any job count.
 *
 * Resilience: a failing job no longer aborts a bench.  Failures are
 * isolated per job, retried when transient (`--retries N`), cancelled
 * and recorded as timed-out when overrunning `--job-timeout MS`,
 * journaled to "<output>.csv.journal" as they complete, and
 * summarized at exit; the bench then exits non-zero via finish().
 * `--resume` reloads the journal and skips every already-completed
 * job, reproducing the CSVs byte-identically.  CHIRP_FAULT injects
 * deterministic faults (see util/fault_injection.hh).
 *
 * Distributed sweeps: `--workers N` forks N worker processes
 * (re-executions of the same binary) and shards multi-policy suite
 * runs across them through the crash-tolerant sweep fabric (see
 * dist/fabric.hh); `--coordinator PATH` additionally accepts external
 * workers over an AF_UNIX socket, and `--worker PATH` turns this
 * process into such a worker.  The merged CSVs are byte-identical to
 * a single-process run, even when workers are killed mid-shard.
 * `--worker-fd FD --worker-id N` are the internal flags a spawned
 * worker is launched with.
 *
 * External traces: `--trace-in PATH` (repeatable, or CHIRP_TRACE_IN
 * with comma-separated paths) replaces the synthetic suite with one
 * workload per ChampSim/CVP trace file, ingested through the hardened
 * front-end in trace/ingest/.  `--trace-in-format auto|champsim|cvp`
 * pins the container format, and `--ingest-bad-budget N` bounds the
 * decode failures tolerated per file.  A malformed file fails only
 * its own jobs (through SuiteHealth); the suite, the CSVs and the
 * exit-code contract are otherwise unchanged, and ingested suites
 * stay byte-identical across --jobs and --workers.
 */

#ifndef CHIRP_BENCH_HARNESS_HH
#define CHIRP_BENCH_HARNESS_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dist/fabric.hh"
#include "sim/run_journal.hh"
#include "sim/runner.hh"
#include "util/csv.hh"
#include "util/table.hh"

namespace chirp::bench
{

/** Everything a figure bench needs. */
struct BenchContext
{
    SuiteOptions options;
    std::vector<WorkloadConfig> suite;
    SimConfig config;
    /** Suite-runner worker threads (0 = hardware concurrency). */
    unsigned jobs = 0;
    /** Disk tier for materialized traces ("" = memory only). */
    std::string traceCacheDir;
    /** Retry/watchdog knobs forwarded to every Runner. */
    ResilienceOptions resilience;
    /** Sidecar journal of completed jobs ("" disables journaling). */
    std::string journalPath;
    /** Skip jobs already present in the journal. */
    bool resume = false;
    /** Bench binary basename, naming the journal's identity. */
    std::string benchName = "bench";
    /** Sweep-fabric end (coordinator or worker); null = in-process. */
    std::shared_ptr<dist::SweepFabric> fabric;
    /** Job-outcome ledger shared by every Runner of this bench. */
    std::shared_ptr<SuiteHealth> health =
        std::make_shared<SuiteHealth>();
    /** Lazily opened by runner() so all Runners share one journal. */
    mutable std::shared_ptr<RunJournal> journal;

    /**
     * Field-wise identity of this run (bench name, workload-grid
     * hash, sim-config hash, row schema); guards the journal against
     * resuming a run with different parameters and lets a mismatch
     * report name the diverging field.
     */
    JournalIdentity identity() const;

    /** Combined hash of identity(); stamps the shard ledger too. */
    std::uint64_t fingerprint() const;

    Runner
    runner() const
    {
        Runner runner(config, jobs);
        if (!traceCacheDir.empty())
            runner.setTraceCacheDir(traceCacheDir);
        runner.setResilience(resilience);
        runner.setHealth(health);
        if (!journalPath.empty()) {
            if (!journal) {
                journal = std::make_shared<RunJournal>(
                    journalPath, identity(), resume);
            }
            runner.setJournal(journal);
        }
        if (fabric)
            runner.setFabric(fabric);
        return runner;
    }
};

/**
 * Build the context for a bench.
 * @param default_suite_size workloads unless CHIRP_SUITE_SIZE is set
 * @param mpki_only disable cache/branch timing (faster; use for
 *        benches that report MPKI/table-rate/efficiency only)
 */
BenchContext makeContext(std::size_t default_suite_size, bool mpki_only);

/**
 * As above, but also parses the bench command line: `--jobs N` (or
 * `-j N`, `--jobs=N`) selects the suite-runner worker count,
 * `--trace-cache DIR` enables the on-disk trace tier,
 * `--retries N` / `--job-timeout MS` tune failure handling,
 * `--resume` continues an interrupted run from its journal,
 * `--journal PATH` / `--no-journal` override the default
 * "<binary>.csv.journal" sidecar, `--workers N` /
 * `--coordinator PATH` / `--worker PATH` engage the distributed
 * sweep fabric (see the file comment), `--trace-in PATH` /
 * `--trace-in-format F` / `--ingest-bad-budget N` switch the suite to
 * external trace files (see the file comment), and `--help` prints
 * usage.
 * Unknown arguments are fatal.  Worker mode relocates the process
 * into a "chirp-workers/w<id>/" scratch directory and disables its
 * journal: only the coordinator's CSVs are real.
 */
BenchContext makeContext(int argc, char **argv,
                         std::size_t default_suite_size, bool mpki_only);

/**
 * Standard bench epilogue: report resumed/retried/hung/timed-out job
 * counts when any, summarize the sweep fabric's orchestration (lost
 * workers, requeued shards) on a coordinator, and return the bench's
 * exit code — 1 when any job failed (results incomplete), else 0.
 * Call as `return finish(ctx);`.
 */
int finish(const BenchContext &ctx);

/**
 * Worker count from CHIRP_JOBS, defaulting to hardware concurrency
 * when unset.
 */
unsigned jobsFromEnv();

/** Print the standard bench banner. */
void printBanner(const std::string &title, const BenchContext &ctx);

/**
 * Run every paper policy over the suite, returning results keyed by
 * policy (LRU is always included and is the baseline).  Each
 * workload's trace is materialized once and replayed for all
 * policies.
 */
std::map<PolicyKind, std::vector<WorkloadResult>>
runAllPolicies(const BenchContext &ctx);

/** Format "paper vs measured" cells, e.g. "28.21" / "24.10". */
std::string paperCell(double value);

} // namespace chirp::bench

#endif // CHIRP_BENCH_HARNESS_HH
