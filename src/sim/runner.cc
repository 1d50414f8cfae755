#include "sim/runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <thread>

#include "core/chirp.hh"
#include "core/ghrp.hh"
#include "dist/fabric.hh"
#include "sim/replay_streams.hh"
#include "sim/run_journal.hh"
#include "sim/simulator.hh"
#include "trace/ingest/ingest.hh"
#include "util/fault_injection.hh"
#include "util/hashing.hh"
#include "util/logging.hh"
#include "util/progress.hh"
#include "util/stats.hh"
#include "util/thread_pool.hh"

namespace chirp
{

namespace
{

/** Which replay stream, if any, one factory's policies consume. */
struct StreamBinding
{
    enum class Kind : std::uint8_t
    {
        None,
        Signature,
        Ghrp,
    };
    Kind kind = Kind::None;
    std::size_t index = 0; //!< into ReplayStreams::sigs or ::ghrp
};

/**
 * Probe one throwaway instance per factory and register the history
 * stream each needs: CHiRP variants a signature stream, GHRP variants
 * a global-history stream.  Runs once per suite call; the instances
 * actually simulated are constructed fresh inside each guarded job so
 * a retried attempt starts from scratch.  A factory whose probe
 * throws stays unbound, and its own job reports the failure.
 */
std::vector<StreamBinding>
bindReplayStreams(const std::vector<PolicyFactory> &factories,
                  std::uint32_t sets, std::uint32_t assoc,
                  ReplayStreamPlan &plan)
{
    std::vector<StreamBinding> bindings(factories.size());
    for (std::size_t p = 0; p < factories.size(); ++p) {
        std::unique_ptr<ReplacementPolicy> probe;
        try {
            probe = factories[p](sets, assoc);
        } catch (...) {
            continue;
        }
        if (const auto *ghrp =
                dynamic_cast<const GhrpPolicy *>(probe.get())) {
            bindings[p] = {StreamBinding::Kind::Ghrp,
                           plan.addGhrp(ghrp->config().historyShift)};
        } else if (const auto *chirp =
                       dynamic_cast<const ChirpPolicy *>(probe.get())) {
            const ChirpConfig &cfg = chirp->config();
            bindings[p] = {StreamBinding::Kind::Signature,
                           plan.addSignature(cfg.history,
                                             cfg.signatureBits)};
        }
    }
    return bindings;
}

/**
 * Fingerprint one suite call for the distributed fabric's announce
 * handshake: coordinator and workers rebuild the same world from the
 * same binary and arguments, and this hash (call number, workload
 * set, policy count) is how a diverged worker gets caught before its
 * results can poison a byte-identical merge.
 */
std::uint64_t
suiteCallFingerprint(std::uint64_t seq,
                     const std::vector<WorkloadConfig> &suite,
                     std::size_t policies)
{
    std::uint64_t fp = hashCombine(mix64(seq), policies);
    for (const WorkloadConfig &workload : suite)
        fp = hashCombine(fp, RunJournal::jobKey(0, workload, 0));
    return fp;
}

/**
 * Cancels jobs whose current attempt exceeds the --job-timeout
 * budget.  One slot per concurrently-guarded job; a scan thread wakes
 * a few times per timeout period, and an overrunning attempt is
 * flagged, warned about once, and has its cancel token raised — the
 * simulator polls the token at its cancellation points and aborts the
 * attempt with JobCancelled, which the guard records as timed-out
 * (never retried; under the distributed fabric the job's shard is
 * requeued instead).  Inert (no thread, no locking) when the timeout
 * is 0.
 */
class Watchdog
{
  public:
    Watchdog(std::uint64_t timeout_ms, std::size_t slots)
        : timeoutMs_(timeout_ms), slots_(slots)
    {
        if (timeoutMs_ == 0)
            return;
        tokens_.reserve(slots);
        for (std::size_t i = 0; i < slots; ++i)
            tokens_.push_back(
                std::make_unique<std::atomic<bool>>(false));
        scanner_ = std::thread([this] { scan(); });
    }

    ~Watchdog()
    {
        if (!scanner_.joinable())
            return;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stopping_ = true;
        }
        cv_.notify_all();
        scanner_.join();
    }

    /** Begin timing one attempt of the job in @p slot. */
    void
    start(std::size_t slot, const std::string &desc)
    {
        if (timeoutMs_ == 0)
            return;
        std::lock_guard<std::mutex> lock(mutex_);
        slots_[slot] = {Clock::now(), desc, true, false};
        tokens_[slot]->store(false, std::memory_order_relaxed);
    }

    /**
     * Cancel token for @p slot, for Simulator::setCancelToken; null
     * when the watchdog is inert.
     */
    const std::atomic<bool> *
    token(std::size_t slot) const
    {
        return timeoutMs_ == 0 ? nullptr : tokens_[slot].get();
    }

    /** Stop timing @p slot; true when the attempt was flagged. */
    bool
    finish(std::size_t slot)
    {
        if (timeoutMs_ == 0)
            return false;
        std::lock_guard<std::mutex> lock(mutex_);
        slots_[slot].running = false;
        return slots_[slot].flagged;
    }

  private:
    using Clock = std::chrono::steady_clock;

    struct Slot
    {
        Clock::time_point start{};
        std::string desc;
        bool running = false;
        bool flagged = false;
    };

    void
    scan()
    {
        const auto period = std::chrono::milliseconds(
            std::max<std::uint64_t>(10, timeoutMs_ / 4));
        const auto budget = std::chrono::milliseconds(timeoutMs_);
        std::unique_lock<std::mutex> lock(mutex_);
        while (!stopping_) {
            cv_.wait_for(lock, period);
            const auto now = Clock::now();
            for (std::size_t i = 0; i < slots_.size(); ++i) {
                Slot &slot = slots_[i];
                if (!slot.running || slot.flagged)
                    continue;
                if (now - slot.start >= budget) {
                    slot.flagged = true;
                    tokens_[i]->store(true,
                                      std::memory_order_relaxed);
                    chirp_warn("watchdog: job '", slot.desc,
                               "' exceeded --job-timeout (", timeoutMs_,
                               " ms); cancelling the attempt");
                }
            }
        }
    }

    const std::uint64_t timeoutMs_;
    std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<Slot> slots_;
    std::vector<std::unique_ptr<std::atomic<bool>>> tokens_;
    bool stopping_ = false;
    std::thread scanner_;
};

/** What runGuarded observed across every attempt of one job. */
struct GuardOutcome
{
    bool ok = false;
    bool hung = false;
    bool timedOut = false;
    unsigned attempts = 0;
    std::uint64_t wallNs = 0;
    std::string error;
};

/**
 * Run @p body under the suite isolation contract: catch everything,
 * retry TransientError up to @p retries extra attempts, time each
 * attempt under the watchdog.  @p body must be idempotent — it runs
 * once per attempt and must not observe partial state from a failed
 * previous attempt.
 */
template <typename Body>
GuardOutcome
runGuarded(unsigned retries, Watchdog &dog, std::size_t slot,
           const std::string &desc, Body &&body)
{
    GuardOutcome out;
    for (;;) {
        ++out.attempts;
        dog.start(slot, desc);
        const auto begin = std::chrono::steady_clock::now();
        bool transient = false;
        try {
            FaultInjector::instance().onJobStart();
            body();
            out.ok = true;
            out.error.clear();
        } catch (const JobCancelled &err) {
            // Enforced timeout: the watchdog cancelled the attempt.
            // Never retried — a deterministic job that blew the
            // budget once will blow it again.
            out.timedOut = true;
            out.error = err.what();
        } catch (const IngestError &err) {
            // Watchdog cancellation surfacing through the ingest
            // front-end is a timeout like JobCancelled; every other
            // ingest failure (hostile file, blown budget) is an
            // ordinary job failure the suite survives.
            if (err.kind() == DecodeErrorKind::Cancelled ||
                err.kind() == DecodeErrorKind::Timeout) {
                out.timedOut = true;
            }
            out.error = err.what();
        } catch (const TransientError &err) {
            transient = true;
            out.error = err.what();
        } catch (const std::exception &err) {
            out.error = err.what();
        } catch (...) {
            out.error = "unknown exception";
        }
        out.wallNs += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - begin)
                .count());
        out.hung |= dog.finish(slot);
        if (out.ok || !transient || out.attempts > retries)
            return out;
    }
}

/**
 * Per-suite-run collector: forwards every outcome to the shared
 * SuiteHealth ledger and prints one failure summary when the run
 * finishes, so a long bench says what broke right where it broke.
 */
class RunLedger
{
  public:
    RunLedger(std::string label, std::shared_ptr<SuiteHealth> health,
              bool journaled)
        : label_(std::move(label)), health_(std::move(health)),
          journaled_(journaled)
    {
    }

    void
    add(JobResult job)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++total_;
        if (health_)
            health_->add(job);
        if (!job.ok)
            failures_.push_back(std::move(job));
    }

    void
    summarize() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (failures_.empty())
            return;
        chirp_warn("suite '", label_, "': ", failures_.size(), " of ",
                   total_, " jobs failed");
        for (const JobResult &job : failures_) {
            chirp_warn("  ", job.workload, " x ", job.policy, ": ",
                       job.error, " (", job.attempts, " attempt",
                       job.attempts == 1 ? "" : "s", ", ",
                       job.wallNs / 1000000, " ms)",
                       job.timedOut  ? " [timed out]"
                       : job.hung    ? " [hung]"
                                     : "");
        }
        if (journaled_)
            chirp_warn("  rerun with --resume to retry only the "
                       "failed jobs");
    }

  private:
    mutable std::mutex mutex_;
    std::string label_;
    std::shared_ptr<SuiteHealth> health_;
    bool journaled_;
    std::vector<JobResult> failures_;
    std::uint64_t total_ = 0;
};

} // namespace

void
SuiteHealth::add(const JobResult &job)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++total_;
    if (job.ok)
        ++ok_;
    if (job.resumed)
        ++resumed_;
    if (job.hung)
        ++hung_;
    if (job.timedOut)
        ++timedOut_;
    if (job.attempts > 1)
        ++retried_;
    if (!job.ok)
        failures_.push_back(job);
}

std::uint64_t
SuiteHealth::totalJobs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return total_;
}

std::uint64_t
SuiteHealth::okJobs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return ok_;
}

std::uint64_t
SuiteHealth::resumedJobs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return resumed_;
}

std::uint64_t
SuiteHealth::hungJobs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hung_;
}

std::uint64_t
SuiteHealth::timedOutJobs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return timedOut_;
}

std::uint64_t
SuiteHealth::retriedJobs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return retried_;
}

std::vector<JobResult>
SuiteHealth::failures() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return failures_;
}

std::size_t
SuiteHealth::failureCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return failures_.size();
}

Runner::Runner(const SimConfig &config, unsigned jobs)
    : config_(config), jobs_(jobs),
      store_(std::make_shared<TraceStore>()),
      health_(std::make_shared<SuiteHealth>())
{
}

void
Runner::setHealth(std::shared_ptr<SuiteHealth> health)
{
    health_ = health ? std::move(health)
                     : std::make_shared<SuiteHealth>();
}

void
Runner::setTraceCacheDir(const std::string &dir)
{
    store_ = std::make_shared<TraceStore>(dir);
}

std::vector<std::vector<WorkloadResult>>
Runner::runSuiteMulti(const std::vector<WorkloadConfig> &suite,
                      const std::vector<PolicyFactory> &factories,
                      const std::string &label,
                      const SimObserver &observer,
                      const std::vector<std::string> &tags) const
{
    std::vector<std::vector<WorkloadResult>> results(factories.size());
    if (factories.empty() || suite.empty())
        return results;
    for (auto &per_policy : results)
        per_policy.resize(suite.size());

    const std::uint32_t sets =
        config_.tlbs.l2.entries / config_.tlbs.l2.assoc;
    const std::uint32_t assoc = config_.tlbs.l2.assoc;
    TraceStore &store = *store_;
    ProgressReporter progress(label, suite.size() * factories.size());

    unsigned jobs = jobs_;
    if (jobs == 0)
        jobs = ThreadPool::defaultConcurrency();

    // An observer disables the journal for this call: resumed jobs
    // skip simulation entirely, so observer-derived data (diagnostic
    // counters read off the live policy) would silently go missing.
    RunJournal *journal = observer ? nullptr : journal_.get();
    dist::SweepFabric *fabric = fabric_.get();
    if (fabric && fabric->isWorker())
        journal = nullptr; // worker scratch runs are never resumed
    // The suite sequence number keys the journal and names this call
    // on the wire.  It must advance identically across serial runs,
    // coordinators, and workers, so every suite call bumps exactly
    // one counter: the fabric's when one is attached, the shared
    // journal's otherwise (even for observer calls that bypass the
    // journal, so the numbering cannot depend on the mode).
    std::uint64_t seq = 0;
    if (fabric)
        seq = fabric->nextSuiteSeq();
    else if (journal_)
        seq = journal_->nextSuiteSeq();

    const bool distributable = !observer;
    if (fabric && fabric->isWorker() && !distributable) {
        // Only the coordinator's CSVs are real; workers answer
        // non-distributable calls with zero-shaped results.
        for (std::size_t p = 0; p < factories.size(); ++p)
            for (std::size_t w = 0; w < suite.size(); ++w)
                results[p][w].workload = suite[w];
        return results;
    }
    if (fabric && fabric->isCoordinator() && !distributable)
        fabric->skipSuite(seq);

    RunLedger ledger(label.empty() ? "policies" : label, health_,
                     journal != nullptr);
    Watchdog dog(resilience_.jobTimeoutMs,
                 suite.size() * factories.size());
    auto tag_of = [&](std::size_t p) {
        return p < tags.size() ? tags[p] : "p" + std::to_string(p);
    };
    // On a participating worker this streams every guarded outcome
    // (stats or error text) back to the coordinator; empty otherwise.
    std::function<void(std::size_t, std::size_t, const GuardOutcome &)>
        remote_report;
    auto add_outcome = [&](std::size_t w, std::size_t p,
                           const GuardOutcome &out) {
        if (remote_report)
            remote_report(w, p, out);
        JobResult job;
        job.workload = suite[w].name;
        job.policy = tag_of(p);
        job.ok = out.ok;
        job.hung = out.hung;
        job.timedOut = out.timedOut;
        job.attempts = out.attempts;
        job.wallNs = out.wallNs;
        job.error = out.error;
        ledger.add(std::move(job));
        progress.tick();
    };
    auto add_resumed = [&](std::size_t w, std::size_t p) {
        JobResult job;
        job.workload = suite[w].name;
        job.policy = tag_of(p);
        job.ok = true;
        job.resumed = true;
        ledger.add(std::move(job));
        progress.tick();
    };

    // One full simulation per workload (the recorder, a throwaway
    // LRU whose results are discarded) captures the L2
    // event stream, which is policy-independent because the plain-LRU
    // L1 TLBs never consult the L2.  Every requested policy then
    // replays just that stream — a small fraction of the records —
    // through Simulator::replayL2, which reconstructs bit-identical
    // full-run statistics from the recorder's baseline.
    //
    // The resume scan runs up front (not per-workload) so the set of
    // pending workloads is known before execution starts: that set is
    // what a coordinator shards across fabric workers, with remote
    // deliveries marked in the same done/missing arrays journal hits
    // are.  Plain byte flags, not vector<bool>: columns of `done` are
    // touched from different pool workers.
    std::vector<std::vector<char>> done(
        factories.size(), std::vector<char>(suite.size(), 0));
    std::vector<std::size_t> missing(suite.size(), factories.size());
    for (std::size_t w = 0; w < suite.size(); ++w) {
        for (std::size_t p = 0; p < factories.size(); ++p) {
            results[p][w].workload = suite[w];
            if (journal &&
                journal->lookup(RunJournal::jobKey(seq, suite[w], p),
                                results[p][w].stats)) {
                done[p][w] = 1;
                --missing[w];
                add_resumed(w, p);
            }
        }
    }
    std::vector<std::size_t> pending;
    for (std::size_t w = 0; w < suite.size(); ++w)
        if (missing[w] > 0)
            pending.push_back(w);

    ReplayStreamPlan plan;
    const std::vector<StreamBinding> bindings =
        bindReplayStreams(factories, sets, assoc, plan);

    auto run_workload = [&](std::size_t w) {
        if (missing[w] == 0)
            return; // fully resumed or remotely delivered

        SharedTrace trace;
        std::vector<L2Event> events;
        SimStats base;
        const GuardOutcome rec_out = runGuarded(
            resilience_.retries, dog, w * factories.size(),
            suite[w].name + " (recorder)", [&] {
                // A retried attempt must not see the previous one's
                // partial event stream.
                events.clear();
                ScopedIngestCancel ingest_cancel(
                    dog.token(w * factories.size()));
                trace = store.get(suite[w]);
                MemoryTraceSource source(trace, suite[w].name);
                Simulator recorder(
                    config_, makePolicy(PolicyKind::Lru, sets, assoc));
                recorder.setCancelToken(
                    dog.token(w * factories.size()));
                recorder.tlbs().setL2EventSink(&events);
                base = recorder.run(source);
            });
        if (!rec_out.ok) {
            // No event stream: every pending policy of this workload
            // fails with the recorder's error.
            for (std::size_t p = 0; p < factories.size(); ++p) {
                if (!done[p][w])
                    add_outcome(w, p, rec_out);
            }
            store.drop(suite[w]);
            return;
        }
        // One walk of the retire stream fills every bound policy's
        // signature or global-history stream; its per-record cost is
        // one register update per distinct history shape, not one per
        // streamed configuration.
        const ReplayStreams streams = plan.compute(*trace, events);
        // Policy-parallel batch replay: evaluate every pending
        // policy's table updates in one pass over the shared event
        // stream.  The pass is speculative and unguarded — it
        // consumes no fault-injection job event and no watchdog slot,
        // so the per-policy jobs below keep the event numbering and
        // failure isolation of one job per policy; they merely
        // publish precomputed results when the batch succeeded, and
        // replay their own policy through replayL2 when it did not
        // (or when only one policy is pending).
        std::vector<std::size_t> pend;
        for (std::size_t p = 0; p < factories.size(); ++p) {
            if (!done[p][w])
                pend.push_back(p);
        }
        const auto make_policy = [&](std::size_t p) {
            auto policy = factories[p](sets, assoc);
            const StreamBinding &bound = bindings[p];
            if (bound.kind == StreamBinding::Kind::Signature) {
                static_cast<ChirpPolicy *>(policy.get())
                    ->setSignatureStream(streams.sigs[bound.index].data());
            } else if (bound.kind == StreamBinding::Kind::Ghrp) {
                static_cast<GhrpPolicy *>(policy.get())
                    ->setHistoryStream(streams.ghrp[bound.index].data());
            }
            return policy;
        };
        std::vector<std::unique_ptr<Simulator>> batch_sims;
        std::vector<SimStats> batch_stats;
        bool batch_ok = false;
        if (pend.size() > 1) {
            try {
                std::vector<Simulator *> raw;
                batch_sims.reserve(pend.size());
                raw.reserve(pend.size());
                for (const std::size_t p : pend) {
                    batch_sims.push_back(std::make_unique<Simulator>(
                        config_, make_policy(p)));
                    raw.push_back(batch_sims.back().get());
                }
                batch_stats =
                    Simulator::replayL2Multi(raw, *trace, events, base);
                batch_ok = true;
            } catch (const std::exception &err) {
                chirp_warn("policy-parallel replay of '", suite[w].name,
                           "' failed (", err.what(),
                           "); falling back to per-policy replay");
            } catch (...) {
                chirp_warn("policy-parallel replay of '", suite[w].name,
                           "' failed; falling back to per-policy "
                           "replay");
            }
        }
        for (std::size_t k = 0; k < pend.size(); ++k) {
            const std::size_t p = pend[k];
            const GuardOutcome out = runGuarded(
                resilience_.retries, dog, w * factories.size() + p,
                suite[w].name + " x " + tag_of(p), [&, k, p] {
                    if (batch_ok) {
                        results[p][w] = {suite[w], batch_stats[k]};
                        if (observer)
                            observer(p, w, *batch_sims[k]);
                        return;
                    }
                    Simulator sim(config_, make_policy(p));
                    sim.setCancelToken(
                        dog.token(w * factories.size() + p));
                    results[p][w] = {suite[w],
                                     sim.replayL2(*trace, events, base)};
                    if (observer)
                        observer(p, w, sim);
                });
            if (out.ok && journal) {
                journal->record(RunJournal::jobKey(seq, suite[w], p),
                                results[p][w].stats);
            }
            add_outcome(w, p, out);
        }
        store.drop(suite[w]);
    };

    if (fabric && fabric->isWorker()) {
        // Worker end: announce this suite call, then execute granted
        // shards through the very same run_workload the coordinator
        // would have used, streaming each guarded outcome back.
        const std::uint64_t fp =
            suiteCallFingerprint(seq, suite, factories.size());
        if (fabric->announceSuite(seq, suite.size(), factories.size(),
                                  fp) ==
            dist::SweepFabric::SuiteRole::Skip)
            return results; // zero-shaped; coordinator kept it local
        remote_report = [&](std::size_t w, std::size_t p,
                            const GuardOutcome &out) {
            dist::RemoteOutcome remote;
            remote.ok = out.ok;
            remote.timedOut = out.timedOut;
            remote.hung = out.hung;
            remote.attempts = out.attempts;
            remote.wallNs = out.wallNs;
            remote.payload = out.ok
                                 ? encodeSimStats(results[p][w].stats)
                                 : out.error;
            fabric->reportJob(seq, w, p, remote);
        };
        fabric->workerRunSuite(
            seq, [&](std::size_t w) { run_workload(w); });
        ledger.summarize();
        return results;
    }

    // Coordinator end: shard the pending workloads across attached
    // workers; whatever the fabric cannot place (no workers, crashed
    // shards past their attempt budget) comes back for the ordinary
    // in-process path below.  Remote results land through `deliver`
    // on the fabric's service thread while this thread is parked
    // inside coordinateSuite — same slots, journal, ledger, and
    // progress ticks as local execution, so the merged CSV is
    // byte-identical to a serial run by construction.
    std::vector<std::size_t> work = pending;
    if (fabric && fabric->isCoordinator() && distributable) {
        const std::uint64_t fp =
            suiteCallFingerprint(seq, suite, factories.size());
        auto deliver = [&](std::size_t w, std::size_t p,
                           const dist::RemoteOutcome &remote) {
            if (done[p][w]) {
                // A partially-resumed workload re-runs wholesale on
                // the worker; drop the slots the journal already
                // settled (the fabric can't know about those).
                return;
            }
            GuardOutcome out;
            out.ok = remote.ok;
            out.timedOut = remote.timedOut;
            out.hung = remote.hung;
            out.attempts = remote.attempts;
            out.wallNs = remote.wallNs;
            if (remote.ok) {
                if (decodeSimStats(remote.payload,
                                   results[p][w].stats)) {
                    if (journal)
                        journal->record(
                            RunJournal::jobKey(seq, suite[w], p),
                            results[p][w].stats);
                } else {
                    out.ok = false;
                    out.error = "remote stats failed to decode";
                }
            } else {
                out.error = remote.payload;
            }
            done[p][w] = 1;
            --missing[w];
            add_outcome(w, p, out);
        };
        work = fabric->coordinateSuite(seq, suite.size(),
                                       factories.size(), fp, pending,
                                       deliver);
    }

    if (jobs <= 1 || work.size() <= 1) {
        for (std::size_t w : work)
            run_workload(w);
        ledger.summarize();
        return results;
    }

    // One job per workload: recording and the replays that reuse its
    // event stream stay on one worker, so the stream lives exactly as
    // long as the job and no cross-thread handoff is needed.  Slot-
    // indexed writes keep the merged results bit-identical to the
    // serial order no matter which worker finishes first.
    ThreadPool pool(std::min<std::size_t>(jobs, work.size()));
    std::vector<std::future<void>> in_flight;
    in_flight.reserve(work.size());
    for (std::size_t w : work)
        in_flight.push_back(pool.submit([&, w] { run_workload(w); }));
    // Jobs never throw (failures land in the ledger), so get() here
    // is pure synchronization.
    for (std::future<void> &job : in_flight)
        job.get();
    ledger.summarize();
    return results;
}

std::vector<WorkloadResult>
Runner::runSuite(const std::vector<WorkloadConfig> &suite,
                 const PolicyFactory &factory,
                 const std::string &label) const
{
    return runSuiteMulti(suite, {factory}, label, {},
                         {label.empty() ? "policy" : label})[0];
}

PolicyFactory
Runner::factoryFor(PolicyKind kind)
{
    return [kind](std::uint32_t sets, std::uint32_t assoc) {
        return makePolicy(kind, sets, assoc);
    };
}

SimStats
aggregateStats(const std::vector<WorkloadResult> &results)
{
    SimStats total;
    for (const WorkloadResult &r : results)
        total.merge(r.stats);
    return total;
}

double
averageMpki(const std::vector<WorkloadResult> &results)
{
    std::vector<double> mpkis;
    mpkis.reserve(results.size());
    for (const auto &r : results)
        mpkis.push_back(r.stats.mpki());
    return mean(mpkis);
}

double
mpkiReductionPct(const std::vector<WorkloadResult> &baseline,
                 const std::vector<WorkloadResult> &results)
{
    return pctReduction(averageMpki(baseline), averageMpki(results));
}

double
speedupPct(const std::vector<WorkloadResult> &baseline,
           const std::vector<WorkloadResult> &results, Cycles penalty)
{
    if (baseline.size() != results.size())
        chirp_fatal("speedup: result sets differ in size");
    std::vector<double> ipc;
    std::vector<double> base;
    ipc.reserve(results.size());
    base.reserve(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        ipc.push_back(results[i].stats.ipcAtPenalty(penalty));
        base.push_back(baseline[i].stats.ipcAtPenalty(penalty));
    }
    return geomeanSpeedupPct(ipc, base);
}

double
efficiencyGainPct(const std::vector<WorkloadResult> &baseline,
                  const std::vector<WorkloadResult> &results)
{
    if (baseline.size() != results.size())
        chirp_fatal("efficiency: result sets differ in size");
    std::vector<double> gains;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const double base = baseline[i].stats.l2Efficiency;
        if (base <= 0.0)
            continue;
        gains.push_back(
            (results[i].stats.l2Efficiency / base - 1.0) * 100.0);
    }
    return mean(gains);
}

double
meanTableAccessRate(const std::vector<WorkloadResult> &results)
{
    std::vector<double> rates;
    rates.reserve(results.size());
    for (const auto &r : results)
        rates.push_back(r.stats.tableAccessRate());
    return mean(rates);
}

} // namespace chirp
