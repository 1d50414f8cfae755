/**
 * @file
 * Materialized trace store: each workload's record stream is
 * generated exactly once and shared read-only across every policy
 * job that replays it.
 *
 * The paper's methodology replays fixed CVP-1 traces across all
 * policies; the synthetic generator stands in for those archives, so
 * a P-policy sweep used to re-run the full pattern machinery P times
 * per workload.  The store keys each materialized stream by the
 * stream-determining fields of its WorkloadConfig, hands it out as a
 * shared_ptr to an immutable vector, and optionally persists it in
 * the TraceFileWriter format under a cache directory
 * (CHIRP_TRACE_CACHE or --trace-cache DIR) so repeated bench runs
 * skip generation entirely.  Cached files are checksum-verified
 * eagerly before being trusted; a corrupt candidate is quarantined
 * (renamed to "<file>.corrupt" with a logged reason) and the trace is
 * regenerated, so one bad file can never wedge a suite.
 *
 * Memory: streams are stored column-major (ColumnarTrace), 25 B per
 * record, so a default 500k-instruction workload costs ~12.5 MB
 * resident and cached.  Under the mmap trace format the disk tier is
 * mapped read-only instead of copied, so concurrent processes share
 * one physical copy through the page cache.  Multi-policy suite runs
 * drop() each workload once every policy has replayed it, bounding
 * residency to the in-flight jobs rather than the whole suite.
 */

#ifndef CHIRP_TRACE_TRACE_STORE_HH
#define CHIRP_TRACE_TRACE_STORE_HH

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "trace/columnar_trace.hh"
#include "trace/synthetic/workload_factory.hh"
#include "trace/trace_source.hh"

namespace chirp
{

/** An immutable, fully materialized instruction stream. */
using SharedTrace = std::shared_ptr<const ColumnarTrace>;

/**
 * How traces are stored and replayed, selected by the
 * --trace-format flag / CHIRP_TRACE_FORMAT environment variable:
 *
 *  - Columnar (default): traces live in private memory.
 *  - Mmap: Columnar, plus disk-cache loads map the file zero-copy
 *    instead of streaming it into private memory.
 */
enum class TraceFormat : std::uint8_t
{
    Columnar,
    Mmap,
};

/**
 * The active format from CHIRP_TRACE_FORMAT ("columnar" or "mmap";
 * unset/empty means Columnar).  Read fresh each call so tests can
 * flip it between runs in one process; fatal on any other value.
 */
TraceFormat traceFormat();

/** Printable name of a trace format. */
const char *traceFormatName(TraceFormat format);

/**
 * Key over the fields of @p config that determine the emitted record
 * stream (category, seed, length, scale).  The display name is
 * deliberately excluded: renamed copies of the same workload share
 * one materialization.
 */
std::uint64_t workloadTraceKey(const WorkloadConfig &config);

/** Run the generator for @p config to completion into a vector. */
std::vector<TraceRecord> materializeWorkload(const WorkloadConfig &config);

/**
 * TraceSource replaying a shared materialized stream from flat
 * memory.  nextBatch() is a bounds-checked column gather, so the
 * simulator's batched hot loop consumes records with no generator
 * branching and one virtual call per chunk instead of per record.
 */
class MemoryTraceSource : public TraceSource
{
  public:
    explicit MemoryTraceSource(SharedTrace records,
                               std::string name = "memory")
        : records_(std::move(records))
    {
        name_ = std::move(name);
    }

    bool
    next(TraceRecord &rec) override
    {
        if (pos_ >= records_->size())
            return false;
        rec = records_->record(pos_++);
        return true;
    }

    std::size_t
    nextBatch(TraceRecord *out, std::size_t n) override
    {
        const std::size_t got = std::min(n, records_->size() - pos_);
        records_->gather(pos_, got, out);
        pos_ += got;
        return got;
    }

    void reset() override { pos_ = 0; }

    InstCount expectedLength() const override { return records_->size(); }

    /** The shared stream this source replays. */
    const SharedTrace &records() const { return records_; }

  private:
    SharedTrace records_;
    std::size_t pos_ = 0;
};

/**
 * Thread-safe cache of materialized workload streams.
 *
 * get() returns the stream for a config, materializing it at most
 * once per store no matter how many threads ask concurrently
 * (latecomers block on the first caller's result).  drop() evicts
 * the store's reference once a suite run is finished with a
 * workload; outstanding SharedTrace handles keep the data alive.
 */
class TraceStore
{
  public:
    /**
     * Cache directory from CHIRP_TRACE_CACHE ("" = memory only).
     * Both constructors validate CHIRP_TRACE_FORMAT (fatal on an
     * unknown value), which only disk loads consult.
     */
    TraceStore();

    /** Explicit cache directory; empty disables the disk tier. */
    explicit TraceStore(std::string cache_dir);

    TraceStore(const TraceStore &) = delete;
    TraceStore &operator=(const TraceStore &) = delete;

    /** The stream for @p config, materializing/loading on first use. */
    SharedTrace get(const WorkloadConfig &config);

    /** Release the store's reference to @p config's stream. */
    void drop(const WorkloadConfig &config);

    /** Disk tier directory ("" when disabled). */
    const std::string &cacheDir() const { return cacheDir_; }

    /** On-disk location a config caches to (usable with any dir). */
    std::string cachePath(const WorkloadConfig &config) const;

    /** Streams currently held by the store. */
    std::size_t residentTraces() const;

    // Provenance counters (tests and bench diagnostics).
    /** Streams produced by running the generator. */
    std::uint64_t generated() const { return generated_.load(); }
    /** Streams loaded from a verified disk-cache file. */
    std::uint64_t diskLoads() const { return diskLoads_.load(); }
    /** Disk loads satisfied zero-copy via mapTraceFile (a subset of
     *  diskLoads; nonzero only under the mmap trace format). */
    std::uint64_t mappedLoads() const { return mapped_.load(); }
    /** Disk-cache candidates rejected as corrupt/stale. */
    std::uint64_t rejectedCaches() const { return rejected_.load(); }
    /** Rejected candidates renamed aside as "<file>.corrupt". */
    std::uint64_t quarantinedCaches() const { return quarantined_.load(); }
    /** Streams ingested from external ChampSim/CVP trace files. */
    std::uint64_t ingested() const { return ingested_.load(); }

  private:
    SharedTrace load(const WorkloadConfig &config);
    SharedTrace loadFromDisk(const WorkloadConfig &config,
                             const std::string &path);
    void saveToDisk(const ColumnarTrace &trace,
                    const std::string &path) const;
    void quarantine(const std::string &path, const std::string &reason);

    std::string cacheDir_;
    mutable std::mutex mutex_;
    std::map<std::uint64_t, std::shared_future<SharedTrace>> entries_;
    std::atomic<std::uint64_t> generated_{0};
    std::atomic<std::uint64_t> diskLoads_{0};
    std::atomic<std::uint64_t> mapped_{0};
    std::atomic<std::uint64_t> rejected_{0};
    std::atomic<std::uint64_t> quarantined_{0};
    std::atomic<std::uint64_t> ingested_{0};
};

} // namespace chirp

#endif // CHIRP_TRACE_TRACE_STORE_HH
