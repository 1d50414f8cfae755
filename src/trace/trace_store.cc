#include "trace/trace_store.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "trace/ingest/ingest.hh"
#include "trace/trace_file.hh"
#include "util/atomic_file.hh"
#include "util/fault_injection.hh"
#include "util/quarantine.hh"
#include "util/hashing.hh"
#include "util/logging.hh"

namespace chirp
{

TraceFormat
traceFormat()
{
    const char *value = std::getenv("CHIRP_TRACE_FORMAT");
    if (!value || !*value)
        return TraceFormat::Columnar;
    const std::string name(value);
    if (name == "columnar")
        return TraceFormat::Columnar;
    if (name == "mmap")
        return TraceFormat::Mmap;
    chirp_fatal("CHIRP_TRACE_FORMAT: unknown format '", name,
                "' (expected columnar or mmap)");
}

const char *
traceFormatName(TraceFormat format)
{
    switch (format) {
      case TraceFormat::Columnar:
        return "columnar";
      case TraceFormat::Mmap:
        return "mmap";
    }
    return "?";
}

std::uint64_t
workloadTraceKey(const WorkloadConfig &config)
{
    std::uint64_t key =
        mix64(static_cast<std::uint64_t>(config.category) + 1);
    key = hashCombine(key, config.seed);
    key = hashCombine(key, config.length);
    std::uint64_t scale_bits = 0;
    static_assert(sizeof(scale_bits) == sizeof(config.scale));
    std::memcpy(&scale_bits, &config.scale, sizeof(scale_bits));
    key = hashCombine(key, scale_bits);
    if (!config.tracePath.empty()) {
        // External workloads: the file decides the stream, so two
        // paths must never share a materialization.
        std::uint64_t path_hash = 0xcbf29ce484222325ull; // FNV-1a
        for (const char c : config.tracePath) {
            path_hash ^= static_cast<std::uint8_t>(c);
            path_hash *= 0x100000001b3ull;
        }
        key = hashCombine(key, mix64(path_hash));
    }
    return key;
}

std::vector<TraceRecord>
materializeWorkload(const WorkloadConfig &config)
{
    const auto program = buildWorkload(config);
    std::vector<TraceRecord> records;
    records.reserve(static_cast<std::size_t>(program->length()));
    TraceRecord rec;
    while (program->next(rec))
        records.push_back(rec);
    return records;
}

namespace
{

/**
 * Run the generator straight into owned columns through a small
 * row-major bounce buffer: the records never materialize as one big
 * array-of-structs, so the columnar tiers skip both that allocation
 * and the full-trace transpose afterwards.
 */
std::shared_ptr<ColumnarTrace>
materializeColumnar(const WorkloadConfig &config)
{
    const auto program = buildWorkload(config);
    auto trace = std::make_shared<ColumnarTrace>();
    trace->reserve(static_cast<std::size_t>(program->length()));
    TraceRecord buf[4096];
    std::size_t got = 0;
    while ((got = program->nextBatch(buf, 4096)) > 0)
        trace->appendBatch(buf, got);
    return trace;
}

} // namespace

TraceStore::TraceStore()
{
    if (const char *env = std::getenv("CHIRP_TRACE_CACHE"); env && *env)
        cacheDir_ = env;
    traceFormat(); // validate now, not at the first disk load
}

TraceStore::TraceStore(std::string cache_dir)
    : cacheDir_(std::move(cache_dir))
{
    traceFormat(); // validate now, not at the first disk load
}

std::string
TraceStore::cachePath(const WorkloadConfig &config) const
{
    char name[32];
    std::snprintf(name, sizeof(name), "chirp-%016llx.chtr",
                  static_cast<unsigned long long>(
                      workloadTraceKey(config)));
    return cacheDir_ + "/" + name;
}

SharedTrace
TraceStore::get(const WorkloadConfig &config)
{
    const std::uint64_t key = workloadTraceKey(config);
    std::promise<SharedTrace> promise;
    std::shared_future<SharedTrace> future;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = entries_.find(key);
        if (it == entries_.end()) {
            future = promise.get_future().share();
            entries_.emplace(key, future);
            owner = true;
        } else {
            future = it->second;
        }
    }
    if (!owner)
        return future.get();
    try {
        SharedTrace trace = load(config);
        promise.set_value(trace);
        return trace;
    } catch (...) {
        // Unpublish the failed entry so a later get() can retry, then
        // wake any waiters with the failure.
        {
            std::lock_guard<std::mutex> lock(mutex_);
            entries_.erase(key);
        }
        promise.set_exception(std::current_exception());
        throw;
    }
}

SharedTrace
TraceStore::load(const WorkloadConfig &config)
{
    if (!config.tracePath.empty()) {
        // External workload: the trace file on disk is already the
        // durable tier, so the cache directory is never consulted.
        // ingestTraceFile throws IngestError on hostile input; get()
        // propagates it and the per-job guard fails just that job.
        IngestResult result = ingestTraceFile(config.tracePath);
        ingested_.fetch_add(1);
        return std::move(result.trace);
    }
    if (!cacheDir_.empty()) {
        const std::string path = cachePath(config);
        if (SharedTrace trace = loadFromDisk(config, path))
            return trace;
        auto trace = materializeColumnar(config);
        generated_.fetch_add(1);
        saveToDisk(*trace, path);
        return trace;
    }
    auto trace = materializeColumnar(config);
    generated_.fetch_add(1);
    return trace;
}

SharedTrace
TraceStore::loadFromDisk(const WorkloadConfig &config,
                         const std::string &path)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    if (!fs::exists(path, ec))
        return nullptr;
    std::string reason;
    if (!TraceFileSource::probe(path, &reason)) {
        quarantine(path, reason);
        return nullptr;
    }
    if (traceFormat() == TraceFormat::Mmap) {
        // Zero-copy tier: map the columns read-only and replay them
        // in place; every process mapping this file shares one
        // physical copy through the page cache.  Checksums are
        // verified through the mapping before the trace is trusted,
        // so corruption quarantines exactly as in the streaming tier.
        if (auto mapped = mapTraceFile(path, &reason)) {
            if (mapped->size() == config.length) {
                diskLoads_.fetch_add(1);
                mapped_.fetch_add(1);
                return mapped;
            }
            reason = DecodeError{DecodeErrorKind::CountMismatch, 8,
                                 detail::concat("record count ",
                                                mapped->size(),
                                                " != expected ",
                                                config.length)}
                         .format();
        }
        quarantine(path, reason);
        return nullptr;
    }
    // Streaming tier: one bulk pass reads each column straight into
    // its owned vector, folding the checksums over the same bytes
    // (the old loader verified in one pass and then re-read the file
    // record-at-a-time, which made a warm cache slower than
    // regenerating).
    if (auto trace = readTraceFile(path, &reason)) {
        if (trace->size() == config.length) {
            diskLoads_.fetch_add(1);
            return trace;
        }
        // Stale rather than corrupt (a key collision across
        // different lengths), but quarantining is still the right
        // recovery: keep the evidence, regenerate the trace.
        reason = DecodeError{DecodeErrorKind::CountMismatch, 8,
                             detail::concat("record count ",
                                            trace->size(),
                                            " != expected ",
                                            config.length)}
                     .format();
    }
    quarantine(path, reason);
    return nullptr;
}

void
TraceStore::quarantine(const std::string &path, const std::string &reason)
{
    namespace fs = std::filesystem;
    const std::string target = path + ".corrupt";
    std::error_code ec;
    fs::remove(target, ec);
    fs::rename(path, target, ec);
    if (ec) {
        // Renaming failed (e.g. read-only cache dir); removing keeps
        // the next run from tripping over the same bad file.
        fs::remove(path, ec);
    }
    chirp_warn("trace cache: quarantined '", path, "' -> '", target,
               "' (", reason, "); regenerating");
    noteQuarantined(target, reason);
    rejected_.fetch_add(1);
    quarantined_.fetch_add(1);
}

void
TraceStore::saveToDisk(const ColumnarTrace &trace,
                       const std::string &path) const
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(cacheDir_, ec);
    if (ec) {
        chirp_warn("trace cache: cannot create '", cacheDir_,
                  "', caching disabled for this trace");
        return;
    }
    // Write to a private temp name and rename so concurrent processes
    // only ever observe complete files.
    const std::string tmp =
        path + ".tmp." +
        std::to_string(static_cast<unsigned long long>(
            reinterpret_cast<std::uintptr_t>(this)));
    if (!TraceFileWriter::writeFile(tmp, trace)) {
        fs::remove(tmp, ec);
        chirp_warn("trace cache: write to '", tmp,
                   "' failed, caching disabled for this trace");
        return;
    }
    fs::rename(tmp, path, ec);
    if (ec) {
        fs::remove(tmp, ec);
        chirp_warn("trace cache: cannot publish '", path, "'");
        return;
    }
    fsyncParentDir(path);
    // Give the fault harness a window to corrupt the freshly
    // published file, exercising the quarantine path end to end.
    FaultInjector::instance().onCachePublish(path);
}

void
TraceStore::drop(const WorkloadConfig &config)
{
    const std::uint64_t key = workloadTraceKey(config);
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.erase(key);
}

std::size_t
TraceStore::residentTraces() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

} // namespace chirp
