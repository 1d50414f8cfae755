/**
 * @file
 * Binary trace file format: writer, reading TraceSource, and the
 * zero-copy mmap loader.
 *
 * Layout v2 (little-endian, column-major):
 *   header : magic "CHTR", u32 version, u64 record count n
 *   columns: pc[n] u64, effAddr[n] u64, target[n] u64, meta[n] u8
 *            (the ColumnarTrace cls/taken lane), zero-padded to the
 *            next 8-byte boundary
 *   footer : four u64 checksums, one per column (four FNV-1a-style
 *            lanes striped over consecutive 8-byte words, folded
 *            with the length — see columnChecksum in the .cc)
 *
 * The column layout is exactly ColumnarTrace's in-memory layout, so a
 * cached trace can be mapped read-only (mapTraceFile) and replayed in
 * place: every bench process and forked --workers child on a host
 * then shares one physical copy of each trace through the page cache.
 * Per-column checksums keep the quarantine story of the streaming
 * tier: any flipped byte in any column is caught before (mmap) or by
 * the end of (streaming) the first replay.
 *
 * v1 files (row-major 26-byte records, single checksum) are not read;
 * probe() refuses them as "unsupported version 1" and the trace store
 * quarantines and regenerates, which is the supported migration path.
 */

#ifndef CHIRP_TRACE_TRACE_FILE_HH
#define CHIRP_TRACE_TRACE_FILE_HH

#include <cstdio>
#include <memory>
#include <string>

#include "trace/columnar_trace.hh"
#include "trace/trace_source.hh"

namespace chirp
{

/** Current on-disk format version. */
constexpr std::uint32_t kTraceFormatVersion = 2;

/** Streaming writer for the binary trace format. */
class TraceFileWriter
{
  public:
    /** Create/truncate @p path; fatal on failure. */
    explicit TraceFileWriter(const std::string &path);

    /** Writes the file if close() was not called. */
    ~TraceFileWriter();

    TraceFileWriter(const TraceFileWriter &) = delete;
    TraceFileWriter &operator=(const TraceFileWriter &) = delete;

    /** Append one record (buffered; the column layout needs the full
     *  stream before any column can be laid down). */
    void append(const TraceRecord &rec);

    /** Records written so far. */
    std::uint64_t count() const { return buf_.size(); }

    /**
     * Write header, columns and footer, flush + fsync, and close the
     * file.  Returns false when any write failed along the way (disk
     * full, I/O error) -- callers publishing the file must not trust
     * it then.
     */
    bool close();

    /**
     * One-shot form: write @p trace to @p path with the same
     * durability guarantees, without buffering a second copy.
     * Returns false on any failure.
     */
    static bool writeFile(const std::string &path,
                          const ColumnarTrace &trace);

  private:
    std::string path_;
    std::FILE *file_;
    ColumnarTrace buf_;
    bool closed_ = false;
};

/**
 * TraceSource that replays a file written by TraceFileWriter.  The
 * whole header is validated on open; the per-column checksums are
 * validated when the trace has been fully consumed once, or eagerly
 * on demand via verifyChecksum().
 */
class TraceFileSource : public TraceSource
{
  public:
    /** Open @p path; fatal on missing/corrupt header. */
    explicit TraceFileSource(const std::string &path);
    ~TraceFileSource() override;

    TraceFileSource(const TraceFileSource &) = delete;
    TraceFileSource &operator=(const TraceFileSource &) = delete;

    /**
     * Non-fatal structural check: true when @p path exists, carries a
     * valid header, and its size matches the header's record count
     * (including padding and the checksum footer).  Lets callers such
     * as the trace cache reject candidate files without tripping the
     * fatal paths in the constructor.  On failure @p reason, when
     * non-null, receives a short explanation (bad magic, size
     * mismatch, ...) for the caller's quarantine log.
     */
    static bool probe(const std::string &path,
                      std::string *reason = nullptr);

    bool next(TraceRecord &rec) override;
    std::size_t nextBatch(TraceRecord *out, std::size_t n) override;
    void reset() override;
    InstCount expectedLength() const override { return count_; }

    /** Total records in the file. */
    std::uint64_t count() const { return count_; }

    /**
     * Eagerly validate the per-column checksum footer with one full
     * pass over the column payload (each column read and folded in
     * one shot, matching the whole-column definition of the lane-
     * striped checksum).  Returns false (without terminating, unlike
     * the lazy end-of-trace check) on mismatch or truncation; on
     * success later passes and the end-of-trace check are skipped.
     */
    bool verifyChecksum();

  private:
    void verifyFooter();

    std::FILE *file_;
    std::uint64_t count_ = 0;
    std::uint64_t read_ = 0;
    bool verified_ = false;
};

/**
 * Map @p path read-only (MAP_SHARED) and return a zero-copy
 * ColumnarTrace view over its columns, or nullptr with @p reason set
 * when the file is structurally invalid or fails its per-column
 * checksums.  The mapping is advised MADV_WILLNEED (the replay will
 * touch every column) and released when the last shared_ptr drops;
 * concurrent processes mapping the same cache file share one
 * physical copy through the page cache.
 */
std::shared_ptr<const ColumnarTrace>
mapTraceFile(const std::string &path, std::string *reason = nullptr);

/**
 * Read @p path into owned columns in one streaming pass (header,
 * bulk column freads, per-column checksum fold, footer compare), or
 * nullptr with @p reason set when the file is structurally invalid
 * or fails its checksums.  The streaming counterpart of
 * mapTraceFile for callers that want a self-contained copy.
 */
std::shared_ptr<const ColumnarTrace>
readTraceFile(const std::string &path, std::string *reason = nullptr);

} // namespace chirp

#endif // CHIRP_TRACE_TRACE_FILE_HH
