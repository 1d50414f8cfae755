/**
 * @file
 * Binary trace file format: one writer (writeTraceFile) and one
 * reader, the zero-copy mmap loader (mapTraceFile).
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
 * trace file is mapped read-only and replayed in place: every bench
 * process and forked --workers child on a host shares one physical
 * copy of each cached trace through the page cache.  The header, the
 * file size and every column checksum are validated on the mapped
 * bytes before the trace is handed out, so any flipped byte in any
 * column is caught before the first replay.
 *
 * Files are read and written in host byte order, which the format
 * fixes as little-endian: the build refuses a big-endian target.
 *
 * v1 files (row-major 26-byte records, single checksum) are not read;
 * mapTraceFile refuses them as "unsupported version 1" and the trace
 * store quarantines and regenerates, which is the supported migration
 * path.
 */

#ifndef CHIRP_TRACE_TRACE_FILE_HH
#define CHIRP_TRACE_TRACE_FILE_HH

#include <memory>
#include <string>

#include "trace/columnar_trace.hh"

namespace chirp
{

/** Current on-disk format version. */
constexpr std::uint32_t kTraceFormatVersion = 2;

/**
 * Write @p trace to @p path (created or truncated): header, columns
 * and footer, then flush and fsync.  Returns false when any step
 * failed (cannot open, disk full, I/O error) -- callers publishing
 * the file must not trust it then.
 */
bool writeTraceFile(const std::string &path, const ColumnarTrace &trace);

/**
 * Map @p path read-only (MAP_SHARED) and return a zero-copy
 * ColumnarTrace view over its columns, or nullptr with @p reason set
 * (a DecodeError line) when the file is unreadable, structurally
 * invalid or fails its per-column checksums.  The mapping is advised
 * MADV_WILLNEED (the replay will touch every column) and released
 * when the last shared_ptr drops; concurrent processes mapping the
 * same cache file share one physical copy through the page cache.
 */
std::shared_ptr<const ColumnarTrace>
mapTraceFile(const std::string &path, std::string *reason = nullptr);

} // namespace chirp

#endif // CHIRP_TRACE_TRACE_FILE_HH
