#include "trace/trace_file.hh"

#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "trace/ingest/decode_error.hh"
#include "util/logging.hh"

namespace chirp
{

namespace
{

constexpr char kMagic[4] = {'C', 'H', 'T', 'R'};
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;
constexpr std::uint64_t kHeaderBytes = 4 + 4 + 8;
constexpr std::size_t kNumColumns = 4;
/** Bytes per record across the four columns (3 x u64 + meta u8). */
constexpr std::uint64_t kBytesPerRecord = 3 * 8 + 1;
/** Size of an empty trace: header plus checksum footer. */
constexpr std::uint64_t kMinFileBytes = kHeaderBytes + 8 * kNumColumns;

// The columns are written and mapped in host byte order.
static_assert(std::endian::native == std::endian::little,
              "the .chtr trace format requires a little-endian host");

/** Byte offsets of every section of a v2 file holding @p n records. */
struct Layout
{
    std::uint64_t pcOff = kHeaderBytes;
    std::uint64_t effAddrOff = 0;
    std::uint64_t targetOff = 0;
    std::uint64_t metaOff = 0;
    std::uint64_t padBytes = 0;
    std::uint64_t footerOff = 0;
    std::uint64_t fileSize = 0;
};

Layout
layoutFor(std::uint64_t n)
{
    Layout lay;
    lay.effAddrOff = kHeaderBytes + 8 * n;
    lay.targetOff = lay.effAddrOff + 8 * n;
    lay.metaOff = lay.targetOff + 8 * n;
    const std::uint64_t meta_end = lay.metaOff + n;
    lay.padBytes = (8 - meta_end % 8) % 8;
    lay.footerOff = meta_end + lay.padBytes;
    lay.fileSize = lay.footerOff + 8 * kNumColumns;
    return lay;
}

/**
 * The v2 per-column checksum: four independent FNV-1a-style 64-bit
 * lanes striped over consecutive 8-byte words, folded together (with
 * the length) at the end.  A single byte-serial FNV chain is
 * latency-bound at ~1 ns/byte — one 64-bit multiply per byte — which
 * made verifying a warm multi-hundred-MB trace cache cost more than
 * regenerating it; four lanes keep the same per-word xor-multiply
 * mixing (any single-bit flip still changes its lane's sum, the
 * multiplier being odd and thus invertible) while the dependency
 * chains overlap.  Defined over a whole column at a time: every
 * writer and reader folds each column in one shot, so there is no
 * chunk-boundary dependence to keep in sync.
 */
std::uint64_t
columnChecksum(const std::uint8_t *data, std::size_t len)
{
    std::uint64_t lanes[4] = {
        kFnvOffset,
        kFnvOffset ^ 0x9e3779b97f4a7c15ull,
        kFnvOffset ^ 0xc2b2ae3d27d4eb4full,
        kFnvOffset ^ 0x165667b19e3779f9ull,
    };
    std::size_t i = 0;
    for (; i + 32 <= len; i += 32) {
        for (int l = 0; l < 4; ++l) {
            std::uint64_t word;
            std::memcpy(&word, data + i + 8 * l, sizeof(word));
            lanes[l] = (lanes[l] ^ word) * kFnvPrime;
        }
    }
    // Tail (< 32 bytes): byte-serial into lane 0, cheap by volume.
    for (; i < len; ++i) {
        lanes[0] ^= data[i];
        lanes[0] *= kFnvPrime;
    }
    std::uint64_t h = kFnvOffset ^ static_cast<std::uint64_t>(len);
    for (const std::uint64_t lane : lanes)
        h = (h ^ lane) * kFnvPrime;
    return h;
}

/** Write one column's bytes and return their checksum. */
std::uint64_t
writeColumn(std::FILE *f, const void *data, std::size_t bytes)
{
    if (bytes > 0)
        std::fwrite(data, 1, bytes, f);
    return columnChecksum(static_cast<const std::uint8_t *>(data), bytes);
}

/** Lay down a complete v2 file body; error state stays on @p f. */
void
writeAll(std::FILE *f, const ColumnarTrace &trace)
{
    const std::uint64_t n = trace.size();
    const std::size_t addr_bytes =
        static_cast<std::size_t>(n) * sizeof(Addr);
    const Layout lay = layoutFor(n);
    std::fwrite(kMagic, 1, sizeof(kMagic), f);
    std::fwrite(&kTraceFormatVersion, sizeof(kTraceFormatVersion), 1, f);
    std::fwrite(&n, sizeof(n), 1, f);
    const std::uint64_t sums[kNumColumns] = {
        writeColumn(f, trace.pc(), addr_bytes),
        writeColumn(f, trace.effAddr(), addr_bytes),
        writeColumn(f, trace.target(), addr_bytes),
        writeColumn(f, trace.meta(), static_cast<std::size_t>(n)),
    };
    const std::uint8_t pad[8] = {};
    if (lay.padBytes > 0)
        std::fwrite(pad, 1, static_cast<std::size_t>(lay.padBytes), f);
    std::fwrite(sums, sizeof(sums[0]), kNumColumns, f);
}

/** Flush, fsync and close @p f; true when every write stuck. */
bool
finishFile(std::FILE *f)
{
    bool ok = std::fflush(f) == 0 && std::ferror(f) == 0;
    if (ok && ::fsync(::fileno(f)) != 0)
        ok = false;
    if (std::fclose(f) != 0)
        ok = false;
    return ok;
}

} // namespace

const char *
instClassName(InstClass cls)
{
    switch (cls) {
      case InstClass::Alu:
        return "alu";
      case InstClass::Load:
        return "load";
      case InstClass::Store:
        return "store";
      case InstClass::CondBranch:
        return "condBranch";
      case InstClass::UncondDirect:
        return "uncondDirect";
      case InstClass::UncondIndirect:
        return "uncondIndirect";
      case InstClass::Fp:
        return "fp";
      case InstClass::SlowAlu:
        return "slowAlu";
      default:
        return "?";
    }
}

bool
writeTraceFile(const std::string &path, const ColumnarTrace &trace)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    writeAll(f, trace);
    // Surface any buffered write failure (disk full, I/O error) and
    // make the bytes durable before the caller publishes the file.
    return finishFile(f);
}

std::shared_ptr<const ColumnarTrace>
mapTraceFile(const std::string &path, std::string *reason)
{
    // Failure reasons use the ingest tier's DecodeError taxonomy, so
    // a quarantine log line reads the same whether the bad bytes came
    // from a cache file or a hostile --trace-in file.
    const auto refuse = [&](const DecodeError &why)
        -> std::shared_ptr<const ColumnarTrace> {
        if (reason)
            *reason = why.format();
        return nullptr;
    };
    // O_NONBLOCK: opening a FIFO planted under the cache name must not
    // wait for a writer; fstat then refuses it as not a regular file.
    const int fd =
        ::open(path.c_str(), O_RDONLY | O_CLOEXEC | O_NONBLOCK);
    if (fd < 0)
        return refuse({DecodeErrorKind::Unreadable, 0,
                       std::strerror(errno)});
    struct stat st = {};
    if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
        ::close(fd);
        return refuse({DecodeErrorKind::Unreadable, 0,
                       "not a regular file"});
    }
    const std::size_t len = static_cast<std::size_t>(st.st_size);
    if (len < sizeof(kMagic)) {
        // Too short to hold a magic (mmap refuses a 0-byte length).
        ::close(fd);
        return refuse({DecodeErrorKind::BadMagic, 0, "not a chirp trace"});
    }
    void *base = ::mmap(nullptr, len, PROT_READ, MAP_SHARED, fd, 0);
    ::close(fd); // the mapping keeps its own reference
    if (base == MAP_FAILED)
        return refuse({DecodeErrorKind::Unreadable, 0, "mmap failed"});
    const auto unmapAndRefuse = [&](const DecodeError &why) {
        ::munmap(base, len);
        return refuse(why);
    };
    const std::uint8_t *bytes = static_cast<const std::uint8_t *>(base);
    if (std::memcmp(bytes, kMagic, sizeof(kMagic)) != 0)
        return unmapAndRefuse(
            {DecodeErrorKind::BadMagic, 0, "not a chirp trace"});
    std::uint32_t version = 0;
    if (len >= 8)
        std::memcpy(&version, bytes + 4, sizeof(version));
    if (version != kTraceFormatVersion)
        return unmapAndRefuse({DecodeErrorKind::BadVersion, 4,
                               detail::concat("version ", version)});
    if (len < kHeaderBytes)
        return unmapAndRefuse(
            {DecodeErrorKind::TruncatedHeader, 8, "no record count"});
    std::uint64_t count = 0;
    std::memcpy(&count, bytes + 8, sizeof(count));
    // Bound the count by the file size before any layout arithmetic:
    // a hostile count would otherwise wrap the expected size in 64
    // bits and send the checksum pass past the end of the mapping.
    const std::uint64_t size = len;
    if (size < kMinFileBytes ||
        count > (size - kMinFileBytes) / kBytesPerRecord)
        return unmapAndRefuse(
            {DecodeErrorKind::SizeMismatch, 0,
             detail::concat("size ", size, " too small for ", count,
                            " records")});
    const Layout lay = layoutFor(count);
    if (lay.fileSize != size)
        return unmapAndRefuse(
            {DecodeErrorKind::SizeMismatch, 0,
             detail::concat("size ", size, " != expected ",
                            lay.fileSize, " for ", count, " records")});
    // The replay will touch every column front to back; huge pages
    // cut TLB pressure where the kernel supports them for file
    // mappings (harmless where it does not).
    ::madvise(base, len, MADV_WILLNEED);
#ifdef MADV_HUGEPAGE
    ::madvise(base, len, MADV_HUGEPAGE);
#endif
    const std::uint8_t *cols[kNumColumns] = {
        bytes + lay.pcOff, bytes + lay.effAddrOff,
        bytes + lay.targetOff, bytes + lay.metaOff};
    const std::uint64_t widths[kNumColumns] = {8, 8, 8, 1};
    for (std::size_t c = 0; c < kNumColumns; ++c) {
        const std::uint64_t sum = columnChecksum(
            cols[c], static_cast<std::size_t>(count * widths[c]));
        std::uint64_t stored = 0;
        std::memcpy(&stored, bytes + lay.footerOff + 8 * c,
                    sizeof(stored));
        if (sum != stored)
            return unmapAndRefuse({DecodeErrorKind::ChecksumMismatch,
                                   lay.footerOff + 8 * c,
                                   detail::concat("column ", c)});
    }
    return std::make_shared<const ColumnarTrace>(
        reinterpret_cast<const Addr *>(cols[0]),
        reinterpret_cast<const Addr *>(cols[1]),
        reinterpret_cast<const Addr *>(cols[2]), cols[3],
        static_cast<std::size_t>(count),
        [base, len] { ::munmap(base, len); });
}

} // namespace chirp
