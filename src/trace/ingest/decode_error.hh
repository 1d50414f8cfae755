/**
 * @file
 * The decode-failure taxonomy shared by every path that parses bytes
 * it did not produce: the external-trace ingest readers (ChampSim /
 * CVP front-end) and the .chtr reader (mapTraceFile) behind the
 * trace cache.
 *
 * External trace files are the first untrusted input this codebase
 * parses, so every way a decode can go wrong gets a named kind, a
 * byte offset, and an optional detail string.  One taxonomy across
 * both tiers means a quarantine log line reads the same whether the
 * bad bytes came from a corrupted cache file or a hostile --trace-in
 * file, and tests can assert on kinds instead of ad-hoc prose.
 */

#ifndef CHIRP_TRACE_INGEST_DECODE_ERROR_HH
#define CHIRP_TRACE_INGEST_DECODE_ERROR_HH

#include <cstdint>
#include <stdexcept>
#include <string>

namespace chirp
{

/** Every way parsing untrusted trace bytes can fail. */
enum class DecodeErrorKind : std::uint8_t
{
    Unreadable,         //!< cannot open/stat/read the file at all
    UnknownFormat,      //!< no reader recognizes the bytes
    BadMagic,           //!< magic bytes are not a known trace header
    BadVersion,         //!< recognized container, unsupported version
    TruncatedHeader,    //!< file ends inside the header
    TruncatedRecord,    //!< file ends inside a record
    TruncatedColumn,    //!< file ends inside a column payload
    TruncatedFooter,    //!< file ends inside the checksum footer
    ImpossibleLength,   //!< a length field claims an impossible value
    OutOfRangeClass,    //!< instruction class outside InstClass
    OutOfRangeRegister, //!< register id outside any plausible file
    OutOfRangeFlags,    //!< flag byte with impossible bits set
    NonCanonicalPc,     //!< PC is zero or not 48-bit sign-extended
    NonCanonicalAddress,//!< memory/target address fails the PC check
    SizeMismatch,       //!< file size disagrees with its own header
    CountMismatch,      //!< record count disagrees with the header
    ChecksumMismatch,   //!< stored checksum does not match the bytes
    BudgetExceeded,     //!< a hard ingest resource budget was hit
    Timeout,            //!< ingest wall-clock budget exceeded
    Cancelled,          //!< cancel token raised (watchdog) mid-ingest
};

/** Stable printable name of a kind ("truncated record", ...). */
const char *decodeErrorKindName(DecodeErrorKind kind);

/**
 * One decode failure: what went wrong, where in the file, and any
 * free-form detail (expected vs actual values, errno text).
 */
struct DecodeError
{
    DecodeErrorKind kind = DecodeErrorKind::Unreadable;
    /** Byte offset in the input the failure was detected at. */
    std::uint64_t offset = 0;
    std::string detail;

    /**
     * "kind (detail) at byte N" — the one rendering every quarantine
     * log and mapTraceFile reason uses, so cache-tier and ingest-tier
     * failures read identically.
     */
    std::string format() const;
};

/**
 * Thrown when ingest cannot deliver a usable trace at all (unreadable
 * file, exhausted bad-record budget, blown resource budget).  The
 * suite runner's per-job guard catches it like any job failure: the
 * job fails through SuiteHealth, the suite continues.
 */
class IngestError : public std::runtime_error
{
  public:
    explicit IngestError(DecodeError error)
        : std::runtime_error(error.format()), error_(std::move(error))
    {
    }

    const DecodeError &error() const { return error_; }
    DecodeErrorKind kind() const { return error_.kind; }

  private:
    DecodeError error_;
};

} // namespace chirp

#endif // CHIRP_TRACE_INGEST_DECODE_ERROR_HH
