/**
 * @file
 * Hardened external-trace ingestion: the untrusted front-end that
 * turns ChampSim / CVP trace files into the same SharedTrace tier the
 * synthetic generator materializes into, so replay, --jobs and
 * --workers all work unchanged on real program traces.
 *
 * Every input is treated as adversarial.  The readers decode via
 * bounds-checked memcpy from length-validated buffers (never by
 * struct-casting raw file bytes), classify every failure through the
 * DecodeError taxonomy, quarantine-and-resync past corrupt regions
 * (skipping to the next plausible record boundary and logging the
 * byte range), and enforce hard resource budgets: a maximum record
 * count (through the same CappedSource the paper's 100M-instruction
 * cap uses), a maximum resident size for the materialized trace, a
 * configurable bad-record budget, an optional wall-clock budget, and
 * a cancel token the suite watchdog raises.  A file that exhausts a
 * budget fails its job with IngestError — through SuiteHealth, never
 * by taking the suite down — and no input may crash, hang, or OOM
 * the decoder (tools/trace_fuzz asserts exactly that invariant).
 *
 * Supported formats:
 *
 *  - ChampSim: the fixed 64-byte input_instr record — u64 ip, u8
 *    is_branch, u8 branch_taken, u8 destination_registers[2], u8
 *    source_registers[4], u64 destination_memory[2], u64
 *    source_memory[4], all little-endian.  Branches map to
 *    CondBranch with the recorded outcome; the first source /
 *    destination memory address selects Load / Store; everything
 *    else is Alu.
 *  - CVP: a CVP-1-style variable-length container — header magic
 *    "CVPT", u32 version (1), u64 declared record count; each record
 *    is u64 pc, u8 InstClass, u8 flags (taken / has-memory /
 *    has-target), an optional u64 effective address + u8 access
 *    size, an optional u64 branch target, and a u8-counted register
 *    list.  The declared count is treated as a hint, never trusted.
 *
 * Format selection is automatic (CVPT magic, else a 64-byte-multiple
 * file is ChampSim) or explicit via CHIRP_TRACE_IN_FORMAT /
 * --trace-in-format.
 */

#ifndef CHIRP_TRACE_INGEST_INGEST_HH
#define CHIRP_TRACE_INGEST_INGEST_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/ingest/decode_error.hh"
#include "trace/trace_store.hh"

namespace chirp
{

/** External trace container formats the ingest front-end reads. */
enum class ExternalTraceFormat : std::uint8_t
{
    Auto,     //!< sniff: CVPT magic, else 64-byte-multiple ChampSim
    ChampSim, //!< fixed 64-byte input_instr records
    Cvp,      //!< CVP-1-style variable-length records
};

/** Printable name ("auto", "champsim", "cvp"). */
const char *externalTraceFormatName(ExternalTraceFormat format);

/**
 * The format from CHIRP_TRACE_IN_FORMAT (unset/empty means Auto);
 * fatal on unrecognized values.  Read fresh on each call, so a
 * --trace-in-format flag parsed after start-up takes effect.
 */
ExternalTraceFormat externalTraceFormatFromEnv();

/**
 * Hard resource budgets for one ingest.  Defaults come from
 * ingestLimitsFromEnv(); every knob has an environment override so
 * the budgets reach --workers children unchanged.
 */
struct IngestLimits
{
    /** Max records materialized (the paper's 100M cap); 0 = unlimited.
     *  CHIRP_INGEST_MAX_RECORDS. */
    InstCount maxRecords = 100'000'000;
    /** Max resident bytes for the materialized columns; 0 = unlimited.
     *  CHIRP_INGEST_MAX_BYTES. */
    std::uint64_t maxResidentBytes = 4ull << 30;
    /** Bad records tolerated before the stream is declared hostile
     *  (64 bytes of resync scanning count as one).
     *  CHIRP_INGEST_BAD_BUDGET. */
    std::uint64_t badRecordBudget = 1024;
    /** Wall-clock budget for the whole ingest; 0 = unlimited.
     *  CHIRP_INGEST_TIMEOUT_MS. */
    std::uint64_t maxWallMs = 0;
    /**
     * Cancel token polled between records; ingest aborts with
     * IngestError(Cancelled) once it reads true.  When null, the
     * thread's ScopedIngestCancel token (installed by the suite
     * runner next to the simulator's watchdog token) applies.
     */
    const std::atomic<bool> *cancel = nullptr;
};

/** Budgets from the CHIRP_INGEST_* environment (defaults above). */
IngestLimits ingestLimitsFromEnv();

/** One corrupt byte range skipped by quarantine-and-resync. */
struct QuarantinedRange
{
    std::uint64_t begin = 0; //!< first quarantined byte
    std::uint64_t end = 0;   //!< one past the last quarantined byte
};

/** Per-stream sanity counters accumulated during one ingest. */
struct IngestStats
{
    /** Ranges kept in `ranges` (the rest are counted, not stored). */
    static constexpr std::size_t kMaxLoggedRanges = 16;

    std::uint64_t records = 0;          //!< records materialized
    std::uint64_t badRecords = 0;       //!< decode failures charged
    std::uint64_t bytesConsumed = 0;    //!< input bytes walked
    std::uint64_t quarantinedBytes = 0; //!< bytes inside bad ranges
    std::uint64_t quarantinedRangeCount = 0;
    std::vector<QuarantinedRange> ranges;
};

/** A successfully ingested trace plus its provenance. */
struct IngestResult
{
    SharedTrace trace;
    IngestStats stats;
    ExternalTraceFormat format = ExternalTraceFormat::Auto;
};

/**
 * Ingest @p path under @p limits into a materialized SharedTrace.
 * Throws IngestError when no usable trace can be delivered
 * (unreadable / unrecognizable file, exhausted bad-record budget,
 * blown resource budget, cancellation); never crashes, hangs, or
 * OOMs on any input.
 */
IngestResult ingestTraceFile(const std::string &path,
                             const IngestLimits &limits,
                             ExternalTraceFormat format =
                                 ExternalTraceFormat::Auto);

/** As above with limits and format taken from the environment. */
IngestResult ingestTraceFile(const std::string &path);

/**
 * Ingest an in-memory image (tests and the fuzz driver; identical
 * semantics to ingestTraceFile on a file holding @p len bytes).
 */
IngestResult ingestTraceBytes(const void *data, std::size_t len,
                              const std::string &name,
                              const IngestLimits &limits,
                              ExternalTraceFormat format =
                                  ExternalTraceFormat::Auto);

/**
 * Installs a thread-local cancel token consulted by any ingest on
 * this thread whose limits carry none.  The suite runner scopes one
 * around each guarded job body so the --job-timeout watchdog reaches
 * ingest the same way it reaches the simulator.
 */
class ScopedIngestCancel
{
  public:
    explicit ScopedIngestCancel(const std::atomic<bool> *token);
    ~ScopedIngestCancel();

    ScopedIngestCancel(const ScopedIngestCancel &) = delete;
    ScopedIngestCancel &operator=(const ScopedIngestCancel &) = delete;

    /** The innermost token installed on this thread (null if none). */
    static const std::atomic<bool> *current();

  private:
    const std::atomic<bool> *previous_;
};

// Encoders for fixtures and the fuzz corpus: append one well-formed
// record (or the CVP container header) to a byte string.  Decoding
// an encoded stream round-trips exactly for CVP; ChampSim cannot
// express every InstClass, so its round trip lands on
// champSimCanonical() of each record.

/** Append the 64-byte ChampSim image of @p rec to @p out. */
void appendChampSimRecord(std::string &out, const TraceRecord &rec);

/**
 * What decoding appendChampSimRecord(rec) yields: branches coarsen
 * to CondBranch, memory ops with a zero effective address to Alu,
 * and targets are dropped (the format carries none).
 */
TraceRecord champSimCanonical(const TraceRecord &rec);

/** Append the 16-byte CVP container header declaring @p count. */
void appendCvpHeader(std::string &out, std::uint64_t count);

/** Append the variable-length CVP image of @p rec to @p out. */
void appendCvpRecord(std::string &out, const TraceRecord &rec);

} // namespace chirp

#endif // CHIRP_TRACE_INGEST_INGEST_HH
