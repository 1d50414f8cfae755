/**
 * @file
 * Structure-of-arrays trace storage.
 *
 * A materialized trace used to be a vector of row-major TraceRecords;
 * every replay pass then streamed 26 bytes per instruction even when
 * it only needed the PC and class columns (the retire loops) or no
 * record data at all (pure event replays).  ColumnarTrace keeps the
 * same logical stream as four contiguous columns — pc[], effAddr[],
 * target[] plus a packed one-byte cls/taken lane — so hot loops touch
 * only the columns they read and the on-disk v2 format can be mapped
 * into memory and consumed in place.
 *
 * The columns are either owned (built from a generator or an ingested
 * trace) or borrowed from a mapped .chtr file (mapTraceFile); the
 * borrowed form carries a
 * release callback that unmaps the region when the last SharedTrace
 * handle drops.
 */

#ifndef CHIRP_TRACE_COLUMNAR_TRACE_HH
#define CHIRP_TRACE_COLUMNAR_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "trace/trace_record.hh"

namespace chirp
{

/** An immutable instruction stream stored column-major. */
class ColumnarTrace
{
  public:
    //! Low bits of a meta byte: the InstClass (8 classes fit in 3).
    static constexpr std::uint8_t kClsMask = 0x07;
    //! Taken flag of a branch record.
    static constexpr std::uint8_t kTakenBit = 0x08;

    /** The packed cls/taken lane byte for one record. */
    static std::uint8_t
    packMeta(InstClass cls, bool taken)
    {
        return static_cast<std::uint8_t>(
            (static_cast<std::uint8_t>(cls) & kClsMask) |
            (taken ? kTakenBit : 0));
    }

    ColumnarTrace() = default;

    /** Transpose a row-major record stream into owned columns. */
    explicit ColumnarTrace(const std::vector<TraceRecord> &records);

    /**
     * Zero-copy view over externally owned columns (mapTraceFile).
     * The pointers must stay valid for the trace's lifetime; @p
     * release runs exactly once at destruction (unmapping the file).
     */
    ColumnarTrace(const Addr *pc, const Addr *eff_addr,
                  const Addr *target, const std::uint8_t *meta,
                  std::size_t n, std::function<void()> release);

    ~ColumnarTrace();

    ColumnarTrace(const ColumnarTrace &) = delete;
    ColumnarTrace &operator=(const ColumnarTrace &) = delete;

    /** Reserve column capacity for @p n records. */
    void reserve(std::size_t n);

    /** Append one record (builder use; owned storage only). */
    void append(const TraceRecord &rec);

    /** Append @p n records as one column-wise scatter (builder use;
     *  owned storage only). */
    void appendBatch(const TraceRecord *recs, std::size_t n);

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    // Column base pointers.
    const Addr *pc() const { return pc_; }
    const Addr *effAddr() const { return effAddr_; }
    const Addr *target() const { return target_; }
    const std::uint8_t *meta() const { return meta_; }

    InstClass
    cls(std::size_t i) const
    {
        return static_cast<InstClass>(meta_[i] & kClsMask);
    }

    bool
    taken(std::size_t i) const
    {
        return (meta_[i] & kTakenBit) != 0;
    }

    /** Gather one record back into row-major form. */
    TraceRecord
    record(std::size_t i) const
    {
        TraceRecord rec;
        rec.pc = pc_[i];
        rec.effAddr = effAddr_[i];
        rec.target = target_[i];
        rec.cls = cls(i);
        rec.taken = taken(i);
        return rec;
    }

    /** Gather records [pos, pos+n) into @p out. */
    void gather(std::size_t pos, std::size_t n, TraceRecord *out) const;

    /** The whole stream back in row-major form (tests, tools). */
    std::vector<TraceRecord> toRecords() const;

    /** Content equality (column-wise compare). */
    bool operator==(const ColumnarTrace &other) const;

  private:
    // Owned storage; empty for borrowed (mmap-backed) traces.  The
    // base pointers below are the single source of truth either way.
    std::vector<Addr> pcStore_;
    std::vector<Addr> effAddrStore_;
    std::vector<Addr> targetStore_;
    std::vector<std::uint8_t> metaStore_;

    const Addr *pc_ = nullptr;
    const Addr *effAddr_ = nullptr;
    const Addr *target_ = nullptr;
    const std::uint8_t *meta_ = nullptr;
    std::size_t size_ = 0;

    std::function<void()> release_;
};

/**
 * Content comparison against a row-major record vector, so tests can
 * diff a shared trace against materializeWorkload() directly.
 */
bool operator==(const ColumnarTrace &trace,
                const std::vector<TraceRecord> &records);
bool operator==(const std::vector<TraceRecord> &records,
                const ColumnarTrace &trace);

} // namespace chirp

#endif // CHIRP_TRACE_COLUMNAR_TRACE_HH
