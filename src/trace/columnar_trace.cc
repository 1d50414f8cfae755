#include "trace/columnar_trace.hh"

#include <cstring>

namespace chirp
{

ColumnarTrace::ColumnarTrace(const std::vector<TraceRecord> &records)
{
    appendBatch(records.data(), records.size());
}

ColumnarTrace::ColumnarTrace(const Addr *pc, const Addr *eff_addr,
                             const Addr *target,
                             const std::uint8_t *meta, std::size_t n,
                             std::function<void()> release)
    : pc_(pc), effAddr_(eff_addr), target_(target), meta_(meta),
      size_(n), release_(std::move(release))
{
}

ColumnarTrace::~ColumnarTrace()
{
    if (release_)
        release_();
}

void
ColumnarTrace::reserve(std::size_t n)
{
    pcStore_.reserve(n);
    effAddrStore_.reserve(n);
    targetStore_.reserve(n);
    metaStore_.reserve(n);
}

void
ColumnarTrace::append(const TraceRecord &rec)
{
    appendBatch(&rec, 1);
}

void
ColumnarTrace::appendBatch(const TraceRecord *recs, std::size_t n)
{
    // Scatter column-wise with plain indexed stores: one resize per
    // column instead of a capacity check (and base-pointer refresh)
    // per record, which is what made the per-record append the
    // hottest function of a warm fig01 run.
    const std::size_t base = size_;
    pcStore_.resize(base + n);
    effAddrStore_.resize(base + n);
    targetStore_.resize(base + n);
    metaStore_.resize(base + n);
    Addr *pc = pcStore_.data() + base;
    Addr *ea = effAddrStore_.data() + base;
    Addr *tg = targetStore_.data() + base;
    std::uint8_t *meta = metaStore_.data() + base;
    for (std::size_t i = 0; i < n; ++i) {
        const TraceRecord &rec = recs[i];
        pc[i] = rec.pc;
        ea[i] = rec.effAddr;
        tg[i] = rec.target;
        meta[i] = packMeta(rec.cls, rec.taken);
    }
    pc_ = pcStore_.data();
    effAddr_ = effAddrStore_.data();
    target_ = targetStore_.data();
    meta_ = metaStore_.data();
    size_ += n;
}

void
ColumnarTrace::gather(std::size_t pos, std::size_t n,
                      TraceRecord *out) const
{
    const Addr *pc = pc_ + pos;
    const Addr *ea = effAddr_ + pos;
    const Addr *tg = target_ + pos;
    const std::uint8_t *meta = meta_ + pos;
    for (std::size_t i = 0; i < n; ++i) {
        TraceRecord &rec = out[i];
        rec.pc = pc[i];
        rec.effAddr = ea[i];
        rec.target = tg[i];
        const std::uint8_t m = meta[i];
        rec.cls = static_cast<InstClass>(m & kClsMask);
        rec.taken = (m & kTakenBit) != 0;
    }
}

std::vector<TraceRecord>
ColumnarTrace::toRecords() const
{
    std::vector<TraceRecord> records(size_);
    gather(0, size_, records.data());
    return records;
}

bool
ColumnarTrace::operator==(const ColumnarTrace &other) const
{
    if (size_ != other.size_)
        return false;
    if (size_ == 0)
        return true;
    return std::memcmp(pc_, other.pc_, size_ * sizeof(Addr)) == 0 &&
           std::memcmp(effAddr_, other.effAddr_,
                       size_ * sizeof(Addr)) == 0 &&
           std::memcmp(target_, other.target_,
                       size_ * sizeof(Addr)) == 0 &&
           std::memcmp(meta_, other.meta_, size_) == 0;
}

bool
operator==(const ColumnarTrace &trace,
           const std::vector<TraceRecord> &records)
{
    if (trace.size() != records.size())
        return false;
    for (std::size_t i = 0; i < records.size(); ++i) {
        if (trace.record(i) != records[i])
            return false;
    }
    return true;
}

bool
operator==(const std::vector<TraceRecord> &records,
           const ColumnarTrace &trace)
{
    return trace == records;
}

} // namespace chirp
