#include "sim/replay_streams.hh"

#include <algorithm>

#include "util/bitfield.hh"
#include "util/logging.hh"

namespace chirp
{

namespace
{

constexpr std::size_t kNoShape = ~std::size_t{0};

/** Mask of the top (possibly partial) word of a @p width-bit register. */
std::uint64_t
topWordMask(unsigned width)
{
    return maskBits(width % 64 == 0 ? 64 : width % 64);
}

/**
 * One shape's shift register, as wide as its widest user.  Words are
 * little-endian (word 0 holds the newest bits) and the top word is
 * trimmed to the register width, mirroring WideShiftHistory.
 */
struct ShapeRegister
{
    ShapeRegister(unsigned events, unsigned shift_per_event)
        : shift(shift_per_event),
          topMask(topWordMask(events * shift_per_event)),
          words((events * shift_per_event + 63) / 64, 0)
    {
    }

    bool single() const { return words.size() == 1; }

    /** Shift in @p value (already masked to at most shift bits). */
    void
    pushWide(std::uint64_t value)
    {
        std::uint64_t carry = value;
        for (std::uint64_t &word : words) {
            const std::uint64_t next = word >> (64 - shift);
            word = (word << shift) | carry;
            carry = next;
        }
        words.back() &= topMask;
    }

    unsigned shift;
    std::uint64_t topMask;
    std::vector<std::uint64_t> words;
};

/**
 * A user's view of a shape register: the low @c count words, the top
 * one masked to the user's own width.  Its fold equals the user's own
 * WideShiftHistory::folded().
 */
struct FoldView
{
    FoldView() = default;

    FoldView(const ShapeRegister &reg, unsigned events)
        : words(reg.words.data()),
          count((events * reg.shift + 63) / 64),
          topMask(topWordMask(events * reg.shift))
    {
    }

    std::uint64_t
    fold() const
    {
        std::uint64_t folded = words[count - 1] & topMask;
        for (unsigned k = 0; k + 1 < count; ++k)
            folded ^= words[k];
        return folded;
    }

    const std::uint64_t *words = nullptr;
    unsigned count = 0;
    std::uint64_t topMask = 0;
};

/** Bitmask over InstClass values of the records a path filter keeps. */
std::uint32_t
filterClasses(PathFilter filter)
{
    std::uint32_t classes = 0;
    for (unsigned c = 0; c < static_cast<unsigned>(InstClass::NumClasses);
         ++c) {
        const InstClass cls = static_cast<InstClass>(c);
        bool keep = true;
        switch (filter) {
          case PathFilter::All:
            break;
          case PathFilter::Memory:
            keep = isMemory(cls);
            break;
          case PathFilter::Branch:
            keep = isBranch(cls);
            break;
        }
        if (keep)
            classes |= 1u << c;
    }
    return classes;
}

unsigned
clsOf(std::uint8_t meta)
{
    return meta & ColumnarTrace::kClsMask;
}

constexpr unsigned kCond = static_cast<unsigned>(InstClass::CondBranch);
constexpr unsigned kUncondIndirect =
    static_cast<unsigned>(InstClass::UncondIndirect);

/** Feed records [begin, end) to one path register. */
void
walkPath(ShapeRegister &reg, std::uint32_t classes, unsigned low,
         std::uint64_t mask, const Addr *pc, const std::uint8_t *meta,
         std::size_t begin, std::size_t end)
{
    if (reg.single()) {
        // Branch-free: the filtered-out records select the old value.
        const unsigned shift = reg.shift;
        const std::uint64_t top = reg.topMask;
        std::uint64_t w = reg.words[0];
        for (std::size_t i = begin; i < end; ++i) {
            const std::uint64_t next =
                ((w << shift) | ((pc[i] >> low) & mask)) & top;
            w = ((classes >> clsOf(meta[i])) & 1) ? next : w;
        }
        reg.words[0] = w;
        return;
    }
    for (std::size_t i = begin; i < end; ++i) {
        if ((classes >> clsOf(meta[i])) & 1)
            reg.pushWide((pc[i] >> low) & mask);
    }
}

/** Feed records [begin, end) to one branch-slice register pair. */
void
walkBranch(ShapeRegister &cond, ShapeRegister &uncond, unsigned low,
           std::uint64_t mask, const Addr *pc, const std::uint8_t *meta,
           std::size_t begin, std::size_t end)
{
    if (cond.single()) {
        // Both registers share the shape's width, so both are single.
        const unsigned shift = cond.shift;
        const std::uint64_t top = cond.topMask;
        std::uint64_t c = cond.words[0];
        std::uint64_t u = uncond.words[0];
        for (std::size_t i = begin; i < end; ++i) {
            const unsigned cls = clsOf(meta[i]);
            const std::uint64_t value = (pc[i] >> low) & mask;
            const std::uint64_t next_c = ((c << shift) | value) & top;
            const std::uint64_t next_u = ((u << shift) | value) & top;
            c = cls == kCond ? next_c : c;
            u = cls == kUncondIndirect ? next_u : u;
        }
        cond.words[0] = c;
        uncond.words[0] = u;
        return;
    }
    for (std::size_t i = begin; i < end; ++i) {
        const unsigned cls = clsOf(meta[i]);
        if (cls == kCond)
            cond.pushWide((pc[i] >> low) & mask);
        else if (cls == kUncondIndirect)
            uncond.pushWide((pc[i] >> low) & mask);
    }
}

/**
 * Feed records [begin, end) to one GHRP global history register:
 * GhrpPolicy::onBranchRetired's outcome bit plus branch-address bits
 * per retired conditional branch.
 */
void
walkGhrp(std::uint64_t &hist, unsigned shift, const Addr *pc,
         const std::uint8_t *meta, std::size_t begin, std::size_t end)
{
    std::uint64_t h = hist;
    for (std::size_t i = begin; i < end; ++i) {
        const std::uint64_t event =
            (bits(pc[i], shift, 2) << 1) |
            ((meta[i] & ColumnarTrace::kTakenBit) ? 1 : 0);
        const std::uint64_t next = (h << shift) | event;
        h = clsOf(meta[i]) == kCond ? next : h;
    }
    hist = h;
}

} // namespace

std::size_t
ReplayStreamPlan::addSignature(const HistoryConfig &history,
                               unsigned signature_bits)
{
    for (std::size_t s = 0; s < sigs_.size(); ++s) {
        if (sigs_[s].history == history &&
            sigs_[s].signatureBits == signature_bits)
            return s;
    }
    if (history.pathEvents == 0 || history.branchEvents == 0 ||
        history.pathPcBits + history.pathZeroBits == 0 ||
        history.pathPcBits + history.pathZeroBits > 32 ||
        history.branchPcBits == 0 || history.branchPcBits > 32 ||
        signature_bits == 0 || signature_bits >= 64)
        chirp_fatal("replay streams: unsupported history shape");

    SigSpec spec{history, signature_bits, kNoShape, kNoShape};
    std::size_t p = 0;
    while (p < paths_.size() &&
           !(paths_[p].filter == history.pathFilter &&
             paths_[p].pcBits == history.pathPcBits &&
             paths_[p].pcLowBit == history.pathPcLowBit &&
             paths_[p].zeroBits == history.pathZeroBits))
        ++p;
    if (p == paths_.size()) {
        paths_.push_back({history.pathFilter, history.pathPcBits,
                          history.pathPcLowBit, history.pathZeroBits, 0});
    }
    paths_[p].events = std::max(paths_[p].events, history.pathEvents);
    spec.path = p;

    if (history.useCondHist || history.useUncondHist) {
        std::size_t b = 0;
        while (b < branches_.size() &&
               !(branches_[b].pcLowBit == history.branchPcLowBit &&
                 branches_[b].pcBits == history.branchPcBits))
            ++b;
        if (b == branches_.size()) {
            branches_.push_back(
                {history.branchPcLowBit, history.branchPcBits, 0});
        }
        branches_[b].events =
            std::max(branches_[b].events, history.branchEvents);
        spec.branch = b;
    }
    sigs_.push_back(spec);
    return sigs_.size() - 1;
}

std::size_t
ReplayStreamPlan::addGhrp(unsigned history_shift)
{
    const auto it =
        std::find(ghrpShifts_.begin(), ghrpShifts_.end(), history_shift);
    if (it != ghrpShifts_.end())
        return static_cast<std::size_t>(it - ghrpShifts_.begin());
    ghrpShifts_.push_back(history_shift);
    return ghrpShifts_.size() - 1;
}

ReplayStreams
ReplayStreamPlan::compute(const ColumnarTrace &records,
                          const std::vector<L2Event> &events) const
{
    ReplayStreams out;
    out.sigs.assign(sigs_.size(),
                    std::vector<std::uint16_t>(events.size()));
    out.ghrp.assign(ghrpShifts_.size(),
                    std::vector<std::uint64_t>(events.size()));
    if (empty() || events.empty())
        return out;

    // Registers first, views second: views point into the registers'
    // word arrays, which must not move afterwards.
    std::vector<ShapeRegister> path_regs;
    path_regs.reserve(paths_.size());
    for (const PathShape &shape : paths_)
        path_regs.emplace_back(shape.events,
                               shape.pcBits + shape.zeroBits);
    std::vector<ShapeRegister> cond_regs;
    std::vector<ShapeRegister> uncond_regs;
    cond_regs.reserve(branches_.size());
    uncond_regs.reserve(branches_.size());
    for (const BranchShape &shape : branches_) {
        cond_regs.emplace_back(shape.events, shape.pcBits);
        uncond_regs.emplace_back(shape.events, shape.pcBits);
    }
    std::vector<std::uint64_t> ghist(ghrpShifts_.size(), 0);

    struct SigViews
    {
        FoldView path;
        FoldView cond;
        FoldView uncond;
        bool useCond;
        bool useUncond;
        unsigned signatureBits;
    };
    std::vector<SigViews> views;
    views.reserve(sigs_.size());
    for (const SigSpec &spec : sigs_) {
        SigViews view{};
        view.path = FoldView(path_regs[spec.path], spec.history.pathEvents);
        if (spec.branch != kNoShape) {
            view.cond = FoldView(cond_regs[spec.branch],
                                 spec.history.branchEvents);
            view.uncond = FoldView(uncond_regs[spec.branch],
                                   spec.history.branchEvents);
        }
        view.useCond = spec.history.useCondHist;
        view.useUncond = spec.history.useUncondHist;
        view.signatureBits = spec.signatureBits;
        views.push_back(view);
    }

    std::vector<std::uint32_t> path_classes;
    for (const PathShape &shape : paths_)
        path_classes.push_back(filterClasses(shape.filter));

    // Only the pc and meta columns feed the histories.  Records are
    // consumed in the segments between consecutive events; records
    // after the last event can no longer matter.
    const Addr *pcs = records.pc();
    const std::uint8_t *meta = records.meta();
    std::size_t next = 0;
    for (std::size_t e = 0; e < events.size(); ++e) {
        const std::size_t stop = static_cast<std::size_t>(
            std::min<std::uint64_t>(events[e].now, records.size()));
        if (stop > next) {
            for (std::size_t p = 0; p < paths_.size(); ++p) {
                walkPath(path_regs[p], path_classes[p], paths_[p].pcLowBit,
                         maskBits(paths_[p].pcBits), pcs, meta, next,
                         stop);
            }
            for (std::size_t b = 0; b < branches_.size(); ++b) {
                walkBranch(cond_regs[b], uncond_regs[b],
                           branches_[b].pcLowBit,
                           maskBits(branches_[b].pcBits), pcs, meta, next,
                           stop);
            }
            for (std::size_t g = 0; g < ghrpShifts_.size(); ++g)
                walkGhrp(ghist[g], ghrpShifts_[g], pcs, meta, next, stop);
            next = stop;
        }
        const std::uint64_t pc_sig = events[e].pc >> 2;
        for (std::size_t s = 0; s < views.size(); ++s) {
            const SigViews &view = views[s];
            std::uint64_t sign = pc_sig ^ view.path.fold();
            if (view.useCond)
                sign ^= view.cond.fold();
            if (view.useUncond)
                sign ^= view.uncond.fold();
            out.sigs[s][e] = static_cast<std::uint16_t>(
                foldXor(sign, view.signatureBits));
        }
        for (std::size_t g = 0; g < ghist.size(); ++g)
            out.ghrp[g][e] = ghist[g];
    }
    return out;
}

} // namespace chirp
