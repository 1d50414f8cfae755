#include "mem/cache_hierarchy.hh"

#include <algorithm>

namespace chirp
{

CacheHierarchy::CacheHierarchy(const CacheHierarchyConfig &config)
    : config_(config), l1i_(config.l1i), l1d_(config.l1d), l2_(config.l2),
      l3_(config.l3)
{
}

Cycles
CacheHierarchy::missBeyondL1(Addr addr, bool write)
{
    if (l2_.access(addr, write))
        return l2_.latency();
    if (l3_.access(addr, write))
        return l2_.latency() + l3_.latency();
    return l2_.latency() + l3_.latency() + config_.dramLatency;
}

void
CacheHierarchy::prefetchAfterMiss(Cache &l1, Addr addr)
{
    if (!config_.nextLinePrefetch)
        return;
    // Stay inside the page: a cross-page prefetch would need its own
    // translation, which hardware prefetchers avoid.  Line d sits
    // d * line_bytes past addr, so the run is bounded once by the
    // whole lines left between addr and the end of its page.
    const Addr line_bytes = config_.l2.lineBytes;
    const Addr in_page = (kPageOffsetMask - (addr & kPageOffsetMask)) >>
                         floorLog2(line_bytes);
    const Addr degree = std::min<Addr>(config_.prefetchDegree, in_page);
    Addr next = addr;
    for (Addr d = 0; d < degree; ++d) {
        next += line_bytes;
        // A line already in L1 is skipped; otherwise it is filled at
        // every level it is missing from, each with one set scan.
        // Prefetch latency is overlapped with the demand miss.
        if (l1.fillIfAbsent(next))
            continue;
        l2_.fillIfAbsent(next);
        l3_.fillIfAbsent(next);
        ++prefetches_;
    }
}

Cycles
CacheHierarchy::accessInstr(Addr pc)
{
    if (l1i_.access(pc, false))
        return 0; // L1 hit latency is hidden by the pipeline
    const Cycles stall = missBeyondL1(pc, false);
    prefetchAfterMiss(l1i_, pc);
    return stall;
}

Cycles
CacheHierarchy::accessData(Addr addr, bool write)
{
    if (l1d_.access(addr, write))
        return 0;
    const Cycles stall = missBeyondL1(addr, write);
    prefetchAfterMiss(l1d_, addr);
    return stall;
}

void
CacheHierarchy::reset()
{
    l1i_.reset();
    l1d_.reset();
    l2_.reset();
    l3_.reset();
    prefetches_ = 0;
}

} // namespace chirp
