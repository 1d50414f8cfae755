#include "support/reference_sim.hh"

#include "core/lru.hh"
#include "support/reference_cache.hh"
#include "tlb/tlb.hh"
#include "util/logging.hh"

namespace chirp
{

namespace
{

/** Every reference run is one process under ASID 1, as in Simulator. */
constexpr Asid kAsid = 1;

/** One TLB level: a flat way array and a policy behind a reference. */
class RefTlb
{
  public:
    RefTlb(const TlbConfig &config, ReplacementPolicy &policy)
        : sets_(config.entries / config.assoc), assoc_(config.assoc),
          ways_(static_cast<std::size_t>(sets_) * assoc_),
          policy_(policy)
    {
    }

    /** Hit/miss with the hook order the policy interface documents. */
    bool
    access(const AccessInfo &info, std::uint64_t now, unsigned page_shift)
    {
        ++accesses;
        const Addr key = Tlb::keyOf(info.vaddr, kAsid, page_shift);
        const auto set = static_cast<std::uint32_t>(key % sets_);
        const Addr tag = key / sets_;
        ReplacementPolicy &policy = policy_;
        policy.onAccessBegin(info);
        for (std::uint32_t way = 0; way < assoc_; ++way) {
            Way &entry = at(set, way);
            if (entry.valid && entry.tag == tag) {
                ++hits;
                entry.lastHit = now;
                policy.onHit(set, way, info);
                policy.onAccessEnd(set, info);
                return true;
            }
        }
        ++misses;
        std::uint32_t way = 0;
        while (way < assoc_ && at(set, way).valid)
            ++way;
        if (way == assoc_) {
            way = policy.selectVictim(set, info);
            if (way >= assoc_)
                chirp_panic("policy '", policy.name(), "' chose way ", way);
            const Way &victim = at(set, way);
            efficiency.recordGeneration(victim.fill, victim.lastHit, now);
        }
        at(set, way) = {true, tag, now, now};
        policy.onFill(set, way, info);
        policy.onAccessEnd(set, info);
        return false;
    }

    /** Close out the generations still resident at @p now. */
    void
    finalize(std::uint64_t now)
    {
        for (const Way &entry : ways_) {
            if (entry.valid)
                efficiency.recordGeneration(entry.fill, entry.lastHit,
                                            now);
        }
    }

    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    EfficiencyTracker efficiency;

  private:
    struct Way
    {
        bool valid = false;
        Addr tag = 0;
        std::uint64_t fill = 0;
        std::uint64_t lastHit = 0;
    };

    Way &at(std::uint32_t set, std::uint32_t way)
    {
        return ways_[static_cast<std::size_t>(set) * assoc_ + way];
    }

    std::uint32_t sets_;
    std::uint32_t assoc_;
    std::vector<Way> ways_;
    ReplacementPolicy &policy_;
};

} // namespace

ReferenceSim::ReferenceSim(const SimConfig &config,
                           std::unique_ptr<ReplacementPolicy> l2_policy)
    : config_(config), l2Policy_(std::move(l2_policy)),
      branch_(config.branch)
{
}

SimStats
ReferenceSim::run(const ColumnarTrace &trace)
{
    const TlbConfig &l1i_config = config_.tlbs.l1i;
    const TlbConfig &l1d_config = config_.tlbs.l1d;
    LruPolicy l1i_policy(l1i_config.entries / l1i_config.assoc,
                         l1i_config.assoc);
    LruPolicy l1d_policy(l1d_config.entries / l1d_config.assoc,
                         l1d_config.assoc);
    ReplacementPolicy &policy = *l2Policy_;
    policy.reset();
    const bool retire = policy.wantsRetireEvents();
    RefTlb l1i(l1i_config, l1i_policy);
    RefTlb l1d(l1d_config, l1d_policy);
    RefTlb l2(config_.tlbs.l2, policy);
    RefHierarchy caches(config_.caches);
    branch_.reset();
    Cycles walk_cycles = 0;
    // One translation; returns its stall beyond the hidden L1 hit.
    const auto translate = [&](const AccessInfo &info,
                               std::uint64_t now) -> Cycles {
        const unsigned shift =
            pageMap_ ? pageMap_->pageShiftFor(info.vaddr) : kPageShift;
        if ((info.isInstr ? l1i : l1d).access(info, now, shift))
            return 0;
        Cycles stall = config_.tlbs.l2.hitLatency;
        if (!l2.access(info, now, shift)) {
            stall += config_.pageWalkLatency;
            walk_cycles += config_.pageWalkLatency;
        }
        return stall;
    };

    const InstCount total = trace.size();
    const InstCount warmup = static_cast<InstCount>(
        static_cast<double>(total) * config_.warmupFraction);

    SimStats snap;
    bool snapped = warmup == 0;
    Cycles cycles = 0;
    const auto counters = [&] {
        SimStats now;
        now.cycles = cycles;
        now.l1iTlbAccesses = l1i.accesses;
        now.l1iTlbMisses = l1i.misses;
        now.l1dTlbAccesses = l1d.accesses;
        now.l1dTlbMisses = l1d.misses;
        now.l2TlbAccesses = l2.accesses;
        now.l2TlbHits = l2.hits;
        now.l2TlbMisses = l2.misses;
        now.branches = branch_.branches();
        now.branchMispredicts = branch_.mispredicts();
        now.tableReads = policy.tableReads();
        now.tableWrites = policy.tableWrites();
        now.walkCycles = walk_cycles;
        return now;
    };

    for (InstCount i = 0; i < total; ++i) {
        if (i == warmup && !snapped) {
            snap = counters();
            snapped = true;
        }
        const TraceRecord rec = trace.record(i);
        Cycles cost = 1;

        AccessInfo fetch;
        fetch.pc = rec.pc;
        fetch.vaddr = rec.pc;
        fetch.cls = rec.cls;
        fetch.isInstr = true;
        cost += translate(fetch, i);
        if (config_.simulateCaches)
            cost += caches.accessInstr(rec.pc);
        if (config_.simulateBranch && isBranch(rec.cls))
            cost += branch_.onBranch(rec);
        if (isMemory(rec.cls)) {
            AccessInfo data;
            data.pc = rec.pc;
            data.vaddr = rec.effAddr;
            data.cls = rec.cls;
            data.isInstr = false;
            cost += translate(data, i);
            if (config_.simulateCaches)
                cost += caches.accessData(rec.effAddr,
                                          rec.cls == InstClass::Store);
        }
        if (retire) {
            policy.onInstRetired(rec.pc, rec.cls);
            if (isBranch(rec.cls))
                policy.onBranchRetired(rec.pc, rec.cls, rec.taken);
        }
        cycles += cost;
    }
    l2.finalize(total);

    const SimStats end = counters();
    if (!snapped)
        snap = SimStats{}; // everything was warmup: measure it all
    SimStats stats;
    stats.instructions = snapped ? total - warmup : total;
    stats.warmupInstructions = warmup;
    stats.walkLatency = config_.pageWalkLatency;
    stats.cycles = end.cycles - snap.cycles;
    stats.l1iTlbAccesses = end.l1iTlbAccesses - snap.l1iTlbAccesses;
    stats.l1iTlbMisses = end.l1iTlbMisses - snap.l1iTlbMisses;
    stats.l1dTlbAccesses = end.l1dTlbAccesses - snap.l1dTlbAccesses;
    stats.l1dTlbMisses = end.l1dTlbMisses - snap.l1dTlbMisses;
    stats.l2TlbAccesses = end.l2TlbAccesses - snap.l2TlbAccesses;
    stats.l2TlbHits = end.l2TlbHits - snap.l2TlbHits;
    stats.l2TlbMisses = end.l2TlbMisses - snap.l2TlbMisses;
    stats.branches = end.branches - snap.branches;
    stats.branchMispredicts =
        end.branchMispredicts - snap.branchMispredicts;
    stats.tableReads = end.tableReads - snap.tableReads;
    stats.tableWrites = end.tableWrites - snap.tableWrites;
    stats.walkCycles = end.walkCycles - snap.walkCycles;
    stats.l2Efficiency = l2.efficiency.efficiency();
    return stats;
}

} // namespace chirp
