#include "sim/simulator.hh"

#include <algorithm>
#include <cstring>
#include <memory>

#include "trace/trace_store.hh"
#include "util/logging.hh"
#include "util/simd.hh"

namespace chirp
{

namespace
{

/**
 * Column scratch for one event chunk of the batched replay paths: the
 * gathered AccessInfos plus the vaddr/now/page-shift columns the key
 * precompute and the walker consume.
 */
struct EventChunk
{
    AccessInfo infos[kReplayBatch];
    Addr vaddrs[kReplayBatch];
    Addr keys[kReplayBatch];
    std::uint64_t nows[kReplayBatch];
    std::uint8_t shifts[kReplayBatch];
    std::uint8_t hits[kReplayBatch];

    /** Gather @p n events into columns and precompute their keys. */
    void
    gather(const L2Event *events, std::size_t n, Asid asid)
    {
        for (std::size_t j = 0; j < n; ++j) {
            const L2Event &event = events[j];
            AccessInfo &info = infos[j];
            info.pc = event.pc;
            info.vaddr = event.vaddr;
            info.cls = event.cls;
            info.isInstr = event.isInstr != 0;
            vaddrs[j] = event.vaddr;
            nows[j] = event.now;
            shifts[j] = event.pageShift;
        }
        Tlb::keysOf(vaddrs, shifts, n, asid, keys);
    }
};

/**
 * Feed @p walker from a chunk's miss lanes: chunks are hit-dominated,
 * so the scan jumps between the zero bytes of the hits column with
 * the SIMD first-clear kernel instead of testing every lane.  Walk
 * order (ascending j) is identical to the plain loop.
 */
void
walkMisses(PageWalker &walker, const std::uint8_t *hits,
           const Addr *vaddrs, std::size_t n)
{
    std::size_t j = simd::firstClearLane(hits, n);
    while (j < n) {
        walker.walk(vaddrs[j]);
        ++j;
        j += simd::firstClearLane(hits + j, n - j);
    }
}

/**
 * Column scratch for one record chunk of the batched full-pipeline
 * loop: separate i-side and d-side lanes (the d-side lane is compact
 * — only memory records contribute, in record order).
 */
struct StepChunk
{
    AccessInfo iinfos[kReplayBatch];
    Addr ivaddrs[kReplayBatch];
    Addr ikeys[kReplayBatch];
    std::uint64_t inows[kReplayBatch];
    std::uint8_t ishifts[kReplayBatch];
    std::uint8_t ihits[kReplayBatch];
    // Run-compressed i-side lane: runStart[r] is the first record of
    // run r (consecutive same-page fetches), and the i-side columns
    // above are then indexed per run, not per record.  ihits stays
    // per record.
    std::uint16_t irunStart[kReplayBatch];

    AccessInfo dinfos[kReplayBatch];
    Addr dvaddrs[kReplayBatch];
    Addr dkeys[kReplayBatch];
    std::uint64_t dnows[kReplayBatch];
    std::uint8_t dshifts[kReplayBatch];
    std::uint8_t dhits[kReplayBatch];

    // Transpose buffers for sources that only hand out row-major
    // records (generators, interleaved mixes): the chunk is scattered
    // into these columns once so the chunk runner itself is always
    // column-native.  The memory-backed fast path bypasses them and
    // points the runner straight at the shared trace's columns.
    Addr pcs[kReplayBatch];
    Addr eas[kReplayBatch];
    Addr tgs[kReplayBatch];
    std::uint8_t metas[kReplayBatch];
};

/** Build @p layer from @p config on first use; reset it after. */
template <typename Layer, typename Config>
Layer &
buildOrReset(std::unique_ptr<Layer> &layer, const Config &config)
{
    if (layer)
        layer->reset();
    else
        layer = std::make_unique<Layer>(config);
    return *layer;
}

} // namespace

Simulator::Simulator(const SimConfig &config,
                     std::unique_ptr<ReplacementPolicy> l2_policy)
    : config_(config)
{
    tlbs_ = std::make_unique<TlbHierarchy>(
        config.tlbs, std::move(l2_policy),
        std::make_unique<FixedLatencyWalker>(config.pageWalkLatency));
}

void
Simulator::checkCancelled() const
{
    if (cancel_ && cancel_->load(std::memory_order_relaxed)) {
        throw JobCancelled(
            "job cancelled: attempt exceeded --job-timeout");
    }
}

SimStats
Simulator::run(TraceSource &source)
{
    return runImpl({&source}, 0, false);
}

SimStats
Simulator::runInterleaved(const std::vector<TraceSource *> &sources,
                          InstCount quantum, bool flush_on_switch)
{
    if (sources.empty())
        chirp_fatal("runInterleaved needs at least one source");
    if (sources.size() > 1 && quantum == 0)
        chirp_fatal("multi-process runs need a nonzero quantum");
    return runImpl(sources, quantum, flush_on_switch);
}

SimStats
Simulator::replayL2(const ColumnarTrace &records,
                    const std::vector<L2Event> &events,
                    const SimStats &base)
{
    return replayL2Multi({this}, records, events, base).front();
}

std::vector<SimStats>
Simulator::replayL2Multi(const std::vector<Simulator *> &sims,
                         const ColumnarTrace &records,
                         const std::vector<L2Event> &events,
                         const SimStats &base)
{
    std::vector<SimStats> out(sims.size(), base);
    if (sims.empty())
        return out;

    const InstCount total = records.size();

    // Per-policy replay state: concrete pointers into one simulator
    // plus its warmup boundary and counter snapshot.
    struct Lane
    {
        TlbHierarchy *tlbs = nullptr;
        Tlb *l2 = nullptr;
        PageWalker *walker = nullptr;
        InstCount warmup = 0;
        bool snapped = false;
        std::uint64_t snapAcc = 0, snapHit = 0, snapMiss = 0;
        std::uint64_t snapReads = 0, snapWrites = 0;
        Cycles snapWalk = 0;
    };
    std::vector<Lane> lanes(sims.size());
    // Retire-blind lanes replay the (much shorter) event stream in
    // chunks; only lanes consuming retire events pay the per-record
    // walk.
    std::vector<Lane *> blind, walkers;
    for (std::size_t s = 0; s < sims.size(); ++s) {
        if (!sims[s])
            chirp_fatal("replayL2Multi: null simulator");
        Simulator &sim = *sims[s];
        sim.tlbs_->reset();
        Lane &lane = lanes[s];
        lane.tlbs = sim.tlbs_.get();
        lane.l2 = &sim.tlbs_->l2();
        lane.walker = &sim.tlbs_->walker();
        lane.warmup = static_cast<InstCount>(
            static_cast<double>(total) * sim.config_.warmupFraction);
        // A CHiRP instance fed a precomputed signature stream — or a
        // GHRP instance fed a precomputed history stream — consumes
        // nothing from the retire stream: the stream already encodes
        // the history evolution.
        bool wants = lane.l2->policy().wantsRetireEvents();
        if (wants) {
            if (const auto *streamed = dynamic_cast<const ChirpPolicy *>(
                    &lane.l2->policy());
                streamed && streamed->hasSignatureStream())
                wants = false;
            if (const auto *streamed = dynamic_cast<const GhrpPolicy *>(
                    &lane.l2->policy());
                streamed && streamed->hasHistoryStream())
                wants = false;
        }
        (wants ? walkers : blind).push_back(&lane);
    }

    const auto checkCancelled = [&] {
        for (const Simulator *sim : sims)
            sim->checkCancelled();
    };
    // Policy-dependent counter values at the warmup boundary (all zero
    // when the whole run is measured), mirroring runImpl's snapshot,
    // which is taken just before record `warmup` executes: events of
    // that record carry now == warmup and land after it.
    const auto snapshot = [](Lane &lane) {
        lane.snapAcc = lane.l2->accesses();
        lane.snapHit = lane.l2->hits();
        lane.snapMiss = lane.l2->misses();
        lane.snapReads = lane.l2->policy().tableReads();
        lane.snapWrites = lane.l2->policy().tableWrites();
        lane.snapWalk = lane.walker->totalCycles();
        lane.snapped = true;
    };

    if (!blind.empty()) {
        // Gather each event chunk's columns once (shared by all blind
        // lanes, key column precomputed by the simd kernel), then run
        // each lane's accesses through the batch entry and feed its
        // walker from the chunk's miss lanes.  accessBatch is
        // sequential-equivalent and the walker is latency-accounting
        // only, so every counter matches one access at a time.  A
        // lane whose warmup boundary falls inside the chunk splits its
        // batch there, so the snapshot sees exactly the pre-boundary
        // counters.
        auto chunk = std::make_unique<EventChunk>();
        for (std::size_t lo = 0; lo < events.size();
             lo += kReplayBatch) {
            const std::size_t n =
                std::min<std::size_t>(kReplayBatch, events.size() - lo);
            checkCancelled();
            chunk->gather(events.data() + lo, n, /*asid=*/1);
            for (Lane *plane : blind) {
                Lane &lane = *plane;
                const auto deliverPart = [&](std::size_t a,
                                             std::size_t b) {
                    if (a >= b)
                        return;
                    lane.l2->accessBatch(chunk->infos + a,
                                         chunk->keys + a,
                                         chunk->nows + a, b - a,
                                         /*asid=*/1, chunk->hits + a);
                    walkMisses(*lane.walker, chunk->hits + a,
                               chunk->vaddrs + a, b - a);
                };
                std::size_t cut = n;
                if (!lane.snapped && lane.warmup > 0 &&
                    lane.warmup < total &&
                    events[lo + n - 1].now >= lane.warmup) {
                    cut = 0;
                    while (cut < n && events[lo + cut].now < lane.warmup)
                        ++cut;
                }
                if (cut < n) {
                    deliverPart(0, cut);
                    snapshot(lane);
                    deliverPart(cut, n);
                } else {
                    deliverPart(0, n);
                }
            }
        }
        // A boundary beyond the last event snapshots after every
        // pre-boundary event was delivered.
        for (Lane *lane : blind) {
            if (!lane->snapped && lane->warmup > 0 && lane->warmup < total)
                snapshot(*lane);
        }
    }

    if (!walkers.empty()) {
        // The record walk: every translation of a record precedes its
        // retire hooks, as in the full pipeline.
        std::size_t e = 0;
        for (InstCount i = 0; i < total; ++i) {
            if ((i & 0xfff) == 0)
                checkCancelled();
            for (Lane *lane : walkers) {
                if (i == lane->warmup && lane->warmup != 0)
                    snapshot(*lane);
            }
            for (; e < events.size() && events[e].now == i; ++e) {
                const L2Event &event = events[e];
                AccessInfo info;
                info.pc = event.pc;
                info.vaddr = event.vaddr;
                info.cls = event.cls;
                info.isInstr = event.isInstr != 0;
                for (Lane *lane : walkers) {
                    if (!lane->l2->access(info, /*asid=*/1, event.now,
                                          event.pageShift))
                        lane->walker->walk(event.vaddr);
                }
            }
            const Addr pc = records.pc()[i];
            const InstClass cls = records.cls(i);
            const bool branch = isBranch(cls);
            for (Lane *lane : walkers) {
                lane->tlbs->onInstRetired(pc, cls);
                if (branch)
                    lane->tlbs->onBranchRetired(pc, cls,
                                                records.taken(i));
            }
        }
    }

    for (std::size_t s = 0; s < sims.size(); ++s) {
        Lane &lane = lanes[s];
        lane.tlbs->finalizeEfficiency(total);
        SimStats &stats = out[s];
        stats.l2TlbAccesses = lane.l2->accesses() - lane.snapAcc;
        stats.l2TlbHits = lane.l2->hits() - lane.snapHit;
        stats.l2TlbMisses = lane.l2->misses() - lane.snapMiss;
        stats.tableReads =
            lane.l2->policy().tableReads() - lane.snapReads;
        stats.tableWrites =
            lane.l2->policy().tableWrites() - lane.snapWrites;
        stats.walkCycles = lane.walker->totalCycles() - lane.snapWalk;
        // Every record costs the same under every policy except for
        // the L2-dependent stalls: hitLatency per L2 access plus the
        // page walks.  Swap the recording run's contribution for this
        // one's.
        const Cycles hitLat = sims[s]->config_.tlbs.l2.hitLatency;
        stats.cycles = base.cycles - hitLat * base.l2TlbAccesses -
                       base.walkCycles + hitLat * stats.l2TlbAccesses +
                       stats.walkCycles;
        stats.l2Efficiency = lane.l2->efficiency().efficiency();
    }
    return out;
}

SimStats
Simulator::runImpl(const std::vector<TraceSource *> &sources,
                   InstCount quantum, bool flush_on_switch)
{
    for (TraceSource *source : sources)
        source->reset();
    tlbs_->reset();
    // A fresh layer equals a reset one, so building on first use
    // changes no result; runs that skip a layer leave it null.
    CacheHierarchy *caches = config_.simulateCaches
                                 ? &buildOrReset(caches_, config_.caches)
                                 : nullptr;
    BranchUnit *branch = config_.simulateBranch
                             ? &buildOrReset(branch_, config_.branch)
                             : nullptr;

    InstCount expected = 0;
    for (const TraceSource *source : sources)
        expected += source->expectedLength();
    const InstCount warmup = static_cast<InstCount>(
        static_cast<double>(expected) * config_.warmupFraction);

    SimStats stats;
    stats.walkLatency = config_.pageWalkLatency;
    stats.warmupInstructions = warmup;

    // Counter snapshots taken at the warmup boundary; measured-phase
    // numbers are the difference against the end of the run.
    struct Snapshot
    {
        Cycles cycles = 0;
        std::uint64_t l1iAcc = 0, l1iMiss = 0;
        std::uint64_t l1dAcc = 0, l1dMiss = 0;
        std::uint64_t l2Acc = 0, l2Hit = 0, l2Miss = 0;
        std::uint64_t branches = 0, mispredicts = 0;
        std::uint64_t tReads = 0, tWrites = 0;
        Cycles walkCycles = 0;
    } snap;
    bool snapped = (warmup == 0);

    Cycles cycles = 0;
    InstCount retired = 0;
    const auto takeSnapshot = [&]() {
        snap.cycles = cycles;
        snap.l1iAcc = tlbs_->l1i().accesses();
        snap.l1iMiss = tlbs_->l1i().misses();
        snap.l1dAcc = tlbs_->l1d().accesses();
        snap.l1dMiss = tlbs_->l1d().misses();
        snap.l2Acc = tlbs_->l2().accesses();
        snap.l2Hit = tlbs_->l2().hits();
        snap.l2Miss = tlbs_->l2().misses();
        snap.branches = branch ? branch->branches() : 0;
        snap.mispredicts = branch ? branch->mispredicts() : 0;
        snap.tReads = tlbs_->l2().policy().tableReads();
        snap.tWrites = tlbs_->l2().policy().tableWrites();
        snap.walkCycles = tlbs_->walker().totalCycles();
        snapped = true;
    };
    std::size_t active = 0;
    InstCount quantum_left = quantum;
    std::vector<bool> done(sources.size(), false);
    std::size_t live_sources = sources.size();
    activeAsid_ = static_cast<Asid>(active + 1);
    // Records are pulled in fixed-size chunks so the per-record
    // virtual dispatch (and, for memory-backed sources, all generator
    // branching) stays out of the instruction loop.  Chunks never
    // cross a context-switch boundary, so the interleaving schedule
    // is identical to the old one-record pull.
    TraceRecord batch[kReplayBatch];

    // Each chunk runs an L1-TLB pre-pass (both L1 TLBs are plain LRU
    // and evolve independently of everything below them, so their
    // lookups batch safely), then assembles costs per record in
    // original order, descending to the shared L2/walker and caches
    // only where the pre-pass recorded a miss.  Chunks are split at
    // the warmup boundary so the snapshot below observes exactly the
    // pre-boundary counters.
    auto scratch = std::make_unique<StepChunk>();
    const auto runChunk = [&](const Addr *pc, const Addr *ea,
                              const Addr *tg, const std::uint8_t *meta,
                              std::size_t m,
                              std::uint64_t base_now) -> Cycles {
        StepChunk &c = *scratch;
        // Pass A: i-side L1 lookups for the whole chunk.  Sequential
        // fetch makes the i-stream long runs of same-page addresses;
        // with the plain-LRU L1i every post-first access of a run is
        // a provable repeat hit, so each run lowers to one
        // accessRun() probe plus bulk accounting.
        std::size_t nr = 0;
        for (std::size_t j = 0; j < m;) {
            const Addr page = pc[j] >> kPageShift;
            std::size_t k = j + 1;
            while (k < m && (pc[k] >> kPageShift) == page)
                ++k;
            AccessInfo &info = c.iinfos[nr];
            info.pc = pc[j];
            info.vaddr = pc[j];
            info.cls = static_cast<InstClass>(
                meta[j] & ColumnarTrace::kClsMask);
            info.isInstr = true;
            c.ivaddrs[nr] = pc[j];
            c.inows[nr] = base_now + j;
            c.ishifts[nr] = static_cast<std::uint8_t>(
                tlbs_->pageShiftFor(pc[j]));
            c.irunStart[nr] = static_cast<std::uint16_t>(j);
            ++nr;
            j = k;
        }
        Tlb::keysOf(c.ivaddrs, c.ishifts, nr, activeAsid_, c.ikeys);
        Tlb &l1i = tlbs_->l1i();
        for (std::size_t r = 0; r < nr; ++r) {
            const std::size_t start = c.irunStart[r];
            const std::size_t len =
                (r + 1 < nr ? c.irunStart[r + 1] : m) - start;
            c.ihits[start] = l1i.accessRun(c.iinfos[r], c.ikeys[r],
                                           activeAsid_, c.inows[r], len)
                                 ? 1
                                 : 0;
            // Post-first accesses of a run always hit.
            std::memset(c.ihits + start + 1, 1, len - 1);
        }
        // Pass B: d-side L1 lookups for the chunk's memory records.
        std::size_t nd = 0;
        for (std::size_t j = 0; j < m; ++j) {
            const InstClass cls = static_cast<InstClass>(
                meta[j] & ColumnarTrace::kClsMask);
            if (!isMemory(cls))
                continue;
            AccessInfo &info = c.dinfos[nd];
            info.pc = pc[j];
            info.vaddr = ea[j];
            info.cls = cls;
            info.isInstr = false;
            c.dvaddrs[nd] = ea[j];
            c.dnows[nd] = base_now + j;
            c.dshifts[nd] = static_cast<std::uint8_t>(
                tlbs_->pageShiftFor(ea[j]));
            ++nd;
        }
        Tlb::keysOf(c.dvaddrs, c.dshifts, nd, activeAsid_, c.dkeys);
        tlbs_->l1d().accessBatch(c.dinfos, c.dkeys, c.dnows, nd,
                                 activeAsid_, c.dhits);
        // Pass C: per-record cost assembly in original order; the
        // shared structures below the L1s (L2 TLB, walker, caches,
        // branch unit, retire hooks) see each record's i-side
        // translation, i-fetch, branch, d-side translation, d-access
        // and retire hooks in exactly that order.
        Cycles cost = 0;
        std::size_t d = 0;
        for (std::size_t j = 0; j < m; ++j) {
            const InstClass cls = static_cast<InstClass>(
                meta[j] & ColumnarTrace::kClsMask);
            const bool taken = (meta[j] & ColumnarTrace::kTakenBit) != 0;
            const std::uint64_t now = base_now + j;
            cost += 1;
            if (!c.ihits[j]) {
                // Misses are rare (and, in run-compressed mode, only
                // land on run starts), so the access info is rebuilt
                // here instead of being staged per record in Pass A.
                AccessInfo info;
                info.pc = pc[j];
                info.vaddr = pc[j];
                info.cls = cls;
                info.isInstr = true;
                cost += tlbs_->translateL1Miss(
                    info, activeAsid_, now,
                    static_cast<unsigned>(tlbs_->pageShiftFor(pc[j])));
            }
            if (caches)
                cost += caches->accessInstr(pc[j]);
            if (branch && isBranch(cls)) {
                TraceRecord rec;
                rec.pc = pc[j];
                rec.effAddr = ea[j];
                rec.target = tg[j];
                rec.cls = cls;
                rec.taken = taken;
                cost += branch->onBranch(rec);
            }
            if (isMemory(cls)) {
                if (!c.dhits[d]) {
                    cost += tlbs_->translateL1Miss(
                        c.dinfos[d], activeAsid_, now, c.dshifts[d]);
                }
                if (caches)
                    cost += caches->accessData(ea[j],
                                               cls == InstClass::Store);
                ++d;
            }
            tlbs_->onInstRetired(pc[j], cls);
            if (isBranch(cls))
                tlbs_->onBranchRetired(pc[j], cls, taken);
        }
        return cost;
    };

    // Zero-copy fast path: a single memory-backed source is driven
    // straight off the shared trace's columns
    // — no per-chunk gather into row-major records and no transpose
    // back into column scratch.  Context-switch scheduling never
    // applies to a single source, so only the warmup clamp and the
    // cancellation poll survive from the generic loop.
    MemoryTraceSource *mem =
        sources.size() == 1
            ? dynamic_cast<MemoryTraceSource *>(sources[0])
            : nullptr;
    if (mem) {
        const ColumnarTrace &trace = *mem->records();
        const std::size_t n = trace.size();
        std::size_t pos = 0;
        while (pos < n) {
            checkCancelled();
            if (!snapped && retired >= warmup)
                takeSnapshot();
            std::size_t m = std::min<std::size_t>(kReplayBatch, n - pos);
            if (!snapped && retired + m > warmup)
                m = static_cast<std::size_t>(warmup - retired);
            cycles += runChunk(trace.pc() + pos, trace.effAddr() + pos,
                               trace.target() + pos, trace.meta() + pos,
                               m, retired);
            retired += m;
            pos += m;
        }
        live_sources = 0;
    }

    while (live_sources > 0) {
        // One relaxed load per 256-record batch: cheap enough to be
        // invisible, frequent enough that a fired --job-timeout
        // abandons the run within microseconds.
        checkCancelled();
        // Round-robin context switches every `quantum` instructions.
        if (sources.size() > 1 && quantum_left == 0) {
            std::size_t next = active;
            do {
                next = (next + 1) % sources.size();
            } while (done[next]);
            if (next != active && flush_on_switch) {
                // Non-ASID hardware invalidates translations on a
                // context switch (the switch's other costs are not
                // modeled).
                tlbs_->l1i().flushAll(retired);
                tlbs_->l1d().flushAll(retired);
                tlbs_->l2().flushAll(retired);
            }
            active = next;
            activeAsid_ = static_cast<Asid>(active + 1);
            quantum_left = quantum;
        }
        std::size_t want = kReplayBatch;
        if (sources.size() > 1)
            want = static_cast<std::size_t>(
                std::min<InstCount>(want, quantum_left));
        const std::size_t got = sources[active]->nextBatch(batch, want);
        if (got == 0) {
            done[active] = true;
            --live_sources;
            quantum_left = 0;
            continue;
        }
        if (sources.size() > 1)
            quantum_left -= got;
        std::size_t done = 0;
        while (done < got) {
            if (!snapped && retired >= warmup)
                takeSnapshot();
            // Clamp the sub-chunk to the warmup boundary so the next
            // pass of this loop snapshots exactly there.
            std::size_t m = got - done;
            if (!snapped && retired + m > warmup)
                m = static_cast<std::size_t>(warmup - retired);
            StepChunk &c = *scratch;
            for (std::size_t j = 0; j < m; ++j) {
                const TraceRecord &rec = batch[done + j];
                c.pcs[j] = rec.pc;
                c.eas[j] = rec.effAddr;
                c.tgs[j] = rec.target;
                c.metas[j] = ColumnarTrace::packMeta(rec.cls, rec.taken);
            }
            cycles += runChunk(c.pcs, c.eas, c.tgs, c.metas, m, retired);
            retired += m;
            done += m;
        }
    }
    if (!snapped) {
        // Degenerate short trace: everything is warmup; measure all.
        snap = Snapshot{};
    }

    tlbs_->finalizeEfficiency(retired);

    stats.instructions = retired - (snapped ? warmup : 0);
    if (retired < warmup)
        stats.instructions = retired;
    stats.cycles = cycles - snap.cycles;
    stats.l1iTlbAccesses = tlbs_->l1i().accesses() - snap.l1iAcc;
    stats.l1iTlbMisses = tlbs_->l1i().misses() - snap.l1iMiss;
    stats.l1dTlbAccesses = tlbs_->l1d().accesses() - snap.l1dAcc;
    stats.l1dTlbMisses = tlbs_->l1d().misses() - snap.l1dMiss;
    stats.l2TlbAccesses = tlbs_->l2().accesses() - snap.l2Acc;
    stats.l2TlbHits = tlbs_->l2().hits() - snap.l2Hit;
    stats.l2TlbMisses = tlbs_->l2().misses() - snap.l2Miss;
    if (branch) {
        stats.branches = branch->branches() - snap.branches;
        stats.branchMispredicts = branch->mispredicts() - snap.mispredicts;
    }
    stats.tableReads = tlbs_->l2().policy().tableReads() - snap.tReads;
    stats.tableWrites = tlbs_->l2().policy().tableWrites() - snap.tWrites;
    stats.walkCycles = tlbs_->walker().totalCycles() - snap.walkCycles;
    stats.l2Efficiency = tlbs_->l2().efficiency().efficiency();
    return stats;
}

} // namespace chirp
