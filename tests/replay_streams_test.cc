/**
 * @file
 * The replay-stream walk keeps one register per history shape and
 * derives every configuration's fold from it.  Each derived stream
 * must equal what a per-configuration reference produces: a
 * ControlFlowHistory fed the retire stream through the path filter
 * for CHiRP signatures, a live GhrpPolicy register for GHRP.  And a
 * runSuiteMulti sweep built on those streams must equal plain
 * per-policy Simulator::run results.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/ghrp.hh"
#include "core/history.hh"
#include "core/policy_factory.hh"
#include "sim/replay_streams.hh"
#include "sim/run_journal.hh"
#include "sim/runner.hh"
#include "sim/simulator.hh"
#include "trace/ingest/ingest.hh"
#include "util/bitfield.hh"
#include "util/random.hh"

namespace chirp
{
namespace
{

struct SigRequest
{
    HistoryConfig history;
    unsigned signatureBits;
};

/** Reference: one ControlFlowHistory per configuration. */
std::vector<std::uint16_t>
referenceSignatures(const SigRequest &req, const ColumnarTrace &records,
                    const std::vector<L2Event> &events)
{
    ControlFlowHistory hist(req.history);
    std::vector<std::uint16_t> out;
    std::size_t e = 0;
    for (std::size_t i = 0; i < records.size() && e < events.size(); ++i) {
        for (; e < events.size() && events[e].now == i; ++e) {
            out.push_back(static_cast<std::uint16_t>(
                foldXor(hist.signature(events[e].pc), req.signatureBits)));
        }
        const Addr pc = records.pc()[i];
        const InstClass cls = records.cls(i);
        const PathFilter filter = req.history.pathFilter;
        if (filter == PathFilter::All ||
            (filter == PathFilter::Memory && isMemory(cls)) ||
            (filter == PathFilter::Branch && isBranch(cls)))
            hist.onAccess(pc);
        if (cls == InstClass::CondBranch)
            hist.onCondBranch(pc);
        else if (cls == InstClass::UncondIndirect)
            hist.onUncondIndirectBranch(pc);
    }
    return out;
}

/** Reference: a live GhrpPolicy fed every retired branch. */
std::vector<std::uint64_t>
referenceGhrp(unsigned shift, const ColumnarTrace &records,
              const std::vector<L2Event> &events)
{
    GhrpConfig config;
    config.historyShift = shift;
    const auto ghrp = makeGhrp(16, 8, config);
    std::vector<std::uint64_t> out;
    std::size_t e = 0;
    for (std::size_t i = 0; i < records.size() && e < events.size(); ++i) {
        for (; e < events.size() && events[e].now == i; ++e)
            out.push_back(ghrp->history());
        ghrp->onBranchRetired(records.pc()[i], records.cls(i),
                              records.taken(i));
    }
    return out;
}

/**
 * Random history configurations drawn from small pools, so several
 * share a path or branch shape and differ only in their lengths.
 */
std::vector<SigRequest>
randomRequests(Rng &rng, std::size_t count)
{
    std::vector<SigRequest> reqs;
    for (std::size_t k = 0; k < count; ++k) {
        SigRequest req{};
        HistoryConfig &h = req.history;
        h.pathEvents = static_cast<unsigned>(rng.range(1, 40));
        h.pathFilter = static_cast<PathFilter>(rng.below(3));
        // 2+2 is the paper's slice; 3+2, 4+2 and 5+0 give shifts of
        // 5, 6 and 5 bits, none dividing 64; pathZeroBits 0 included.
        static const unsigned kPcBits[] = {2, 3, 4, 5};
        static const unsigned kZeroBits[] = {2, 2, 2, 0};
        const std::size_t slice = rng.below(4);
        h.pathPcBits = kPcBits[slice];
        h.pathZeroBits = kZeroBits[slice];
        h.pathPcLowBit = rng.chance(0.75) ? 2 : 0;
        h.useCondHist = rng.chance(0.7);
        h.useUncondHist = rng.chance(0.7);
        h.branchEvents = static_cast<unsigned>(rng.range(1, 12));
        h.branchPcBits = rng.chance(0.5) ? 8 : 7;
        h.branchPcLowBit = rng.chance(0.75) ? 4 : 3;
        static const unsigned kSigBits[] = {16, 12, 9};
        req.signatureBits = kSigBits[rng.below(3)];
        reqs.push_back(req);
    }
    return reqs;
}

/** A random record stream mixing every instruction class. */
SharedTrace
syntheticTrace(Rng &rng, std::size_t n)
{
    std::vector<TraceRecord> records(n);
    for (TraceRecord &rec : records) {
        rec.pc = 0x400000 + 4 * rng.below(1 << 14) + rng.below(4);
        rec.cls = static_cast<InstClass>(
            rng.below(static_cast<unsigned>(InstClass::NumClasses)));
        rec.taken = rng.chance(0.5);
    }
    return std::make_shared<const ColumnarTrace>(records);
}

/**
 * Random event indices, ordered, with repeats at one index, an event
 * at record 0 and a run of records after the last event.
 */
std::vector<L2Event>
syntheticEvents(Rng &rng, std::size_t records)
{
    std::vector<L2Event> events;
    std::uint64_t now = 0;
    while (now < records - records / 8) {
        L2Event event;
        event.now = now;
        event.pc = 0x400000 + 4 * rng.below(1 << 14);
        events.push_back(event);
        if (!rng.chance(0.15))
            now += rng.below(40);
    }
    return events;
}

/** The L2 event stream a recorder run of @p trace captures. */
std::vector<L2Event>
recordEvents(const SharedTrace &trace)
{
    SimConfig config;
    config.simulateCaches = false;
    config.simulateBranch = false;
    const std::uint32_t sets =
        config.tlbs.l2.entries / config.tlbs.l2.assoc;
    Simulator recorder(
        config, makePolicy(PolicyKind::Lru, sets, config.tlbs.l2.assoc));
    std::vector<L2Event> events;
    recorder.tlbs().setL2EventSink(&events);
    MemoryTraceSource source(trace, "recorded");
    recorder.run(source);
    return events;
}

const unsigned kGhrpShifts[] = {2, 3, 5, 7, 9};

/** Every stream of a plan over @p reqs against its reference. */
void
expectStreamsMatch(const std::vector<SigRequest> &reqs,
                   const ColumnarTrace &records,
                   const std::vector<L2Event> &events)
{
    ReplayStreamPlan plan;
    std::vector<std::size_t> sig_idx;
    for (const SigRequest &req : reqs)
        sig_idx.push_back(
            plan.addSignature(req.history, req.signatureBits));
    std::vector<std::size_t> ghrp_idx;
    for (const unsigned shift : kGhrpShifts)
        ghrp_idx.push_back(plan.addGhrp(shift));
    const ReplayStreams streams = plan.compute(records, events);

    for (std::size_t k = 0; k < reqs.size(); ++k) {
        SCOPED_TRACE("signature request " + std::to_string(k));
        const auto want = referenceSignatures(reqs[k], records, events);
        ASSERT_EQ(want.size(), events.size());
        EXPECT_EQ(streams.sigs[sig_idx[k]], want);
    }
    for (std::size_t k = 0; k < std::size(kGhrpShifts); ++k) {
        SCOPED_TRACE("ghrp shift " + std::to_string(kGhrpShifts[k]));
        EXPECT_EQ(streams.ghrp[ghrp_idx[k]],
                  referenceGhrp(kGhrpShifts[k], records, events));
    }
}

TEST(ReplayStreams, HistorySweepCollapsesToThreeShapes)
{
    // Fig 2's path lengths with and without branch histories, plus
    // the pcbits4 slice and table-only variants of the default.
    ReplayStreamPlan plan;
    for (const unsigned path : {4u, 8u, 16u, 32u}) {
        for (const bool branch : {true, false}) {
            HistoryConfig h;
            h.pathEvents = path;
            h.useCondHist = branch;
            h.useUncondHist = branch;
            plan.addSignature(h, 16);
        }
    }
    EXPECT_EQ(plan.addSignature(HistoryConfig{}, 16), 4u);
    HistoryConfig pcbits4;
    pcbits4.pathPcBits = 4;
    plan.addSignature(pcbits4, 16);
    EXPECT_EQ(plan.signatureStreams(), 9u);
    EXPECT_EQ(plan.pathShapes(), 2u);
    EXPECT_EQ(plan.branchShapes(), 1u);
    EXPECT_EQ(plan.addGhrp(5), 0u);
    EXPECT_EQ(plan.addGhrp(7), 1u);
    EXPECT_EQ(plan.addGhrp(5), 0u);
    EXPECT_EQ(plan.ghrpStreams(), 2u);
}

TEST(ReplayStreams, EmptyPlanAndEmptyEvents)
{
    Rng rng(3);
    const SharedTrace trace = syntheticTrace(rng, 100);
    const std::vector<L2Event> events = syntheticEvents(rng, 100);
    const ReplayStreams none = ReplayStreamPlan{}.compute(*trace, events);
    EXPECT_TRUE(none.sigs.empty());
    EXPECT_TRUE(none.ghrp.empty());

    ReplayStreamPlan plan;
    plan.addSignature(HistoryConfig{}, 16);
    plan.addGhrp(5);
    const ReplayStreams empty = plan.compute(*trace, {});
    ASSERT_EQ(empty.sigs.size(), 1u);
    EXPECT_TRUE(empty.sigs[0].empty());
    ASSERT_EQ(empty.ghrp.size(), 1u);
    EXPECT_TRUE(empty.ghrp[0].empty());
}

TEST(ReplayStreams, MatchesPerConfigReferenceOnSyntheticTraces)
{
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed);
        const auto reqs = randomRequests(rng, 24);
        const SharedTrace trace = syntheticTrace(rng, 6000);
        expectStreamsMatch(reqs, *trace, syntheticEvents(rng, 6000));
    }
}

TEST(ReplayStreams, MatchesPerConfigReferenceOnRecordedWorkloads)
{
    SuiteOptions options;
    options.size = 6;
    options.traceLength = 30000;
    TraceStore store("");
    Rng rng(17);
    for (const WorkloadConfig &workload : makeSuite(options)) {
        SCOPED_TRACE(workload.name);
        const SharedTrace trace = store.get(workload);
        const std::vector<L2Event> events = recordEvents(trace);
        ASSERT_FALSE(events.empty());
        expectStreamsMatch(randomRequests(rng, 16), *trace, events);
    }
}

TEST(ReplayStreams, MatchesPerConfigReferenceOnIngestedFixtures)
{
    Rng gen(0xf1c7);
    std::vector<TraceRecord> records(12000);
    for (TraceRecord &rec : records) {
        rec.pc = 0x400000 + 4 * gen.below(4096);
        rec.cls = gen.chance(0.25)  ? InstClass::CondBranch
                  : gen.chance(0.1) ? InstClass::UncondIndirect
                  : gen.chance(0.5) ? InstClass::Load
                                    : InstClass::Alu;
        if (isMemory(rec.cls))
            rec.effAddr = (1 + gen.below(1 << 18)) * kPageSize;
        if (isBranch(rec.cls)) {
            rec.taken = gen.chance(0.5);
            rec.target = 0x400000 + 4 * gen.below(4096);
        }
    }
    std::string cvp;
    appendCvpHeader(cvp, records.size());
    std::string champsim;
    for (const TraceRecord &rec : records) {
        appendCvpRecord(cvp, rec);
        appendChampSimRecord(champsim, rec);
    }
    TraceStore store("");
    Rng rng(29);
    for (const auto &[name, bytes] :
         {std::pair<std::string, std::string>{"fixture.cvp", cvp},
          {"fixture.champsim", champsim}}) {
        SCOPED_TRACE(name);
        const std::string path =
            ::testing::TempDir() + "chirp_replay_streams_" + name;
        std::ofstream(path, std::ios::binary | std::ios::trunc)
            .write(bytes.data(),
                   static_cast<std::streamsize>(bytes.size()));
        WorkloadConfig workload;
        workload.name = name;
        workload.tracePath = path;
        const SharedTrace trace = store.get(workload);
        ASSERT_EQ(trace->size(), records.size());
        const std::vector<L2Event> events = recordEvents(trace);
        ASSERT_FALSE(events.empty());
        expectStreamsMatch(randomRequests(rng, 16), *trace, events);
    }
}

/**
 * The sweep the streams exist for: LRU, Fig 2's path lengths with and
 * without branch histories, the parameter sweep's history variants,
 * and GHRP at two shifts, all in one runSuiteMulti call.
 */
std::vector<PolicyFactory>
oracleFactories()
{
    std::vector<PolicyFactory> factories = {
        Runner::factoryFor(PolicyKind::Lru)};
    auto add_chirp = [&](const ChirpConfig &config) {
        factories.push_back([config](std::uint32_t sets,
                                     std::uint32_t assoc) {
            return std::unique_ptr<ReplacementPolicy>(
                makeChirp(sets, assoc, config));
        });
    };
    for (const unsigned length : {4u, 16u, 40u}) {
        for (const bool branch : {false, true}) {
            ChirpConfig config;
            config.history.pathEvents = length;
            config.history.useCondHist = branch;
            config.history.useUncondHist = branch;
            add_chirp(config);
        }
    }
    ChirpConfig config;
    config.history.pathPcBits = 4;
    add_chirp(config);
    config = {};
    config.history.pathPcLowBit = 0;
    add_chirp(config);
    config = {};
    config.history.pathFilter = PathFilter::Branch;
    add_chirp(config);
    config = {};
    config.history.pathFilter = PathFilter::Memory;
    config.history.pathZeroBits = 0;
    add_chirp(config);
    config = {};
    config.tableEntries = 1024;
    add_chirp(config);
    for (const unsigned shift : {5u, 3u}) {
        GhrpConfig ghrp;
        ghrp.historyShift = shift;
        factories.push_back([ghrp](std::uint32_t sets,
                                   std::uint32_t assoc) {
            return std::unique_ptr<ReplacementPolicy>(
                makeGhrp(sets, assoc, ghrp));
        });
    }
    return factories;
}

TEST(RunnerReplayOracle, SweepMatchesPlainRunPerPolicy)
{
    SimConfig config;
    config.simulateCaches = false;
    config.simulateBranch = false;
    SuiteOptions options;
    options.size = 5;
    options.traceLength = 40000;
    const auto suite = makeSuite(options);
    const auto factories = oracleFactories();
    const std::uint32_t sets =
        config.tlbs.l2.entries / config.tlbs.l2.assoc;

    // The oracle: a fresh full simulation per (workload, policy).
    TraceStore store("");
    std::vector<std::vector<std::string>> want(factories.size());
    for (std::size_t p = 0; p < factories.size(); ++p) {
        for (const WorkloadConfig &workload : suite) {
            MemoryTraceSource source(store.get(workload), workload.name);
            Simulator sim(config,
                          factories[p](sets, config.tlbs.l2.assoc));
            want[p].push_back(encodeSimStats(sim.run(source)));
        }
    }
    for (const unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        Runner runner(config, jobs);
        runner.setTraceCacheDir("");
        const auto got = runner.runSuiteMulti(suite, factories);
        ASSERT_EQ(got.size(), factories.size());
        EXPECT_EQ(runner.health()->failureCount(), 0u);
        for (std::size_t p = 0; p < factories.size(); ++p) {
            for (std::size_t w = 0; w < suite.size(); ++w) {
                SCOPED_TRACE("policy " + std::to_string(p) + " x " +
                             suite[w].name);
                EXPECT_EQ(encodeSimStats(got[p][w].stats), want[p][w]);
            }
        }
    }
}

} // namespace
} // namespace chirp
