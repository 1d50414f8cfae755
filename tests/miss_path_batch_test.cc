/**
 * @file
 * Batched miss-path equivalence: Tlb::accessBatch (chunk
 * signature/index precompute, deferred bulk counters) must leave
 * exactly the state of n sequential access() calls — per-access hit
 * results, victim choices, prediction-table traffic and contents, and
 * every statistic — for every policy kind and a Generic-dispatch
 * policy, across odd chunk tails, warmup-style sub-batch splits, and a
 * mid-chunk injected fault (CHIRP_FAULT=chunk-throw@N) whose unwind
 * flushes a torn chunk.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/policy_factory.hh"
#include "support/generic_policy.hh"
#include "tlb/tlb.hh"
#include "util/fault_injection.hh"

namespace chirp
{
namespace
{

constexpr std::uint32_t kEntries = 128;
constexpr std::uint32_t kAssoc = 8;
constexpr Asid kAsid = 1;

struct Stream
{
    std::vector<AccessInfo> infos;
    std::vector<Addr> keys;
    std::vector<std::uint64_t> nows;
    // Retire events delivered between chunks (frozen-history
    // contract): one batch per chunk index.
    std::vector<std::vector<AccessInfo>> retires;
};

/**
 * A random access stream over a working set a few times the TLB
 * capacity (so every policy sees hits, misses and evictions), with
 * runs of repeated pages, plus per-chunk retire batches for the
 * history-driven policies.
 */
Stream
makeStream(std::size_t n, std::size_t chunks, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    Stream s;
    s.infos.resize(n);
    s.keys.resize(n);
    s.nows.resize(n);
    std::vector<std::uint8_t> shifts(n, kPageShift);
    std::vector<Addr> vaddrs(n);
    for (std::size_t i = 0; i < n; ++i) {
        AccessInfo &info = s.infos[i];
        info.pc = 0x400000 + (rng() % 512) * 4;
        info.vaddr = (rng() % (kEntries * 4)) << kPageShift;
        // Back-to-back repeats of one page: the repeat-hit memo's case.
        if (i > 0 && rng() % 8 == 0)
            info.vaddr = s.infos[i - 1].vaddr;
        info.cls = InstClass::Load;
        info.isInstr = false;
        vaddrs[i] = info.vaddr;
        s.nows[i] = i;
    }
    Tlb::keysOf(vaddrs.data(), shifts.data(), n, kAsid, s.keys.data());
    s.retires.resize(chunks);
    for (auto &batch : s.retires) {
        const std::size_t m = rng() % 6;
        for (std::size_t r = 0; r < m; ++r) {
            AccessInfo info;
            info.pc = 0x400000 + (rng() % 512) * 4;
            const unsigned pick = rng() % 3;
            info.cls = pick == 0   ? InstClass::CondBranch
                       : pick == 1 ? InstClass::UncondIndirect
                                   : InstClass::Load;
            batch.push_back(info);
        }
    }
    return s;
}

using MakePolicy = std::function<std::unique_ptr<ReplacementPolicy>(
    std::uint32_t, std::uint32_t)>;

struct NamedPolicy
{
    std::string name;
    MakePolicy make;
};

/** Every policy kind plus one policy on the Generic dispatch arm. */
std::vector<NamedPolicy>
testPolicies()
{
    std::vector<NamedPolicy> policies;
    for (const PolicyKind kind : allPolicyKinds()) {
        policies.push_back(
            {policyKindName(kind),
             [kind](std::uint32_t sets, std::uint32_t assoc) {
                 return makePolicy(kind, sets, assoc);
             }});
    }
    policies.push_back({"generic", makePathHashPolicy});
    return policies;
}

std::unique_ptr<Tlb>
makeTlb(const NamedPolicy &policy)
{
    TlbConfig config;
    config.name = "l2";
    config.entries = kEntries;
    config.assoc = kAssoc;
    return std::make_unique<Tlb>(
        config, policy.make(kEntries / kAssoc, kAssoc));
}

void
deliverRetires(Tlb &tlb, const std::vector<AccessInfo> &batch)
{
    for (const AccessInfo &info : batch) {
        tlb.policy().onInstRetired(info.pc, info.cls);
        if (isBranch(info.cls))
            tlb.policy().onBranchRetired(info.pc, info.cls, true);
    }
}

void
expectSameState(Tlb &a, Tlb &b, const Stream &s)
{
    EXPECT_EQ(a.accesses(), b.accesses());
    EXPECT_EQ(a.hits(), b.hits());
    EXPECT_EQ(a.misses(), b.misses());
    EXPECT_EQ(a.evictions(), b.evictions());
    EXPECT_EQ(a.validCount(), b.validCount());
    EXPECT_EQ(a.efficiency().generations(),
              b.efficiency().generations());
    EXPECT_EQ(a.efficiency().efficiency(),
              b.efficiency().efficiency());
    EXPECT_EQ(a.policy().tableReads(), b.policy().tableReads());
    EXPECT_EQ(a.policy().tableWrites(), b.policy().tableWrites());
    // Resident-entry equality: every key of the stream probes the
    // same way in both TLBs.
    for (const AccessInfo &info : s.infos)
        EXPECT_EQ(a.probe(info.vaddr, kAsid), b.probe(info.vaddr, kAsid));
}

/**
 * Batched accessBatch vs n one-at-a-time access() calls: identical
 * per-access hit results and identical end state, for every policy
 * and with chunk sizes that leave odd tails (the last chunk of each
 * size is shorter).
 */
TEST(MissPathBatch, BatchedMatchesSequentialEveryPolicy)
{
    for (const NamedPolicy &policy : testPolicies()) {
        SCOPED_TRACE(policy.name);
        for (const std::size_t chunk_size :
             {std::size_t{256}, std::size_t{97}, std::size_t{1}}) {
            SCOPED_TRACE("chunk " + std::to_string(chunk_size));
            const std::size_t n = 2000;
            const std::size_t chunks =
                (n + chunk_size - 1) / chunk_size;
            const Stream s = makeStream(n, chunks, 7 + chunk_size);

            auto batched = makeTlb(policy);
            auto sequential = makeTlb(policy);
            std::vector<std::uint8_t> hits(chunk_size);
            std::size_t c = 0;
            for (std::size_t lo = 0; lo < n; lo += chunk_size, ++c) {
                const std::size_t m =
                    std::min(chunk_size, n - lo);
                batched->accessBatch(s.infos.data() + lo,
                                     s.keys.data() + lo,
                                     s.nows.data() + lo, m, kAsid,
                                     hits.data());
                for (std::size_t j = 0; j < m; ++j) {
                    const bool hit = sequential->access(
                        s.infos[lo + j], kAsid, s.nows[lo + j]);
                    EXPECT_EQ(hits[j] != 0, hit) << "access " << lo + j;
                }
                deliverRetires(*batched, s.retires[c]);
                deliverRetires(*sequential, s.retires[c]);
            }
            expectSameState(*batched, *sequential, s);
        }
    }
}

/**
 * Warmup-boundary splits: a chunk delivered as two sub-batches split
 * at an arbitrary cut (the simulator's warmup handling) equals the
 * unsplit batch.
 */
TEST(MissPathBatch, SubBatchSplitMatchesUnsplit)
{
    for (const NamedPolicy &policy : testPolicies()) {
        SCOPED_TRACE(policy.name);
        const std::size_t n = 1024;
        const std::size_t chunk = 256;
        const Stream s = makeStream(n, n / chunk, 23);

        auto split = makeTlb(policy);
        auto whole = makeTlb(policy);
        std::vector<std::uint8_t> ha(chunk), hb(chunk);
        const std::size_t cuts[] = {0, 1, 101, 255};
        std::size_t c = 0;
        for (std::size_t lo = 0; lo < n; lo += chunk, ++c) {
            const std::size_t cut = cuts[c % 4];
            split->accessBatch(s.infos.data() + lo, s.keys.data() + lo,
                               s.nows.data() + lo, cut, kAsid,
                               ha.data());
            split->accessBatch(s.infos.data() + lo + cut,
                               s.keys.data() + lo + cut,
                               s.nows.data() + lo + cut, chunk - cut,
                               kAsid, ha.data() + cut);
            whole->accessBatch(s.infos.data() + lo, s.keys.data() + lo,
                               s.nows.data() + lo, chunk, kAsid,
                               hb.data());
            for (std::size_t j = 0; j < chunk; ++j)
                EXPECT_EQ(ha[j], hb[j]) << "access " << lo + j;
            deliverRetires(*split, s.retires[c]);
            deliverRetires(*whole, s.retires[c]);
        }
        expectSameState(*split, *whole, s);
    }
}

/**
 * Mid-chunk fault unwind: CHIRP_FAULT=chunk-throw@K throws a
 * TransientError halfway through the Kth batched chunk.  The flushed
 * counters and all TLB/policy state must equal sequential access()
 * calls of exactly the accesses that completed before the throw, and
 * both TLBs must stay usable (and identical) afterwards.
 */
TEST(MissPathBatch, ChunkThrowUnwindsToSequentialState)
{
    constexpr std::size_t kChunk = 256;
    constexpr std::size_t kFaultChunk = 2;
    for (const NamedPolicy &policy : testPolicies()) {
        SCOPED_TRACE(policy.name);
        const std::size_t n = 5 * kChunk;
        const Stream s = makeStream(n, n / kChunk, 41);

        auto batched = makeTlb(policy);
        auto sequential = makeTlb(policy);

        FaultInjector::instance().configure(
            "chunk-throw@" + std::to_string(kFaultChunk));
        ASSERT_TRUE(FaultInjector::chunkFaultsArmed());

        std::vector<std::uint8_t> hits(kChunk);
        std::size_t survived = 0;
        bool threw = false;
        std::size_t c = 0;
        for (std::size_t lo = 0; lo < n; lo += kChunk, ++c) {
            try {
                batched->accessBatch(s.infos.data() + lo,
                                     s.keys.data() + lo,
                                     s.nows.data() + lo, kChunk, kAsid,
                                     hits.data());
                survived += kChunk;
            } catch (const TransientError &) {
                threw = true;
                EXPECT_EQ(c, kFaultChunk);
                // The fault fires between accesses, halfway through.
                survived += kChunk / 2;
                break;
            }
            deliverRetires(*batched, s.retires[c]);
        }
        ASSERT_TRUE(threw);
        EXPECT_FALSE(FaultInjector::chunkFaultsArmed());
        FaultInjector::instance().reset();

        // Sequential replay of exactly the surviving prefix (with the
        // same between-chunk retires).
        for (std::size_t i = 0; i < survived; ++i) {
            sequential->access(s.infos[i], kAsid, s.nows[i]);
            if ((i + 1) % kChunk == 0)
                deliverRetires(*sequential, s.retires[i / kChunk]);
        }
        expectSameState(*batched, *sequential, s);

        // Both remain consistent when the run continues (the
        // simulator retries a transient fault from a clean slate, but
        // the TLB itself must not be torn).
        const std::size_t m = std::min(kChunk, n - survived);
        batched->accessBatch(s.infos.data() + survived,
                             s.keys.data() + survived,
                             s.nows.data() + survived, m, kAsid,
                             hits.data());
        for (std::size_t j = 0; j < m; ++j) {
            EXPECT_EQ(hits[j] != 0,
                      sequential->access(s.infos[survived + j], kAsid,
                                         s.nows[survived + j]));
        }
        expectSameState(*batched, *sequential, s);
    }
}

} // namespace
} // namespace chirp
