/**
 * @file
 * Randomized equivalence of every public simd kernel with its scalar
 * reference.
 *
 * The scalar reference (`simd::detail::*Scalar`) is the semantic
 * contract (scan order, tie-breaking, n == 0 sentinel).  Each test
 * calls the public kernel — the SSE2 body on x86-64, the scalar one
 * elsewhere — and the scalar reference on the same inputs and
 * requires bit-identical results for every lane count and tail shape.
 * Both are also checked against a naive reference written here, so a
 * bug shared by the two bodies cannot hide.  The single-body kernels
 * (addToLanes, sigIndexLanes) are checked against the naive reference
 * alone.
 *
 * Lane counts sweep 0..kMaxLanes, crossing every vector step (16-byte
 * blocks, the 8-byte half vector, 2-word lanes for the 64-bit
 * kernels) and every tail length on each side of them.
 */

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/bitfield.hh"
#include "util/simd.hh"
#include "util/types.hh"

namespace chirp
{
namespace
{

/** Four 16-byte blocks plus a tail; every shorter count runs too. */
constexpr std::size_t kMaxLanes = 70;
constexpr int kTrialsPerSize = 8;

std::vector<std::uint8_t>
randomBytes(std::mt19937_64 &rng, std::size_t n, std::uint8_t lo,
            std::uint8_t hi)
{
    std::uniform_int_distribution<int> dist(lo, hi);
    std::vector<std::uint8_t> v(n);
    for (auto &b : v)
        b = static_cast<std::uint8_t>(dist(rng));
    return v;
}

// ---- naive references (independent of src/util/simd.hh) ----

std::size_t
refFirstSet(const std::uint8_t *v, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        if (v[i] != 0)
            return i;
    return n;
}

std::size_t
refFirstClear(const std::uint8_t *v, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        if (v[i] == 0)
            return i;
    return n;
}

std::size_t
refFirstAtLeast(const std::uint8_t *v, std::size_t n, std::uint8_t lim)
{
    for (std::size_t i = 0; i < n; ++i)
        if (v[i] >= lim)
            return i;
    return n;
}

std::size_t
refDeepestSet(const std::uint8_t *flags, const std::uint8_t *rank,
              std::size_t n)
{
    std::size_t best = n;
    int best_rank = -1;
    for (std::size_t i = 0; i < n; ++i)
        if (flags[i] != 0 && static_cast<int>(rank[i]) > best_rank) {
            best_rank = rank[i];
            best = i;
        }
    return best;
}

std::uint8_t
refMaxLane(const std::uint8_t *v, std::size_t n)
{
    std::uint8_t best = 0;
    for (std::size_t i = 0; i < n; ++i)
        best = std::max(best, v[i]);
    return best;
}

std::size_t
refMatchTag(const Addr *tags, const std::uint8_t *valid, std::size_t n,
            Addr tag)
{
    for (std::size_t i = 0; i < n; ++i)
        if (valid[i] != 0 && tags[i] == tag)
            return i;
    return n;
}

TEST(SimdBackend, NameMatchesTarget)
{
    static_assert(simd::activeBackend() == simd::Backend::Sse2 ||
                  simd::activeBackend() == simd::Backend::Scalar);
#if defined(__x86_64__) || defined(_M_X64)
    EXPECT_STREQ(simd::backendName(simd::activeBackend()), "sse2");
#else
    EXPECT_STREQ(simd::backendName(simd::activeBackend()), "scalar");
#endif
    EXPECT_STREQ(simd::backendName(simd::Backend::Scalar), "scalar");
}

TEST(SimdScan, FirstSetClearAtLeastMatchScalar)
{
    std::mt19937_64 rng(0xC0FFEE01);
    for (std::size_t n = 0; n <= kMaxLanes; ++n) {
        for (int trial = 0; trial < kTrialsPerSize; ++trial) {
            // Small value range: plenty of zero lanes and ties.
            const auto v = randomBytes(rng, n, 0, 3);
            const std::uint8_t lim =
                static_cast<std::uint8_t>(rng() % 5);
            SCOPED_TRACE("n=" + std::to_string(n));
            const std::size_t set = refFirstSet(v.data(), n);
            EXPECT_EQ(simd::detail::firstSetScalar(v.data(), n), set);
            EXPECT_EQ(simd::firstSetLane(v.data(), n), set);
            const std::size_t clear = refFirstClear(v.data(), n);
            EXPECT_EQ(simd::detail::firstClearScalar(v.data(), n), clear);
            EXPECT_EQ(simd::firstClearLane(v.data(), n), clear);
            const std::size_t at_least =
                refFirstAtLeast(v.data(), n, lim);
            EXPECT_EQ(simd::detail::firstAtLeastScalar(v.data(), n, lim),
                      at_least);
            EXPECT_EQ(simd::firstLaneAtLeast(v.data(), n, lim),
                      at_least);
        }
    }
}

TEST(SimdScan, AllZeroAndAllSetEdges)
{
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                          std::size_t{8}, std::size_t{9},
                          std::size_t{15}, std::size_t{16},
                          std::size_t{17}, std::size_t{24},
                          std::size_t{31}, std::size_t{32},
                          std::size_t{33}, std::size_t{64},
                          kMaxLanes}) {
        SCOPED_TRACE("n=" + std::to_string(n));
        const std::vector<std::uint8_t> zeros(n, 0);
        const std::vector<std::uint8_t> ones(n, 1);
        EXPECT_EQ(simd::firstSetLane(zeros.data(), n), n);
        EXPECT_EQ(simd::firstClearLane(ones.data(), n), n);
        EXPECT_EQ(simd::firstSetLane(ones.data(), n), n == 0 ? n : 0u);
        EXPECT_EQ(simd::firstClearLane(zeros.data(), n),
                  n == 0 ? n : 0u);
        EXPECT_EQ(simd::firstLaneAtLeast(zeros.data(), n, 1), n);
        EXPECT_EQ(simd::maxLane(zeros.data(), n), 0u);
        EXPECT_EQ(simd::deepestSetLane(zeros.data(), ones.data(), n), n);
    }
}

TEST(SimdScan, DeepestSetTieBreaksOnEarliestMaximum)
{
    std::mt19937_64 rng(0xC0FFEE02);
    for (std::size_t n = 0; n <= kMaxLanes; ++n) {
        for (int trial = 0; trial < kTrialsPerSize; ++trial) {
            const auto flags = randomBytes(rng, n, 0, 1);
            // Tiny rank alphabet forces duplicate maxima.
            const auto rank = randomBytes(rng, n, 0, 2);
            SCOPED_TRACE("n=" + std::to_string(n));
            const std::size_t want =
                refDeepestSet(flags.data(), rank.data(), n);
            EXPECT_EQ(simd::detail::deepestSetScalar(flags.data(),
                                                     rank.data(), n),
                      want);
            EXPECT_EQ(simd::deepestSetLane(flags.data(), rank.data(), n),
                      want);
        }
    }
    // Max legal rank at both ends of a vector block.
    std::vector<std::uint8_t> flags(33, 1);
    std::vector<std::uint8_t> rank(33, 0);
    rank[0] = 254;
    rank[32] = 254;
    EXPECT_EQ(simd::deepestSetLane(flags.data(), rank.data(), 33), 0u);
}

TEST(SimdScan, MaxLaneAndAddToLanesMatchScalar)
{
    std::mt19937_64 rng(0xC0FFEE03);
    for (std::size_t n = 0; n <= kMaxLanes; ++n) {
        for (int trial = 0; trial < kTrialsPerSize; ++trial) {
            const auto v = randomBytes(rng, n, 0, 200);
            const std::uint8_t delta =
                static_cast<std::uint8_t>(rng() % 7);
            SCOPED_TRACE("n=" + std::to_string(n));
            const std::uint8_t max = refMaxLane(v.data(), n);
            EXPECT_EQ(simd::detail::maxLaneScalar(v.data(), n), max);
            EXPECT_EQ(simd::maxLane(v.data(), n), max);
            std::vector<std::uint8_t> want(n);
            for (std::size_t i = 0; i < n; ++i)
                want[i] = static_cast<std::uint8_t>(v[i] + delta);
            auto mutated = v;
            simd::addToLanes(mutated.data(), n, delta);
            EXPECT_EQ(mutated, want);
        }
    }
}

TEST(SimdScan, MatchTagFindsFirstValidMatchOnly)
{
    std::mt19937_64 rng(0xC0FFEE04);
    for (std::size_t n = 0; n <= kMaxLanes; ++n) {
        for (int trial = 0; trial < kTrialsPerSize; ++trial) {
            std::vector<Addr> tags(n);
            // Four-value tag alphabet: frequent duplicates, so the
            // first-match tie-break is exercised constantly.
            for (auto &t : tags)
                t = 0xABCD0000u + (rng() % 4);
            const auto valid = randomBytes(rng, n, 0, 1);
            const Addr probe = 0xABCD0000u + (rng() % 4);
            SCOPED_TRACE("n=" + std::to_string(n));
            const std::size_t want =
                refMatchTag(tags.data(), valid.data(), n, probe);
            EXPECT_EQ(simd::detail::matchTagScalar(tags.data(),
                                                   valid.data(), n,
                                                   probe),
                      want);
            EXPECT_EQ(simd::matchTagLane(tags.data(), valid.data(), n,
                                         probe),
                      want);
        }
    }
    // An invalid lane holding the probe tag must not match, and a tag
    // equal in one 32-bit half only is no match.
    std::vector<Addr> tags(5, 0x42);
    tags[2] = 0x1'0000'0042ull;
    std::vector<std::uint8_t> valid = {0, 0, 1, 0, 1};
    EXPECT_EQ(simd::matchTagLane(tags.data(), valid.data(), 5,
                                 Addr{0x42}),
              4u);
}

TEST(SimdShift, ShiftOrLanesMatchScalarOnMixedPageSizes)
{
    // The TLB key composition: 4 KB (shift 12) is the common page
    // size, 2 MB (shift 21) lanes take the other tag bits.  Pairs of
    // two common lanes take the vector body, any pair holding a 2 MB
    // lane the per-lane fallback, and odd counts leave a scalar tail.
    constexpr std::uint8_t kSmall = 12;
    constexpr std::uint8_t kLarge = 21;
    constexpr std::uint64_t kCommonOr = 0x5ull << 56;
    constexpr std::uint64_t kOtherOr = 0x6ull << 56;
    std::mt19937_64 rng(0xC0FFEE08);
    // Share of 2 MB lanes: none (all vector), some, all (no vector).
    const unsigned large_pct[] = {0, 20, 50, 100};
    for (const unsigned pct : large_pct) {
        for (std::size_t n = 0; n <= kMaxLanes; ++n) {
            for (int trial = 0; trial < kTrialsPerSize; ++trial) {
                std::vector<std::uint64_t> vaddr(n);
                std::vector<std::uint8_t> shifts(n);
                for (std::size_t i = 0; i < n; ++i) {
                    vaddr[i] = rng() >> 16; // 48-bit virtual address
                    shifts[i] = rng() % 100 < pct ? kLarge : kSmall;
                }
                std::vector<std::uint64_t> want(n);
                for (std::size_t i = 0; i < n; ++i)
                    want[i] = (vaddr[i] >> shifts[i]) |
                              (shifts[i] == kSmall ? kCommonOr
                                                   : kOtherOr);
                SCOPED_TRACE("pct=" + std::to_string(pct) +
                             " n=" + std::to_string(n));
                auto scalar = vaddr;
                simd::detail::shiftOrScalar(scalar.data(), shifts.data(),
                                            n, kSmall, kCommonOr,
                                            kOtherOr);
                EXPECT_EQ(scalar, want);
                auto lanes = vaddr;
                simd::shiftOrLanes(lanes.data(), shifts.data(), n,
                                   kSmall, kCommonOr, kOtherOr);
                EXPECT_EQ(lanes, want);
            }
        }
    }
}

TEST(SimdFold, FoldPlanApplyEqualsFoldXorAtEveryWidth)
{
    std::mt19937_64 rng(0xC0FFEE05);
    for (unsigned nbits = 1; nbits < 64; ++nbits) {
        const simd::FoldPlan plan(nbits);
        for (int trial = 0; trial < 32; ++trial) {
            const std::uint64_t v = rng();
            ASSERT_EQ(plan.apply(v), foldXor(v, nbits))
                << "nbits=" << nbits << " v=" << v;
        }
    }
}

TEST(SimdFold, MulXorFoldLanesMatchPerElementFoldXor)
{
    std::mt19937_64 rng(0xC0FFEE06);
    constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ull;
    // Widths around the word-halving boundaries plus the GHRP ones.
    const unsigned widths[] = {1, 3, 7, 8, 10, 12, 16, 21, 31, 32, 33,
                               48, 63};
    for (unsigned nbits : widths) {
        const simd::FoldPlan plan(nbits);
        for (std::size_t n = 0; n <= 9; ++n) {
            std::vector<std::uint64_t> input(n);
            for (auto &v : input)
                v = rng();
            std::vector<std::uint64_t> mul_ref(n);
            for (std::size_t i = 0; i < n; ++i)
                mul_ref[i] = foldXor(input[i] * kMul, nbits);
            SCOPED_TRACE("nbits=" + std::to_string(nbits) +
                         " n=" + std::to_string(n));
            auto c = input;
            simd::detail::mulXorFoldPlanScalar(c.data(), n, kMul, plan);
            EXPECT_EQ(c, mul_ref);
            auto d = input;
            simd::mulXorFoldLanes(d.data(), n, kMul, plan);
            EXPECT_EQ(d, mul_ref);
        }
    }
}

TEST(SimdFold, FusedSigIndexLanesMatchScalarReference)
{
    std::mt19937_64 rng(0xC0FFEE07);
    constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ull;
    // (signatureBits, indexBits) pairs covering the policy configs
    // (SHiP 14-bit SHCT, GHRP 12-bit banks, CHiRP defaults) plus the
    // 16-bit truncation edge.
    const unsigned sig_widths[] = {8, 12, 14, 16};
    const unsigned idx_widths[] = {7, 12, 14, 10};
    for (std::size_t w = 0; w < 4; ++w) {
        const unsigned sig_bits = sig_widths[w];
        const unsigned idx_bits = idx_widths[w];
        const simd::FoldPlan sig_plan(sig_bits);
        const simd::FoldPlan idx_plan(idx_bits);
        const std::uint64_t salt = rng();
        const std::uint64_t xor_term = rng();
        // A bank base in the bits above the index, as GHRP passes.
        const std::uint32_t idx_or = static_cast<std::uint32_t>(w)
                                     << idx_bits;
        for (std::size_t n = 0; n <= kMaxLanes;
             n += (n < 12 ? 1 : 7)) {
            std::vector<std::uint64_t> base(n);
            for (auto &v : base)
                v = rng();
            std::vector<std::uint16_t> sig_ref(n);
            std::vector<std::uint32_t> idx_ref(n);
            for (std::size_t i = 0; i < n; ++i) {
                sig_ref[i] = static_cast<std::uint16_t>(
                    foldXor(base[i] ^ xor_term, sig_bits));
                idx_ref[i] =
                    idx_or |
                    static_cast<std::uint32_t>(foldXor(
                        (static_cast<std::uint64_t>(sig_ref[i]) ^
                         salt) *
                            kMul,
                        idx_bits));
            }
            SCOPED_TRACE("sig_bits=" + std::to_string(sig_bits) +
                         " n=" + std::to_string(n));
            std::vector<std::uint16_t> sigs(n, 0xAAAA);
            std::vector<std::uint32_t> idxs(n, 0xDEADBEEFu);
            simd::sigIndexLanes(base.data(), n, xor_term, sig_plan, salt,
                                kMul, idx_plan, idx_or, sigs.data(),
                                idxs.data());
            EXPECT_EQ(sigs, sig_ref);
            EXPECT_EQ(idxs, idx_ref);
        }
    }
}

} // namespace
} // namespace chirp
