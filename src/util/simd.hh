/**
 * @file
 * Data-parallel kernels for the policy hot paths, behind runtime
 * backend dispatch.
 *
 * The victim scans (dead bits, RRPV values, recency ranks), the TLB
 * tag match and GHRP's per-table signature/index composition all walk
 * small contiguous lanes — exactly the shape the PR 3 SoA refactor
 * produced.  Each kernel here has one scalar reference implementation
 * (the semantic contract, including scan order and tie-breaking) plus
 * ISA-specific variants that must return bit-identical results; the
 * randomized equivalence tests drive every lane count and tail shape
 * against the scalar reference.
 *
 * Backend selection is runtime: the strongest ISA the host supports
 * is detected once (cpuid on x86-64, compile-time on aarch64) and
 * cached.  Two overrides exist:
 *  - `CHIRP_SIMD=OFF` at configure time compiles the vector variants
 *    out entirely (portable build);
 *  - `CHIRP_FORCE_SCALAR` in the environment (non-empty, not "0")
 *    forces the scalar reference at runtime — the CI equality leg
 *    diffs full bench runs across the two settings.
 *
 * Dispatch layout: the kernels the TLB runs on *every* access scan a
 * handful of lanes (assoc is 4-16, GHRP composes 3 table lanes), so
 * an out-of-line call per kernel costs more than the scan itself.
 * The scalar reference and the baseline-ISA variants (SSE2 on x86-64,
 * NEON on aarch64 — both guaranteed by the ABI, so no target
 * attribute is needed) therefore live here as inline functions, and
 * the public kernels are inline two-way branches on a cached backend
 * global.  Only the AVX2 variants stay out of line (they require a
 * per-function target attribute, which blocks inlining into plain
 * callers) and are entered only when the input spans at least one
 * full 256-bit vector; below that the SSE2 body is used — the
 * results are bit-identical either way, so the threshold is purely a
 * latency choice.
 *
 * All kernels treat `n == 0` as an empty scan (the "not found"
 * sentinel is `n` itself, so it composes with any caller loop).
 */

#ifndef CHIRP_UTIL_SIMD_HH
#define CHIRP_UTIL_SIMD_HH

#include <cstddef>
#include <cstdint>

#include "util/bitfield.hh"
#include "util/types.hh"

#if defined(CHIRP_SIMD_ENABLED) && (defined(__x86_64__) || defined(_M_X64))
#define CHIRP_SIMD_X86 1
#include <immintrin.h>
#endif

#if defined(CHIRP_SIMD_ENABLED) && defined(__aarch64__)
#define CHIRP_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace chirp
{
namespace simd
{

/** The instruction set a kernel call will use. */
enum class Backend : std::uint8_t
{
    Scalar, //!< must stay 0: a zero-initialized backend is safe
    Sse2,
    Avx2,
    Neon,
};

/** Printable backend name ("avx2", "sse2", "neon", "scalar"). */
const char *backendName(Backend backend);

/** Re-detect the backend (after setenv/unsetenv in tests). */
void refreshBackend();

/**
 * Precomputed XOR-fold ladder for one fold width.
 *
 * foldXor(v, nbits) XORs the nbits-wide chunks of v together; by
 * associativity the same value falls out of a fixed ladder of
 * (v ^= v >> shift; v &= mask) steps that halves the live chunk
 * count each round.  The shifts and masks depend only on nbits, so a
 * caller folding many values at one width (GHRP folds every access
 * at its signature and index widths) builds the plan once and the
 * per-fold work is the ladder steps alone — no chunk-count division,
 * no mask formation.
 */
struct FoldPlan
{
    /** log2-bounded: 64/1-bit chunks halve to 1 in 6 rounds. */
    static constexpr unsigned kMaxSteps = 6;

    std::uint64_t mask[kMaxSteps] = {};
    std::uint8_t shift[kMaxSteps] = {};
    std::uint8_t steps = 0;

    constexpr FoldPlan() = default;

    /** The ladder for folds to @p nbits (1..64). */
    explicit constexpr FoldPlan(unsigned nbits)
    {
        unsigned chunks = (64 + nbits - 1) / nbits;
        while (chunks > 1) {
            const unsigned half = (chunks + 1) / 2;
            // half*nbits < 64 for every nbits in [1,64]: even chunk
            // counts give at most ceil(64/2) and odd ones at most
            // 32 + nbits with nbits <= 31.
            const unsigned s = half * nbits;
            shift[steps] = static_cast<std::uint8_t>(s);
            mask[steps] = maskBits(s);
            ++steps;
            chunks = half;
        }
    }

    /** Apply the ladder to one value (the scalar reference). */
    constexpr std::uint64_t
    apply(std::uint64_t v) const
    {
        for (unsigned s = 0; s < steps; ++s) {
            v ^= v >> shift[s];
            v &= mask[s];
        }
        return v;
    }
};

namespace detail
{

/**
 * The cached backend every kernel dispatches on.  Set by a dynamic
 * initializer in simd.cc; until that runs it reads as zero ==
 * Backend::Scalar, so kernels called from other translation units'
 * static initializers stay correct.
 */
extern Backend g_backend;

/*
 * Scalar reference kernels.  These define the contract — every vector
 * variant below must match them bit-for-bit, including scan order and
 * tie-breaking — and they are the only implementation compiled when
 * CHIRP_SIMD is OFF or the host ISA is unsupported.
 */

inline std::size_t
firstSetScalar(const std::uint8_t *v, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        if (v[i] != 0)
            return i;
    return n;
}

inline std::size_t
firstClearScalar(const std::uint8_t *v, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        if (v[i] == 0)
            return i;
    return n;
}

inline std::size_t
firstAtLeastScalar(const std::uint8_t *v, std::size_t n,
                   std::uint8_t limit)
{
    for (std::size_t i = 0; i < n; ++i)
        if (v[i] >= limit)
            return i;
    return n;
}

inline std::size_t
deepestSetScalar(const std::uint8_t *flags, const std::uint8_t *rank,
                 std::size_t n)
{
    std::size_t deepest = n;
    int best = -1;
    for (std::size_t i = 0; i < n; ++i) {
        if (flags[i] != 0 && static_cast<int>(rank[i]) > best) {
            best = rank[i];
            deepest = i;
        }
    }
    return deepest;
}

inline std::uint8_t
maxLaneScalar(const std::uint8_t *v, std::size_t n)
{
    std::uint8_t best = 0;
    for (std::size_t i = 0; i < n; ++i)
        if (v[i] > best)
            best = v[i];
    return best;
}

inline void
addToLanesScalar(std::uint8_t *v, std::size_t n, std::uint8_t delta)
{
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(v[i] + delta);
}

inline std::size_t
matchTagScalar(const Addr *tags, const std::uint8_t *valid,
               std::size_t n, Addr tag)
{
    for (std::size_t i = 0; i < n; ++i)
        if (valid[i] != 0 && tags[i] == tag)
            return i;
    return n;
}

inline void
shiftOrScalar(std::uint64_t *v, const std::uint8_t *shifts,
              std::size_t n, std::uint8_t common_shift,
              std::uint64_t common_or, std::uint64_t other_or)
{
    for (std::size_t i = 0; i < n; ++i) {
        v[i] = (v[i] >> shifts[i]) |
               (shifts[i] == common_shift ? common_or : other_or);
    }
}

inline void
xorFoldScalar(std::uint64_t *v, std::size_t n, unsigned nbits)
{
    for (std::size_t i = 0; i < n; ++i)
        v[i] = foldXor(v[i], nbits);
}

inline void
mulXorFoldScalar(std::uint64_t *v, std::size_t n, std::uint64_t k,
                 unsigned nbits)
{
    for (std::size_t i = 0; i < n; ++i)
        v[i] = foldXor(v[i] * k, nbits);
}

inline void
xorFoldPlanScalar(std::uint64_t *v, std::size_t n,
                  const FoldPlan &plan)
{
    for (std::size_t i = 0; i < n; ++i)
        v[i] = plan.apply(v[i]);
}

inline void
mulXorFoldPlanScalar(std::uint64_t *v, std::size_t n, std::uint64_t k,
                     const FoldPlan &plan)
{
    for (std::size_t i = 0; i < n; ++i)
        v[i] = plan.apply(v[i] * k);
}

inline void
xorFoldSigScalar(const std::uint64_t *base, std::size_t n,
                 std::uint64_t xor_term, const FoldPlan &plan,
                 std::uint16_t *sigs)
{
    for (std::size_t i = 0; i < n; ++i)
        sigs[i] =
            static_cast<std::uint16_t>(plan.apply(base[i] ^ xor_term));
}

inline void
sigIndexScalar(const std::uint64_t *base, std::size_t n,
               std::uint64_t xor_term, const FoldPlan &sig_plan,
               std::uint64_t salt, std::uint64_t k,
               const FoldPlan &idx_plan, std::uint32_t idx_or,
               std::uint16_t *sigs, std::uint32_t *idxs)
{
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint16_t sig = static_cast<std::uint16_t>(
            sig_plan.apply(base[i] ^ xor_term));
        sigs[i] = sig;
        idxs[i] =
            idx_or |
            static_cast<std::uint32_t>(idx_plan.apply(
                (static_cast<std::uint64_t>(sig) ^ salt) * k));
    }
}

#ifdef CHIRP_SIMD_X86

/*
 * SSE2 variants — baseline on every x86-64 host, so they carry no
 * cpuid check and inline into any caller.  The byte kernels process
 * 16 lanes per step with a scalar tail; tag matching works on two
 * 64-bit lanes per vector (SSE2 has no 64-bit compare, so equality is
 * the AND of the two 32-bit half compares).
 */

inline std::size_t
firstSetSse2(const std::uint8_t *v, std::size_t n)
{
    const __m128i zero = _mm_setzero_si128();
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m128i x =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(v + i));
        const unsigned zeros = static_cast<unsigned>(
            _mm_movemask_epi8(_mm_cmpeq_epi8(x, zero)));
        const unsigned set = ~zeros & 0xffffu;
        if (set != 0)
            return i + static_cast<unsigned>(__builtin_ctz(set));
    }
    if (i + 8 <= n) {
        // Half-vector step: an 8-way set (the paper's L2 TLB assoc)
        // scans in one op instead of the scalar tail.
        const __m128i x = _mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(v + i));
        const unsigned zeros = static_cast<unsigned>(
            _mm_movemask_epi8(_mm_cmpeq_epi8(x, zero)));
        const unsigned set = ~zeros & 0xffu;
        if (set != 0)
            return i + static_cast<unsigned>(__builtin_ctz(set));
        i += 8;
    }
    for (; i < n; ++i)
        if (v[i] != 0)
            return i;
    return n;
}

inline std::size_t
firstClearSse2(const std::uint8_t *v, std::size_t n)
{
    const __m128i zero = _mm_setzero_si128();
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m128i x =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(v + i));
        const unsigned zeros = static_cast<unsigned>(
            _mm_movemask_epi8(_mm_cmpeq_epi8(x, zero)));
        if (zeros != 0)
            return i + static_cast<unsigned>(__builtin_ctz(zeros));
    }
    if (i + 8 <= n) {
        const __m128i x = _mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(v + i));
        const unsigned zeros =
            static_cast<unsigned>(
                _mm_movemask_epi8(_mm_cmpeq_epi8(x, zero))) &
            0xffu;
        if (zeros != 0)
            return i + static_cast<unsigned>(__builtin_ctz(zeros));
        i += 8;
    }
    for (; i < n; ++i)
        if (v[i] == 0)
            return i;
    return n;
}

inline std::size_t
firstAtLeastSse2(const std::uint8_t *v, std::size_t n,
                 std::uint8_t limit)
{
    // max(x, limit) == x  <=>  x >= limit (unsigned bytes).
    const __m128i lim = _mm_set1_epi8(static_cast<char>(limit));
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m128i x =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(v + i));
        const unsigned ge = static_cast<unsigned>(
            _mm_movemask_epi8(_mm_cmpeq_epi8(_mm_max_epu8(x, lim), x)));
        if (ge != 0)
            return i + static_cast<unsigned>(__builtin_ctz(ge));
    }
    if (i + 8 <= n) {
        const __m128i x = _mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(v + i));
        const unsigned ge =
            static_cast<unsigned>(_mm_movemask_epi8(
                _mm_cmpeq_epi8(_mm_max_epu8(x, lim), x))) &
            0xffu;
        if (ge != 0)
            return i + static_cast<unsigned>(__builtin_ctz(ge));
        i += 8;
    }
    for (; i < n; ++i)
        if (v[i] >= limit)
            return i;
    return n;
}

inline std::uint8_t
horizontalMaxU8(__m128i x)
{
    x = _mm_max_epu8(x, _mm_srli_si128(x, 8));
    x = _mm_max_epu8(x, _mm_srli_si128(x, 4));
    x = _mm_max_epu8(x, _mm_srli_si128(x, 2));
    x = _mm_max_epu8(x, _mm_srli_si128(x, 1));
    return static_cast<std::uint8_t>(_mm_cvtsi128_si32(x));
}

/** flags[i] ? rank[i] + 1 : 0, the masked key deepestSetLane scans. */
inline __m128i
maskedRankSse2(const std::uint8_t *flags, const std::uint8_t *rank,
               std::size_t i)
{
    const __m128i f =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(flags + i));
    const __m128i r =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(rank + i));
    const __m128i dead = _mm_cmpeq_epi8(f, _mm_setzero_si128());
    return _mm_andnot_si128(dead,
                            _mm_add_epi8(r, _mm_set1_epi8(1)));
}

/** maskedRankSse2 over an 8-byte half vector (upper lanes zero). */
inline __m128i
maskedRank8Sse2(const std::uint8_t *flags, const std::uint8_t *rank,
                std::size_t i)
{
    const __m128i f = _mm_loadl_epi64(
        reinterpret_cast<const __m128i *>(flags + i));
    const __m128i r = _mm_loadl_epi64(
        reinterpret_cast<const __m128i *>(rank + i));
    const __m128i dead = _mm_cmpeq_epi8(f, _mm_setzero_si128());
    // The upper eight lanes load as zero flags, so the andnot zeroes
    // their keys — they can never win the max or match a nonzero
    // best.
    return _mm_andnot_si128(dead,
                            _mm_add_epi8(r, _mm_set1_epi8(1)));
}

inline std::size_t
deepestSetSse2(const std::uint8_t *flags, const std::uint8_t *rank,
               std::size_t n)
{
    // Pass 1: the maximum of rank+1 over flagged lanes (0 if none).
    // Ranks are <= 254 so the +1 bias cannot wrap.
    __m128i vmax = _mm_setzero_si128();
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16)
        vmax = _mm_max_epu8(vmax, maskedRankSse2(flags, rank, i));
    if (i + 8 <= n) {
        vmax = _mm_max_epu8(vmax, maskedRank8Sse2(flags, rank, i));
        i += 8;
    }
    std::uint8_t best = horizontalMaxU8(vmax);
    for (; i < n; ++i) {
        const std::uint8_t key =
            flags[i] != 0 ? static_cast<std::uint8_t>(rank[i] + 1) : 0;
        if (key > best)
            best = key;
    }
    if (best == 0)
        return n;
    // Pass 2: the first lane holding that maximum — the same index
    // the scalar strictly-greater scan keeps.
    const __m128i want = _mm_set1_epi8(static_cast<char>(best));
    for (i = 0; i + 16 <= n; i += 16) {
        const unsigned hit =
            static_cast<unsigned>(_mm_movemask_epi8(_mm_cmpeq_epi8(
                maskedRankSse2(flags, rank, i), want)));
        if (hit != 0)
            return i + static_cast<unsigned>(__builtin_ctz(hit));
    }
    if (i + 8 <= n) {
        const unsigned hit =
            static_cast<unsigned>(_mm_movemask_epi8(_mm_cmpeq_epi8(
                maskedRank8Sse2(flags, rank, i), want))) &
            0xffu;
        if (hit != 0)
            return i + static_cast<unsigned>(__builtin_ctz(hit));
        i += 8;
    }
    for (; i < n; ++i) {
        const std::uint8_t key =
            flags[i] != 0 ? static_cast<std::uint8_t>(rank[i] + 1) : 0;
        if (key == best)
            return i;
    }
    return n;
}

inline std::uint8_t
maxLaneSse2(const std::uint8_t *v, std::size_t n)
{
    __m128i vmax = _mm_setzero_si128();
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16)
        vmax = _mm_max_epu8(
            vmax,
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(v + i)));
    if (i + 8 <= n) {
        // Zero upper lanes cannot raise an unsigned max.
        vmax = _mm_max_epu8(
            vmax, _mm_loadl_epi64(
                      reinterpret_cast<const __m128i *>(v + i)));
        i += 8;
    }
    std::uint8_t best = horizontalMaxU8(vmax);
    for (; i < n; ++i)
        if (v[i] > best)
            best = v[i];
    return best;
}

inline void
addToLanesSse2(std::uint8_t *v, std::size_t n, std::uint8_t delta)
{
    const __m128i d = _mm_set1_epi8(static_cast<char>(delta));
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        __m128i *p = reinterpret_cast<__m128i *>(v + i);
        _mm_storeu_si128(p, _mm_add_epi8(_mm_loadu_si128(p), d));
    }
    for (; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(v[i] + delta);
}

inline std::size_t
matchTagSse2(const Addr *tags, const std::uint8_t *valid,
             std::size_t n, Addr tag)
{
    const __m128i want = _mm_set1_epi64x(static_cast<long long>(tag));
    std::size_t i = 0;
    while (i + 2 <= n) {
        // Accumulate up to 64 lanes of match bits branch-free, then
        // resolve the set bits once: any real associativity fits one
        // pass, and skipping the per-vector early exit avoids a
        // mispredicted branch on every randomly-positioned hit.
        const std::size_t base = i;
        std::uint64_t hits = 0;
        for (; i + 2 <= n && i - base < 64; i += 2) {
            const __m128i t = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(tags + i));
            // 64-bit equality from two 32-bit compares: a lane
            // matches only when both halves do.
            const __m128i eq32 = _mm_cmpeq_epi32(t, want);
            const __m128i eq64 = _mm_and_si128(
                eq32, _mm_shuffle_epi32(eq32, _MM_SHUFFLE(2, 3, 0, 1)));
            const unsigned m = static_cast<unsigned>(
                _mm_movemask_pd(_mm_castsi128_pd(eq64)));
            hits |= static_cast<std::uint64_t>(m) << (i - base);
        }
        while (hits != 0) {
            const std::size_t lane =
                base + static_cast<unsigned>(__builtin_ctzll(hits));
            if (valid[lane] != 0)
                return lane;
            hits &= hits - 1;
        }
    }
    for (; i < n; ++i)
        if (valid[i] != 0 && tags[i] == tag)
            return i;
    return n;
}

inline void
shiftOrSse2(std::uint64_t *v, const std::uint8_t *shifts,
            std::size_t n, std::uint8_t common_shift,
            std::uint64_t common_or, std::uint64_t other_or)
{
    // SSE2 has no per-lane variable 64-bit shift; the vector body
    // handles the overwhelmingly common all-common-shift pair (one
    // page size) and odd pairs fall back to scalar lanes — exact
    // integer ops, so results are bit-identical either way.
    const __m128i count =
        _mm_cvtsi32_si128(static_cast<int>(common_shift));
    const __m128i orv =
        _mm_set1_epi64x(static_cast<long long>(common_or));
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        if (shifts[i] == common_shift && shifts[i + 1] == common_shift) {
            __m128i *p = reinterpret_cast<__m128i *>(v + i);
            _mm_storeu_si128(
                p, _mm_or_si128(_mm_srl_epi64(_mm_loadu_si128(p), count),
                                orv));
        } else {
            v[i] = (v[i] >> shifts[i]) |
                   (shifts[i] == common_shift ? common_or : other_or);
            v[i + 1] =
                (v[i + 1] >> shifts[i + 1]) |
                (shifts[i + 1] == common_shift ? common_or : other_or);
        }
    }
    for (; i < n; ++i) {
        v[i] = (v[i] >> shifts[i]) |
               (shifts[i] == common_shift ? common_or : other_or);
    }
}

/** Low 64 bits of a 64x64 multiply, per lane (SSE2 has no mullo64). */
inline __m128i
mul64Sse2(__m128i a, __m128i b)
{
    const __m128i ll = _mm_mul_epu32(a, b);
    const __m128i hl = _mm_mul_epu32(_mm_srli_epi64(a, 32), b);
    const __m128i lh = _mm_mul_epu32(a, _mm_srli_epi64(b, 32));
    return _mm_add_epi64(
        ll, _mm_slli_epi64(_mm_add_epi64(hl, lh), 32));
}

/**
 * Lane-wise ladder XOR-fold.  foldXor is an XOR of nbits-wide chunks;
 * XOR is associative, so halving the live chunk count each step
 * (v ^= v >> half*nbits, then mask) lands on the identical value in
 * log steps.  The shift counts depend only on nbits, so one sequence
 * serves every lane.
 */
inline __m128i
foldLadderSse2(__m128i v, unsigned nbits)
{
    unsigned chunks = (64 + nbits - 1) / nbits;
    while (chunks > 1) {
        const unsigned half = (chunks + 1) / 2;
        const unsigned shift = half * nbits;
        const __m128i mask =
            _mm_set1_epi64x(static_cast<long long>(maskBits(shift)));
        if (shift < 64)
            v = _mm_xor_si128(v, _mm_srli_epi64(v, shift));
        v = _mm_and_si128(v, mask);
        chunks = half;
    }
    return v;
}

inline void
xorFoldSse2(std::uint64_t *v, std::size_t n, unsigned nbits)
{
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        __m128i *p = reinterpret_cast<__m128i *>(v + i);
        _mm_storeu_si128(p, foldLadderSse2(_mm_loadu_si128(p), nbits));
    }
    for (; i < n; ++i)
        v[i] = foldXor(v[i], nbits);
}

inline void
mulXorFoldSse2(std::uint64_t *v, std::size_t n, std::uint64_t k,
               unsigned nbits)
{
    const __m128i kv = _mm_set1_epi64x(static_cast<long long>(k));
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        __m128i *p = reinterpret_cast<__m128i *>(v + i);
        _mm_storeu_si128(
            p, foldLadderSse2(mul64Sse2(_mm_loadu_si128(p), kv), nbits));
    }
    for (; i < n; ++i)
        v[i] = foldXor(v[i] * k, nbits);
}

/** The precomputed ladder of a FoldPlan, two lanes at a time. */
inline __m128i
foldPlanSse2(__m128i v, const FoldPlan &plan)
{
    for (unsigned s = 0; s < plan.steps; ++s) {
        v = _mm_xor_si128(
            v, _mm_srli_epi64(v, static_cast<int>(plan.shift[s])));
        v = _mm_and_si128(
            v, _mm_set1_epi64x(
                   static_cast<long long>(plan.mask[s])));
    }
    return v;
}

inline void
xorFoldPlanSse2(std::uint64_t *v, std::size_t n, const FoldPlan &plan)
{
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        __m128i *p = reinterpret_cast<__m128i *>(v + i);
        _mm_storeu_si128(p, foldPlanSse2(_mm_loadu_si128(p), plan));
    }
    for (; i < n; ++i)
        v[i] = plan.apply(v[i]);
}

inline void
mulXorFoldPlanSse2(std::uint64_t *v, std::size_t n, std::uint64_t k,
                   const FoldPlan &plan)
{
    const __m128i kv = _mm_set1_epi64x(static_cast<long long>(k));
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        __m128i *p = reinterpret_cast<__m128i *>(v + i);
        _mm_storeu_si128(
            p, foldPlanSse2(mul64Sse2(_mm_loadu_si128(p), kv), plan));
    }
    for (; i < n; ++i)
        v[i] = plan.apply(v[i] * k);
}

inline void
xorFoldSigSse2(const std::uint64_t *base, std::size_t n,
               std::uint64_t xor_term, const FoldPlan &plan,
               std::uint16_t *sigs)
{
    const __m128i xv = _mm_set1_epi64x(static_cast<long long>(xor_term));
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const __m128i v = foldPlanSse2(
            _mm_xor_si128(_mm_loadu_si128(reinterpret_cast<const __m128i *>(
                              base + i)),
                          xv),
            plan);
        sigs[i] = static_cast<std::uint16_t>(
            static_cast<std::uint64_t>(_mm_cvtsi128_si64(v)));
        sigs[i + 1] = static_cast<std::uint16_t>(
            static_cast<std::uint64_t>(
                _mm_cvtsi128_si64(_mm_unpackhi_epi64(v, v))));
    }
    for (; i < n; ++i)
        sigs[i] =
            static_cast<std::uint16_t>(plan.apply(base[i] ^ xor_term));
}

inline void
sigIndexSse2(const std::uint64_t *base, std::size_t n,
             std::uint64_t xor_term, const FoldPlan &sig_plan,
             std::uint64_t salt, std::uint64_t k,
             const FoldPlan &idx_plan, std::uint32_t idx_or,
             std::uint16_t *sigs, std::uint32_t *idxs)
{
    const __m128i xv = _mm_set1_epi64x(static_cast<long long>(xor_term));
    const __m128i saltv = _mm_set1_epi64x(static_cast<long long>(salt));
    const __m128i kv = _mm_set1_epi64x(static_cast<long long>(k));
    const __m128i low16 = _mm_set1_epi64x(0xffff);
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        __m128i v = foldPlanSse2(
            _mm_xor_si128(_mm_loadu_si128(reinterpret_cast<const __m128i *>(
                              base + i)),
                          xv),
            sig_plan);
        // Index formation sees the u16-truncated stored signature.
        v = _mm_and_si128(v, low16);
        sigs[i] = static_cast<std::uint16_t>(
            static_cast<std::uint64_t>(_mm_cvtsi128_si64(v)));
        sigs[i + 1] = static_cast<std::uint16_t>(
            static_cast<std::uint64_t>(
                _mm_cvtsi128_si64(_mm_unpackhi_epi64(v, v))));
        v = foldPlanSse2(mul64Sse2(_mm_xor_si128(v, saltv), kv),
                         idx_plan);
        idxs[i] = idx_or |
                  static_cast<std::uint32_t>(static_cast<std::uint64_t>(
                      _mm_cvtsi128_si64(v)));
        idxs[i + 1] =
            idx_or |
            static_cast<std::uint32_t>(static_cast<std::uint64_t>(
                _mm_cvtsi128_si64(_mm_unpackhi_epi64(v, v))));
    }
    for (; i < n; ++i) {
        const std::uint16_t sig = static_cast<std::uint16_t>(
            sig_plan.apply(base[i] ^ xor_term));
        sigs[i] = sig;
        idxs[i] =
            idx_or |
            static_cast<std::uint32_t>(idx_plan.apply(
                (static_cast<std::uint64_t>(sig) ^ salt) * k));
    }
}

/*
 * AVX2 variants — out of line in simd.cc (a per-function target
 * attribute blocks inlining into plain callers), entered by the
 * dispatchers below only when the input fills at least one 256-bit
 * vector; their tails delegate back to the SSE2 bodies, so results
 * are bit-identical at every size.
 */

std::size_t firstSetAvx2(const std::uint8_t *v, std::size_t n);
std::size_t firstClearAvx2(const std::uint8_t *v, std::size_t n);
std::size_t firstAtLeastAvx2(const std::uint8_t *v, std::size_t n,
                             std::uint8_t limit);
std::size_t deepestSetAvx2(const std::uint8_t *flags,
                           const std::uint8_t *rank, std::size_t n);
std::uint8_t maxLaneAvx2(const std::uint8_t *v, std::size_t n);
void addToLanesAvx2(std::uint8_t *v, std::size_t n,
                    std::uint8_t delta);
std::size_t matchTagAvx2(const Addr *tags, const std::uint8_t *valid,
                         std::size_t n, Addr tag);
void shiftOrAvx2(std::uint64_t *v, const std::uint8_t *shifts,
                 std::size_t n, std::uint8_t common_shift,
                 std::uint64_t common_or, std::uint64_t other_or);
void xorFoldAvx2(std::uint64_t *v, std::size_t n, unsigned nbits);
void mulXorFoldAvx2(std::uint64_t *v, std::size_t n, std::uint64_t k,
                    unsigned nbits);
void xorFoldPlanAvx2(std::uint64_t *v, std::size_t n,
                     const FoldPlan &plan);
void mulXorFoldPlanAvx2(std::uint64_t *v, std::size_t n,
                        std::uint64_t k, const FoldPlan &plan);
void xorFoldSigAvx2(const std::uint64_t *base, std::size_t n,
                    std::uint64_t xor_term, const FoldPlan &plan,
                    std::uint16_t *sigs);
void sigIndexAvx2(const std::uint64_t *base, std::size_t n,
                  std::uint64_t xor_term, const FoldPlan &sig_plan,
                  std::uint64_t salt, std::uint64_t k,
                  const FoldPlan &idx_plan, std::uint32_t idx_or,
                  std::uint16_t *sigs, std::uint32_t *idxs);

/** Lanes an AVX2 byte kernel needs before the 256-bit loop runs. */
inline constexpr std::size_t kAvx2Bytes = 32;
/** 64-bit lanes an AVX2 u64 kernel needs (one full vector). */
inline constexpr std::size_t kAvx2Words = 4;

#endif // CHIRP_SIMD_X86

#ifdef CHIRP_SIMD_NEON

/* NEON variants — baseline on aarch64, no runtime check needed. */

inline std::uint64_t
laneMask64(uint8x16_t cmp)
{
    // Compress the 16 byte-lanes of a compare result to a nibble-per
    // lane bitmask (NEON has no movemask; shrn by 4 is the idiom).
    const uint8x8_t narrowed =
        vshrn_n_u16(vreinterpretq_u16_u8(cmp), 4);
    return vget_lane_u64(vreinterpret_u64_u8(narrowed), 0);
}

inline std::size_t
firstSetNeon(const std::uint8_t *v, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const uint8x16_t x = vld1q_u8(v + i);
        const std::uint64_t set =
            ~laneMask64(vceqq_u8(x, vdupq_n_u8(0)));
        if (set != 0)
            return i + static_cast<unsigned>(__builtin_ctzll(set)) / 4;
    }
    for (; i < n; ++i)
        if (v[i] != 0)
            return i;
    return n;
}

inline std::size_t
firstClearNeon(const std::uint8_t *v, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const uint8x16_t x = vld1q_u8(v + i);
        const std::uint64_t zeros =
            laneMask64(vceqq_u8(x, vdupq_n_u8(0)));
        if (zeros != 0)
            return i +
                   static_cast<unsigned>(__builtin_ctzll(zeros)) / 4;
    }
    for (; i < n; ++i)
        if (v[i] == 0)
            return i;
    return n;
}

inline std::size_t
firstAtLeastNeon(const std::uint8_t *v, std::size_t n,
                 std::uint8_t limit)
{
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const uint8x16_t x = vld1q_u8(v + i);
        const std::uint64_t ge =
            laneMask64(vcgeq_u8(x, vdupq_n_u8(limit)));
        if (ge != 0)
            return i + static_cast<unsigned>(__builtin_ctzll(ge)) / 4;
    }
    for (; i < n; ++i)
        if (v[i] >= limit)
            return i;
    return n;
}

inline uint8x16_t
maskedRankNeon(const std::uint8_t *flags, const std::uint8_t *rank,
               std::size_t i)
{
    const uint8x16_t live = vtstq_u8(vld1q_u8(flags + i),
                                     vdupq_n_u8(0xff));
    return vandq_u8(live, vaddq_u8(vld1q_u8(rank + i), vdupq_n_u8(1)));
}

inline std::size_t
deepestSetNeon(const std::uint8_t *flags, const std::uint8_t *rank,
               std::size_t n)
{
    uint8x16_t vmax = vdupq_n_u8(0);
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16)
        vmax = vmaxq_u8(vmax, maskedRankNeon(flags, rank, i));
    std::uint8_t best = vmaxvq_u8(vmax);
    for (std::size_t j = i; j < n; ++j) {
        const std::uint8_t key =
            flags[j] != 0 ? static_cast<std::uint8_t>(rank[j] + 1) : 0;
        if (key > best)
            best = key;
    }
    if (best == 0)
        return n;
    for (i = 0; i + 16 <= n; i += 16) {
        const std::uint64_t hit = laneMask64(
            vceqq_u8(maskedRankNeon(flags, rank, i), vdupq_n_u8(best)));
        if (hit != 0)
            return i + static_cast<unsigned>(__builtin_ctzll(hit)) / 4;
    }
    for (; i < n; ++i) {
        const std::uint8_t key =
            flags[i] != 0 ? static_cast<std::uint8_t>(rank[i] + 1) : 0;
        if (key == best)
            return i;
    }
    return n;
}

inline std::uint8_t
maxLaneNeon(const std::uint8_t *v, std::size_t n)
{
    uint8x16_t vmax = vdupq_n_u8(0);
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16)
        vmax = vmaxq_u8(vmax, vld1q_u8(v + i));
    std::uint8_t best = vmaxvq_u8(vmax);
    for (; i < n; ++i)
        if (v[i] > best)
            best = v[i];
    return best;
}

inline void
addToLanesNeon(std::uint8_t *v, std::size_t n, std::uint8_t delta)
{
    const uint8x16_t d = vdupq_n_u8(delta);
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16)
        vst1q_u8(v + i, vaddq_u8(vld1q_u8(v + i), d));
    for (; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(v[i] + delta);
}

inline std::size_t
matchTagNeon(const Addr *tags, const std::uint8_t *valid,
             std::size_t n, Addr tag)
{
    const uint64x2_t want = vdupq_n_u64(tag);
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const uint64x2_t eq = vceqq_u64(vld1q_u64(tags + i), want);
        if (vgetq_lane_u64(eq, 0) != 0 && valid[i] != 0)
            return i;
        if (vgetq_lane_u64(eq, 1) != 0 && valid[i + 1] != 0)
            return i + 1;
    }
    for (; i < n; ++i)
        if (valid[i] != 0 && tags[i] == tag)
            return i;
    return n;
}

inline void
shiftOrNeon(std::uint64_t *v, const std::uint8_t *shifts,
            std::size_t n, std::uint8_t common_shift,
            std::uint64_t common_or, std::uint64_t other_or)
{
    // vshlq with negative per-lane counts is a per-lane right shift,
    // so mixed page sizes stay on the vector path.
    const uint64x2_t cshift = vdupq_n_u64(common_shift);
    const uint64x2_t corv = vdupq_n_u64(common_or);
    const uint64x2_t oorv = vdupq_n_u64(other_or);
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const uint64x2_t s = vcombine_u64(vcreate_u64(shifts[i]),
                                          vcreate_u64(shifts[i + 1]));
        const int64x2_t neg =
            vnegq_s64(vreinterpretq_s64_u64(s));
        const uint64x2_t shifted = vshlq_u64(vld1q_u64(v + i), neg);
        const uint64x2_t is_common = vceqq_u64(s, cshift);
        const uint64x2_t orv = vbslq_u64(is_common, corv, oorv);
        vst1q_u64(v + i, vorrq_u64(shifted, orv));
    }
    for (; i < n; ++i) {
        v[i] = (v[i] >> shifts[i]) |
               (shifts[i] == common_shift ? common_or : other_or);
    }
}

inline uint64x2_t
foldLadderNeon(uint64x2_t v, unsigned nbits)
{
    unsigned chunks = (64 + nbits - 1) / nbits;
    while (chunks > 1) {
        const unsigned half = (chunks + 1) / 2;
        const unsigned shift = half * nbits;
        const uint64x2_t mask = vdupq_n_u64(maskBits(shift));
        if (shift < 64)
            v = veorq_u64(
                v, vshlq_u64(v, vdupq_n_s64(
                                    -static_cast<std::int64_t>(shift))));
        v = vandq_u64(v, mask);
        chunks = half;
    }
    return v;
}

inline void
xorFoldNeon(std::uint64_t *v, std::size_t n, unsigned nbits)
{
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2)
        vst1q_u64(v + i, foldLadderNeon(vld1q_u64(v + i), nbits));
    for (; i < n; ++i)
        v[i] = foldXor(v[i], nbits);
}

inline void
mulXorFoldNeon(std::uint64_t *v, std::size_t n, std::uint64_t k,
               unsigned nbits)
{
    // NEON has no 64-bit lane multiply; the scalar multiply feeds the
    // vector ladder two lanes at a time.
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        std::uint64_t prod[2] = {v[i] * k, v[i + 1] * k};
        vst1q_u64(v + i, foldLadderNeon(vld1q_u64(prod), nbits));
    }
    for (; i < n; ++i)
        v[i] = foldXor(v[i] * k, nbits);
}

/** The precomputed ladder of a FoldPlan, two lanes at a time. */
inline uint64x2_t
foldPlanNeon(uint64x2_t v, const FoldPlan &plan)
{
    for (unsigned s = 0; s < plan.steps; ++s) {
        v = veorq_u64(
            v, vshlq_u64(
                   v, vdupq_n_s64(-static_cast<std::int64_t>(
                          plan.shift[s]))));
        v = vandq_u64(v, vdupq_n_u64(plan.mask[s]));
    }
    return v;
}

inline void
xorFoldPlanNeon(std::uint64_t *v, std::size_t n, const FoldPlan &plan)
{
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2)
        vst1q_u64(v + i, foldPlanNeon(vld1q_u64(v + i), plan));
    for (; i < n; ++i)
        v[i] = plan.apply(v[i]);
}

inline void
mulXorFoldPlanNeon(std::uint64_t *v, std::size_t n, std::uint64_t k,
                   const FoldPlan &plan)
{
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        std::uint64_t prod[2] = {v[i] * k, v[i + 1] * k};
        vst1q_u64(v + i, foldPlanNeon(vld1q_u64(prod), plan));
    }
    for (; i < n; ++i)
        v[i] = plan.apply(v[i] * k);
}

inline void
xorFoldSigNeon(const std::uint64_t *base, std::size_t n,
               std::uint64_t xor_term, const FoldPlan &plan,
               std::uint16_t *sigs)
{
    const uint64x2_t xv = vdupq_n_u64(xor_term);
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const uint64x2_t v =
            foldPlanNeon(veorq_u64(vld1q_u64(base + i), xv), plan);
        sigs[i] = static_cast<std::uint16_t>(vgetq_lane_u64(v, 0));
        sigs[i + 1] = static_cast<std::uint16_t>(vgetq_lane_u64(v, 1));
    }
    for (; i < n; ++i)
        sigs[i] =
            static_cast<std::uint16_t>(plan.apply(base[i] ^ xor_term));
}

inline void
sigIndexNeon(const std::uint64_t *base, std::size_t n,
             std::uint64_t xor_term, const FoldPlan &sig_plan,
             std::uint64_t salt, std::uint64_t k,
             const FoldPlan &idx_plan, std::uint32_t idx_or,
             std::uint16_t *sigs, std::uint32_t *idxs)
{
    // As in mulXorFoldPlanNeon, the 64-bit multiply is scalar (no
    // 64-bit lane multiply on NEON) and the ladders run two lanes at
    // a time.
    const uint64x2_t xv = vdupq_n_u64(xor_term);
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const uint64x2_t v =
            foldPlanNeon(veorq_u64(vld1q_u64(base + i), xv), sig_plan);
        const std::uint16_t s0 =
            static_cast<std::uint16_t>(vgetq_lane_u64(v, 0));
        const std::uint16_t s1 =
            static_cast<std::uint16_t>(vgetq_lane_u64(v, 1));
        sigs[i] = s0;
        sigs[i + 1] = s1;
        std::uint64_t prod[2] = {
            (static_cast<std::uint64_t>(s0) ^ salt) * k,
            (static_cast<std::uint64_t>(s1) ^ salt) * k};
        const uint64x2_t x = foldPlanNeon(vld1q_u64(prod), idx_plan);
        idxs[i] = idx_or | static_cast<std::uint32_t>(
                               vgetq_lane_u64(x, 0));
        idxs[i + 1] = idx_or | static_cast<std::uint32_t>(
                                   vgetq_lane_u64(x, 1));
    }
    for (; i < n; ++i) {
        const std::uint16_t sig = static_cast<std::uint16_t>(
            sig_plan.apply(base[i] ^ xor_term));
        sigs[i] = sig;
        idxs[i] =
            idx_or |
            static_cast<std::uint32_t>(idx_plan.apply(
                (static_cast<std::uint64_t>(sig) ^ salt) * k));
    }
}

#endif // CHIRP_SIMD_NEON

} // namespace detail

/**
 * The backend every kernel dispatches to: the strongest ISA compiled
 * in and supported by this host, unless CHIRP_FORCE_SCALAR demotes it
 * to Scalar.  Detected once and cached; tests that flip the
 * environment at runtime call refreshBackend().
 */
inline Backend
activeBackend()
{
    return detail::g_backend;
}

/** Index of the first nonzero lane of @p v, or @p n (dead-bit scan). */
inline std::size_t
firstSetLane(const std::uint8_t *v, std::size_t n)
{
#if defined(CHIRP_SIMD_X86)
    const Backend b = detail::g_backend;
    if (b == Backend::Scalar)
        return detail::firstSetScalar(v, n);
    if (b == Backend::Avx2 && n >= detail::kAvx2Bytes)
        return detail::firstSetAvx2(v, n);
    return detail::firstSetSse2(v, n);
#elif defined(CHIRP_SIMD_NEON)
    if (detail::g_backend == Backend::Scalar)
        return detail::firstSetScalar(v, n);
    return detail::firstSetNeon(v, n);
#else
    return detail::firstSetScalar(v, n);
#endif
}

/** Index of the first zero lane of @p v, or @p n (invalid-way scan). */
inline std::size_t
firstClearLane(const std::uint8_t *v, std::size_t n)
{
#if defined(CHIRP_SIMD_X86)
    const Backend b = detail::g_backend;
    if (b == Backend::Scalar)
        return detail::firstClearScalar(v, n);
    if (b == Backend::Avx2 && n >= detail::kAvx2Bytes)
        return detail::firstClearAvx2(v, n);
    return detail::firstClearSse2(v, n);
#elif defined(CHIRP_SIMD_NEON)
    if (detail::g_backend == Backend::Scalar)
        return detail::firstClearScalar(v, n);
    return detail::firstClearNeon(v, n);
#else
    return detail::firstClearScalar(v, n);
#endif
}

/** Index of the first lane with v[i] >= limit, or @p n (RRPV scan). */
inline std::size_t
firstLaneAtLeast(const std::uint8_t *v, std::size_t n,
                 std::uint8_t limit)
{
#if defined(CHIRP_SIMD_X86)
    const Backend b = detail::g_backend;
    if (b == Backend::Scalar)
        return detail::firstAtLeastScalar(v, n, limit);
    if (b == Backend::Avx2 && n >= detail::kAvx2Bytes)
        return detail::firstAtLeastAvx2(v, n, limit);
    return detail::firstAtLeastSse2(v, n, limit);
#elif defined(CHIRP_SIMD_NEON)
    if (detail::g_backend == Backend::Scalar)
        return detail::firstAtLeastScalar(v, n, limit);
    return detail::firstAtLeastNeon(v, n, limit);
#else
    return detail::firstAtLeastScalar(v, n, limit);
#endif
}

/**
 * Among lanes with flags[i] != 0, the index of the first lane whose
 * rank[i] is maximal (strictly-greater updates, so the earliest
 * maximum wins — the CHiRP deepest-dead victim contract); @p n when
 * no flag is set.  Ranks must be <= 254 (they are recency positions,
 * bounded by the associativity).
 */
inline std::size_t
deepestSetLane(const std::uint8_t *flags, const std::uint8_t *rank,
               std::size_t n)
{
#if defined(CHIRP_SIMD_X86)
    const Backend b = detail::g_backend;
    if (b == Backend::Scalar)
        return detail::deepestSetScalar(flags, rank, n);
    if (b == Backend::Avx2 && n >= detail::kAvx2Bytes)
        return detail::deepestSetAvx2(flags, rank, n);
    return detail::deepestSetSse2(flags, rank, n);
#elif defined(CHIRP_SIMD_NEON)
    if (detail::g_backend == Backend::Scalar)
        return detail::deepestSetScalar(flags, rank, n);
    return detail::deepestSetNeon(flags, rank, n);
#else
    return detail::deepestSetScalar(flags, rank, n);
#endif
}

/** Maximum lane value, 0 when @p n == 0 (RRIP aging deficit). */
inline std::uint8_t
maxLane(const std::uint8_t *v, std::size_t n)
{
#if defined(CHIRP_SIMD_X86)
    const Backend b = detail::g_backend;
    if (b == Backend::Scalar)
        return detail::maxLaneScalar(v, n);
    if (b == Backend::Avx2 && n >= detail::kAvx2Bytes)
        return detail::maxLaneAvx2(v, n);
    return detail::maxLaneSse2(v, n);
#elif defined(CHIRP_SIMD_NEON)
    if (detail::g_backend == Backend::Scalar)
        return detail::maxLaneScalar(v, n);
    return detail::maxLaneNeon(v, n);
#else
    return detail::maxLaneScalar(v, n);
#endif
}

/** Add @p delta to every lane (no saturation; caller bounds it). */
inline void
addToLanes(std::uint8_t *v, std::size_t n, std::uint8_t delta)
{
#if defined(CHIRP_SIMD_X86)
    const Backend b = detail::g_backend;
    if (b == Backend::Scalar)
        return detail::addToLanesScalar(v, n, delta);
    if (b == Backend::Avx2 && n >= detail::kAvx2Bytes)
        return detail::addToLanesAvx2(v, n, delta);
    return detail::addToLanesSse2(v, n, delta);
#elif defined(CHIRP_SIMD_NEON)
    if (detail::g_backend == Backend::Scalar)
        return detail::addToLanesScalar(v, n, delta);
    return detail::addToLanesNeon(v, n, delta);
#else
    return detail::addToLanesScalar(v, n, delta);
#endif
}

/**
 * Index of the first lane with valid[i] != 0 and tags[i] == tag, or
 * @p n — the set-associative tag match.
 */
inline std::size_t
matchTagLane(const Addr *tags, const std::uint8_t *valid,
             std::size_t n, Addr tag)
{
#if defined(CHIRP_SIMD_X86)
    const Backend b = detail::g_backend;
    if (b == Backend::Scalar)
        return detail::matchTagScalar(tags, valid, n, tag);
    if (b == Backend::Avx2 && n >= detail::kAvx2Words)
        return detail::matchTagAvx2(tags, valid, n, tag);
    return detail::matchTagSse2(tags, valid, n, tag);
#elif defined(CHIRP_SIMD_NEON)
    if (detail::g_backend == Backend::Scalar)
        return detail::matchTagScalar(tags, valid, n, tag);
    return detail::matchTagNeon(tags, valid, n, tag);
#else
    return detail::matchTagScalar(tags, valid, n, tag);
#endif
}

/**
 * Lane-wise shift-then-or: v[i] = (v[i] >> shifts[i]) |
 * (shifts[i] == common_shift ? common_or : other_or) — the TLB key
 * composition (VPN extract plus size-class/ASID tag bits) over a lane
 * of virtual addresses.  @p common_shift is the page shift the caller
 * expects to dominate (the base page size); lanes using any other
 * shift get @p other_or instead.
 */
inline void
shiftOrLanes(std::uint64_t *v, const std::uint8_t *shifts,
             std::size_t n, std::uint8_t common_shift,
             std::uint64_t common_or, std::uint64_t other_or)
{
#if defined(CHIRP_SIMD_X86)
    const Backend b = detail::g_backend;
    if (b == Backend::Scalar)
        return detail::shiftOrScalar(v, shifts, n, common_shift,
                                     common_or, other_or);
    if (b == Backend::Avx2 && n >= detail::kAvx2Words)
        return detail::shiftOrAvx2(v, shifts, n, common_shift,
                                   common_or, other_or);
    return detail::shiftOrSse2(v, shifts, n, common_shift, common_or,
                               other_or);
#elif defined(CHIRP_SIMD_NEON)
    if (detail::g_backend == Backend::Scalar)
        return detail::shiftOrScalar(v, shifts, n, common_shift,
                                     common_or, other_or);
    return detail::shiftOrNeon(v, shifts, n, common_shift, common_or,
                               other_or);
#else
    return detail::shiftOrScalar(v, shifts, n, common_shift, common_or,
                                 other_or);
#endif
}

/**
 * Lane-wise foldXor: v[i] = foldXor(v[i], nbits) for every lane —
 * GHRP's per-table signature composition (one lane per table).
 */
inline void
xorFoldLanes(std::uint64_t *v, std::size_t n, unsigned nbits)
{
#if defined(CHIRP_SIMD_X86)
    const Backend b = detail::g_backend;
    if (b == Backend::Scalar)
        return detail::xorFoldScalar(v, n, nbits);
    if (b == Backend::Avx2 && n >= detail::kAvx2Words)
        return detail::xorFoldAvx2(v, n, nbits);
    return detail::xorFoldSse2(v, n, nbits);
#elif defined(CHIRP_SIMD_NEON)
    if (detail::g_backend == Backend::Scalar)
        return detail::xorFoldScalar(v, n, nbits);
    return detail::xorFoldNeon(v, n, nbits);
#else
    return detail::xorFoldScalar(v, n, nbits);
#endif
}

/**
 * Lane-wise multiplicative index hash: v[i] = foldXor(v[i] * k,
 * nbits) — the indexHash of every prediction table, applied to all
 * lanes at once (GHRP's three table indices per access).
 */
inline void
mulXorFoldLanes(std::uint64_t *v, std::size_t n, std::uint64_t k,
                unsigned nbits)
{
#if defined(CHIRP_SIMD_X86)
    const Backend b = detail::g_backend;
    if (b == Backend::Scalar)
        return detail::mulXorFoldScalar(v, n, k, nbits);
    if (b == Backend::Avx2 && n >= detail::kAvx2Words)
        return detail::mulXorFoldAvx2(v, n, k, nbits);
    return detail::mulXorFoldSse2(v, n, k, nbits);
#elif defined(CHIRP_SIMD_NEON)
    if (detail::g_backend == Backend::Scalar)
        return detail::mulXorFoldScalar(v, n, k, nbits);
    return detail::mulXorFoldNeon(v, n, k, nbits);
#else
    return detail::mulXorFoldScalar(v, n, k, nbits);
#endif
}

/**
 * xorFoldLanes with the ladder precomputed: identical results to the
 * nbits overload for plan = FoldPlan(nbits), without the per-call
 * chunk-count division and mask formation — the form the per-access
 * GHRP composition uses.
 */
inline void
xorFoldLanes(std::uint64_t *v, std::size_t n, const FoldPlan &plan)
{
#if defined(CHIRP_SIMD_X86)
    const Backend b = detail::g_backend;
    if (b == Backend::Scalar)
        return detail::xorFoldPlanScalar(v, n, plan);
    if (b == Backend::Avx2 && n >= detail::kAvx2Words)
        return detail::xorFoldPlanAvx2(v, n, plan);
    return detail::xorFoldPlanSse2(v, n, plan);
#elif defined(CHIRP_SIMD_NEON)
    if (detail::g_backend == Backend::Scalar)
        return detail::xorFoldPlanScalar(v, n, plan);
    return detail::xorFoldPlanNeon(v, n, plan);
#else
    return detail::xorFoldPlanScalar(v, n, plan);
#endif
}

/** mulXorFoldLanes with the ladder precomputed (see above). */
inline void
mulXorFoldLanes(std::uint64_t *v, std::size_t n, std::uint64_t k,
                const FoldPlan &plan)
{
#if defined(CHIRP_SIMD_X86)
    const Backend b = detail::g_backend;
    if (b == Backend::Scalar)
        return detail::mulXorFoldPlanScalar(v, n, k, plan);
    if (b == Backend::Avx2 && n >= detail::kAvx2Words)
        return detail::mulXorFoldPlanAvx2(v, n, k, plan);
    return detail::mulXorFoldPlanSse2(v, n, k, plan);
#elif defined(CHIRP_SIMD_NEON)
    if (detail::g_backend == Backend::Scalar)
        return detail::mulXorFoldPlanScalar(v, n, k, plan);
    return detail::mulXorFoldPlanNeon(v, n, k, plan);
#else
    return detail::mulXorFoldPlanScalar(v, n, k, plan);
#endif
}

/**
 * Fused signature composition: sigs[i] = u16(plan.apply(base[i] ^
 * xor_term)) — the xor, fold ladder and u16 truncation of a whole
 * chunk in one pass over @p base (unmodified), with no intermediate
 * lane array round trips.  CHiRP's batched chunk compose.
 */
inline void
xorFoldSigLanes(const std::uint64_t *base, std::size_t n,
                std::uint64_t xor_term, const FoldPlan &plan,
                std::uint16_t *sigs)
{
#if defined(CHIRP_SIMD_X86)
    const Backend b = detail::g_backend;
    if (b == Backend::Scalar)
        return detail::xorFoldSigScalar(base, n, xor_term, plan, sigs);
    if (b == Backend::Avx2 && n >= detail::kAvx2Words)
        return detail::xorFoldSigAvx2(base, n, xor_term, plan, sigs);
    return detail::xorFoldSigSse2(base, n, xor_term, plan, sigs);
#elif defined(CHIRP_SIMD_NEON)
    if (detail::g_backend == Backend::Scalar)
        return detail::xorFoldSigScalar(base, n, xor_term, plan, sigs);
    return detail::xorFoldSigNeon(base, n, xor_term, plan, sigs);
#else
    return detail::xorFoldSigScalar(base, n, xor_term, plan, sigs);
#endif
}

/**
 * Fused signature + table-index composition over one chunk:
 *
 *   sig     = u16(sig_plan.apply(base[i] ^ xor_term))
 *   sigs[i] = sig
 *   idxs[i] = idx_or | u32(idx_plan.apply((u64(sig) ^ salt) * k))
 *
 * — the whole signature-then-multiplicative-index-hash pipeline of a
 * prediction table (GHRP's per-table composition, PredictionTable::
 * indexOf's math) in registers, one pass over @p base (unmodified),
 * instead of separate fill/fold/truncate/salt/hash passes each
 * streaming the chunk through memory.  @p idx_or is OR-ed into every
 * index (a caller's table-bank base); pass 0 for none.
 */
inline void
sigIndexLanes(const std::uint64_t *base, std::size_t n,
              std::uint64_t xor_term, const FoldPlan &sig_plan,
              std::uint64_t salt, std::uint64_t k,
              const FoldPlan &idx_plan, std::uint32_t idx_or,
              std::uint16_t *sigs, std::uint32_t *idxs)
{
#if defined(CHIRP_SIMD_X86)
    const Backend b = detail::g_backend;
    if (b == Backend::Scalar)
        return detail::sigIndexScalar(base, n, xor_term, sig_plan, salt,
                                      k, idx_plan, idx_or, sigs, idxs);
    if (b == Backend::Avx2 && n >= detail::kAvx2Words)
        return detail::sigIndexAvx2(base, n, xor_term, sig_plan, salt,
                                    k, idx_plan, idx_or, sigs, idxs);
    return detail::sigIndexSse2(base, n, xor_term, sig_plan, salt, k,
                                idx_plan, idx_or, sigs, idxs);
#elif defined(CHIRP_SIMD_NEON)
    if (detail::g_backend == Backend::Scalar)
        return detail::sigIndexScalar(base, n, xor_term, sig_plan, salt,
                                      k, idx_plan, idx_or, sigs, idxs);
    return detail::sigIndexNeon(base, n, xor_term, sig_plan, salt, k,
                                idx_plan, idx_or, sigs, idxs);
#else
    return detail::sigIndexScalar(base, n, xor_term, sig_plan, salt, k,
                                  idx_plan, idx_or, sigs, idxs);
#endif
}

} // namespace simd
} // namespace chirp

#endif // CHIRP_UTIL_SIMD_HH
