/**
 * @file
 * Data-parallel kernels for the policy hot paths, one body per
 * platform.
 *
 * The victim scans (dead bits, RRPV values, recency ranks), the tag
 * match and the TLB key composition, and the prediction tables'
 * signature/index hashing all walk small contiguous lanes — the shape
 * of the structure-of-arrays set layout.  Most kernels have one
 * scalar reference implementation (the semantic contract, including
 * scan order and tie-breaking) and one SSE2 implementation that must
 * return bit-identical results.  A kernel keeps an SSE2 body only
 * while it beats the scalar one at the lane counts the simulator
 * calls it with; addToLanes and sigIndexLanes lost that comparison
 * and are scalar everywhere (EXPERIMENTS.md, "Per-kernel SSE2 vs
 * scalar").
 *
 * The body is chosen at compile time: x86-64 builds use the SSE2
 * bodies, which the ABI guarantees on every x86-64 host, so no cpuid
 * check or target attribute is needed and they inline into any
 * caller; every other target uses the scalar reference.  There is no
 * runtime dispatch and no switch.  tests/simd_test.cc compares each
 * scalar reference with its public kernel (and with a naive
 * reference of its own) over every lane count and tail shape.
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

#if defined(__x86_64__) || defined(_M_X64)
#define CHIRP_SIMD_SSE2 1
#include <emmintrin.h>
#endif

namespace chirp
{
namespace simd
{

/** The instruction set the kernels were compiled for. */
enum class Backend : std::uint8_t
{
    Scalar,
    Sse2,
};

/** Printable backend name ("sse2", "scalar"). */
constexpr const char *
backendName(Backend backend)
{
    return backend == Backend::Sse2 ? "sse2" : "scalar";
}

/**
 * The backend every kernel uses: SSE2 on x86-64, the scalar reference
 * elsewhere.  Only the benchmark fingerprints read it.
 */
constexpr Backend
activeBackend()
{
#ifdef CHIRP_SIMD_SSE2
    return Backend::Sse2;
#else
    return Backend::Scalar;
#endif
}

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

/*
 * Scalar reference kernels of the two-body kernels.  These define the
 * contract — every SSE2 variant below must match them bit-for-bit,
 * including scan order and tie-breaking — and they are the kernels of
 * every non-x86-64 build.
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
mulXorFoldPlanScalar(std::uint64_t *v, std::size_t n, std::uint64_t k,
                     const FoldPlan &plan)
{
    for (std::size_t i = 0; i < n; ++i)
        v[i] = plan.apply(v[i] * k);
}

#ifdef CHIRP_SIMD_SSE2

/*
 * SSE2 variants.  The byte scans process 16 lanes per step, then an
 * 8-lane half vector, then a scalar tail; tag matching works on two
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

#endif // CHIRP_SIMD_SSE2

} // namespace detail

/** Index of the first nonzero lane of @p v, or @p n (dead-bit scan). */
inline std::size_t
firstSetLane(const std::uint8_t *v, std::size_t n)
{
#ifdef CHIRP_SIMD_SSE2
    return detail::firstSetSse2(v, n);
#else
    return detail::firstSetScalar(v, n);
#endif
}

/** Index of the first zero lane of @p v, or @p n (invalid-way scan). */
inline std::size_t
firstClearLane(const std::uint8_t *v, std::size_t n)
{
#ifdef CHIRP_SIMD_SSE2
    return detail::firstClearSse2(v, n);
#else
    return detail::firstClearScalar(v, n);
#endif
}

/** Index of the first lane with v[i] >= limit, or @p n (RRPV scan). */
inline std::size_t
firstLaneAtLeast(const std::uint8_t *v, std::size_t n,
                 std::uint8_t limit)
{
#ifdef CHIRP_SIMD_SSE2
    return detail::firstAtLeastSse2(v, n, limit);
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
#ifdef CHIRP_SIMD_SSE2
    return detail::deepestSetSse2(flags, rank, n);
#else
    return detail::deepestSetScalar(flags, rank, n);
#endif
}

/** Maximum lane value, 0 when @p n == 0 (RRIP aging deficit). */
inline std::uint8_t
maxLane(const std::uint8_t *v, std::size_t n)
{
#ifdef CHIRP_SIMD_SSE2
    return detail::maxLaneSse2(v, n);
#else
    return detail::maxLaneScalar(v, n);
#endif
}

/**
 * Add @p delta to every lane (no saturation; caller bounds it).  One
 * body: an SSE2 body was slower than this loop at the 8-way sets it
 * runs on.
 */
inline void
addToLanes(std::uint8_t *v, std::size_t n, std::uint8_t delta)
{
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(v[i] + delta);
}

/**
 * Index of the first lane with valid[i] != 0 and tags[i] == tag, or
 * @p n — the set-associative tag match.
 */
inline std::size_t
matchTagLane(const Addr *tags, const std::uint8_t *valid,
             std::size_t n, Addr tag)
{
#ifdef CHIRP_SIMD_SSE2
    return detail::matchTagSse2(tags, valid, n, tag);
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
#ifdef CHIRP_SIMD_SSE2
    return detail::shiftOrSse2(v, shifts, n, common_shift, common_or,
                                other_or);
#else
    return detail::shiftOrScalar(v, shifts, n, common_shift, common_or,
                                 other_or);
#endif
}

/**
 * Lane-wise multiplicative index hash: v[i] = plan.apply(v[i] * k) —
 * a prediction table's indexHash over a chunk column
 * (PredictionTable::indexStream, CHiRP's batched miss path).
 */
inline void
mulXorFoldLanes(std::uint64_t *v, std::size_t n, std::uint64_t k,
                const FoldPlan &plan)
{
#ifdef CHIRP_SIMD_SSE2
    return detail::mulXorFoldPlanSse2(v, n, k, plan);
#else
    return detail::mulXorFoldPlanScalar(v, n, k, plan);
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
 * index (a caller's table-bank base); pass 0 for none.  One body: an
 * SSE2 body, with its 64-bit multiply built from three 32-bit ones,
 * did not reliably beat this loop at the 256-lane chunks it runs on.
 */
inline void
sigIndexLanes(const std::uint64_t *base, std::size_t n,
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

} // namespace simd
} // namespace chirp

#endif // CHIRP_UTIL_SIMD_HH
