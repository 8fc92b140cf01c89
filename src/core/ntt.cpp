#include "core/ntt.hpp"

#include <algorithm>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "core/logging.hpp"

namespace fideslib
{

namespace
{

//! Smallest degree the AVX-512 kernel runs: its fused last three
//! stages work on 16-element blocks.
constexpr std::size_t kAvx512MinDegree = 16;

/** Forward (CT) butterfly with lazy [0, 4p) bounds. */
inline void
ctButterfly(u64 &x, u64 &y, u64 w, u64 wShoup, u64 p, u64 twoP)
{
    u64 u = x;
    if (u >= twoP)
        u -= twoP;
    u64 v = mulModShoupLazy(y, w, wShoup, p); // < 2p for any y < 2^64
    x = u + v;
    y = u + twoP - v;
}

/** Inverse (GS) butterfly with lazy [0, 2p) outputs. */
inline void
gsButterfly(u64 &x, u64 &y, u64 w, u64 wShoup, u64 p, u64 twoP)
{
    u64 u = x;
    if (u >= twoP)
        u -= twoP;
    u64 v = y;
    if (v >= twoP)
        v -= twoP;
    u64 s = u + v;
    if (s >= twoP)
        s -= twoP;
    x = s;
    y = mulModShoupLazy(u + twoP - v, w, wShoup, p);
}

/** Final correction from lazy bounds to strict [0, p). */
inline void
correct(u64 *a, std::size_t n, u64 p, u64 twoP)
{
    for (std::size_t j = 0; j < n; ++j) {
        u64 v = a[j];
        if (v >= twoP)
            v -= twoP;
        if (v >= p)
            v -= p;
        a[j] = v;
    }
}

/**
 * Columns per block of the blocked-hierarchical column pass: one
 * block's working set (colBlock columns x n1 rows of u64) targets L1
 * (32 KiB), clamped so tiny transforms still form one block.
 */
inline std::size_t
defaultColBlock(std::size_t n1, std::size_t n2)
{
    constexpr std::size_t kL1Bytes = 32 * 1024;
    std::size_t b = kL1Bytes / (n1 * sizeof(u64));
    if (b < 8)
        b = 8;
    if (b > n2)
        b = n2;
    return b;
}

#if defined(__x86_64__)

// 8-lane AVX-512 (F + DQ) kernel behind the Flat schedule. Every lane
// runs the scalar butterflies' exact operation sequence -- the same
// lazy [0, 4p) forward and [0, 2p) inverse bounds, the same Shoup
// quotients -- so each lane's values equal the scalar loop's.
#define FIDES_AVX512 __attribute__((target("avx512f,avx512dq")))

using V = __m512i;

// GCC 12's headers implement the unmasked forms of these four with an
// uninitialized pass-through operand that trips -Wmaybe-uninitialized;
// the zero-masked forms with an all-ones mask emit the same
// instructions.
constexpr __mmask8 kAllLanes = 0xFF;

FIDES_AVX512 inline V
shr32(V x)
{
    return _mm512_maskz_srli_epi64(kAllLanes, x, 32);
}

FIDES_AVX512 inline V
mulLo32(V a, V b)
{
    return _mm512_maskz_mul_epu32(kAllLanes, a, b);
}

/** x >= m ? x - m : x; x - m wraps above x when x < m. */
FIDES_AVX512 inline V
condSub(V x, V m)
{
    return _mm512_maskz_min_epu64(kAllLanes, x, _mm512_sub_epi64(x, m));
}

/** Lane i of the result is lane idx[i] of x. */
FIDES_AVX512 inline V
spread(V idx, V x)
{
    return _mm512_maskz_permutexvar_epi64(kAllLanes, idx, x);
}

/** One twiddle per lane: w, its Shoup constant, and that constant's
 *  high half (the mulHi operand split, hoisted out of the loop when
 *  the twiddle is broadcast). */
struct Twiddle
{
    V w, ws, wsHi;
};

FIDES_AVX512 inline Twiddle
broadcastTwiddle(u64 w, u64 ws)
{
    return {_mm512_set1_epi64(static_cast<long long>(w)),
            _mm512_set1_epi64(static_cast<long long>(ws)),
            _mm512_set1_epi64(static_cast<long long>(ws >> 32))};
}

/** Twiddles w[first + idx[i]] into lane i. Loads w[first, first + 8),
 *  inside the n-entry table for both callers: the stride-2 stage's
 *  last load ends at w[n/2 + 3], the stride-4 one's at w[n/4 + 5]. */
FIDES_AVX512 inline Twiddle
laneTwiddle(const u64 *w, const u64 *ws, std::size_t first, V idx)
{
    const V ws8 = spread(idx, _mm512_loadu_si512(ws + first));
    return {spread(idx, _mm512_loadu_si512(w + first)), ws8, shr32(ws8)};
}

/** High 64 bits of a * b per lane, from four 32x32 partial products. */
FIDES_AVX512 inline V
mulHi(V a, V b, V bHi)
{
    const V aHi = shr32(a);
    const V ll = mulLo32(a, b);
    const V lh = mulLo32(a, bHi);
    const V hl = mulLo32(aHi, b);
    const V hh = mulLo32(aHi, bHi);
    const V low32 = _mm512_set1_epi64(0xffffffff);
    const V mid = _mm512_add_epi64(
        _mm512_add_epi64(shr32(ll), _mm512_and_si512(lh, low32)), hl);
    return _mm512_add_epi64(_mm512_add_epi64(hh, shr32(lh)), shr32(mid));
}

/** mulModShoupLazy per lane: [0, 2p). */
FIDES_AVX512 inline V
mulShoupLazy(V a, const Twiddle &t, V p)
{
    const V q = mulHi(a, t.ws, t.wsHi);
    return _mm512_sub_epi64(_mm512_mullo_epi64(a, t.w),
                            _mm512_mullo_epi64(q, p));
}

/** ctButterfly per lane. */
FIDES_AVX512 inline void
ctLanes(V &x, V &y, const Twiddle &t, V p, V twoP)
{
    const V u = condSub(x, twoP);
    const V v = mulShoupLazy(y, t, p);
    x = _mm512_add_epi64(u, v);
    y = _mm512_sub_epi64(_mm512_add_epi64(u, twoP), v);
}

/** gsButterfly per lane. */
FIDES_AVX512 inline void
gsLanes(V &x, V &y, const Twiddle &t, V p, V twoP)
{
    const V u = condSub(x, twoP);
    const V v = condSub(y, twoP);
    x = condSub(_mm512_add_epi64(u, v), twoP);
    y = mulShoupLazy(_mm512_sub_epi64(_mm512_add_epi64(u, twoP), v), t, p);
}

FIDES_AVX512 inline V
load(const u64 *src)
{
    return _mm512_loadu_si512(src);
}

FIDES_AVX512 inline void
store(u64 *dst, V v)
{
    _mm512_storeu_si512(dst, v);
}

/** Lane-index vector, lane 0 first. */
FIDES_AVX512 inline V
lanes(long long i0, long long i1, long long i2, long long i3,
      long long i4, long long i5, long long i6, long long i7)
{
    return _mm512_setr_epi64(i0, i1, i2, i3, i4, i5, i6, i7);
}

/**
 * The last three forward stages (strides 4, 2, 1) -- the first three
 * inverse ones -- stay inside 16-element blocks e0..e15, loaded as
 * two vectors. A stride-s stage pairs e_j with e_{j+s}; its layout
 * holds the pairs' first elements in X and the second ones in Y:
 *
 *   stride 4: X = e0-e3 e8-e11,            Y = e4-e7 e12-e15
 *   stride 2: X = e0 e1 e4 e5 e8 e9 e12 e13, Y = the rest in order
 *   stride 1: X = the even elements,       Y = the odd ones
 *
 * vpermt2q (_mm512_permutex2var_epi64, indices >= 8 pick from the
 * second operand) moves between layouts; the block <-> stride-4,
 * stride-4 <-> stride-2 and stride-2 <-> stride-1 index pairs are each
 * their own inverse. Lane i of a stride-s layout belongs to butterfly
 * group i / s of the block, which picks its twiddle. A stride-8 stage
 * pairs the two vectors as loaded.
 */
struct BlockLayouts
{
    V blockTo4Lo, blockTo4Hi; //!< block <-> stride 4
    V s4To2Lo, s4To2Hi;       //!< stride 4 <-> stride 2
    V s2To1Lo, s2To1Hi;       //!< stride 2 <-> stride 1
    V blockTo1Lo, blockTo1Hi; //!< block -> stride 1
    V s1ToBlockLo, s1ToBlockHi; //!< stride 1 -> block
    V twiddle4, twiddle2;     //!< lane -> group, strides 4 and 2

    FIDES_AVX512 BlockLayouts()
        : blockTo4Lo(lanes(0, 1, 2, 3, 8, 9, 10, 11)),
          blockTo4Hi(lanes(4, 5, 6, 7, 12, 13, 14, 15)),
          s4To2Lo(lanes(0, 1, 8, 9, 4, 5, 12, 13)),
          s4To2Hi(lanes(2, 3, 10, 11, 6, 7, 14, 15)),
          s2To1Lo(lanes(0, 8, 2, 10, 4, 12, 6, 14)),
          s2To1Hi(lanes(1, 9, 3, 11, 5, 13, 7, 15)),
          blockTo1Lo(lanes(0, 2, 4, 6, 8, 10, 12, 14)),
          blockTo1Hi(lanes(1, 3, 5, 7, 9, 11, 13, 15)),
          s1ToBlockLo(lanes(0, 8, 1, 9, 2, 10, 3, 11)),
          s1ToBlockHi(lanes(4, 12, 5, 13, 6, 14, 7, 15)),
          twiddle4(lanes(0, 0, 0, 0, 1, 1, 1, 1)),
          twiddle2(lanes(0, 0, 1, 1, 2, 2, 3, 3))
    {
    }
};

/** Moves (lo, hi) to another layout with the index pair (iLo, iHi). */
FIDES_AVX512 inline void
relayout(V &lo, V &hi, V iLo, V iHi)
{
    const V a = _mm512_permutex2var_epi64(lo, iLo, hi);
    hi = _mm512_permutex2var_epi64(lo, iHi, hi);
    lo = a;
}

FIDES_AVX512 void
forwardAvx512(u64 *a, const NttTables &t)
{
    const std::size_t n = t.degree();
    const u64 *w = t.rootPow();
    const u64 *ws = t.rootPowShoup();
    const u64 pv = t.modulus().value;
    const V p = _mm512_set1_epi64(static_cast<long long>(pv));
    const V twoP = _mm512_set1_epi64(static_cast<long long>(2 * pv));

    // Stages with stride >= 8: each butterfly group is whole vectors
    // sharing one broadcast twiddle. Stages m and 2m run together, as
    // in nttForwardRadix4: four vectors take both stages' butterflies
    // in registers, halving the passes over the limb. When there is an
    // odd number of them (even log n), the block pass below takes the
    // stride-8 one.
    const bool blockTakes8 = log2Floor(n) % 2 == 0;
    const std::size_t mEnd = blockTakes8 ? n / 16 : n / 8;
    std::size_t tt = n; // stage m's butterfly span; its stride is tt/2
    for (std::size_t m = 1; m < mEnd; m <<= 2, tt >>= 2) {
        const std::size_t t2 = tt / 4; // stage 2m's stride
        for (std::size_t i = 0; i < m; ++i) {
            const Twiddle tA = broadcastTwiddle(w[m + i], ws[m + i]);
            const Twiddle tB =
                broadcastTwiddle(w[2 * m + 2 * i], ws[2 * m + 2 * i]);
            const Twiddle tC = broadcastTwiddle(w[2 * m + 2 * i + 1],
                                                ws[2 * m + 2 * i + 1]);
            u64 *x = a + i * tt;
            for (std::size_t j = 0; j < t2; j += 8) {
                V x0 = load(x + j);
                V x1 = load(x + t2 + j);
                V x2 = load(x + 2 * t2 + j);
                V x3 = load(x + 3 * t2 + j);
                ctLanes(x0, x2, tA, p, twoP);
                ctLanes(x1, x3, tA, p, twoP);
                ctLanes(x0, x1, tB, p, twoP);
                ctLanes(x2, x3, tC, p, twoP);
                store(x + j, x0);
                store(x + t2 + j, x1);
                store(x + 2 * t2 + j, x2);
                store(x + 3 * t2 + j, x3);
            }
        }
    }

    // Strides (8,) 4, 2, 1 on each 16-element block in registers, with
    // correct() folded into the last stage. Block k is stride 8's
    // butterfly group k, its halves the group's two vectors.
    const BlockLayouts L;
    for (std::size_t k = 0; k < n / 16; ++k) {
        u64 *blk = a + 16 * k;
        V lo = load(blk);
        V hi = load(blk + 8);
        if (blockTakes8) {
            ctLanes(lo, hi, broadcastTwiddle(w[n / 16 + k], ws[n / 16 + k]),
                    p, twoP);
        }
        relayout(lo, hi, L.blockTo4Lo, L.blockTo4Hi);
        ctLanes(lo, hi, laneTwiddle(w, ws, n / 8 + 2 * k, L.twiddle4), p,
                twoP);
        relayout(lo, hi, L.s4To2Lo, L.s4To2Hi);
        ctLanes(lo, hi, laneTwiddle(w, ws, n / 4 + 4 * k, L.twiddle2), p,
                twoP);
        relayout(lo, hi, L.s2To1Lo, L.s2To1Hi);
        const Twiddle t1{load(w + n / 2 + 8 * k), load(ws + n / 2 + 8 * k),
                         shr32(load(ws + n / 2 + 8 * k))};
        ctLanes(lo, hi, t1, p, twoP);
        lo = condSub(condSub(lo, twoP), p);
        hi = condSub(condSub(hi, twoP), p);
        relayout(lo, hi, L.s1ToBlockLo, L.s1ToBlockHi);
        store(blk, lo);
        store(blk + 8, hi);
    }
}

FIDES_AVX512 void
inverseAvx512(u64 *a, const NttTables &t)
{
    const std::size_t n = t.degree();
    const u64 *w = t.invRootPow();
    const u64 *ws = t.invRootPowShoup();
    const u64 pv = t.modulus().value;
    const V p = _mm512_set1_epi64(static_cast<long long>(pv));
    const V twoP = _mm512_set1_epi64(static_cast<long long>(2 * pv));

    // Strides 1, 2, 4 (, 8) on each 16-element block in registers. The
    // stages between these and the last run in pairs; when there is an
    // odd number of them (odd log n), the block pass takes the stride-8
    // one.
    const bool blockTakes8 = log2Floor(n) % 2 == 1;
    const BlockLayouts L;
    for (std::size_t k = 0; k < n / 16; ++k) {
        u64 *blk = a + 16 * k;
        V lo = load(blk);
        V hi = load(blk + 8);
        relayout(lo, hi, L.blockTo1Lo, L.blockTo1Hi);
        const Twiddle t1{load(w + n / 2 + 8 * k), load(ws + n / 2 + 8 * k),
                         shr32(load(ws + n / 2 + 8 * k))};
        gsLanes(lo, hi, t1, p, twoP);
        relayout(lo, hi, L.s2To1Lo, L.s2To1Hi);
        gsLanes(lo, hi, laneTwiddle(w, ws, n / 4 + 4 * k, L.twiddle2), p,
                twoP);
        relayout(lo, hi, L.s4To2Lo, L.s4To2Hi);
        gsLanes(lo, hi, laneTwiddle(w, ws, n / 8 + 2 * k, L.twiddle4), p,
                twoP);
        relayout(lo, hi, L.blockTo4Lo, L.blockTo4Hi);
        if (blockTakes8) {
            gsLanes(lo, hi, broadcastTwiddle(w[n / 16 + k], ws[n / 16 + k]),
                    p, twoP);
        }
        store(blk, lo);
        store(blk + 8, hi);
    }

    // The remaining stages up to stride n/4: broadcast twiddle per
    // group, stages h and h/2 together, as in nttInverseRadix4.
    std::size_t tt = blockTakes8 ? 16 : 8; // stage h's stride
    for (std::size_t h = n / (2 * tt); h > 1; h >>= 2, tt <<= 2) {
        for (std::size_t i = 0; i < h / 2; ++i) {
            const Twiddle tA =
                broadcastTwiddle(w[h + 2 * i], ws[h + 2 * i]);
            const Twiddle tB =
                broadcastTwiddle(w[h + 2 * i + 1], ws[h + 2 * i + 1]);
            const Twiddle tC = broadcastTwiddle(w[h / 2 + i], ws[h / 2 + i]);
            u64 *x = a + 4 * i * tt;
            for (std::size_t j = 0; j < tt; j += 8) {
                V x0 = load(x + j);
                V x1 = load(x + tt + j);
                V x2 = load(x + 2 * tt + j);
                V x3 = load(x + 3 * tt + j);
                gsLanes(x0, x1, tA, p, twoP);
                gsLanes(x2, x3, tB, p, twoP);
                gsLanes(x0, x2, tC, p, twoP);
                gsLanes(x1, x3, tC, p, twoP);
                store(x + j, x0);
                store(x + tt + j, x1);
                store(x + 2 * tt + j, x2);
                store(x + 3 * tt + j, x3);
            }
        }
    }

    // Last stage (stride n/2, twiddle w[1]) with the n^-1 sweep folded
    // in, as nttInverseFusedLast: the sum leg is multiplied by n^-1,
    // the difference leg by w[1] * n^-1, both fully reduced.
    const std::size_t half = n / 2;
    const Twiddle tn = broadcastTwiddle(t.nInv(), t.nInvShoup());
    const Twiddle tl = broadcastTwiddle(t.invLastW(), t.invLastWShoup());
    for (std::size_t j = 0; j < half; j += 8) {
        const V u = condSub(load(a + j), twoP);
        const V v = condSub(load(a + half + j), twoP);
        const V s = condSub(_mm512_add_epi64(u, v), twoP);
        const V d = _mm512_sub_epi64(_mm512_add_epi64(u, twoP), v);
        store(a + j, condSub(mulShoupLazy(s, tn, p), p));
        store(a + half + j, condSub(mulShoupLazy(d, tl, p), p));
    }
}

#undef FIDES_AVX512

#endif // __x86_64__

} // namespace

const char *
nttVariantName(NttVariant v)
{
    switch (v) {
    case NttVariant::Flat: return "flat";
    case NttVariant::Hierarchical: return "hier";
    case NttVariant::Radix4: return "radix4";
    case NttVariant::BlockedHier: return "blocked";
    case NttVariant::FusedLast: return "fusedlast";
    }
    return "?";
}

NttTables::NttTables(std::size_t n, const Modulus &m, u64 psi)
    : n_(n), logN_(log2Floor(n)), mod_(m), psi_(psi)
{
    FIDES_ASSERT(isPowerOfTwo(n));
    FIDES_ASSERT(powMod(psi, n, m) == m.value - 1); // primitive 2n-th root

    rootPow_.resize(n);
    rootPowShoup_.resize(n);
    invRootPow_.resize(n);
    invRootPowShoup_.resize(n);

    u64 psiInv = invMod(psi, m);
    u64 fwd = 1, inv = 1;
    std::vector<u64> fwdNat(n), invNat(n);
    for (std::size_t i = 0; i < n; ++i) {
        fwdNat[i] = fwd;
        invNat[i] = inv;
        fwd = mulModBarrett(fwd, psi, m);
        inv = mulModBarrett(inv, psiInv, m);
    }
    for (std::size_t i = 0; i < n; ++i) {
        u64 r = bitReverse(i, logN_);
        rootPow_[i] = fwdNat[r];
        invRootPow_[i] = invNat[r];
        rootPowShoup_[i] = shoupPrecompute(rootPow_[i], m.value);
        invRootPowShoup_[i] = shoupPrecompute(invRootPow_[i], m.value);
    }
    nInv_ = invMod(static_cast<u64>(n), m);
    nInvShoup_ = shoupPrecompute(nInv_, m.value);
    // FusedLast inverse: the final GS stage uses invRootPow[1] only
    // (h = 1), so its twiddle can absorb the nInv sweep.
    invLastW_ = n > 1 ? mulModBarrett(invRootPow_[1], nInv_, m) : nInv_;
    invLastWShoup_ = shoupPrecompute(invLastW_, m.value);
}

void
nttForwardScalar(u64 *a, const NttTables &t)
{
    const std::size_t n = t.degree();
    const u64 p = t.modulus().value;
    const u64 twoP = 2 * p;
    const u64 *w = t.rootPow();
    const u64 *ws = t.rootPowShoup();

    std::size_t tt = n;
    for (std::size_t m = 1; m < n; m <<= 1) {
        tt >>= 1;
        for (std::size_t i = 0; i < m; ++i) {
            const u64 wi = w[m + i];
            const u64 wsi = ws[m + i];
            const std::size_t j1 = 2 * i * tt;
            for (std::size_t j = j1; j < j1 + tt; ++j)
                ctButterfly(a[j], a[j + tt], wi, wsi, p, twoP);
        }
    }
    correct(a, n, p, twoP);
}

void
nttInverseScalar(u64 *a, const NttTables &t)
{
    const std::size_t n = t.degree();
    const u64 p = t.modulus().value;
    const u64 twoP = 2 * p;
    const u64 *w = t.invRootPow();
    const u64 *ws = t.invRootPowShoup();

    std::size_t tt = 1;
    for (std::size_t m = n; m > 1; m >>= 1) {
        const std::size_t h = m >> 1;
        std::size_t j1 = 0;
        for (std::size_t i = 0; i < h; ++i) {
            const u64 wi = w[h + i];
            const u64 wsi = ws[h + i];
            for (std::size_t j = j1; j < j1 + tt; ++j)
                gsButterfly(a[j], a[j + tt], wi, wsi, p, twoP);
            j1 += 2 * tt;
        }
        tt <<= 1;
    }
    const u64 nInv = t.nInv();
    const u64 nInvS = t.nInvShoup();
    for (std::size_t j = 0; j < n; ++j)
        a[j] = mulModShoup(a[j] >= twoP ? a[j] - twoP : a[j],
                           nInv, nInvS, p);
    // mulModShoup output is already in [0, p).
}

bool
nttAvx512Supported()
{
#if defined(__x86_64__)
    static const bool supported = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx512f") &&
               __builtin_cpu_supports("avx512dq");
    }();
    return supported;
#else
    return false;
#endif
}

void
nttForwardAvx512(u64 *a, const NttTables &t)
{
    FIDES_ASSERT(nttAvx512Supported());
#if defined(__x86_64__)
    if (t.degree() >= kAvx512MinDegree) {
        forwardAvx512(a, t);
        return;
    }
#endif
    nttForwardScalar(a, t);
}

void
nttInverseAvx512(u64 *a, const NttTables &t)
{
    FIDES_ASSERT(nttAvx512Supported());
#if defined(__x86_64__)
    if (t.degree() >= kAvx512MinDegree) {
        inverseAvx512(a, t);
        return;
    }
#endif
    nttInverseScalar(a, t);
}

void
nttForward(u64 *a, const NttTables &t)
{
    if (nttAvx512Supported())
        nttForwardAvx512(a, t);
    else
        nttForwardScalar(a, t);
}

void
nttInverse(u64 *a, const NttTables &t)
{
    if (nttAvx512Supported())
        nttInverseAvx512(a, t);
    else
        nttInverseScalar(a, t);
}

void
nttForwardHierarchical(u64 *a, const NttTables &t)
{
    const std::size_t n = t.degree();
    const u32 logN = log2Floor(n);
    const u32 logN1 = logN / 2;
    const std::size_t n1 = std::size_t{1} << logN1;
    const std::size_t n2 = n / n1;
    const u64 p = t.modulus().value;
    const u64 twoP = 2 * p;
    const u64 *w = t.rootPow();
    const u64 *ws = t.rootPowShoup();

    // Column pass: the first log2(n1) stages touch elements that are
    // congruent mod n2, i.e. each column {col + n2*r} is an
    // independent size-n1 sub-transform reading the shared twiddle
    // table at the same indices as the flat schedule.
    for (std::size_t col = 0; col < n2; ++col) {
        u64 *base = a + col;
        std::size_t tt = n1;
        for (std::size_t m = 1; m < n1; m <<= 1) {
            tt >>= 1;
            for (std::size_t i = 0; i < m; ++i) {
                const u64 wi = w[m + i];
                const u64 wsi = ws[m + i];
                const std::size_t r1 = 2 * i * tt;
                for (std::size_t r = r1; r < r1 + tt; ++r) {
                    ctButterfly(base[r * n2], base[(r + tt) * n2],
                                wi, wsi, p, twoP);
                }
            }
        }
    }

    // Row pass: remaining stages are local to each contiguous block
    // of n2 elements; twiddle index depends on the block (this is the
    // per-block twiddle correction of the 4-step algorithm).
    for (std::size_t b = 0; b < n1; ++b) {
        u64 *base = a + b * n2;
        std::size_t tt = n2;
        for (std::size_t mLoc = 1; mLoc < n2; mLoc <<= 1) {
            tt >>= 1;
            for (std::size_t i = 0; i < mLoc; ++i) {
                const std::size_t wIdx = mLoc * (n1 + b) + i;
                const u64 wi = w[wIdx];
                const u64 wsi = ws[wIdx];
                const std::size_t j1 = 2 * i * tt;
                for (std::size_t j = j1; j < j1 + tt; ++j)
                    ctButterfly(base[j], base[j + tt], wi, wsi, p, twoP);
            }
        }
    }
    correct(a, n, p, twoP);
}

void
nttInverseHierarchical(u64 *a, const NttTables &t)
{
    const std::size_t n = t.degree();
    const u32 logN = log2Floor(n);
    const u32 logN1 = logN / 2;
    const std::size_t n1 = std::size_t{1} << logN1;
    const std::size_t n2 = n / n1;
    const u64 p = t.modulus().value;
    const u64 twoP = 2 * p;
    const u64 *w = t.invRootPow();
    const u64 *ws = t.invRootPowShoup();

    // Row pass first (inverse runs stages in reverse order).
    for (std::size_t b = 0; b < n1; ++b) {
        u64 *base = a + b * n2;
        std::size_t tt = 1;
        for (std::size_t mLoc = n2; mLoc > 1; mLoc >>= 1) {
            const std::size_t hLoc = mLoc >> 1;
            std::size_t j1 = 0;
            for (std::size_t i = 0; i < hLoc; ++i) {
                const std::size_t wIdx = hLoc * (n1 + b) + i;
                const u64 wi = w[wIdx];
                const u64 wsi = ws[wIdx];
                for (std::size_t j = j1; j < j1 + tt; ++j)
                    gsButterfly(base[j], base[j + tt], wi, wsi, p, twoP);
                j1 += 2 * tt;
            }
            tt <<= 1;
        }
    }

    // Column pass.
    for (std::size_t col = 0; col < n2; ++col) {
        u64 *base = a + col;
        std::size_t tt = 1;
        for (std::size_t m = n1; m > 1; m >>= 1) {
            const std::size_t h = m >> 1;
            std::size_t r1 = 0;
            for (std::size_t i = 0; i < h; ++i) {
                const u64 wi = w[h + i];
                const u64 wsi = ws[h + i];
                for (std::size_t r = r1; r < r1 + tt; ++r) {
                    gsButterfly(base[r * n2], base[(r + tt) * n2],
                                wi, wsi, p, twoP);
                }
                r1 += 2 * tt;
            }
            tt <<= 1;
        }
    }

    const u64 nInv = t.nInv();
    const u64 nInvS = t.nInvShoup();
    for (std::size_t j = 0; j < n; ++j)
        a[j] = mulModShoup(a[j] >= twoP ? a[j] - twoP : a[j],
                           nInv, nInvS, p);
}

void
nttForwardRadix4(u64 *a, const NttTables &t)
{
    const std::size_t n = t.degree();
    const u64 p = t.modulus().value;
    const u64 twoP = 2 * p;
    const u64 *w = t.rootPow();
    const u64 *ws = t.rootPowShoup();
    const u32 logN = log2Floor(n);

    std::size_t m = 1;
    std::size_t tt = n;
    if (logN & 1) {
        // Odd stage count: one leading radix-2 stage, then pairs.
        // The fused loop's invariant is tt == n/m at entry (stage m
        // runs with stride tt/2), which n/2 satisfies for m = 2.
        tt >>= 1;
        const u64 w1 = w[1], ws1 = ws[1];
        for (std::size_t j = 0; j < tt; ++j)
            ctButterfly(a[j], a[j + tt], w1, ws1, p, twoP);
        m = 2;
    }
    // Fuse stages (m, 2m): four elements travel through both stages
    // while still in registers -- the arithmetic per element is the
    // butterfly sequence of the flat schedule, verbatim, so the
    // output is bit-identical; only the memory sweeps halve.
    while (m < n) {
        const std::size_t t2 = tt >> 2; // stride of the second stage
        for (std::size_t i = 0; i < m; ++i) {
            const std::size_t base = i * tt;
            const u64 wA = w[m + i], wsA = ws[m + i];
            const u64 wB = w[2 * m + 2 * i], wsB = ws[2 * m + 2 * i];
            const u64 wC = w[2 * m + 2 * i + 1];
            const u64 wsC = ws[2 * m + 2 * i + 1];
            for (std::size_t q = base; q < base + t2; ++q) {
                u64 &x0 = a[q];
                u64 &x1 = a[q + t2];
                u64 &x2 = a[q + 2 * t2];
                u64 &x3 = a[q + 3 * t2];
                ctButterfly(x0, x2, wA, wsA, p, twoP); // stage m
                ctButterfly(x1, x3, wA, wsA, p, twoP);
                ctButterfly(x0, x1, wB, wsB, p, twoP); // stage 2m
                ctButterfly(x2, x3, wC, wsC, p, twoP);
            }
        }
        tt >>= 2;
        m <<= 2;
    }
    correct(a, n, p, twoP);
}

void
nttInverseRadix4(u64 *a, const NttTables &t)
{
    const std::size_t n = t.degree();
    const u64 p = t.modulus().value;
    const u64 twoP = 2 * p;
    const u64 *w = t.invRootPow();
    const u64 *ws = t.invRootPowShoup();

    // Fuse stages (m, m/2) from the top; a trailing radix-2 stage
    // mops up when the stage count is odd.
    std::size_t tt = 1;
    std::size_t m = n;
    while (m > 2) {
        const std::size_t h = m >> 1;
        const std::size_t h2 = h >> 1;
        for (std::size_t i2 = 0; i2 < h2; ++i2) {
            const std::size_t base = 4 * i2 * tt;
            const u64 wA = w[h + 2 * i2], wsA = ws[h + 2 * i2];
            const u64 wB = w[h + 2 * i2 + 1];
            const u64 wsB = ws[h + 2 * i2 + 1];
            const u64 wC = w[h2 + i2], wsC = ws[h2 + i2];
            for (std::size_t q = base; q < base + tt; ++q) {
                u64 &x0 = a[q];
                u64 &x1 = a[q + tt];
                u64 &x2 = a[q + 2 * tt];
                u64 &x3 = a[q + 3 * tt];
                gsButterfly(x0, x1, wA, wsA, p, twoP); // stage m
                gsButterfly(x2, x3, wB, wsB, p, twoP);
                gsButterfly(x0, x2, wC, wsC, p, twoP); // stage m/2
                gsButterfly(x1, x3, wC, wsC, p, twoP);
            }
        }
        tt <<= 2;
        m >>= 2;
    }
    if (m == 2) {
        const u64 w1 = w[1], ws1 = ws[1];
        for (std::size_t j = 0; j < tt; ++j)
            gsButterfly(a[j], a[j + tt], w1, ws1, p, twoP);
    }
    const u64 nInv = t.nInv();
    const u64 nInvS = t.nInvShoup();
    for (std::size_t j = 0; j < n; ++j)
        a[j] = mulModShoup(a[j] >= twoP ? a[j] - twoP : a[j],
                           nInv, nInvS, p);
}

void
nttForwardBlockedHier(u64 *a, const NttTables &t, std::size_t colBlock)
{
    const std::size_t n = t.degree();
    const u32 logN = log2Floor(n);
    const u32 logN1 = logN / 2;
    const std::size_t n1 = std::size_t{1} << logN1;
    const std::size_t n2 = n / n1;
    const u64 p = t.modulus().value;
    const u64 twoP = 2 * p;
    const u64 *w = t.rootPow();
    const u64 *ws = t.rootPowShoup();
    if (colBlock == 0)
        colBlock = defaultColBlock(n1, n2);
    if (colBlock > n2)
        colBlock = n2;

    // Column pass, blocked: the stage loop runs INSIDE a group of
    // adjacent columns, so the group's n1 x colBlock working set --
    // sized to L1 -- is swept once per stage instead of one strided
    // column at a time. Columns are independent sub-transforms, so
    // reordering them is bit-identical to the plain hierarchical
    // schedule.
    for (std::size_t c0 = 0; c0 < n2; c0 += colBlock) {
        const std::size_t c1 = std::min(c0 + colBlock, n2);
        std::size_t tt = n1;
        for (std::size_t m = 1; m < n1; m <<= 1) {
            tt >>= 1;
            for (std::size_t i = 0; i < m; ++i) {
                const u64 wi = w[m + i];
                const u64 wsi = ws[m + i];
                const std::size_t r1 = 2 * i * tt;
                for (std::size_t r = r1; r < r1 + tt; ++r) {
                    u64 *lo = a + r * n2;
                    u64 *hi = a + (r + tt) * n2;
                    for (std::size_t c = c0; c < c1; ++c)
                        ctButterfly(lo[c], hi[c], wi, wsi, p, twoP);
                }
            }
        }
    }

    // Row pass: identical to the plain hierarchical schedule (rows
    // are contiguous; nothing to block).
    for (std::size_t b = 0; b < n1; ++b) {
        u64 *base = a + b * n2;
        std::size_t tt = n2;
        for (std::size_t mLoc = 1; mLoc < n2; mLoc <<= 1) {
            tt >>= 1;
            for (std::size_t i = 0; i < mLoc; ++i) {
                const std::size_t wIdx = mLoc * (n1 + b) + i;
                const u64 wi = w[wIdx];
                const u64 wsi = ws[wIdx];
                const std::size_t j1 = 2 * i * tt;
                for (std::size_t j = j1; j < j1 + tt; ++j)
                    ctButterfly(base[j], base[j + tt], wi, wsi, p, twoP);
            }
        }
    }
    correct(a, n, p, twoP);
}

void
nttInverseBlockedHier(u64 *a, const NttTables &t, std::size_t colBlock)
{
    const std::size_t n = t.degree();
    const u32 logN = log2Floor(n);
    const u32 logN1 = logN / 2;
    const std::size_t n1 = std::size_t{1} << logN1;
    const std::size_t n2 = n / n1;
    const u64 p = t.modulus().value;
    const u64 twoP = 2 * p;
    const u64 *w = t.invRootPow();
    const u64 *ws = t.invRootPowShoup();
    if (colBlock == 0)
        colBlock = defaultColBlock(n1, n2);
    if (colBlock > n2)
        colBlock = n2;

    // Row pass first (inverse runs stages in reverse order).
    for (std::size_t b = 0; b < n1; ++b) {
        u64 *base = a + b * n2;
        std::size_t tt = 1;
        for (std::size_t mLoc = n2; mLoc > 1; mLoc >>= 1) {
            const std::size_t hLoc = mLoc >> 1;
            std::size_t j1 = 0;
            for (std::size_t i = 0; i < hLoc; ++i) {
                const std::size_t wIdx = hLoc * (n1 + b) + i;
                const u64 wi = w[wIdx];
                const u64 wsi = ws[wIdx];
                for (std::size_t j = j1; j < j1 + tt; ++j)
                    gsButterfly(base[j], base[j + tt], wi, wsi, p, twoP);
                j1 += 2 * tt;
            }
            tt <<= 1;
        }
    }

    // Column pass, blocked (see the forward for the cache argument).
    for (std::size_t c0 = 0; c0 < n2; c0 += colBlock) {
        const std::size_t c1 = std::min(c0 + colBlock, n2);
        std::size_t tt = 1;
        for (std::size_t m = n1; m > 1; m >>= 1) {
            const std::size_t h = m >> 1;
            std::size_t r1 = 0;
            for (std::size_t i = 0; i < h; ++i) {
                const u64 wi = w[h + i];
                const u64 wsi = ws[h + i];
                for (std::size_t r = r1; r < r1 + tt; ++r) {
                    u64 *lo = a + r * n2;
                    u64 *hi = a + (r + tt) * n2;
                    for (std::size_t c = c0; c < c1; ++c)
                        gsButterfly(lo[c], hi[c], wi, wsi, p, twoP);
                }
                r1 += 2 * tt;
            }
            tt <<= 1;
        }
    }

    const u64 nInv = t.nInv();
    const u64 nInvS = t.nInvShoup();
    for (std::size_t j = 0; j < n; ++j)
        a[j] = mulModShoup(a[j] >= twoP ? a[j] - twoP : a[j],
                           nInv, nInvS, p);
}

void
nttForwardFusedLast(u64 *a, const NttTables &t)
{
    const std::size_t n = t.degree();
    if (n < 2) {
        nttForward(a, t);
        return;
    }
    const u64 p = t.modulus().value;
    const u64 twoP = 2 * p;
    const u64 *w = t.rootPow();
    const u64 *ws = t.rootPowShoup();

    std::size_t tt = n;
    for (std::size_t m = 1; m < n / 2; m <<= 1) {
        tt >>= 1;
        for (std::size_t i = 0; i < m; ++i) {
            const u64 wi = w[m + i];
            const u64 wsi = ws[m + i];
            const std::size_t j1 = 2 * i * tt;
            for (std::size_t j = j1; j < j1 + tt; ++j)
                ctButterfly(a[j], a[j + tt], wi, wsi, p, twoP);
        }
    }
    // Last stage (m = n/2, tt = 1) with the correction folded in:
    // both outputs are reduced to [0, p) while still in registers,
    // saving the separate correct() sweep over memory.
    const std::size_t half = n / 2;
    for (std::size_t i = 0; i < half; ++i) {
        u64 &x = a[2 * i];
        u64 &y = a[2 * i + 1];
        ctButterfly(x, y, w[half + i], ws[half + i], p, twoP);
        if (x >= twoP)
            x -= twoP;
        if (x >= p)
            x -= p;
        if (y >= twoP)
            y -= twoP;
        if (y >= p)
            y -= p;
    }
}

void
nttInverseFusedLast(u64 *a, const NttTables &t)
{
    const std::size_t n = t.degree();
    if (n < 2) {
        nttInverse(a, t);
        return;
    }
    const u64 p = t.modulus().value;
    const u64 twoP = 2 * p;
    const u64 *w = t.invRootPow();
    const u64 *ws = t.invRootPowShoup();

    std::size_t tt = 1;
    for (std::size_t m = n; m > 2; m >>= 1) {
        const std::size_t h = m >> 1;
        std::size_t j1 = 0;
        for (std::size_t i = 0; i < h; ++i) {
            const u64 wi = w[h + i];
            const u64 wsi = ws[h + i];
            for (std::size_t j = j1; j < j1 + tt; ++j)
                gsButterfly(a[j], a[j + tt], wi, wsi, p, twoP);
            j1 += 2 * tt;
        }
        tt <<= 1;
    }
    // Last stage (m = 2, single twiddle w[1]) with the nInv sweep
    // folded in: the sum leg multiplies by nInv directly, the
    // difference leg by the precomputed w[1]*nInv -- both legs land
    // fully reduced, exactly as the flat schedule's trailing sweep
    // leaves them.
    const std::size_t half = n / 2;
    const u64 nInv = t.nInv();
    const u64 nInvS = t.nInvShoup();
    const u64 wl = t.invLastW();
    const u64 wlS = t.invLastWShoup();
    for (std::size_t j = 0; j < half; ++j) {
        u64 u = a[j];
        if (u >= twoP)
            u -= twoP;
        u64 v = a[j + half];
        if (v >= twoP)
            v -= twoP;
        u64 s = u + v;
        if (s >= twoP)
            s -= twoP;
        a[j] = mulModShoup(s, nInv, nInvS, p);
        a[j + half] = mulModShoup(u + twoP - v, wl, wlS, p);
    }
}

void
nttForwardVariant(u64 *a, const NttTables &t, NttVariant v,
                  std::size_t colBlock)
{
    switch (v) {
    case NttVariant::Flat: nttForward(a, t); break;
    case NttVariant::Hierarchical: nttForwardHierarchical(a, t); break;
    case NttVariant::Radix4: nttForwardRadix4(a, t); break;
    case NttVariant::BlockedHier:
        nttForwardBlockedHier(a, t, colBlock);
        break;
    case NttVariant::FusedLast: nttForwardFusedLast(a, t); break;
    }
}

void
nttInverseVariant(u64 *a, const NttTables &t, NttVariant v,
                  std::size_t colBlock)
{
    switch (v) {
    case NttVariant::Flat: nttInverse(a, t); break;
    case NttVariant::Hierarchical: nttInverseHierarchical(a, t); break;
    case NttVariant::Radix4: nttInverseRadix4(a, t); break;
    case NttVariant::BlockedHier:
        nttInverseBlockedHier(a, t, colBlock);
        break;
    case NttVariant::FusedLast: nttInverseFusedLast(a, t); break;
    }
}

std::vector<u64>
nttNaive(const std::vector<u64> &a, const NttTables &t)
{
    const std::size_t n = t.degree();
    const Modulus &m = t.modulus();
    const u32 logN = log2Floor(n);
    std::vector<u64> out(n);
    for (std::size_t i = 0; i < n; ++i) {
        u64 e = 2 * bitReverse(i, logN) + 1;
        u64 x = powMod(t.psi(), e, m);
        u64 acc = 0;
        u64 xp = 1;
        for (std::size_t j = 0; j < n; ++j) {
            acc = addMod(acc, mulModBarrett(a[j], xp, m), m.value);
            xp = mulModBarrett(xp, x, m);
        }
        out[i] = acc;
    }
    return out;
}

} // namespace fideslib
