/**
 * @file
 * Element-wise and transform kernels over RNS polynomials.
 *
 * Every function here is a "kernel" in the paper's sense: it is
 * submitted to the simulated device in limb batches (one launch per
 * batch, Section III-F1), reports its memory traffic and integer-op
 * counts for the platform roofline model, and uses the configured
 * modular-reduction strategy (Section III-F2).
 *
 * Execution is asynchronous and stream-ordered: every launch goes
 * through one engine (launchBatches, behind forBatches), which
 * declares the kernel's operands (Dep list), waits device-side on the
 * events of earlier kernels that conflict, records one Event per
 * batch onto the operand limbs, and returns without joining the host.
 * The only host barriers left in the library are genuine host reads
 * (RNSPoly::syncHost callers).
 */

#pragma once

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "ckks/rnspoly.hpp"

namespace fideslib::ckks::kernels
{

/** How a kernel touches one operand. Write covers read-modify-write:
 *  a writer waits on earlier writers AND readers of the limb, so no
 *  separate ReadWrite mode is needed. */
enum class Access : unsigned char { Read, Write };

/**
 * One operand of a logical kernel, for hazard tracking. By default
 * kernel position i maps to limb (offset + i) of the polynomial --
 * every kernel iterates aligned limb ranges. Two variants cover the
 * rest:
 *
 *  - fixed range (count > 0): every batch touches limbs
 *    [offset, offset + count) whatever its positions (modRaise reads
 *    limb 0 while writing limbs 1..L; Conv reads all its sources in
 *    every launch; key material in the key-switch inner product,
 *    whose limb mapping is not positional, covers the whole poly);
 *  - span: positional, but only batch positions in [spanLo, spanHi)
 *    touch the operand (ModUp copies a digit's own limbs out of a
 *    polynomial narrower than the kernel, and its Conv writes the
 *    targets on either side of them).
 */
struct Dep
{
    const RNSPoly *poly = nullptr;
    std::size_t offset = 0;
    Access mode = Access::Read;
    std::size_t count = 0;
    std::size_t spanLo = 0;
    std::size_t spanHi = static_cast<std::size_t>(-1);
};

inline Dep
rd(const RNSPoly &p, std::size_t offset = 0)
{
    return {.poly = &p, .offset = offset};
}

inline Dep
wr(RNSPoly &p, std::size_t offset = 0)
{
    return {.poly = &p, .offset = offset, .mode = Access::Write};
}

/** Fixed-range read: every batch reads limbs [first, first + count). */
inline Dep
rdFixed(const RNSPoly &p, std::size_t first, std::size_t count = 1)
{
    return {.poly = &p, .offset = first, .count = count};
}

/** Fixed-range read of every limb of @p p. */
inline Dep
rdWhole(const RNSPoly &p)
{
    return rdFixed(p, 0, p.numLimbs());
}

/** Positional read of limbs [first, first + count) only: batch
 *  position i reads limb i inside that window and nothing outside. */
inline Dep
rdSpan(const RNSPoly &p, std::size_t first, std::size_t count)
{
    return {.poly = &p, .spanLo = first, .spanHi = first + count};
}

/** Positional write of batch positions [first, first + count) only:
 *  position i writes limb (offset + i). */
inline Dep
wrSpan(RNSPoly &p, std::size_t first, std::size_t count,
       std::size_t offset = 0)
{
    return {.poly = &p, .offset = offset, .mode = Access::Write,
            .spanLo = first, .spanHi = first + count};
}

/** The limb range of @p d that batch [lo, hi) touches (empty when a
 *  span dependency lies outside the batch). Hazard tracking and the
 *  validator's declared sets both use it. */
inline std::pair<std::size_t, std::size_t>
depLimbRange(const Dep &d, std::size_t lo, std::size_t hi)
{
    if (d.count > 0)
        return {d.offset, d.offset + d.count};
    const std::size_t b = std::max(lo, d.spanLo);
    const std::size_t e = std::max(b, std::min(hi, d.spanHi));
    return {d.offset + b, d.offset + e};
}

/** Modelled roofline cost of one limb of a kernel. */
struct LimbCost
{
    u64 bytesRead = 0;
    u64 bytesWritten = 0;
    u64 intOps = 0;
};

/**
 * The kernel layer's one launch engine. Runs @p fn(limbLo, limbHi)
 * over [0, numLimbs) in batches of @p limbBatch limbs (0 = one batch,
 * split only at device boundaries), billing each launch
 * @p costOf(limbLo, limbHi). Batches run concurrently on the
 * context's streams (they must touch disjoint state). The call does
 * NOT join the host: each batch waits stream-side on the events of
 * earlier conflicting kernels (derived from @p deps) and records its
 * own completion event onto the operand limbs. With a single stream
 * the batches run inline, bit-identically to any multi-stream
 * schedule. With validation on, @p deps is each launch's declared
 * access set, against which the body's Limb::read()/write() calls are
 * checked (declcheck).
 *
 * @p primeAt maps a limb position to its global prime index. When
 * provided (every kernel that iterates a polynomial's limbs does),
 * batches are split at device boundaries and each piece is launched
 * on a stream of the device that owns its limbs. Without it
 * (shape-free helpers, microbenches) batches round-robin over all
 * streams.
 *
 * Lifetime contract: @p fn is copied once (shared by all batches) and
 * may run after this call returns, so it must capture operand
 * partitions by reference (heap-stable; kept alive via the Dep
 * keep-alives) or host temporaries by value / shared_ptr -- never
 * stack RNSPoly objects or caller-owned buffers by reference.
 * @p costOf is only called before this returns. Every kernel input
 * is a Limb named by @p deps: no host buffer passes between kernels.
 *
 * The engine counts no logical kernel; forBatches does. Base
 * conversion calls it directly and stays outside that count.
 */
void launchBatches(
    const Context &ctx, std::size_t numLimbs, std::size_t limbBatch,
    const std::function<LimbCost(std::size_t, std::size_t)> &costOf,
    const std::function<void(std::size_t, std::size_t)> &fn,
    const std::function<u32(std::size_t)> &primeAt = {},
    const std::vector<Dep> &deps = {});

/**
 * One logical kernel on the launch engine at the context's limb
 * batch, every limb costing the given per-limb traffic estimates.
 */
void forBatches(const Context &ctx, std::size_t numLimbs,
                u64 bytesReadPerLimb, u64 bytesWrittenPerLimb,
                u64 intOpsPerLimb,
                const std::function<void(std::size_t, std::size_t)> &fn,
                const std::function<u32(std::size_t)> &primeAt = {},
                const std::vector<Dep> &deps = {});

/**
 * forBatches for kernels whose limbs do not all cost the same:
 * @p costAt gives the modelled cost of limb position i, and each
 * launch is accounted the sum over its batch (ModUp's copy-or-NTT
 * kernel bills copied limbs as copies, not transforms). @p costAt is
 * only called before this returns. Otherwise identical to the
 * uniform form above.
 */
void forBatches(const Context &ctx, std::size_t numLimbs,
                const std::function<LimbCost(std::size_t)> &costAt,
                const std::function<void(std::size_t, std::size_t)> &fn,
                const std::function<u32(std::size_t)> &primeAt = {},
                const std::vector<Dep> &deps = {});

/**
 * Cumulative thread CPU the CALLING thread has spent submitting
 * multi-stream work: launch accounting (including the simulated
 * per-launch overhead spin), hazard waits, task submission and event
 * records, timed once per launch-engine call. Single-stream
 * execution runs kernel bodies inline on the submitting thread and is
 * not timed. CPU time rather than wall time: submission runs
 * concurrently with the stream threads executing earlier work, so on
 * small machines wall deltas would mostly measure preemption.
 * Monotone per-thread counter; callers take deltas around a region
 * (the serving layer's host-dispatch-per-op metric).
 */
u64 dispatchEngineNs();

/**
 * Kernel-fusion builder (paper Sections III-F1/III-F5): records a
 * chain of element-wise limb operations over a shared operand set and
 * submits them as ONE logical kernel -- one launch per limb batch, one
 * hazard-wait/record per batch, one counter update with the chain's
 * summed integer ops but single-pass memory traffic (each distinct
 * operand is counted once; chain-internal intermediates stay
 * on-chip). With `Context::fusionEnabled()` off, run() executes the
 * recorded operations as individual logical kernels with the per-op
 * traffic of the unfused backend -- the arithmetic per coefficient is
 * identical either way, so fused and unfused runs are bit-identical.
 *
 * Polynomial operands are positional (limb i of each poly pairs with
 * limb i of the others), except switchModulus's source: every limb
 * reads one fixed limb of it, through an rdFixed Dep kept beside any
 * positional Dep on the same polynomial. The chain's limb count and
 * prime layout come from the first op's limb range: its written
 * polynomial, or scaledAdd's x. Operand polynomials must stay alive
 * until run() returns; after that the usual keep-alive
 * machinery covers them. Permutations passed to gather() are
 * captured by pointer and are NOT kept alive: like kernels::automorph,
 * they must outlive the submitted kernels themselves -- pass the
 * Context's automorphism cache (node-stable), never a local vector.
 *
 * The Rescale/ModDown epilogues run in place on their output
 * polynomial: base conversion (ModDown) or switchModulus (Rescale)
 * fills it in coefficient form, ntt() transforms it, and
 * rsubScalarMul() finishes it.
 */
class FusedChain
{
  public:
    explicit FusedChain(const Context &ctx);
    ~FusedChain();

    FusedChain(const FusedChain &) = delete;
    FusedChain &operator=(const FusedChain &) = delete;

    /** out = a * b (pointwise, Eval format). */
    FusedChain &mul(RNSPoly &out, const RNSPoly &a, const RNSPoly &b);
    /** acc += a * b. */
    FusedChain &mulAdd(RNSPoly &acc, const RNSPoly &a,
                       const RNSPoly &b);
    /** a += b. */
    FusedChain &add(RNSPoly &a, const RNSPoly &b);
    /** a -= b. */
    FusedChain &sub(RNSPoly &a, const RNSPoly &b);
    /** a[limb i] *= scalar[i]. */
    FusedChain &scalarMul(RNSPoly &a, std::vector<u64> scalar);
    /** acc[limb i] += x[limb i] * w[i] over x's limbs, Shoup-
     *  precomputed constants. @p acc may be wider than @p x (the
     *  leading q-limbs of a raised polynomial): the op's limb range
     *  is x's. */
    FusedChain &scaledAdd(RNSPoly &acc, const RNSPoly &x,
                          std::vector<u64> w, std::vector<u64> wShoup);
    /** out[j] = in[perm[j]] per limb (automorphism gather). @p perm
     *  must outlive the kernel (the Context's cache does). */
    FusedChain &gather(RNSPoly &out, const RNSPoly &in,
                       const std::vector<u32> &perm);

    /** out[limb i] = SwitchModulus(limb @p srcLimb of @p src, in
     *  coefficient form, -> limb i's prime), coefficient form. */
    FusedChain &switchModulus(RNSPoly &out, const RNSPoly &src,
                              std::size_t srcLimb);
    /** In-place forward NTT of every limb (Coeff -> Eval). */
    FusedChain &ntt(RNSPoly &a);
    /** out = (x - out) * w[i], Shoup-precomputed constants (the fused
     *  Rescale/ModDown epilogue). */
    FusedChain &rsubScalarMul(RNSPoly &out, const RNSPoly &x,
                              std::vector<u64> w, std::vector<u64> wShoup);

    /**
     * Submits the chain: one logical kernel when fusion is enabled,
     * one per recorded op otherwise. The chain is consumed; reuse
     * requires a fresh builder.
     */
    void run();

    /** One recorded operation (public so the kernel-body helpers in
     *  kernels.cpp can execute it; not part of the API). */
    struct Op;

  private:
    const Context *ctx_;
    std::vector<Op> ops_;
};

// --- element-wise ring operations (any format, matching limbs) -------
//
// Each one that a FusedChain op covers is that op as a one-op chain,
// so it bills what the chain's unfused backend bills per op.

/** a += b (limb-wise). */
void addInto(RNSPoly &a, const RNSPoly &b);
/** a -= b. */
void subInto(RNSPoly &a, const RNSPoly &b);
/** a = -a. */
void negate(RNSPoly &a);
/** a *= b (pointwise; both must be Eval format). */
void mulInto(RNSPoly &a, const RNSPoly &b);
/** out = a * b. */
void mul(RNSPoly &out, const RNSPoly &a, const RNSPoly &b);

/** a[limb i] *= scalar[i] (Shoup-precomputed per-limb constants). */
void scalarMulInto(RNSPoly &a, const std::vector<u64> &scalar);
/** a[limb i] += scalar[i] broadcast to every coefficient. */
void scalarAddInto(RNSPoly &a, const std::vector<u64> &scalar);

/**
 * Key-switch inner product (paper Sections III-F3/F5) as ONE logical
 * kernel: out0 = sum_j gather(digits[j], perm) * key0[j] and out1 the
 * same with key1, over the extended basis Q_l * P. Each digit limb is
 * read once and multiplied into both outputs while it is hot; the
 * automorphism gather is applied on the fly (no permuted digit is
 * ever materialized), and limb i of an output reads the full-basis
 * key limb of the same global prime (a whole-poly dependency: special
 * limbs are not positional). Products accumulate lazily in 128 bits
 * and reduce once per coefficient (Barrett, or `%` under
 * ModMulKind::Naive) -- bit-identical to a per-digit multiply-add
 * chain, since both yield the exact residue. Sums of up to 64
 * products of residues below 2^61 fit (Parameters::validate bounds
 * dnum). Runs as one kernel with fusion on or off. @p perm may be
 * null and must otherwise outlive the kernel (the Context's
 * automorphism cache does).
 */
void keySwitchInnerProduct(RNSPoly &out0, RNSPoly &out1,
                           const std::vector<RNSPoly> &digits,
                           const std::vector<RNSPoly> &key0,
                           const std::vector<RNSPoly> &key1,
                           const std::vector<u32> *perm);

// --- transforms -------------------------------------------------------

/** Coeff -> Eval: forward NTT on every limb. */
void toEval(RNSPoly &a);
/** Eval -> Coeff: inverse NTT on every limb. */
void toCoeff(RNSPoly &a);
/** out = the inverse NTT of @p in, in one kernel (no separate copy).
 *  @p out must have @p in's level and special limbs. */
void toCoeff(RNSPoly &out, const RNSPoly &in);
/** Forward NTT on a single raw limb buffer. */
void nttLimb(const Context &ctx, u64 *data, u32 primeIdx);
/** Inverse NTT on a single raw limb buffer. */
void inttLimb(const Context &ctx, u64 *data, u32 primeIdx);
/** Modelled cost of transforming one limb, in either direction (what
 *  toEval/toCoeff bill per limb). */
LimbCost nttLimbCost(const Context &ctx);

/**
 * Galois automorphism in the evaluation domain: out[j] = in[perm[j]]
 * per limb. @p out must have the same shape as @p in. @p perm must
 * outlive the kernel (the Context's automorphism cache does).
 */
void automorph(RNSPoly &out, const RNSPoly &in,
               const std::vector<u32> &perm);

/**
 * Coefficient-domain multiplication by the monomial X^k (negacyclic
 * shift with sign wrap). Works on Eval format via transform-free
 * permutation only when k relates to an automorphism, so this kernel
 * requires Coeff format.
 */
void mulByMonomial(RNSPoly &a, u64 k);

// --- helpers ----------------------------------------------------------

/** Reduces each coefficient of limb data (mod target) in place given
 *  values currently reduced modulo a (possibly larger) source prime,
 *  recentring around the source modulus (SwitchModulus). */
void switchModulusLimb(const Context &ctx, const u64 *src, u64 srcPrime,
                       u64 *dst, u32 dstPrimeIdx);

} // namespace fideslib::ckks::kernels
