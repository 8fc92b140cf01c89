/**
 * @file
 * Negacyclic Number Theoretic Transform over word-sized prime moduli.
 *
 * The forward transform is a radix-2 Cooley-Tukey decimation-in-time
 * NTT taking a natural-order coefficient vector to a bit-reversed
 * evaluation vector; the inverse uses Gentleman-Sande butterflies and
 * takes bit-reversed evaluations back to natural-order coefficients,
 * eliminating explicit bit-reversal steps (paper, Section III-F4).
 *
 * Butterflies use Shoup modular multiplication with precomputed
 * twiddle constants and lazy [0, 4p) intermediates (Harvey-style),
 * with a single correction pass at the end.
 *
 * A zoo of execution schedules is provided over identical arithmetic
 * (every variant is bit-exact against every other and against the
 * reference NTT -- only the loop order and pass structure differ):
 *  - nttForward/nttInverse: the textbook single-pass loop nest (the
 *    Flat schedule every Context runs by default). It has two kernels,
 *    picked once per process from CPUID: an 8-lane AVX-512 (F + DQ)
 *    one that runs the scalar butterflies lane for lane -- stage
 *    pairs in registers as Radix4 runs them, and the last three
 *    forward stages (first three inverse ones) per 16-element block
 *    -- and the portable scalar loop, used on every other CPU and
 *    below degree 16. Both return fully reduced residues, so the pick
 *    never changes a result;
 *  - nttForwardHierarchical/nttInverseHierarchical: the paper's
 *    hierarchical ("2D") schedule that splits the transform into
 *    sqrt(N)-sized column and row passes so each element is touched
 *    by only two passes (four memory accesses per element), mirroring
 *    the GPU thread-block decomposition of Figure 3;
 *  - nttForwardRadix4/nttInverseRadix4: pairs of radix-2 stages fused
 *    into radix-4 butterflies, so each fused pass loads four elements
 *    into registers and runs two stages on them -- half the sweeps
 *    over memory of the flat schedule;
 *  - nttForwardBlockedHier/nttInverseBlockedHier: the hierarchical
 *    column pass re-blocked over groups of adjacent columns sized to
 *    L1/L2, so the strided column accesses reuse every cache line
 *    across the block instead of touching one lane per line;
 *  - nttForwardFusedLast/nttInverseFusedLast: the flat schedule with
 *    the trailing sweep folded into the last butterfly stage -- the
 *    forward's correct() pass and the inverse's nInv multiply happen
 *    while the last stage's values are still in registers.
 *
 * NttVariant names a concrete schedule; nttForwardVariant and
 * nttInverseVariant dispatch on it (the per-shape autotuner in
 * ntt_tune.hpp picks one per working-set shape).
 *
 * Evaluation-order contract (used by automorphism tables): output
 * slot i of the forward transform holds the polynomial evaluated at
 * psi^(2 * bitReverse(i, log2(n)) + 1).
 */

#pragma once

#include <vector>

#include "core/common.hpp"
#include "core/modarith.hpp"

namespace fideslib
{

/** A concrete, executable NTT loop schedule. */
enum class NttVariant : u32
{
    Flat,        //!< radix-2 single loop nest
    Hierarchical, //!< 2D column/row passes (paper Figure 3)
    Radix4,      //!< fused stage pairs, half the memory sweeps
    BlockedHier, //!< 2D with cache-blocked column pass
    FusedLast,   //!< flat with the trailing sweep folded in
};

constexpr u32 kNttVariantCount = 5;

/** Short stable name ("flat", "radix4", ...) for reports and the
 *  FIDES_NTT_SCHEDULE escape hatch. */
const char *nttVariantName(NttVariant v);

/** Precomputed twiddle tables for one (modulus, ring degree) pair. */
class NttTables
{
  public:
    /**
     * Builds tables for ring degree @p n (power of two) and modulus
     * @p m, with psi a primitive 2n-th root of unity mod m.
     */
    NttTables(std::size_t n, const Modulus &m, u64 psi);

    std::size_t degree() const { return n_; }
    const Modulus &modulus() const { return mod_; }
    u64 psi() const { return psi_; }

    const u64 *rootPow() const { return rootPow_.data(); }
    const u64 *rootPowShoup() const { return rootPowShoup_.data(); }
    const u64 *invRootPow() const { return invRootPow_.data(); }
    const u64 *invRootPowShoup() const { return invRootPowShoup_.data(); }
    u64 nInv() const { return nInv_; }
    u64 nInvShoup() const { return nInvShoup_; }
    //! Last inverse-stage twiddle pre-folded with nInv (FusedLast).
    u64 invLastW() const { return invLastW_; }
    u64 invLastWShoup() const { return invLastWShoup_; }

  private:
    std::size_t n_;
    u32 logN_;
    Modulus mod_;
    u64 psi_;
    //! psi^bitrev(i): forward twiddles in access order.
    std::vector<u64> rootPow_, rootPowShoup_;
    //! psi^-bitrev(i): inverse twiddles in access order.
    std::vector<u64> invRootPow_, invRootPowShoup_;
    u64 nInv_, nInvShoup_;
    u64 invLastW_, invLastWShoup_;
};

/** In-place forward NTT, natural order in, bit-reversed order out. */
void nttForward(u64 *a, const NttTables &t);

/** In-place inverse NTT, bit-reversed in, natural order out. */
void nttInverse(u64 *a, const NttTables &t);

/** True when the CPU runs the AVX-512 kernel (avx512f + avx512dq). */
bool nttAvx512Supported();

/** The two kernels behind nttForward/nttInverse, callable directly so
 *  tests can hold one against the other. The AVX-512 pair requires
 *  nttAvx512Supported() and runs the scalar loop below degree 16. */
void nttForwardScalar(u64 *a, const NttTables &t);
void nttInverseScalar(u64 *a, const NttTables &t);
void nttForwardAvx512(u64 *a, const NttTables &t);
void nttInverseAvx512(u64 *a, const NttTables &t);

/** Hierarchical (2D) schedule of the forward NTT; same output. */
void nttForwardHierarchical(u64 *a, const NttTables &t);

/** Hierarchical (2D) schedule of the inverse NTT; same output. */
void nttInverseHierarchical(u64 *a, const NttTables &t);

/** Radix-4 schedule (fused stage pairs); same output. */
void nttForwardRadix4(u64 *a, const NttTables &t);
void nttInverseRadix4(u64 *a, const NttTables &t);

/**
 * Cache-blocked hierarchical schedule: the column pass runs over
 * groups of @p colBlock adjacent columns so every strided cache line
 * is reused across the whole block. @p colBlock 0 sizes the block so
 * one column group fits L1 (32 KiB); any value is clamped to the
 * column count. Same output as every other schedule.
 */
void nttForwardBlockedHier(u64 *a, const NttTables &t,
                           std::size_t colBlock = 0);
void nttInverseBlockedHier(u64 *a, const NttTables &t,
                           std::size_t colBlock = 0);

/** Flat schedule with the trailing sweep fused into the last stage
 *  (forward: correct(); inverse: the nInv multiply); same output. */
void nttForwardFusedLast(u64 *a, const NttTables &t);
void nttInverseFusedLast(u64 *a, const NttTables &t);

/** Dispatch on a concrete variant (@p colBlock: BlockedHier only). */
void nttForwardVariant(u64 *a, const NttTables &t, NttVariant v,
                       std::size_t colBlock = 0);
void nttInverseVariant(u64 *a, const NttTables &t, NttVariant v,
                       std::size_t colBlock = 0);

/**
 * Reference O(n^2) negacyclic evaluation used by tests: returns the
 * polynomial evaluated at psi^(2*bitReverse(i)+1) for each i.
 */
std::vector<u64> nttNaive(const std::vector<u64> &a, const NttTables &t);

} // namespace fideslib
