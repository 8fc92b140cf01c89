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
 * nttForward/nttInverse run the Flat schedule, the textbook
 * single-pass loop nest, and are what every Context op calls. Flat
 * has two kernels, picked once per process from CPUID:
 *  - an 8-lane AVX-512 (F + DQ) kernel that runs the scalar
 *    butterflies lane for lane. It takes the stride >= 8 stages in
 *    pairs, four vectors in registers per pair, and the last three
 *    forward stages (first three inverse ones) per 16-element block,
 *    with the forward's correction and the inverse's n^-1 sweep folded
 *    into the stage that ends it;
 *  - the portable scalar loop, used on every other CPU and below
 *    degree 16.
 * Both return fully reduced residues, so the pick never changes a
 * result. No option, environment variable or NttVariant selects it.
 *
 * nttForwardHierarchical/nttInverseHierarchical are the paper's
 * hierarchical ("2D") schedule, kept as the Figure 3/4 reference: it
 * splits the transform into sqrt(N)-sized column and row passes so
 * each element is touched by only two passes (four memory accesses
 * per element), mirroring the GPU thread-block decomposition of
 * Figure 3. bench_ntt times it against Flat; tests hold it bit-exact.
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

/** The paper's Figure 4 pair of NTT schedules, for bench_ntt and
 *  perfbench's NTT probe. */
enum class NttVariant : u32
{
    Flat,         //!< nttForward/nttInverse
    Hierarchical, //!< 2D column/row passes (paper Figure 3)
};

/** Short stable name ("flat", "hier"); bench_ntt and perfbench print it. */
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
    //! Last inverse-stage twiddle pre-folded with nInv (the AVX-512
    //! inverse's epilogue).
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

/** Dispatch on a Figure 4 variant. The last argument is ignored;
 *  it stays because perfbench passes NttChoice's column block. */
void nttForwardVariant(u64 *a, const NttTables &t, NttVariant v,
                       std::size_t = 0);
void nttInverseVariant(u64 *a, const NttTables &t, NttVariant v,
                       std::size_t = 0);

/**
 * Reference O(n^2) negacyclic evaluation used by tests: returns the
 * polynomial evaluated at psi^(2*bitReverse(i)+1) for each i.
 */
std::vector<u64> nttNaive(const std::vector<u64> &a, const NttTables &t);

} // namespace fideslib
