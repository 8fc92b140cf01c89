/**
 * @file
 * The server-side CKKS evaluator: every primitive of the paper's
 * Table I, plus the optimized variants FIDESlib adds (ScalarAdd,
 * ScalarMult, HSquare, HoistedRotate) and the fused dot product.
 *
 * Scale discipline: HMult/PtMult multiply scales, Rescale divides by
 * the dropped prime, and additions require operands whose scales
 * match to within a relative tolerance (adjust with rescale() /
 * levelReduce() first; the high-level helpers do this for you).
 */

#pragma once

#include <vector>

#include "ckks/ciphertext.hpp"
#include "ckks/encoder.hpp"
#include "ckks/keys.hpp"
#include "ckks/keyswitch.hpp"

namespace fideslib::ckks
{

class Evaluator
{
  public:
    Evaluator(const Context &ctx, const KeyBundle &keys)
        : ctx_(&ctx), keys_(&keys), encoder_(ctx)
    {}

    const Context &context() const { return *ctx_; }
    const KeyBundle &keys() const { return *keys_; }

    // --- additions ----------------------------------------------------
    /** HAdd: ct + ct (matching level and scale). */
    Ciphertext add(const Ciphertext &a, const Ciphertext &b) const;
    void addInPlace(Ciphertext &a, const Ciphertext &b) const;
    /** HSub. */
    Ciphertext sub(const Ciphertext &a, const Ciphertext &b) const;
    void subInPlace(Ciphertext &a, const Ciphertext &b) const;
    /** PtAdd: ct + encoded plaintext. */
    void addPlainInPlace(Ciphertext &a, const Plaintext &p) const;
    /** ScalarAdd: ct + constant, without an encoded plaintext. */
    void addScalarInPlace(Ciphertext &a, double c) const;
    void negateInPlace(Ciphertext &a) const;

    // --- multiplications ----------------------------------------------
    /** HMult: tensor + relinearization (scales multiply). */
    Ciphertext multiply(const Ciphertext &a, const Ciphertext &b) const;
    /** HSquare: cheaper tensor for a == b. */
    Ciphertext square(const Ciphertext &a) const;
    /** PtMult. */
    void multiplyPlainInPlace(Ciphertext &a, const Plaintext &p) const;
    /** ScalarMult: multiply by a real constant at scale Delta. */
    void multiplyScalarInPlace(Ciphertext &a, double c) const;
    /**
     * Scalar multiply at an explicit scale (bootstrap internals use
     * scale-1-ish corrections; scale must still be >= 1).
     */
    void multiplyScalarInPlace(Ciphertext &a, long double c,
                               long double scale) const;
    /** Multiply by the monomial X^k (exact, scale-free). */
    void multiplyByMonomialInPlace(Ciphertext &a, u64 k) const;

    /**
     * HMult then Rescale, with the relinearization's ModDown and the
     * Rescale merged into one exact division by P q_l
     * (modDownRescale): K + l + 1 limb transforms per component
     * instead of K + 2l + 2. Scale and noise as multiply() then
     * rescaleInPlace() set them, and so are the coefficients, except
     * any within K + 1 of a rounding boundary of q_l.
     */
    Ciphertext multiplyRescale(const Ciphertext &a,
                               const Ciphertext &b) const;
    /** HSquare then Rescale, merged like multiplyRescale. */
    Ciphertext squareRescale(const Ciphertext &a) const;

    /** Rescale: drop the top limb, divide the scale by q_l. */
    void rescaleInPlace(Ciphertext &a) const;
    /** Exact modulus reduction to a lower level (scale unchanged). */
    void levelReduceInPlace(Ciphertext &a, u32 newLevel) const;

    // --- rotations ------------------------------------------------------
    /** HRotate: rotate slots left by k (requires the rotation key). */
    Ciphertext rotate(const Ciphertext &a, i64 k) const;
    /** HConjugate. */
    Ciphertext conjugate(const Ciphertext &a) const;
    /**
     * HoistedRotate: many rotations of one ciphertext sharing a
     * single decomposition + ModUp (Section III-F6).
     */
    std::vector<Ciphertext> hoistedRotate(const Ciphertext &a,
                                          const std::vector<i64> &ks) const;

    /**
     * Fused linear combination sum_i cts[i] * pts[i] (the dot-product
     * fusion of Section III-F5): 2n+1 memory operations per output
     * element instead of 6n-3.
     */
    Ciphertext dotPlain(const std::vector<const Ciphertext *> &cts,
                        const std::vector<const Plaintext *> &pts) const;

    // --- canonical-scale helpers ---------------------------------------
    // These keep ciphertexts on the context's levelScale() chain so
    // branches of different multiplicative depth can be combined
    // exactly (used heavily by lintrans/chebyshev/bootstrap).

    /** True iff ct.scale equals the canonical scale of its level. */
    bool isCanonical(const Ciphertext &a) const;
    /**
     * Brings a canonical ciphertext down to @p targetLevel, staying
     * canonical (scalar-multiply by 1 at Delta_l, then rescale).
     */
    void toCanonicalLevel(Ciphertext &a, u32 targetLevel) const;
    /** Canonical multiply: align levels, then multiplyRescale. Only
     *  an operand that must be lowered is copied. */
    Ciphertext multiplyC(const Ciphertext &a, const Ciphertext &b) const;
    /** Canonical square (squareRescale). */
    Ciphertext squareC(const Ciphertext &a) const;
    /** Canonical add (aligns levels first; copies @p b only to lower
     *  it). */
    Ciphertext addC(const Ciphertext &a, const Ciphertext &b) const;
    /** Canonical plaintext multiply: encode at Delta_l and rescale. */
    Ciphertext multiplyPlainC(const Ciphertext &a,
                              const std::vector<Cplx> &values) const;

    /** Encoder bound to this evaluator's context. */
    const Encoder &encoder() const { return encoder_; }

  private:
    /** Relinearizes the tensor (d0, d1, d2) and divides it by P q_l:
     *  multiplyRescale's and squareRescale's shared tail. */
    Ciphertext relinearizeRescale(RNSPoly d0, RNSPoly d1,
                                  const RNSPoly &d2, long double scale,
                                  u32 slots, double noiseBits) const;
    /** Applies keyswitch result and automorphism for rotations. */
    Ciphertext applyRotation(const Ciphertext &a,
                             const RaisedDigits &raised, u64 galois) const;
    const EvalKey &galoisKey(u64 galois) const;

    const Context *ctx_;
    const KeyBundle *keys_;
    Encoder encoder_;
};

/** Asserts two scales agree to relative 1e-9 (library invariant). */
void checkScalesMatch(long double a, long double b);

} // namespace fideslib::ckks
