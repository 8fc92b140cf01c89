/**
 * @file
 * CKKS encoder/decoder: the canonical embedding restricted to n
 * slots (n <= N/2, power of two).
 *
 * Decoding evaluates the plaintext polynomial at the 2N-th roots
 * psi^(5^j); with the packed coefficient vector u_k = m_{k g} +
 * i * m_{N/2 + k g} (g = N/(2n) the sparse-packing gap) this is the
 * "special FFT" F(u)_j = sum_k u_k W^(k 5^j mod M), W = e^(2 pi i/M),
 * M = 4n. Encoding applies the inverse transform and rounds to the
 * RNS representation at the requested scale.
 *
 * The transform is also the algebraic backbone of bootstrapping's
 * CoeffToSlot/SlotToCoeff: the homomorphic linear stages evaluate
 * exactly these butterflies (see lintrans.hpp).
 */

#pragma once

#include <complex>
#include <vector>

#include "ckks/ciphertext.hpp"

namespace fideslib::ckks
{

using Cplx = std::complex<long double>;

/**
 * Forward special FFT in place: v (size n) must be in natural order;
 * output is the slot vector. M = 4n.
 */
void specialFFT(std::vector<Cplx> &v);

/** Inverse special FFT in place (exact inverse of specialFFT). */
void specialIFFT(std::vector<Cplx> &v);

/** Client-side encoder (the OpenFHE role in the paper's Figure 1). */
class Encoder
{
  public:
    explicit Encoder(const Context &ctx) : ctx_(&ctx) {}

    /**
     * Encodes @p values into @p slots slots at level @p level with
     * scaling factor @p scale (default: the context scale). The value
     * vector may be shorter than slots; it is zero-padded.
     */
    Plaintext encode(const std::vector<std::complex<double>> &values,
                     u32 slots, u32 level, long double scale = 0) const;

    /** Decodes a plaintext back to complex slot values. */
    std::vector<std::complex<double>> decode(const Plaintext &pt) const;

    /**
     * Writes the (coeff-format) encoding of slot values into @p out.
     * Used internally by bootstrapping's plaintext diagonal setup.
     */
    void encodeToPoly(const std::vector<Cplx> &values, u32 slots,
                      long double scale, RNSPoly &out) const;

    /**
     * Per-limb residues of round(value * scale), the constant used by
     * ScalarAdd/ScalarMult kernels (real part only).
     */
    std::vector<u64> scalarResidues(long double value, long double scale,
                                    u32 level, u32 numSpecial = 0) const;

  private:
    const Context *ctx_;
};

} // namespace fideslib::ckks
