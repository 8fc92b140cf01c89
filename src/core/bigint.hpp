/**
 * @file
 * Minimal unsigned multiprecision integer used only at setup/decode
 * time: computing Q = prod(q_i), the complements Q/q_i, residues of
 * large constants, and exact CRT reconstruction of RNS coefficients.
 *
 * Hot paths never touch this class; it exists so the library needs no
 * external bignum dependency. Only the operations the CKKS pipeline
 * needs are implemented (word multiply/divide, add/sub, residue).
 */

#pragma once

#include <vector>

#include "core/common.hpp"
#include "core/modarith.hpp"

namespace fideslib
{

/** Little-endian base-2^64 unsigned integer. */
class BigInt
{
  public:
    BigInt() : words_{0} {}
    explicit BigInt(u64 v) : words_{v} {}

    /** Number of significant words (>= 1). */
    std::size_t size() const { return words_.size(); }
    u64 word(std::size_t i) const
    {
        return i < words_.size() ? words_[i] : 0;
    }

    bool isZero() const { return words_.size() == 1 && words_[0] == 0; }

    /** this *= m (single word). */
    void mulWord(u64 m);
    /** this += other. */
    void add(const BigInt &other);
    /** this -= other; requires this >= other. */
    void sub(const BigInt &other);
    /** this += other * m, fused (used by CRT accumulation). */
    void addMulWord(const BigInt &other, u64 m);

    /** -1, 0, +1 for this <,==,> other. */
    int compare(const BigInt &other) const;

    /** Divides by a word in place, returns the remainder. */
    u64 divWord(u64 d);
    /** Remainder modulo a word (does not modify this). */
    u64 modWord(const Modulus &m) const;

    /** this >> 1. */
    void shiftRight1();

    /** Lossy conversion (fine: |value| < 2^16000). */
    long double toLongDouble() const;

  private:
    void trim();

    std::vector<u64> words_;
};

/**
 * Exact CRT reconstruction of one coefficient given its residues.
 *
 * Given residues x_i mod q_i, the precomputed t_i = x_i * (Qhat_i^{-1})
 * mod q_i satisfy x = sum(t_i * Qhat_i) - k*Q with k = round(sum t_i/q_i)
 * < L + 1, so k fits a word and the reconstruction is exact. Returns
 * the centered value as a signed long double (|x| <= Q/2).
 */
class CrtReconstructor
{
  public:
    explicit CrtReconstructor(const std::vector<Modulus> &moduli);

    /** Centered long-double value of the coefficient with @p residues. */
    long double reconstruct(const std::vector<u64> &residues) const;

    /** Centered value from a strided view (residues[i * stride]). */
    long double reconstruct(const u64 *residues, std::size_t stride,
                            std::size_t count) const;

    const BigInt &modulusProduct() const { return bigQ_; }

  private:
    std::vector<Modulus> moduli_;
    std::vector<BigInt> qHat_;     //!< Q / q_i
    std::vector<u64> qHatInv_;     //!< (Q/q_i)^{-1} mod q_i
    BigInt bigQ_;
    BigInt bigQHalf_;
    long double qLongDouble_ = 0;
};

} // namespace fideslib
