/**
 * @file
 * Hybrid key switching (paper Sections II-A, III-F3).
 *
 * The expensive half -- digit decomposition plus ModUp into the
 * extended basis Q_l * P -- is exposed separately from the inner
 * product so that HoistedRotate can share one decomposition across
 * many rotations (Section III-F6): the Galois automorphism commutes
 * with the RNS decomposition, so raised digits can be permuted
 * per-rotation with a cheap gather instead of repeating iNTT +
 * base conversion + NTT.
 */

#pragma once

#include <utility>

#include "ckks/keys.hpp"

namespace fideslib::ckks
{

/** The ModUp-raised digits of a polynomial (all in eval form). */
struct RaisedDigits
{
    std::vector<RNSPoly> digits;
    u32 level;
};

/**
 * Digit-decomposes and base-extends an eval-form polynomial: one
 * inverse NTT of its l + 1 limbs, then per digit a Conv plus one
 * kernel that copies the digit's own limbs from @p dEval and
 * forward-NTTs only the Conv targets (modUpDigit) -- d (l + 1 + K) -
 * (l + 1) forward NTTs in all.
 */
RaisedDigits decomposeAndModUp(const RNSPoly &dEval);

/**
 * Key-switch inner product without the ModDown: sum_j perm(digit_j)
 * * ksk_j over the extended basis Q_l * P, as two raised accumulators
 * (eval form, the digits' level, K special limbs). A caller that
 * rescales the result next divides them by P q_l in one step
 * (modDownRescale); double-hoisted BSGS would keep them in Q_l * P.
 */
std::pair<RNSPoly, RNSPoly>
keySwitchAccumulateQP(const RaisedDigits &raised, const EvalKey &key,
                      const std::vector<u32> *perm = nullptr);

/**
 * Key-switch inner product: accumulates sum_j perm(digit_j) * ksk_j
 * over the extended basis and ModDowns the two accumulators.
 * @p perm, if non-null, is the automorphism gather applied on the fly
 * to each digit (the hoisted-rotation path). The product is one
 * kernel that sums the d <= 64 digit products of each coefficient in
 * 128 bits and reduces once (kernels::keySwitchInnerProduct).
 * Returns (u0, u1) at the digits' level with no special limbs.
 */
std::pair<RNSPoly, RNSPoly>
keySwitchAccumulate(const RaisedDigits &raised, const EvalKey &key,
                    const std::vector<u32> *perm = nullptr);

} // namespace fideslib::ckks
