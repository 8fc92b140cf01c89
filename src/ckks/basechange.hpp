/**
 * @file
 * RNS basis-change operations (paper Section III-F3):
 *
 *  - convert(): the fast base conversion of Equation (1), a limb-wise
 *    scaling by (S/s_i)^{-1} followed by a modular matrix-matrix
 *    product accumulated in 128 bits and reduced once per output.
 *  - modUpDigit(): digit decomposition + base extension to Q_l * P,
 *    forward-NTTing only the limbs Conv produced.
 *  - modDown(): divide by P after the key-switch inner product, with
 *    the paper's ModDown NTT fusion.
 *  - rescale(): drop the top limb and scale by q_l^{-1}, with the
 *    paper's Rescale fusion (SwitchModulus prologue + combined
 *    subtract/scale epilogue around the NTT).
 *  - modRaise(): bootstrap's Q_0 -> Q_L coefficient lift.
 */

#pragma once

#include "ckks/rnspoly.hpp"

namespace fideslib::ckks
{

/**
 * Fast base conversion: reads the coefficient-format source limbs
 * (src[i], modulo tables.sourceIdx[i]) and writes each target limb
 * (dst[t], modulo tables.targetIdx[t]). Output is exact up to the
 * standard small multiple of the source modulus.
 */
void convert(const Context &ctx, const std::vector<const u64 *> &src,
             const ConvTables &tables, const std::vector<u64 *> &dst);

/**
 * ModUp of one key-switching digit of a level-l polynomial, given in
 * both forms: @p evalPoly and its inverse NTT @p coeffPoly. Base-
 * extends the digit's limbs (Conv over @p coeffPoly) to the full
 * Q_l * P basis and returns the result in evaluation form. The
 * digit's own limbs keep their residues, so they are copied from
 * @p evalPoly; only the Conv targets (the other q-limbs and the K
 * special limbs) take a forward NTT, in the same kernel as the copy.
 * A key switch at level l with d digits therefore runs
 * d (l + 1 + K) - (l + 1) forward NTTs in ModUp plus 2 (l + 1) in
 * its two ModDowns: 71 at paper14's top level (l + 1 = 14, K = 5,
 * d = 3). Conv accumulates up to alpha = digitSize() products per
 * coefficient in 128 bits, which Parameters::validate bounds at 64.
 */
RNSPoly modUpDigit(const RNSPoly &evalPoly, const RNSPoly &coeffPoly,
                   u32 digit);

/**
 * ModDown in place: divides the raised polynomial (eval format with
 * special limbs) by P and drops the special limbs.
 */
void modDown(RNSPoly &a);

/**
 * Rescale in place: drops the top limb l and scales the remaining
 * limbs by q_l^{-1} (eval format).
 */
void rescale(RNSPoly &a);

/**
 * Bootstrap ModRaise: reinterprets the (coeff-format, level-0) input
 * modulo every prime of the target level using the centered lift.
 * Returns a coeff-format polynomial at @p newLevel.
 */
RNSPoly modRaise(const RNSPoly &a, u32 newLevel);

} // namespace fideslib::ckks
