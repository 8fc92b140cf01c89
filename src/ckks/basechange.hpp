/**
 * @file
 * RNS basis-change operations (paper Section III-F3):
 *
 *  - convert(): the fast base conversion of Equation (1), a limb-wise
 *    scaling by (S/s_i)^{-1} followed by a modular matrix-matrix
 *    product accumulated in 128 bits and reduced once per output; or,
 *    with exact tables, its centered form, which subtracts the
 *    overflow count found in floating point.
 *  - modUpDigit(): digit decomposition + base extension to Q_l * P,
 *    forward-NTTing only the limbs Conv produced.
 *  - modDown(): divide by P after the key-switch inner product, with
 *    the paper's ModDown NTT fusion.
 *  - rescale(): drop the top limb and scale by q_l^{-1}, with the
 *    paper's Rescale fusion (SwitchModulus prologue + combined
 *    subtract/scale epilogue around the NTT).
 *  - modDownRescale(): the two above as one exact division by P q_l,
 *    for a key switch whose result is rescaled next (K + l + 1 limb
 *    transforms per component instead of K + 2l + 2).
 *  - modRaise(): bootstrap's Q_0 -> Q_L coefficient lift.
 */

#pragma once

#include "ckks/rnspoly.hpp"

namespace fideslib::ckks
{

/**
 * Base conversion: reads the coefficient-format source limbs
 * (src[i], modulo tables.sourceIdx[i]) and writes each target limb
 * (dst[t], modulo tables.targetIdx[t]). With fast tables the output
 * is exact up to a multiple of the source modulus S below the source
 * count; with exact tables (ConvTables::exact) it is the centered
 * residue in [-S/2, S/2).
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
 * d = 3); when its result is rescaled next, the two merged
 * epilogues (modDownRescale) run 2 l instead of the 2 (l + 1) + 2 l
 * of two ModDowns and two Rescales. Conv accumulates up to
 * alpha = digitSize() products per coefficient in 128 bits, and the
 * merged epilogue's exact Conv alpha + 1, which is why
 * Parameters::validate bounds alpha at 63.
 */
RNSPoly modUpDigit(const RNSPoly &evalPoly, const RNSPoly &coeffPoly,
                   u32 digit);

/**
 * ModDown in place: divides the raised polynomial (eval format with
 * special limbs) by P and drops the special limbs. Conv writes the
 * fresh result's limbs, which one fused kernel then NTTs and finishes
 * in place.
 */
void modDown(RNSPoly &a);

/**
 * Rescale in place: drops the top limb l and scales the remaining
 * limbs by q_l^{-1} (eval format). SwitchModulus of the dropped limb
 * writes the fresh result, which the same fused kernel NTTs and
 * finishes in place.
 */
void rescale(RNSPoly &a);

/**
 * ModDown followed by Rescale, as one division of the raised
 * polynomial (eval format with special limbs, level l >= 1) by
 * P q_l: iNTT of limb l and the K special limbs, the exact centered
 * Conv of those K + 1 limbs into q_0..q_{l-1}, then one fused kernel
 * that NTTs the l converted limbs and finishes
 * (P q_l)^{-1} (a - conv). Returns the level-(l-1) result in place.
 * The Conv must be exact: modDown's fast Conv leaves an overflow of
 * up to K P, which a later rescale divides by q_l, and here nothing
 * divides it. With it exact, the output is round(a / (P q_l)) and
 * equals modDown then rescale unless a coefficient sits within
 * K + 1 of a rounding boundary of q_l.
 */
void modDownRescale(RNSPoly &a);

/**
 * Bootstrap ModRaise: reinterprets the (coeff-format, level-0) input
 * modulo every prime of the target level using the centered lift.
 * Returns a coeff-format polynomial at @p newLevel.
 */
RNSPoly modRaise(const RNSPoly &a, u32 newLevel);

} // namespace fideslib::ckks
