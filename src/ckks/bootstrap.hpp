/**
 * @file
 * CKKS bootstrapping (paper Section III-F7): the first fully open
 * pipeline in this reproduction, following the OpenFHE-adapted
 * procedure the paper describes.
 *
 *   1. ModRaise: lift the exhausted ciphertext from q_0 to the full
 *      Q_L; the plaintext becomes t = m + q_0 I with small integer I.
 *   2. SubSum (sparse packing only): the partial-sum trace projects t
 *      onto the subring generated by X^gap, making the n-slot linear
 *      algebra exact. The trace is gap times that projection; the
 *      1/gap is folded into CoeffToSlot's first stage.
 *   3. CoeffToSlot: staged homomorphic inverse special-FFT (level
 *      budget merges butterfly stages); slots now carry the packed
 *      coefficients of t, normalized to [-1, 1] by 1/(Keff q0 gap),
 *      with Keff = 3K at every slot count.
 *   4. Real/imaginary split via HConjugate. Sparse packing
 *      (slots s < N/2) widens the last CoeffToSlot stage to 2s slots
 *      so that it writes (w, -i w); adding the conjugate leaves Re w
 *      in slots [0, s) and Im w in [s, 2s) of one ciphertext (the
 *      2n-slot trick of Chen, Chillotti and Song, EUROCRYPT 2019).
 *      Full packing has no spare slots and splits into two
 *      ciphertexts, Im via an exact monomial multiplication.
 *   5. ApproxModEval -- once on the 2s-slot ciphertext, or on each
 *      part under full packing: Chebyshev approximation of
 *      cos((2 pi Keff y - pi/2)/2^r) evaluated with the BSGS
 *      Paterson-Stockmeyer routine, followed by r double-angle
 *      iterations, yielding sin(2 pi t/q0) ~ (2 pi/q0) m. The
 *      constructor picks r and the least degree that meets the
 *      interpolation target together, for the fewest levels.
 *   6. Recombine and SlotToCoeff (staged forward special-FFT with
 *      the q0/(2 pi Delta) constant folded into its first stage),
 *      producing a ciphertext encrypting m again at a usable level,
 *      outputLevel() exactly. Sparse
 *      packing recombines inside the widened first SlotToCoeff
 *      stage, which maps (Re, Im) to Re + i Im at s slots; full
 *      packing recombines with a monomial multiply and an add.
 */

#pragma once

#include "ckks/lintrans.hpp"

namespace fideslib::ckks
{

/** Slot count and linear-transform level budgets of a bootstrap. */
struct BootstrapConfig
{
    u32 slots = 0;          //!< number of plaintext slots (<= N/2)
    u32 levelBudgetC2S = 3; //!< CoeffToSlot depth (stage groups)
    u32 levelBudgetS2C = 3; //!< SlotToCoeff depth
};

/** Server-side bootstrapping engine. Every stage is encoded at
 *  construction, so concurrent submitters share it read-only. */
class Bootstrapper
{
  public:
    Bootstrapper(const Evaluator &eval, const BootstrapConfig &cfg);

    /**
     * Rotation indices the pipeline needs; generate these (plus the
     * conjugation key) before calling bootstrap().
     */
    std::vector<i64> requiredRotations() const;

    /** Refreshes @p ct (any level; consumed down to q0 first). */
    Ciphertext bootstrap(const Ciphertext &ct) const;

    /** Multiplicative depth the pipeline consumes below Q_L. */
    u32 depth() const;
    /** Levels remaining on a bootstrapped ciphertext. */
    u32 outputLevel() const;

    double keff() const { return keff_; }
    u32 chebyshevDegree() const { return chebDegree_; }
    u32 numDoubleAngles() const { return doubleAngles_; }

  private:
    /** slots < N/2: Re and Im share one 2s-slot EvalMod. */
    bool sparsePacking() const;
    Ciphertext approxMod(const Ciphertext &y) const;

    const Evaluator &eval_;
    BootstrapConfig cfg_;
    u32 gap_;            //!< N / (2 slots)
    double keff_;        //!< effective |t|/q0 range
    u32 doubleAngles_ = 0;
    u32 chebDegree_ = 0;
    std::vector<double> chebCoeffs_;
    std::vector<DiagMatrix> c2s_, s2c_;
    //! stage s of each ladder, encoded at the level it runs at
    std::vector<EncodedDiagMatrix> c2sEnc_, s2cEnc_;
};

} // namespace fideslib::ckks
