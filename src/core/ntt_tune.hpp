/**
 * @file
 * Per-shape NTT schedule autotuning.
 *
 * The best NTT inner loop is shape-dependent: the winning schedule
 * changes with the ring degree and with the limb working-set size
 * (one limb stays cache-resident between stages; 64 limbs thrash
 * whatever a single pass does not keep on chip -- the paper's
 * Figure 4 argument). NttAutotuner races every schedule variant of
 * ntt.hpp on the ACTUAL prime tables over a working set of `limbs`
 * buffers and reports the per-direction winner, so callers (the CKKS
 * Context's `Auto` mode, bench_ntt) can bake a per-(degree,
 * limb-count) choice table instead of one global pick.
 *
 * Determinism: the tuner runs a FIXED number of trials (Options::
 * trials) with a repetition count derived only from the shape, and
 * fills the buffers from a fixed-seed Prng -- the work schedule of a
 * tuning run is fully reproducible, only the winner may differ across
 * machines (that being the point).
 */

#pragma once

#include <vector>

#include "core/ntt.hpp"

namespace fideslib
{

/** The tuner's pick for one shape: per-direction variant + its
 *  parameter (column-block size, BlockedHier only; 0 = L1 default). */
struct NttChoice
{
    NttVariant fwd = NttVariant::Flat;
    NttVariant inv = NttVariant::Flat;
    u32 fwdColBlock = 0;
    u32 invColBlock = 0;
};

/** One candidate configuration the tuner races. */
struct NttCandidate
{
    NttVariant variant = NttVariant::Flat;
    u32 colBlock = 0;
};

/** Per-candidate measurement for one shape. */
struct NttCandidateTime
{
    NttCandidate cand;
    double fwdNsPerLimb = 0;
    double invNsPerLimb = 0;
};

/** Tuning outcome for one (degree, limb-count) shape. */
struct NttShapeStats
{
    u32 logN = 0;
    u32 limbs = 0; //!< working-set size the shape was tuned at
    NttChoice choice;
    double fwdNsPerLimb = 0; //!< the forward winner's time
    double invNsPerLimb = 0; //!< the inverse winner's time
    std::vector<NttCandidateTime> times;
};

class NttAutotuner
{
  public:
    struct Options
    {
        //! Fixed trial count per candidate; the minimum over trials
        //! is kept. Overridable via FIDES_NTT_TUNE_TRIALS so CI can
        //! pin the exact amount of tuning work.
        u32 trials = 3;
        //! Elements (degree x limbs x reps) each timed trial sweeps;
        //! the repetition count is derived from this and the shape.
        u64 targetSweepElems = u64{1} << 21;

        /** Defaults with the FIDES_NTT_TUNE_TRIALS override applied
         *  (shared by the CKKS Context's Auto mode and bench_ntt, so
         *  one environment variable pins the tuning work of both). */
        static Options fromEnv();
    };

    NttAutotuner() = default;
    explicit NttAutotuner(Options opt) : opt_(opt) {}

    /** The candidate set raced for ring degree @p n: every variant
     *  but Hierarchical (never a winner; BlockedHier is its tuned
     *  form), with BlockedHier at the L1-sized default block and
     *  (when the column count allows a distinct one) a 4x larger
     *  L2-ish block. */
    static std::vector<NttCandidate> candidates(std::size_t n);

    /**
     * Races every candidate over a working set of @p limbs buffers of
     * degree tables[0]->degree(), cycling through @p tables for the
     * moduli (pass the context's real prime tables). Returns the
     * per-direction winners plus every measurement.
     */
    NttShapeStats tuneShape(const std::vector<const NttTables *> &tables,
                            u32 limbs) const;

  private:
    Options opt_;
};

} // namespace fideslib
