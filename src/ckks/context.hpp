/**
 * @file
 * The CKKS crypto-context: prime chain generation, per-prime NTT
 * tables, and every precomputed constant the server-side kernels
 * consume (paper Section III-E).
 *
 * Following the paper, contexts use a registry/singleton pattern: a
 * single "current" context mirrors the GPU constant-memory model, but
 * explicit Context references are passed through the API so that the
 * design stays testable.
 */

#pragma once

#include <complex>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ckks/parameters.hpp"
#include "core/bigint.hpp"
#include "core/device.hpp"
#include "core/modarith.hpp"
#include "core/ntt.hpp"
#include "core/rng.hpp"

namespace fideslib::ckks
{

namespace kernels
{
struct PlanCacheStats;
} // namespace kernels

struct KeyBundle;

/** One RNS prime with its NTT machinery. */
struct PrimeRecord
{
    Modulus mod;
    std::unique_ptr<NttTables> ntt;
    bool special = false;

    u64 value() const { return mod.value; }
};

/**
 * Base-conversion tables for one (level, digit) pair of the ModUp
 * operation, for the fixed P -> Q ModDown direction, or for the
 * merged ModDown-and-Rescale's {q_l} + P -> {q_0..q_{l-1}}.
 *
 * Conv implements Equation (1) of the paper: a limb-wise scaling by
 * sHatInv (the Qhat^-1 factors) followed by a modular matrix product
 * with sHatModT (the Qhat factors reduced modulo each target prime).
 * That fast form is exact up to a multiple of S below the source
 * count. Tables with the two exact-form vectors filled select the
 * exact, centered form instead (Halevi, Polyakov and Shoup, CT-RSA
 * 2019): the overflow count v = round(sum_i y_i / s_i), one double
 * sum per coefficient, is subtracted as v * (S mod t_t).
 */
struct ConvTables
{
    std::vector<u32> sourceIdx; //!< global prime indices of the source
    std::vector<u32> targetIdx; //!< global prime indices of the target
    std::vector<u64> sHatInv;   //!< [i]: (S/s_i)^{-1} mod s_i
    std::vector<u64> sHatInvShoup;
    //! sHatModT[i * targetCount + t]: (S/s_i) mod t_t
    std::vector<u64> sHatModT;
    //! Exact form only, else empty. [i]: 1 / s_i.
    std::vector<double> sInv;
    //! Exact form only, else empty. [t]: (-S) mod t_t.
    std::vector<u64> negSModT;

    bool exact() const { return !negSModT.empty(); }
};

/** The NTT variant pair Context::nttChoiceFor reports: always Flat
 *  both ways, blocks 0. Kept because perfbench reads it. */
struct NttChoice
{
    NttVariant fwd = NttVariant::Flat;
    NttVariant inv = NttVariant::Flat;
    u32 fwdColBlock = 0;
    u32 invColBlock = 0;
};

/** Context::nttStats's snapshot: nothing tunes the NTT, so tuned is
 *  always false. Kept because perfbench reads it. */
struct NttStats
{
    bool tuned = false;
};

/** CKKS crypto-context: owns primes, tables and configuration. */
class Context
{
  public:
    explicit Context(const Parameters &params);
    ~Context();

    Context(const Context &) = delete;
    Context &operator=(const Context &) = delete;

    const Parameters &params() const { return params_; }
    std::size_t degree() const { return n_; }
    u32 logDegree() const { return params_.logN; }
    u32 maxLevel() const { return params_.multDepth; }
    u32 numSpecial() const { return numSpecial_; }
    u32 dnum() const { return params_.dnum; }
    u32 digitSize() const { return alpha_; }
    long double defaultScale() const { return defaultScale_; }

    /**
     * Canonical scaling factor at each level (FLEXIBLEAUTO-style):
     * Delta_L = Delta and Delta_{l-1} = Delta_l^2 / q_l, the scale a
     * multiply-then-rescale chain lands on. The bootstrap and
     * polynomial-evaluation machinery keep every ciphertext on this
     * chain so branches of different depths can be added exactly.
     */
    long double levelScale(u32 l) const { return levelScales_[l]; }

    /** Global prime index: 0..L are q-limbs, L+1..L+K special. */
    const PrimeRecord &prime(u32 globalIdx) const
    {
        return primes_[globalIdx];
    }
    u32 specialIdx(u32 k) const { return params_.multDepth + 1 + k; }
    u32 numPrimes() const { return primes_.size(); }

    const Modulus &qMod(u32 i) const { return primes_[i].mod; }
    const Modulus &pMod(u32 k) const
    {
        return primes_[specialIdx(k)].mod;
    }

    /** Active key-switching digits at level l. */
    u32 numDigits(u32 level) const { return (level + alpha_) / alpha_; }

    /** ModUp conversion tables for (level, digit). */
    const ConvTables &modUpTables(u32 level, u32 digit) const
    {
        return modUp_[level][digit];
    }
    /** ModDown (P -> {q_0..q_level}) conversion tables. */
    const ConvTables &modDownTables(u32 level) const
    {
        return modDown_[level];
    }
    /**
     * Exact tables of the merged ModDown-and-Rescale at level l >= 1:
     * {q_l, p_0..p_{K-1}} -> {q_0..q_{l-1}}. The sources are positions
     * l..l+K of a raised level-l polynomial, contiguous.
     */
    const ConvTables &modDownRescaleTables(u32 level) const
    {
        FIDES_ASSERT(level >= 1 && level <= params_.multDepth);
        return modDownRescale_[level];
    }
    /** (P q_l)^{-1} mod q_i for i < l, the merged epilogue's scale. */
    u64 pqlInvModQ(u32 l, u32 i) const
    {
        return pqlInvModQ_[l * (params_.multDepth + 1) + i];
    }
    u64 pqlInvModQShoup(u32 l, u32 i) const
    {
        return pqlInvModQShoup_[l * (params_.multDepth + 1) + i];
    }
    u64 pModQShoup(u32 i) const { return pModQShoup_[i]; }
    /** P^{-1} mod q_i. */
    u64 pInvModQ(u32 i) const { return pInvModQ_[i]; }
    u64 pInvModQShoup(u32 i) const { return pInvModQShoup_[i]; }
    /** P mod q_i (key generation, the merged epilogue's P d term). */
    u64 pModQ(u32 i) const { return pModQ_[i]; }

    /** q_l^{-1} mod q_i, used by Rescale when dropping limb l. */
    u64 qlInvModQ(u32 l, u32 i) const
    {
        return qlInvModQ_[l * (params_.multDepth + 1) + i];
    }
    u64 qlInvModQShoup(u32 l, u32 i) const
    {
        return qlInvModQShoup_[l * (params_.multDepth + 1) + i];
    }

    /** Per-coefficient CRT reconstructor over q_0..q_level. */
    const CrtReconstructor &reconstructor(u32 level) const;

    /**
     * Evaluation-domain permutation for the Galois automorphism
     * X -> X^g: out[j] = in[perm[j]]. Built lazily and cached.
     */
    const std::vector<u32> &automorphPerm(u64 galoisElt) const;

    /** Galois element for a left rotation by @p k slots. */
    u64 rotationGaloisElt(i64 k) const;
    /** Galois element of complex conjugation (X -> X^{2N-1}). */
    u64 conjugateGaloisElt() const { return 2 * n_ - 1; }

    /** Deterministic context-wide randomness source. */
    Prng &prng() const { return prng_; }

    // Execution topology. ----------------------------------------------
    /**
     * The simulated devices and streams this context executes on. The
     * set is execution state, not logical context state, so kernels
     * holding a `const Context &` may still launch work on it.
     */
    DeviceSet &devices() const { return *devices_; }
    /**
     * The stream subset the CALLING THREAD dispatches onto: the
     * thread's active lease (serving-layer submitters install one via
     * setThreadLease), or the context's whole-set default. The kernel
     * layer routes every stream pick through this, so a request's
     * kernels stay on its submitter's leased streams (DESIGN.md 1.8).
     */
    const StreamLease &streamLease() const;
    /**
     * Installs @p lease as the calling thread's active lease (null
     * restores the whole-set default). The lease must outlive its
     * installation and view this context's DeviceSet; managed RAII-
     * style by serve::Server workers.
     */
    void setThreadLease(const StreamLease *lease) const;

    /**
     * Placement policy: the device owning global prime @p primeIdx.
     * The RNS base is split into contiguous blocks, one per device
     * (the paper's multi-GPU partitioning); matching limbs of two
     * polynomials therefore always land on the same device, and limb
     * batches over consecutive positions rarely cross a device
     * boundary.
     */
    Device &deviceFor(u32 primeIdx) const
    {
        const u32 total = params_.multDepth + 1 + numSpecial_;
        const u32 nd = devices_->numDevices();
        u32 d = static_cast<u32>(
            (static_cast<u64>(primeIdx) * nd) / total);
        return devices_->device(d < nd ? d : nd - 1);
    }

    // Backend execution configuration (mutable for the benches). Every
    // op reads these at dispatch, so a change applies to the next op.
    u32 limbBatch() const { return limbBatch_; }
    void setLimbBatch(u32 b) { limbBatch_ = b; }
    bool fusionEnabled() const { return fusion_; }
    void setFusion(bool f) { fusion_ = f; }
    /** NttChoice{} for any limb count: every op runs nttForward /
     *  nttInverse. Kept because perfbench calls it. */
    NttChoice nttChoiceFor(std::size_t) const { return {}; }
    /** NttStats{}. Kept because perfbench calls it. */
    NttStats nttStats() const { return {}; }
    ModMulKind modMulKind() const { return modMul_; }
    void setModMulKind(ModMulKind k) { modMul_ = k; }

    // Hazard validator (check/check.hpp). -----------------------------
    /**
     * Sets the hazard-validation mode: the racecheck / declcheck /
     * initcheck / lifetime layer over the stream/event stack
     * (DESIGN.md §1.11). Fatal panics on the first finding; Report
     * logs and counts. Process-wide -- the validator watches the
     * execution layer itself, not one context -- but kept here, next
     * to the other execution knobs, for discoverability. Also set at
     * Context construction from FIDES_VALIDATE ("report" = Report,
     * "0"/"off" = Off, anything else = Fatal).
     */
    static void setValidation(check::Mode m) { check::setMode(m); }
    static check::Mode validation() { return check::mode(); }

    /** Always {}: no op captures a plan. Kept because perfbench calls it. */
    kernels::PlanCacheStats planStats() const;

    // Per-shard key-bundle registry (serve::Router placement). --------
    /**
     * Records @p keys as tenant @p tenant's evaluation keys ON THIS
     * CONTEXT; serve::Router::registerTenant calls it on the owning
     * shard, replacing any earlier bundle. The Server keeps its own
     * reference for every request, so nothing in the library reads
     * the registry: it is kept because perfbench's RouterRig::probe
     * reads keyBundle(). Thread-safe.
     */
    void registerKeyBundle(u64 tenant,
                           std::shared_ptr<const KeyBundle> keys) const;
    /** The registered bundle, or null. Kept because perfbench's
     *  RouterRig::probe reads it. */
    std::shared_ptr<const KeyBundle> keyBundle(u64 tenant) const;

    /**
     * Shard label for aggregate observability (metricsText): set by
     * serve::Router to "shard<i>"; empty outside sharded serving.
     */
    void setShardLabel(std::string label) { shardLabel_ = std::move(label); }
    const std::string &shardLabel() const { return shardLabel_; }

    // Registry (paper Section III-E singleton pattern). ----------------
    static void setCurrent(Context *ctx);
    static Context &current();

  private:
    void generatePrimeChain();
    void buildConvTables();

    Parameters params_;
    std::unique_ptr<DeviceSet> devices_;
    std::size_t n_;
    u32 alpha_;
    u32 numSpecial_;
    long double defaultScale_;

    std::vector<PrimeRecord> primes_;
    //! modUp_[level][digit]
    std::vector<std::vector<ConvTables>> modUp_;
    //! modDown_[level]
    std::vector<ConvTables> modDown_;
    //! modDownRescale_[level], exact; entry 0 is empty
    std::vector<ConvTables> modDownRescale_;
    std::vector<u64> pInvModQ_, pInvModQShoup_, pModQ_, pModQShoup_;
    std::vector<u64> qlInvModQ_, qlInvModQShoup_;
    std::vector<u64> pqlInvModQ_, pqlInvModQShoup_;
    std::vector<long double> levelScales_;

    // Tenant key registry (mutable: shards are handed around as
    // const Context& by the serving layer, but key placement is
    // execution state like the DeviceSet, not logical context state).
    mutable std::mutex keyRegistryMutex_;
    mutable std::map<u64, std::shared_ptr<const KeyBundle>> keyRegistry_;
    std::string shardLabel_;

    // Lazily built caches, mutex-guarded: rotations consult the
    // automorphism cache from every submitter thread (std::map nodes
    // are stable, so returned references outlive later insertions).
    mutable std::mutex lazyCacheMutex_;
    mutable std::vector<std::unique_ptr<CrtReconstructor>> crt_;
    mutable std::map<u64, std::vector<u32>> automorphCache_;
    mutable Prng prng_;

    u32 limbBatch_;
    bool fusion_;
    ModMulKind modMul_;

    std::unique_ptr<StreamLease> defaultLease_;
};

} // namespace fideslib::ckks
