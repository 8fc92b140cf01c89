/**
 * @file
 * CKKS parameter set (paper Table II notation): ring degree N = 2^logN,
 * multiplicative depth L, scaling factor Delta = 2^logDelta, and the
 * hybrid key-switching digit count dnum, plus backend execution
 * options (limb batching, kernel fusion, modular reduction strategy)
 * that the benchmarks ablate. The NTT is not an option: every
 * Context runs the Flat kernel core/ntt.hpp picks from CPUID.
 */

#pragma once

#include "core/common.hpp"

namespace fideslib::ckks
{

/** Modular multiplication strategy in element-wise kernels. */
enum class ModMulKind { Barrett, Naive };

/** CKKS parameter set plus backend configuration. */
struct Parameters
{
    u32 logN = 13;          //!< ring degree N = 2^logN
    u32 multDepth = 5;      //!< L: rescales available before bootstrap
    u32 logDelta = 36;      //!< scaling factor bits (Delta ~ q_i)
    u32 dnum = 2;           //!< hybrid key-switching digits
    u32 firstModBits = 60;  //!< width of q0
    u32 specialModBits = 60; //!< width of the P extension limbs
    i64 secretHammingWeight = 0; //!< 0 = dense ternary secret
    double sigma = 3.19;    //!< error sampler std deviation
    u64 seed = 0x46494445;  //!< deterministic context randomness

    // Backend execution configuration -----------------------------------
    // Defaults are tuned for the host substrate: one launch per
    // kernel (no real launch overhead to amortize, and the host cache
    // prefers long streams). Figure 7's bench sweeps limbBatch with
    // simulated launch overhead.
    u32 limbBatch = 0;      //!< limbs per kernel launch (0 = all)
    bool fusion = true;     //!< enable kernel fusion (Section III-F5)
    ModMulKind modMul = ModMulKind::Barrett;
    u64 launchOverheadNs = 0; //!< simulated kernel-launch cost

    // Execution topology: the RNS base is sharded in contiguous
    // blocks across numDevices simulated devices, and kernel limb
    // batches are dispatched onto numDevices * streamsPerDevice
    // concurrent streams (Section III-B multi-GPU partitioning).
    u32 numDevices = 1;       //!< simulated devices in the DeviceSet
    u32 streamsPerDevice = 1; //!< concurrent streams per device

    u64 ringDegree() const { return 1ULL << logN; }
    u64 scale() const { return 1ULL << logDelta; }
    /** alpha: limbs per key-switching digit. */
    u32 digitSize() const { return (multDepth + dnum) / dnum; }
    /** K: number of special (extension) limbs. */
    u32 specialLimbs() const { return digitSize(); }

    /** Aborts via fatal() if the parameter set is inconsistent. */
    void validate() const;

    /** The paper's headline set [logN,L,Delta,dnum] = [16,29,59,4]. */
    static Parameters paper16();
    /** Figure 8 sets: [13,5,36,2], [14,13,49,3], [15,21,54,4]. */
    static Parameters paper13();
    static Parameters paper14();
    static Parameters paper15();
    /** Small set for fast unit tests. */
    static Parameters testSmall();
    /** Bootstrapping-capable test set (sparse secret). */
    static Parameters testBoot();

    /**
     * Phantom-like configuration of the same set: no fusion, no limb
     * batching (DESIGN.md substitution #4).
     */
    Parameters phantomSim() const;
};

} // namespace fideslib::ckks
