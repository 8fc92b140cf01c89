#include "core/ntt_tune.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <limits>

#include "core/logging.hpp"
#include "core/rng.hpp"

namespace fideslib
{

namespace
{

double
nowNs()
{
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** L1-sized default column block of the blocked-hierarchical column
 *  pass for degree @p n (mirrors the clamp inside ntt.cpp). */
std::size_t
l1ColBlock(std::size_t n)
{
    const u32 logN = log2Floor(n);
    const std::size_t n1 = std::size_t{1} << (logN / 2);
    const std::size_t n2 = n / n1;
    std::size_t b = (32 * 1024) / (n1 * sizeof(u64));
    return std::clamp<std::size_t>(b, 8, n2);
}

} // namespace

NttAutotuner::Options
NttAutotuner::Options::fromEnv()
{
    Options opt;
    if (const char *env = std::getenv("FIDES_NTT_TUNE_TRIALS")) {
        const long t = std::strtol(env, nullptr, 10);
        if (t >= 1 && t <= 64)
            opt.trials = static_cast<u32>(t);
        else
            warn("ignoring out-of-range FIDES_NTT_TUNE_TRIALS=%s",
                 env);
    }
    return opt;
}

std::vector<NttCandidate>
NttAutotuner::candidates(std::size_t n)
{
    // Hierarchical stays out: it won no (shape, direction) pick in
    // BENCH_ntt.json and ran 1.3-2.3x slower than the winner at every
    // shape. It remains pinnable and in bench_ntt's sweep as the
    // paper's Figure 3/4 reference.
    std::vector<NttCandidate> cands = {
        {NttVariant::Flat, 0},
        {NttVariant::Radix4, 0},
        {NttVariant::FusedLast, 0},
        {NttVariant::BlockedHier, 0}, // L1-sized default block
    };
    // A 4x (L2-ish) block when the column count leaves room for a
    // genuinely different blocking; depends only on n, so the
    // candidate set stays deterministic per shape.
    const std::size_t n2 = n / (std::size_t{1} << (log2Floor(n) / 2));
    const std::size_t l1 = l1ColBlock(n);
    if (l1 * 4 <= n2)
        cands.push_back(
            {NttVariant::BlockedHier, static_cast<u32>(l1 * 4)});
    return cands;
}

NttShapeStats
NttAutotuner::tuneShape(const std::vector<const NttTables *> &tables,
                        u32 limbs) const
{
    FIDES_ASSERT(!tables.empty() && limbs > 0);
    const std::size_t n = tables[0]->degree();
    const u32 trials = std::max(1u, opt_.trials);
    const u64 sweep = static_cast<u64>(n) * limbs;
    const u32 reps = static_cast<u32>(std::clamp<u64>(
        opt_.targetSweepElems / std::max<u64>(1, sweep), 1, 256));

    NttShapeStats stats;
    stats.logN = log2Floor(n);
    stats.limbs = limbs;

    // One buffer per limb, cycling through the provided prime tables;
    // refilled identically before every candidate so branchy
    // conditional-subtract timing sees the same data everywhere.
    std::vector<std::vector<u64>> bufs(limbs);
    auto refill = [&] {
        Prng prng(0x4e545475); // fixed seed: deterministic data
        for (u32 l = 0; l < limbs; ++l) {
            const NttTables &t = *tables[l % tables.size()];
            bufs[l].resize(n);
            sampleUniform(prng, t.modulus().value, bufs[l]);
        }
    };

    double bestFwd = std::numeric_limits<double>::infinity();
    double bestInv = std::numeric_limits<double>::infinity();
    for (const NttCandidate &cand : candidates(n)) {
        NttCandidateTime ct;
        ct.cand = cand;

        refill();
        auto race = [&](bool forward) {
            // Warmup sweep (page-in + branch predictors), then the
            // minimum over a fixed number of timed trials.
            double best = std::numeric_limits<double>::infinity();
            for (u32 trial = 0; trial <= trials; ++trial) {
                const double t0 = nowNs();
                for (u32 r = 0; r < reps; ++r) {
                    for (u32 l = 0; l < limbs; ++l) {
                        const NttTables &t =
                            *tables[l % tables.size()];
                        if (forward)
                            nttForwardVariant(bufs[l].data(), t,
                                              cand.variant,
                                              cand.colBlock);
                        else
                            nttInverseVariant(bufs[l].data(), t,
                                              cand.variant,
                                              cand.colBlock);
                    }
                }
                const double ns = nowNs() - t0;
                if (trial > 0) // trial 0 is the warmup
                    best = std::min(best, ns);
            }
            return best / (static_cast<double>(reps) * limbs);
        };
        ct.fwdNsPerLimb = race(true);
        ct.invNsPerLimb = race(false);

        if (ct.fwdNsPerLimb < bestFwd) {
            bestFwd = ct.fwdNsPerLimb;
            stats.choice.fwd = cand.variant;
            stats.choice.fwdColBlock = cand.colBlock;
            stats.fwdNsPerLimb = ct.fwdNsPerLimb;
        }
        if (ct.invNsPerLimb < bestInv) {
            bestInv = ct.invNsPerLimb;
            stats.choice.inv = cand.variant;
            stats.choice.invColBlock = cand.colBlock;
            stats.invNsPerLimb = ct.invNsPerLimb;
        }
        stats.times.push_back(ct);
    }
    return stats;
}

} // namespace fideslib
