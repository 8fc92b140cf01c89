/**
 * @file
 * Bit-exact tests of the key-switch kernels against host reference
 * formulations:
 *
 *  - modUpDigit (copy the digit's own limbs from the eval-form input,
 *    forward-NTT only the Conv targets) against the coefficient-form
 *    sequence it replaces -- copy the source limbs, a per-product
 *    reduced Conv, then toEval of the whole raised polynomial -- for
 *    every (level, digit), on two parameter sets and two topologies;
 *  - keySwitchInnerProduct (lazy 128-bit accumulation, one reduction
 *    per coefficient) against a per-digit mulModBarrett + addMod
 *    loop, with and without an automorphism gather, under both
 *    modular-reduction strategies, with fusion on and off;
 *  - modDown and rescale, whose epilogues finish in their output
 *    limbs: device counters pinned per (topology, fusion, level) and
 *    outputs identical across all four configurations.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "ckks/basechange.hpp"
#include "ckks/kernels.hpp"
#include "core/rng.hpp"

namespace fideslib::ckks
{
namespace
{

Parameters
withTopology(Parameters p, u32 devices, u32 streams, u32 limbBatch)
{
    p.numDevices = devices;
    p.streamsPerDevice = streams;
    p.limbBatch = limbBatch;
    return p;
}

/** Uniform residues in every limb of a fresh polynomial. */
RNSPoly
randomPoly(const Context &ctx, u32 level, u32 special, Format fmt,
           u64 seed)
{
    Prng prng(seed);
    RNSPoly p(ctx, level, fmt, special);
    for (std::size_t i = 0; i < p.numLimbs(); ++i) {
        const u64 q = ctx.prime(p.primeIdxAt(i)).value();
        u64 *x = p.limb(i).data();
        for (std::size_t j = 0; j < ctx.degree(); ++j)
            x[j] = prng.uniform(q);
    }
    return p;
}

void
expectSamePoly(const RNSPoly &got, const RNSPoly &want,
               const std::string &what)
{
    ASSERT_EQ(got.numLimbs(), want.numLimbs()) << what;
    ASSERT_EQ(got.format(), want.format()) << what;
    got.syncHost();
    want.syncHost();
    const std::size_t bytes = got.context().degree() * sizeof(u64);
    for (std::size_t i = 0; i < got.numLimbs(); ++i) {
        ASSERT_EQ(got.primeIdxAt(i), want.primeIdxAt(i)) << what;
        ASSERT_EQ(0, std::memcmp(got.limb(i).data(), want.limb(i).data(),
                                 bytes))
            << what << " limb " << i;
    }
}

/**
 * The ModUp formulation the kernel replaced, on the host: the digit's
 * source limbs copied in coefficient form, the Conv of Equation (1)
 * with every product reduced on its own, then toEval of the whole
 * raised polynomial.
 */
RNSPoly
referenceModUp(const RNSPoly &coeff, u32 digit)
{
    const Context &ctx = coeff.context();
    const u32 level = coeff.level();
    const std::size_t n = ctx.degree();
    const ConvTables &t = ctx.modUpTables(level, digit);
    const std::size_t ns = t.sourceIdx.size();
    const std::size_t nt = t.targetIdx.size();
    coeff.syncHost();

    RNSPoly out(ctx, level, Format::Coeff, ctx.numSpecial());
    for (u32 gi : t.sourceIdx)
        std::memcpy(out.limb(gi).data(), coeff.limb(gi).data(),
                    n * sizeof(u64));
    for (std::size_t k = 0; k < nt; ++k) {
        const u32 gt = t.targetIdx[k];
        const std::size_t pos =
            gt <= level ? gt : level + 1 + (gt - (ctx.maxLevel() + 1));
        const Modulus &mt = ctx.prime(gt).mod;
        u64 *o = out.limb(pos).data();
        for (std::size_t c = 0; c < n; ++c) {
            u64 acc = 0;
            for (std::size_t i = 0; i < ns; ++i) {
                const Modulus &ms = ctx.prime(t.sourceIdx[i]).mod;
                const u64 scaled = mulModBarrett(
                    coeff.limb(t.sourceIdx[i]).data()[c], t.sHatInv[i],
                    ms);
                acc = addMod(acc,
                             mulModBarrett(scaled, t.sHatModT[i * nt + k],
                                           mt),
                             mt.value);
            }
            o[c] = acc;
        }
    }
    kernels::toEval(out);
    return out;
}

TEST(KeySwitchKernels, ModUpMatchesCoeffCopyConvToEvalAtEveryDigit)
{
    for (const Parameters &base :
         {Parameters::testSmall(), Parameters::testBoot()}) {
        for (const Parameters &p :
             {withTopology(base, 1, 1, base.limbBatch),
              withTopology(base, 2, 2, 3)}) {
            Context ctx(p);
            const std::size_t n = ctx.degree();
            for (u32 level = 0; level <= ctx.maxLevel(); ++level) {
                RNSPoly eval =
                    randomPoly(ctx, level, 0, Format::Eval, 100 + level);
                RNSPoly coeff = eval.clone();
                kernels::toCoeff(coeff);
                for (u32 j = 0; j < ctx.numDigits(level); ++j) {
                    const std::string what =
                        "logN " + std::to_string(p.logN) + " topology " +
                        std::to_string(p.numDevices) + "x" +
                        std::to_string(p.streamsPerDevice) + " level " +
                        std::to_string(level) + " digit " +
                        std::to_string(j);
                    DeviceSet &devs = ctx.devices();
                    devs.synchronize();
                    devs.resetCounters();
                    RNSPoly got = modUpDigit(eval, coeff, j);
                    devs.synchronize();
                    // Integer ops: the Conv plus one forward NTT per
                    // Conv target. Copied limbs bill no transform.
                    const ConvTables &t = ctx.modUpTables(level, j);
                    const u64 ns = t.sourceIdx.size();
                    const u64 nt = t.targetIdx.size();
                    EXPECT_EQ(devs.aggregateCounters().intOps,
                              nt * n * (2 * ns + 2) +
                                  nt * 5 * n * ctx.logDegree())
                        << what;
                    expectSamePoly(got, referenceModUp(coeff, j), what);
                }
            }
        }
    }
}

/** The inner product as a per-digit mulModBarrett + addMod loop. */
void
referenceInnerProduct(RNSPoly &out, const std::vector<RNSPoly> &digits,
                      const std::vector<RNSPoly> &key,
                      const std::vector<u32> *perm)
{
    const Context &ctx = out.context();
    const std::size_t n = ctx.degree();
    for (const RNSPoly &d : digits)
        d.syncHost();
    for (std::size_t i = 0; i < out.numLimbs(); ++i) {
        const u32 gi = out.primeIdxAt(i);
        const Modulus &m = ctx.prime(gi).mod;
        u64 *x = out.limb(i).data();
        for (std::size_t c = 0; c < n; ++c) {
            const std::size_t at = perm ? (*perm)[c] : c;
            u64 acc = 0;
            for (std::size_t j = 0; j < digits.size(); ++j) {
                const u64 prod =
                    mulModBarrett(digits[j].limb(i).data()[at],
                                  key[j].limb(gi).data()[c], m);
                acc = addMod(acc, prod, m.value);
            }
            x[c] = acc;
        }
    }
}

TEST(KeySwitchKernels, InnerProductMatchesPerDigitMulAddLoop)
{
    const Parameters base = Parameters::testSmall();
    for (const Parameters &p : {withTopology(base, 1, 1, base.limbBatch),
                                withTopology(base, 2, 2, 3)}) {
        Context ctx(p);
        const u32 L = ctx.maxLevel();
        const u32 K = ctx.numSpecial();
        // Full-basis key material, one pair per digit.
        std::vector<RNSPoly> key0, key1;
        for (u32 j = 0; j < ctx.params().dnum; ++j) {
            key0.push_back(randomPoly(ctx, L, K, Format::Eval, 10 + j));
            key1.push_back(randomPoly(ctx, L, K, Format::Eval, 20 + j));
        }
        const std::vector<u32> &rot =
            ctx.automorphPerm(ctx.rotationGaloisElt(3));
        for (u32 level : {L, 1u, 0u}) {
            std::vector<RNSPoly> digits;
            for (u32 j = 0; j < ctx.numDigits(level); ++j)
                digits.push_back(randomPoly(ctx, level, K, Format::Eval,
                                            30 + 7 * level + j));
            for (const std::vector<u32> *perm :
                 {static_cast<const std::vector<u32> *>(nullptr), &rot}) {
                RNSPoly want0(ctx, level, Format::Eval, K);
                RNSPoly want1(ctx, level, Format::Eval, K);
                referenceInnerProduct(want0, digits, key0, perm);
                referenceInnerProduct(want1, digits, key1, perm);
                for (ModMulKind kind :
                     {ModMulKind::Barrett, ModMulKind::Naive}) {
                    for (bool fusion : {true, false}) {
                        ctx.setModMulKind(kind);
                        ctx.setFusion(fusion);
                        const std::string what =
                            "topology " + std::to_string(p.numDevices) +
                            "x" + std::to_string(p.streamsPerDevice) +
                            " level " + std::to_string(level) +
                            (perm ? " rotated" : " plain") +
                            (kind == ModMulKind::Naive ? " naive"
                                                       : " barrett") +
                            (fusion ? " fused" : " unfused");
                        DeviceSet &devs = ctx.devices();
                        devs.resetCounters();
                        RNSPoly got0(ctx, level, Format::Eval, K);
                        RNSPoly got1(ctx, level, Format::Eval, K);
                        kernels::keySwitchInnerProduct(
                            got0, got1, digits, key0, key1, perm);
                        // One logical kernel, fused or not.
                        EXPECT_EQ(devs.logicalKernels(), 1u) << what;
                        expectSamePoly(got0, want0, what + " out0");
                        expectSamePoly(got1, want1, what + " out1");
                    }
                }
            }
        }
    }
}

/** Device counters of one modDown or rescale call. */
struct OpCounters
{
    u64 launches, kernels, bytesRead, bytesWritten, intOps;

    bool operator==(const OpCounters &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const OpCounters &c)
{
    return os << "{launches " << c.launches << ", kernels " << c.kernels
              << ", read " << c.bytesRead << ", written "
              << c.bytesWritten << ", intOps " << c.intOps << "}";
}

TEST(KeySwitchKernels, ModDownAndRescaleCountersArePinned)
{
    // testSmall (logN 10, levels 0..4, K = 3) on 1x1 / limbBatch 2 and
    // 2x2 / limbBatch 3. Each epilogue limb reads `a` plus one
    // converted limb and writes the result, and every iNTT limb is
    // billed at nttLimbCost (5 passes of n words each way at logN
    // 10); a change to these numbers moves the modelled time of every
    // key switch and rescale.
    struct Row
    {
        u32 topology;
        bool fusion;
        u32 level;
        OpCounters modDown, rescale;
    };
    const Row rows[] = {
        {0, true, 4, {6, 2, 229376, 204800, 471040},
         {3, 2, 106496, 73728, 280576}},
        {0, true, 1, {4, 2, 180224, 155648, 280576},
         {2, 2, 57344, 49152, 108544}},
        {0, false, 4, {9, 3, 311296, 286720, 471040},
         {7, 4, 204800, 172032, 280576}},
        {0, false, 1, {5, 3, 212992, 188416, 280576},
         {4, 4, 81920, 73728, 108544}},
        {1, true, 4, {6, 2, 253952, 204800, 471040},
         {3, 2, 106496, 73728, 280576}},
        {1, true, 1, {3, 2, 180224, 155648, 280576},
         {2, 2, 57344, 49152, 108544}},
        {1, false, 4, {9, 3, 335872, 286720, 471040},
         {7, 4, 204800, 172032, 280576}},
        {1, false, 1, {4, 3, 212992, 188416, 280576},
         {4, 4, 81920, 73728, 108544}},
    };
    const Parameters base = Parameters::testSmall();
    const Parameters topologies[] = {
        withTopology(base, 1, 1, base.limbBatch),
        withTopology(base, 2, 2, 3)};
    // Host copy of the first result per (op, level); every other
    // configuration must reproduce it bit for bit.
    std::map<std::string, std::vector<std::vector<u64>>> firsts;
    auto expectSameAsFirst = [&firsts](const std::string &key,
                                       const RNSPoly &got,
                                       const std::string &what) {
        got.syncHost();
        const std::size_t n = got.context().degree();
        std::vector<std::vector<u64>> limbs;
        for (std::size_t i = 0; i < got.numLimbs(); ++i)
            limbs.emplace_back(got.limb(i).data(),
                               got.limb(i).data() + n);
        auto [it, inserted] = firsts.try_emplace(key, limbs);
        if (!inserted)
            EXPECT_EQ(limbs, it->second) << what;
    };
    for (const Row &r : rows) {
        Context ctx(topologies[r.topology]);
        ctx.setFusion(r.fusion);
        DeviceSet &devs = ctx.devices();
        const std::string what =
            "topology " + std::to_string(r.topology) +
            (r.fusion ? " fused" : " unfused") + " level " +
            std::to_string(r.level);
        auto measure = [&devs](auto op) {
            devs.synchronize();
            devs.resetCounters();
            op();
            devs.synchronize();
            const KernelCounters c = devs.aggregateCounters();
            return OpCounters{c.launches, devs.logicalKernels(),
                              c.bytesRead, c.bytesWritten, c.intOps};
        };
        RNSPoly raised = randomPoly(ctx, r.level, ctx.numSpecial(),
                                    Format::Eval, 40 + r.level);
        EXPECT_EQ(measure([&] { modDown(raised); }), r.modDown)
            << what << " modDown";
        expectSameAsFirst("modDown" + std::to_string(r.level), raised,
                          what + " modDown");
        RNSPoly plain =
            randomPoly(ctx, r.level, 0, Format::Eval, 50 + r.level);
        EXPECT_EQ(measure([&] { rescale(plain); }), r.rescale)
            << what << " rescale";
        expectSameAsFirst("rescale" + std::to_string(r.level), plain,
                          what + " rescale");
    }
}

} // namespace
} // namespace fideslib::ckks
