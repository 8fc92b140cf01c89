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
 *    modular-reduction strategies, with fusion on and off.
 */

#include <gtest/gtest.h>

#include <cstring>
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

} // namespace
} // namespace fideslib::ckks
