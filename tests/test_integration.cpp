/**
 * @file
 * Integration tests in the paper's sense: the optimized (device)
 * backend is validated against the independent reference backend (the
 * OpenFHE stand-in). Deterministic server operations must produce
 * bit-identical ciphertexts; the reference NTT must agree with the
 * optimized NTT exactly.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "ckks/encryptor.hpp"
#include "ckks/evaluator.hpp"
#include "ckks/keygen.hpp"
#include "ref/refeval.hpp"
#include "ref/refntt.hpp"

namespace fideslib::ckks
{
namespace
{

void
expectBitIdentical(const RNSPoly &a, const RNSPoly &b)
{
    RNSPoly::syncHost({&a, &b}); // host reads below
    ASSERT_EQ(a.numLimbs(), b.numLimbs());
    const std::size_t n = a.context().degree();
    for (std::size_t i = 0; i < a.numLimbs(); ++i) {
        const u64 *x = a.limb(i).data();
        const u64 *y = b.limb(i).data();
        for (std::size_t j = 0; j < n; ++j)
            ASSERT_EQ(x[j], y[j]) << "limb " << i << " coeff " << j;
    }
}

void
expectCtIdentical(const Ciphertext &a, const Ciphertext &b)
{
    expectBitIdentical(a.c0, b.c0);
    expectBitIdentical(a.c1, b.c1);
    EXPECT_NEAR((double)(a.scale / b.scale), 1.0, 1e-15);
}

class IntegrationTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        ctx = new Context(Parameters::testSmall());
        keygen = new KeyGen(*ctx);
        keys = new KeyBundle(keygen->makeBundle({1, 3, -2}, true));
        eval = new Evaluator(*ctx, *keys);
    }
    static void
    TearDownTestSuite()
    {
        delete eval;
        delete keys;
        delete keygen;
        delete ctx;
        ctx = nullptr;
    }

    Ciphertext
    sample(u32 level, u64 seed) const
    {
        Encoder enc(*ctx);
        Encryptor encr(*ctx, keys->pk);
        std::vector<std::complex<double>> z(32);
        for (int i = 0; i < 32; ++i)
            z[i] = {std::cos(0.3 * i + seed), std::sin(0.9 * i)};
        return encr.encrypt(enc.encode(z, 32, level));
    }

    static Context *ctx;
    static KeyGen *keygen;
    static KeyBundle *keys;
    static Evaluator *eval;
};

Context *IntegrationTest::ctx = nullptr;
KeyGen *IntegrationTest::keygen = nullptr;
KeyBundle *IntegrationTest::keys = nullptr;
Evaluator *IntegrationTest::eval = nullptr;

TEST_F(IntegrationTest, ReferenceNttAgreesWithOptimized)
{
    const std::size_t n = ctx->degree();
    Prng prng(5);
    for (u32 pi : {0u, 1u, ctx->specialIdx(0)}) {
        const auto &rec = ctx->prime(pi);
        std::vector<u64> a(n);
        sampleUniform(prng, rec.value(), a);
        auto aRef = a;
        nttForward(a.data(), *rec.ntt);
        ref::refNttForward(aRef, rec.mod, rec.ntt->psi());
        ASSERT_EQ(a, aRef) << "forward, prime " << pi;
        nttInverse(a.data(), *rec.ntt);
        ref::refNttInverse(aRef, rec.mod, rec.ntt->psi());
        ASSERT_EQ(a, aRef) << "inverse, prime " << pi;
    }
}

TEST_F(IntegrationTest, HAddBitIdentical)
{
    auto a = sample(3, 1), b = sample(3, 2);
    auto opt = eval->add(a, b);
    auto refr = ref::add(a, b);
    expectCtIdentical(opt, refr);
}

TEST_F(IntegrationTest, PtAddAndPtMultBitIdentical)
{
    auto a = sample(2, 3);
    Encoder enc(*ctx);
    std::vector<std::complex<double>> z(32, {0.5, -0.25});
    auto pt = enc.encode(z, 32, 2);

    auto opt = a.clone();
    eval->addPlainInPlace(opt, pt);
    expectCtIdentical(opt, ref::addPlain(a, pt));

    auto optM = a.clone();
    eval->multiplyPlainInPlace(optM, pt);
    expectCtIdentical(optM, ref::multiplyPlain(a, pt));
}

TEST_F(IntegrationTest, ScalarOpsBitIdentical)
{
    auto a = sample(2, 4);
    auto opt = a.clone();
    eval->addScalarInPlace(opt, 1.625);
    expectCtIdentical(opt, ref::addScalar(*ctx, a, 1.625));

    auto optM = a.clone();
    eval->multiplyScalarInPlace(optM, -0.75);
    expectCtIdentical(optM, ref::multiplyScalar(*ctx, a, -0.75));
}

TEST_F(IntegrationTest, HMultBitIdentical)
{
    auto a = sample(ctx->maxLevel(), 5);
    auto b = sample(ctx->maxLevel(), 6);
    auto opt = eval->multiply(a, b);
    auto refr = ref::multiply(a, b, keys->relin);
    expectCtIdentical(opt, refr);
}

TEST_F(IntegrationTest, HMultBitIdenticalAtLowerLevels)
{
    for (u32 level : {1u, 2u}) {
        auto a = sample(level, 7);
        auto b = sample(level, 8);
        auto opt = eval->multiply(a, b);
        auto refr = ref::multiply(a, b, keys->relin);
        expectCtIdentical(opt, refr);
    }
}

TEST_F(IntegrationTest, RescaleBitIdentical)
{
    auto a = sample(ctx->maxLevel(), 9);
    auto opt = a.clone();
    eval->rescaleInPlace(opt);
    expectCtIdentical(opt, ref::rescale(a));
}

TEST_F(IntegrationTest, RotateBitIdentical)
{
    auto a = sample(3, 10);
    for (i64 k : {1LL, 3LL, -2LL}) {
        auto opt = eval->rotate(a, k);
        auto refr =
            ref::rotate(a, k,
                        keys->galois.at(ctx->rotationGaloisElt(k)));
        expectCtIdentical(opt, refr);
    }
}

TEST_F(IntegrationTest, ConjugateBitIdentical)
{
    auto a = sample(2, 11);
    auto opt = eval->conjugate(a);
    auto refr = ref::conjugate(
        a, keys->galois.at(ctx->conjugateGaloisElt()));
    expectCtIdentical(opt, refr);
}

TEST_F(IntegrationTest, KeySwitchBitIdentical)
{
    auto a = sample(ctx->maxLevel(), 12);
    auto [o0, o1] =
        keySwitchAccumulate(decomposeAndModUp(a.c1), keys->relin);
    auto [r0, r1] = ref::keySwitch(a.c1, keys->relin);
    expectBitIdentical(o0, r0);
    expectBitIdentical(o1, r1);
}

TEST_F(IntegrationTest, ReferenceBackendDecryptsCorrectly)
{
    // Sanity: the reference path is not just equal to the optimized
    // one, it also computes the right function.
    Encoder enc(*ctx);
    Encryptor encr(*ctx, keys->pk);
    std::vector<std::complex<double>> za(16), zb(16);
    for (int i = 0; i < 16; ++i) {
        za[i] = {0.3 * i / 16.0, 0.1};
        zb[i] = {0.5, -0.2 * i / 16.0};
    }
    auto ca = encr.encrypt(enc.encode(za, 16, ctx->maxLevel()));
    auto cb = encr.encrypt(enc.encode(zb, 16, ctx->maxLevel()));
    auto prod = ref::rescale(ref::multiply(ca, cb, keys->relin));
    auto got = enc.decode(encr.decrypt(prod, keygen->secretKey()));
    for (int i = 0; i < 16; ++i)
        ASSERT_NEAR(std::abs(got[i] - za[i] * zb[i]), 0.0, 1e-4);
}

TEST_F(IntegrationTest, FusionOnOffBitIdentical)
{
    auto a = sample(ctx->maxLevel(), 13);
    auto b = sample(ctx->maxLevel(), 14);
    ctx->setFusion(true);
    auto withFusion = eval->multiply(a, b);
    eval->rescaleInPlace(withFusion);
    ctx->setFusion(false);
    auto without = eval->multiply(a, b);
    eval->rescaleInPlace(without);
    ctx->setFusion(true);
    expectCtIdentical(withFusion, without);
}

TEST_F(IntegrationTest, MergedMultiplyRescaleMatchesReference)
{
    // multiplyRescale / squareRescale divide the key switch's raised
    // accumulators by P q_l in one step (modDownRescale). They must
    // equal the reference HMult (ModDown by P) then Rescale
    // coefficient for coefficient, keeping multiply + rescaleInPlace's
    // scale and noise. A fast (non-exact) Conv in the merged step
    // leaves up to K + 1 extra multiples of P q_l in the raised value,
    // which nothing divides away afterwards, and fails here.
    struct Preset
    {
        const char *name;
        Parameters params;
    };
    const Preset presets[] = {{"paper13", Parameters::paper13()},
                              {"testBoot", Parameters::testBoot()}};
    std::vector<std::complex<double>> za(32), zb(32);
    for (int i = 0; i < 32; ++i) {
        za[i] = {0.9 * std::cos(0.3 * i), 0.4 * std::sin(0.7 * i)};
        zb[i] = {0.5 * std::sin(1.1 * i), -0.8 * std::cos(0.2 * i)};
    }
    for (const Preset &pr : presets) {
        for (u32 topo : {1u, 2u}) {
            Parameters p = pr.params;
            p.numDevices = topo;
            p.streamsPerDevice = topo;
            Context c(p);
            KeyGen kg(c);
            KeyBundle kb = kg.makeBundle({});
            Evaluator ev(c, kb);
            Encoder enc(c);
            Encryptor encr(c, kb.pk);
            const u32 top = c.maxLevel();
            for (u32 level : {top, (top + 1) / 2, 1u}) {
                SCOPED_TRACE(std::string(pr.name) + " " +
                             std::to_string(topo) + "x" +
                             std::to_string(topo) + " level " +
                             std::to_string(level));
                auto a = encr.encrypt(enc.encode(za, 32, level));
                auto b = encr.encrypt(enc.encode(zb, 32, level));
                auto wantMul =
                    ref::rescale(ref::multiply(a, b, kb.relin));
                auto wantSq =
                    ref::rescale(ref::multiply(a, a, kb.relin));
                for (bool fused : {true, false}) {
                    SCOPED_TRACE(fused ? "fused" : "unfused");
                    c.setFusion(fused);
                    auto mul = ev.multiplyRescale(a, b);
                    auto sq = ev.squareRescale(a);
                    mul.syncHost();
                    sq.syncHost();
                    expectCtIdentical(mul, wantMul);
                    expectCtIdentical(sq, wantSq);
                }
                c.setFusion(true);
                auto lib = ev.multiply(a, b);
                ev.rescaleInPlace(lib);
                auto merged = ev.multiplyRescale(a, b);
                EXPECT_EQ(merged.scale, lib.scale);
                EXPECT_EQ(merged.noiseBits, lib.noiseBits);
                EXPECT_EQ(merged.slots, lib.slots);
                auto libSq = ev.square(a);
                ev.rescaleInPlace(libSq);
                auto mergedSq = ev.squareRescale(a);
                EXPECT_EQ(mergedSq.scale, libSq.scale);
                EXPECT_EQ(mergedSq.noiseBits, libSq.noiseBits);
                c.devices().synchronize();
            }
        }
    }
}

TEST_F(IntegrationTest, ModMulKindBitIdentical)
{
    auto a = sample(2, 15);
    auto b = sample(2, 16);
    ctx->setModMulKind(ModMulKind::Barrett);
    auto viaBarrett = eval->multiply(a, b);
    ctx->setModMulKind(ModMulKind::Naive);
    auto viaNaive = eval->multiply(a, b);
    ctx->setModMulKind(ModMulKind::Barrett);
    expectCtIdentical(viaBarrett, viaNaive);
}

} // namespace
} // namespace fideslib::ckks
