/**
 * @file
 * End-to-end correctness of the crypto pipeline: key generation,
 * encryption/decryption round trips, and every server-side primitive
 * of the paper's Table I validated against plaintext arithmetic.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>

#include "ckks/encryptor.hpp"
#include "ckks/evaluator.hpp"
#include "ckks/keygen.hpp"

namespace fideslib::ckks
{
namespace
{

class CryptoTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        ctx = new Context(Parameters::testSmall());
        keygen = new KeyGen(*ctx);
        keys = new KeyBundle(
            keygen->makeBundle({1, 2, 3, -1, 5, 8}, true));
    }
    static void
    TearDownTestSuite()
    {
        delete keys;
        delete keygen;
        delete ctx;
        ctx = nullptr;
        keygen = nullptr;
        keys = nullptr;
    }

    std::vector<std::complex<double>>
    randomSlots(std::size_t n, double amp = 1.0) const
    {
        std::vector<std::complex<double>> z(n);
        for (std::size_t i = 0; i < n; ++i) {
            z[i] = {amp * std::cos(1.7 * i + 0.3),
                    amp * std::sin(0.6 * i)};
        }
        return z;
    }

    Ciphertext
    encryptVec(const std::vector<std::complex<double>> &z,
               u32 level) const
    {
        Encoder enc(*ctx);
        Encryptor encr(*ctx, keys->pk);
        return encr.encrypt(enc.encode(z, z.size(), level));
    }

    std::vector<std::complex<double>>
    decryptVec(const Ciphertext &ct) const
    {
        Encoder enc(*ctx);
        Encryptor encr(*ctx, keys->pk);
        return enc.decode(encr.decrypt(ct, keygen->secretKey()));
    }

    static void
    expectClose(const std::vector<std::complex<double>> &got,
                const std::vector<std::complex<double>> &want,
                double tol)
    {
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i)
            ASSERT_NEAR(std::abs(got[i] - want[i]), 0.0, tol) << i;
    }

    static Context *ctx;
    static KeyGen *keygen;
    static KeyBundle *keys;
};

Context *CryptoTest::ctx = nullptr;
KeyGen *CryptoTest::keygen = nullptr;
KeyBundle *CryptoTest::keys = nullptr;

TEST_F(CryptoTest, EncryptDecryptRoundTrip)
{
    auto z = randomSlots(64);
    auto ct = encryptVec(z, ctx->maxLevel());
    expectClose(decryptVec(ct), z, 1e-5);
}

TEST_F(CryptoTest, EncryptDecryptAtLowerLevels)
{
    auto z = randomSlots(16);
    for (u32 level : {0u, 1u, 3u}) {
        auto ct = encryptVec(z, level);
        expectClose(decryptVec(ct), z, 1e-5);
    }
}

TEST_F(CryptoTest, HAdd)
{
    auto za = randomSlots(32), zb = randomSlots(32, 0.7);
    auto ca = encryptVec(za, 2), cb = encryptVec(zb, 2);
    Evaluator eval(*ctx, *keys);
    auto sum = eval.add(ca, cb);
    std::vector<std::complex<double>> want(32);
    for (int i = 0; i < 32; ++i)
        want[i] = za[i] + zb[i];
    expectClose(decryptVec(sum), want, 1e-5);
}

TEST_F(CryptoTest, HSubAndNegate)
{
    auto za = randomSlots(32), zb = randomSlots(32, 0.7);
    auto ca = encryptVec(za, 2), cb = encryptVec(zb, 2);
    Evaluator eval(*ctx, *keys);
    auto diff = eval.sub(ca, cb);
    std::vector<std::complex<double>> want(32);
    for (int i = 0; i < 32; ++i)
        want[i] = za[i] - zb[i];
    expectClose(decryptVec(diff), want, 1e-5);

    eval.negateInPlace(diff);
    for (auto &w : want)
        w = -w;
    expectClose(decryptVec(diff), want, 1e-5);
}

TEST_F(CryptoTest, PtAdd)
{
    auto za = randomSlots(32), zb = randomSlots(32, 2.0);
    auto ct = encryptVec(za, 3);
    Encoder enc(*ctx);
    auto pt = enc.encode(zb, 32, 3);
    Evaluator eval(*ctx, *keys);
    eval.addPlainInPlace(ct, pt);
    std::vector<std::complex<double>> want(32);
    for (int i = 0; i < 32; ++i)
        want[i] = za[i] + zb[i];
    expectClose(decryptVec(ct), want, 1e-5);
}

TEST_F(CryptoTest, ScalarAdd)
{
    auto z = randomSlots(16);
    auto ct = encryptVec(z, 2);
    Evaluator eval(*ctx, *keys);
    eval.addScalarInPlace(ct, -1.375);
    std::vector<std::complex<double>> want(16);
    for (int i = 0; i < 16; ++i)
        want[i] = z[i] + std::complex<double>(-1.375, 0);
    expectClose(decryptVec(ct), want, 1e-5);
}

TEST_F(CryptoTest, HMultWithRescale)
{
    auto za = randomSlots(32), zb = randomSlots(32, 0.9);
    auto ca = encryptVec(za, ctx->maxLevel());
    auto cb = encryptVec(zb, ctx->maxLevel());
    Evaluator eval(*ctx, *keys);
    auto prod = eval.multiply(ca, cb);
    eval.rescaleInPlace(prod);
    EXPECT_EQ(prod.level(), ctx->maxLevel() - 1);
    std::vector<std::complex<double>> want(32);
    for (int i = 0; i < 32; ++i)
        want[i] = za[i] * zb[i];
    expectClose(decryptVec(prod), want, 1e-4);
}

TEST_F(CryptoTest, HSquareMatchesSelfMultiply)
{
    auto z = randomSlots(16, 0.8);
    auto ct = encryptVec(z, 3);
    Evaluator eval(*ctx, *keys);
    auto sq = eval.square(ct);
    eval.rescaleInPlace(sq);
    std::vector<std::complex<double>> want(16);
    for (int i = 0; i < 16; ++i)
        want[i] = z[i] * z[i];
    expectClose(decryptVec(sq), want, 1e-4);
}

TEST_F(CryptoTest, MultiplicativeChainToBottom)
{
    // Repeated square-and-rescale down to level 0 stays accurate.
    std::vector<std::complex<double>> z(8, {0.9, 0.0});
    auto ct = encryptVec(z, ctx->maxLevel());
    Evaluator eval(*ctx, *keys);
    double expect = 0.9;
    for (u32 l = ctx->maxLevel(); l > 0; --l) {
        ct = eval.square(ct);
        eval.rescaleInPlace(ct);
        expect *= expect;
    }
    EXPECT_EQ(ct.level(), 0u);
    auto got = decryptVec(ct);
    for (int i = 0; i < 8; ++i)
        ASSERT_NEAR(got[i].real(), expect, 5e-3);
}

TEST_F(CryptoTest, PtMult)
{
    auto za = randomSlots(32), zb = randomSlots(32, 1.1);
    auto ct = encryptVec(za, 2);
    Encoder enc(*ctx);
    auto pt = enc.encode(zb, 32, 2);
    Evaluator eval(*ctx, *keys);
    eval.multiplyPlainInPlace(ct, pt);
    eval.rescaleInPlace(ct);
    std::vector<std::complex<double>> want(32);
    for (int i = 0; i < 32; ++i)
        want[i] = za[i] * zb[i];
    expectClose(decryptVec(ct), want, 1e-4);
}

TEST_F(CryptoTest, ScalarMult)
{
    auto z = randomSlots(16);
    auto ct = encryptVec(z, 2);
    Evaluator eval(*ctx, *keys);
    eval.multiplyScalarInPlace(ct, 0.125);
    eval.rescaleInPlace(ct);
    std::vector<std::complex<double>> want(16);
    for (int i = 0; i < 16; ++i)
        want[i] = z[i] * 0.125;
    expectClose(decryptVec(ct), want, 1e-4);
}

TEST_F(CryptoTest, RotateLeftByOne)
{
    auto z = randomSlots(32);
    auto ct = encryptVec(z, 2);
    Evaluator eval(*ctx, *keys);
    auto rot = eval.rotate(ct, 1);
    std::vector<std::complex<double>> want(32);
    for (int i = 0; i < 32; ++i)
        want[i] = z[(i + 1) % 32];
    expectClose(decryptVec(rot), want, 1e-5);
}

TEST_F(CryptoTest, RotateVariousAmounts)
{
    auto z = randomSlots(32);
    auto ct = encryptVec(z, 2);
    Evaluator eval(*ctx, *keys);
    for (i64 k : {2LL, 3LL, 5LL, 8LL, -1LL}) {
        auto rot = eval.rotate(ct, k);
        std::vector<std::complex<double>> want(32);
        for (int i = 0; i < 32; ++i)
            want[i] = z[((i + k) % 32 + 32) % 32];
        expectClose(decryptVec(rot), want, 1e-5);
    }
}

TEST_F(CryptoTest, RotationsCompose)
{
    auto z = randomSlots(32);
    auto ct = encryptVec(z, 2);
    Evaluator eval(*ctx, *keys);
    auto r12 = eval.rotate(eval.rotate(ct, 1), 2);
    auto r3 = eval.rotate(ct, 3);
    expectClose(decryptVec(r12), decryptVec(r3), 1e-5);
}

TEST_F(CryptoTest, Conjugate)
{
    auto z = randomSlots(16);
    auto ct = encryptVec(z, 2);
    Evaluator eval(*ctx, *keys);
    auto conj = eval.conjugate(ct);
    std::vector<std::complex<double>> want(16);
    for (int i = 0; i < 16; ++i)
        want[i] = std::conj(z[i]);
    expectClose(decryptVec(conj), want, 1e-5);
}

TEST_F(CryptoTest, HoistedRotateMatchesIndividualRotations)
{
    auto z = randomSlots(32);
    auto ct = encryptVec(z, 2);
    Evaluator eval(*ctx, *keys);
    std::vector<i64> ks = {1, 2, 5, 0};
    auto hoisted = eval.hoistedRotate(ct, ks);
    ASSERT_EQ(hoisted.size(), ks.size());
    for (std::size_t i = 0; i < ks.size(); ++i) {
        auto individual = eval.rotate(ct, ks[i]);
        expectClose(decryptVec(hoisted[i]), decryptVec(individual),
                    1e-5);
    }
}

TEST_F(CryptoTest, HoistedRotateByZeroRaisesNothing)
{
    // k = 0 needs no key switch, so the shared ModUp is skipped: the
    // call dispatches what a plain clone does.
    auto ct = encryptVec(randomSlots(32), 2);
    Evaluator eval(*ctx, *keys);
    DeviceSet &devs = ctx->devices();
    u64 before = devs.logicalKernels();
    auto copy = ct.clone();
    const u64 cloneKernels = devs.logicalKernels() - before;
    before = devs.logicalKernels();
    auto hoisted = eval.hoistedRotate(ct, {0});
    EXPECT_EQ(devs.logicalKernels() - before, cloneKernels);
    ASSERT_EQ(hoisted.size(), 1u);
    expectClose(decryptVec(hoisted[0]), decryptVec(copy), 1e-9);
}

TEST_F(CryptoTest, DotPlainMatchesManualSum)
{
    Encoder enc(*ctx);
    Evaluator eval(*ctx, *keys);
    std::vector<Ciphertext> cts;
    std::vector<Plaintext> pts;
    std::vector<std::complex<double>> want(16, {0, 0});
    for (int t = 0; t < 3; ++t) {
        auto zc = randomSlots(16, 0.5 + t * 0.3);
        auto zp = randomSlots(16, 1.0 - t * 0.2);
        cts.push_back(encryptVec(zc, 2));
        pts.push_back(enc.encode(zp, 16, 2));
        for (int i = 0; i < 16; ++i)
            want[i] += zc[i] * zp[i];
    }
    std::vector<const Ciphertext *> cp;
    std::vector<const Plaintext *> pp;
    for (int t = 0; t < 3; ++t) {
        cp.push_back(&cts[t]);
        pp.push_back(&pts[t]);
    }
    auto dot = eval.dotPlain(cp, pp);

    // Unfused, the same chain runs one op per kernel: bit-identical.
    ctx->setFusion(false);
    auto dot2 = eval.dotPlain(cp, pp);
    ctx->setFusion(true);
    dot.syncHost();
    dot2.syncHost();
    for (const auto &[a, b] : {std::pair{&dot.c0, &dot2.c0},
                               std::pair{&dot.c1, &dot2.c1}}) {
        ASSERT_EQ(a->numLimbs(), b->numLimbs());
        for (std::size_t i = 0; i < a->numLimbs(); ++i) {
            ASSERT_EQ(0, std::memcmp(a->limb(i).data(), b->limb(i).data(),
                                     ctx->degree() * sizeof(u64)))
                << "limb " << i;
        }
    }
    EXPECT_EQ(dot.scale, dot2.scale);

    eval.rescaleInPlace(dot);
    expectClose(decryptVec(dot), want, 1e-4);
}

TEST_F(CryptoTest, LevelReduceKeepsMessage)
{
    auto z = randomSlots(16);
    auto ct = encryptVec(z, ctx->maxLevel());
    Evaluator eval(*ctx, *keys);
    eval.levelReduceInPlace(ct, 1);
    EXPECT_EQ(ct.level(), 1u);
    expectClose(decryptVec(ct), z, 1e-5);
}

TEST_F(CryptoTest, ScaleTrackingThroughPipeline)
{
    auto z = randomSlots(8, 0.5);
    auto ct = encryptVec(z, 3);
    Evaluator eval(*ctx, *keys);
    long double s0 = ct.scale;
    auto prod = eval.multiply(ct, ct);
    EXPECT_NEAR((double)(prod.scale / (s0 * s0)), 1.0, 1e-12);
    eval.rescaleInPlace(prod);
    long double ql = ctx->qMod(3).value;
    EXPECT_NEAR((double)(prod.scale / (s0 * s0 / ql)), 1.0, 1e-12);
}

TEST_F(CryptoTest, MonomialMultiplyIsExactRotationOfCoefficients)
{
    // X^(N/2) multiplies every slot by i.
    auto z = randomSlots(16);
    auto ct = encryptVec(z, 2);
    Evaluator eval(*ctx, *keys);
    eval.multiplyByMonomialInPlace(ct, ctx->degree() / 2);
    std::vector<std::complex<double>> want(16);
    for (int i = 0; i < 16; ++i)
        want[i] = z[i] * std::complex<double>(0, 1);
    expectClose(decryptVec(ct), want, 1e-5);
}

TEST_F(CryptoTest, NoiseEstimateGrowsWithOperations)
{
    auto z = randomSlots(8, 0.5);
    auto ct = encryptVec(z, 3);
    Evaluator eval(*ctx, *keys);
    double fresh = ct.noiseBits;
    auto prod = eval.multiply(ct, ct);
    EXPECT_GT(prod.noiseBits, fresh);
}

TEST_F(CryptoTest, MismatchedLevelsRejected)
{
    auto za = randomSlots(8);
    auto ca = encryptVec(za, 2);
    auto cb = encryptVec(za, 1);
    Evaluator eval(*ctx, *keys);
    EXPECT_DEATH(
        {
            auto r = eval.add(ca, cb);
            (void)r;
        },
        "level mismatch");
}

} // namespace
} // namespace fideslib::ckks
