/**
 * @file
 * End-to-end bootstrapping tests: a fresh ciphertext consumed to the
 * last level is refreshed and must still decrypt to its message, with
 * usable levels restored; sparse packing exercises the SubSum trace
 * and the single 2s-slot EvalMod, full packing the two-EvalMod split.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "ckks/bootstrap.hpp"
#include "ckks/encryptor.hpp"
#include "ckks/keygen.hpp"

namespace fideslib::ckks
{
namespace
{

class BootstrapTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        ctx = new Context(Parameters::testBoot());
        keygen = new KeyGen(*ctx);
        keys = new KeyBundle(keygen->makeBundle({}, true));
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

    Bootstrapper
    makeBootstrapper(u32 slots, u32 budgetC2S = 2,
                     u32 budgetS2C = 2) const
    {
        BootstrapConfig cfg;
        cfg.slots = slots;
        cfg.levelBudgetC2S = budgetC2S;
        cfg.levelBudgetS2C = budgetS2C;
        Bootstrapper boot(*eval, cfg);
        keygen->addRotationKeys(*keys, boot.requiredRotations());
        return boot;
    }

    /** Bootstraps @p ct; the result must sit at outputLevel(). */
    static Ciphertext
    refresh(const Bootstrapper &boot, const Ciphertext &ct)
    {
        Ciphertext fresh = boot.bootstrap(ct);
        EXPECT_EQ(fresh.level(), boot.outputLevel())
            << ct.slots << " slots";
        return fresh;
    }

    Ciphertext
    encryptAtBottom(const std::vector<std::complex<double>> &z) const
    {
        Encoder enc(*ctx);
        Encryptor encr(*ctx, keys->pk);
        auto ct = encr.encrypt(enc.encode(z, z.size(), 0));
        return ct;
    }

    std::vector<std::complex<double>>
    decryptVec(const Ciphertext &ct) const
    {
        Encoder enc(*ctx);
        Encryptor encr(*ctx, keys->pk);
        return enc.decode(encr.decrypt(ct, keygen->secretKey()));
    }

    static Context *ctx;
    static KeyGen *keygen;
    static KeyBundle *keys;
    static Evaluator *eval;
};

Context *BootstrapTest::ctx = nullptr;
KeyGen *BootstrapTest::keygen = nullptr;
KeyBundle *BootstrapTest::keys = nullptr;
Evaluator *BootstrapTest::eval = nullptr;

std::vector<std::complex<double>>
message(std::size_t n)
{
    std::vector<std::complex<double>> z(n);
    for (std::size_t i = 0; i < n; ++i)
        z[i] = {0.4 * std::cos(0.9 * i), 0.4 * std::sin(1.7 * i)};
    return z;
}

double
maxError(const std::vector<std::complex<double>> &a,
         const std::vector<std::complex<double>> &b)
{
    double worst = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        worst = std::max(worst, std::abs(a[i] - b[i]));
    return worst;
}

TEST_F(BootstrapTest, RefreshesNearFullPacking)
{
    const u32 slots = ctx->degree() / 4; // gap 2: one SubSum step
    auto boot = makeBootstrapper(slots);
    auto z = message(slots);
    auto ct = encryptAtBottom(z);
    ASSERT_EQ(ct.level(), 0u);

    auto fresh = refresh(boot, ct);
    EXPECT_GE(fresh.level(), 1u);
    double err = maxError(decryptVec(fresh), z);
    EXPECT_LT(err, 1e-2) << "bootstrap precision too low";
    // Expect a reasonable precision, not just "under the sanity bar".
    EXPECT_LT(err, 2e-3);
}

TEST_F(BootstrapTest, RefreshesFullPacking)
{
    // slots = N/2 leaves no spare slots for a 2s-slot EvalMod, so this
    // is the path that splits Re and Im and runs EvalMod twice.
    const u32 slots = ctx->degree() / 2;
    auto boot = makeBootstrapper(slots);
    auto z = message(slots);
    auto ct = encryptAtBottom(z);

    auto fresh = refresh(boot, ct);
    EXPECT_GE(fresh.level(), 1u);
    EXPECT_EQ(fresh.slots, slots);
    EXPECT_LT(maxError(decryptVec(fresh), z), 2e-3);
}

TEST_F(BootstrapTest, RefreshedCiphertextSupportsMultiplication)
{
    const u32 slots = ctx->degree() / 4;
    auto boot = makeBootstrapper(slots);
    auto z = message(slots);
    auto ct = encryptAtBottom(z);
    auto fresh = refresh(boot, ct);
    ASSERT_GE(fresh.level(), 1u);

    auto sq = eval->squareC(fresh);
    auto got = decryptVec(sq);
    double worst = 0;
    for (std::size_t i = 0; i < slots; ++i)
        worst = std::max(worst, std::abs(got[i] - z[i] * z[i]));
    EXPECT_LT(worst, 2e-2);
}

TEST_F(BootstrapTest, SparsePackingWithDeepSubSum)
{
    // gap 512, 128 and 32: nine, seven and five SubSum rotations. The
    // trace multiplies the subring part of t by gap, which CoeffToSlot
    // divides back out before EvalMod. At 4 slots each coefficient
    // carries the mean of only 8 slot values, so the sine's cubic term
    // (sin x ~ x, with q0 / Delta = 32) sets the error: 1.4e-4 at this
    // message's 0.4 amplitude, growing as its cube (1.8e-5 at 0.2).
    const std::pair<u32, double> bounds[] = {
        {4, 2e-4}, {16, 1e-4}, {64, 1e-4}};
    for (const auto &[slots, bound] : bounds) {
        auto boot = makeBootstrapper(slots);
        auto z = message(slots);
        auto ct = encryptAtBottom(z);
        auto fresh = refresh(boot, ct);
        EXPECT_GE(fresh.level(), 1u);
        double err = maxError(decryptVec(fresh), z);
        EXPECT_LT(err, bound) << slots << " slots";
    }
}

TEST_F(BootstrapTest, DepthAccountingConsistent)
{
    // depth() counts the levels the pipeline really consumes, so a
    // refreshed ciphertext sits exactly at outputLevel().
    const u32 slots = ctx->degree() / 4;
    auto boot = makeBootstrapper(slots);
    EXPECT_LE(boot.depth(), ctx->maxLevel());
    auto fresh = boot.bootstrap(encryptAtBottom(message(slots)));
    EXPECT_EQ(fresh.level(), boot.outputLevel());
    // Rotation requirements are nonempty and exclude 0.
    auto rots = boot.requiredRotations();
    EXPECT_FALSE(rots.empty());
    for (i64 k : rots)
        EXPECT_NE(k, 0);
}

TEST_F(BootstrapTest, RotationKeyCountsAtBudgetThree)
{
    // Strided stages split their own lattice (planBsgs), so the key
    // set grows slowly with the slot count: one key per baby and per
    // giant of each stage, plus SubSum's rotations.
    const std::pair<u32, std::size_t> counts[] = {
        {64, 16}, {256, 21}, {1024, 26}, {2048, 31}};
    for (const auto &[slots, keys] : counts) {
        BootstrapConfig cfg;
        cfg.slots = slots;
        cfg.levelBudgetC2S = 3;
        cfg.levelBudgetS2C = 3;
        Bootstrapper boot(*eval, cfg);
        EXPECT_EQ(boot.requiredRotations().size(), keys)
            << slots << " slots";
    }
}

TEST_F(BootstrapTest, InputAboveBottomLevelIsConsumed)
{
    const u32 slots = ctx->degree() / 4;
    auto boot = makeBootstrapper(slots);
    Encoder enc(*ctx);
    Encryptor encr(*ctx, keys->pk);
    auto z = message(slots);
    auto ct = encr.encrypt(enc.encode(z, slots, 2));
    auto fresh = refresh(boot, ct);
    double err = maxError(decryptVec(fresh), z);
    EXPECT_LT(err, 1e-2);
}

} // namespace
} // namespace fideslib::ckks
