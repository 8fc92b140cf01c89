/**
 * @file
 * Direct tests of the device kernel layer: element-wise ops against
 * scalar reference loops, SwitchModulus recentring in both
 * directions, monomial multiplication wrap/sign behaviour, automorph
 * permutation application, and launch accounting under batching.
 */

#include <gtest/gtest.h>

#include <complex>
#include <cstring>

#include "ckks/basechange.hpp"
#include "ckks/encryptor.hpp"
#include "ckks/evaluator.hpp"
#include "ckks/kernels.hpp"
#include "ckks/keygen.hpp"
#include "core/rng.hpp"

namespace fideslib::ckks
{
namespace
{

class KernelTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        ctx = new Context(Parameters::testSmall());
    }
    static void
    TearDownTestSuite()
    {
        delete ctx;
        ctx = nullptr;
    }

    RNSPoly
    randomPoly(u32 level, u64 seed, Format fmt = Format::Eval) const
    {
        Prng prng(seed);
        RNSPoly p(*ctx, level, fmt);
        for (std::size_t i = 0; i < p.numLimbs(); ++i) {
            u64 q = ctx->prime(p.primeIdxAt(i)).value();
            u64 *x = p.limb(i).data();
            for (std::size_t j = 0; j < ctx->degree(); ++j)
                x[j] = prng.uniform(q);
        }
        return p;
    }

    static Context *ctx;
};

Context *KernelTest::ctx = nullptr;

TEST_F(KernelTest, AddSubNegAgainstScalarLoops)
{
    auto a = randomPoly(3, 1);
    auto b = randomPoly(3, 2);
    auto aRef = a.clone();

    kernels::addInto(a, b);
    for (std::size_t i = 0; i < a.numLimbs(); ++i) {
        u64 q = ctx->prime(a.primeIdxAt(i)).value();
        for (std::size_t j = 0; j < ctx->degree(); ++j) {
            ASSERT_EQ(a.limb(i).data()[j],
                      addMod(aRef.limb(i).data()[j],
                             b.limb(i).data()[j], q));
        }
    }
    kernels::subInto(a, b); // undo
    for (std::size_t i = 0; i < a.numLimbs(); ++i) {
        for (std::size_t j = 0; j < ctx->degree(); ++j)
            ASSERT_EQ(a.limb(i).data()[j], aRef.limb(i).data()[j]);
    }
    kernels::negate(a);
    kernels::negate(a);
    for (std::size_t i = 0; i < a.numLimbs(); ++i) {
        for (std::size_t j = 0; j < ctx->degree(); ++j)
            ASSERT_EQ(a.limb(i).data()[j], aRef.limb(i).data()[j]);
    }
}

TEST_F(KernelTest, MulAddIntoEqualsMulThenAdd)
{
    auto acc1 = randomPoly(2, 3);
    auto acc2 = acc1.clone();
    auto a = randomPoly(2, 4);
    auto b = randomPoly(2, 5);

    kernels::mulAddInto(acc1, a, b);

    RNSPoly prod(*ctx, 2, Format::Eval);
    kernels::mul(prod, a, b);
    kernels::addInto(acc2, prod);

    for (std::size_t i = 0; i < acc1.numLimbs(); ++i) {
        for (std::size_t j = 0; j < ctx->degree(); ++j)
            ASSERT_EQ(acc1.limb(i).data()[j], acc2.limb(i).data()[j]);
    }
}

TEST_F(KernelTest, ScalarKernelsBroadcast)
{
    auto a = randomPoly(2, 6);
    auto aRef = a.clone();
    std::vector<u64> scalars;
    for (u32 i = 0; i <= 2; ++i)
        scalars.push_back(1000 + 17 * i);

    kernels::scalarMulInto(a, scalars);
    for (std::size_t i = 0; i < a.numLimbs(); ++i) {
        const Modulus &m = ctx->qMod(i);
        for (std::size_t j = 0; j < ctx->degree(); ++j) {
            ASSERT_EQ(a.limb(i).data()[j],
                      mulModNaive(aRef.limb(i).data()[j], scalars[i],
                                  m.value));
        }
    }

    auto b = aRef.clone();
    kernels::scalarAddInto(b, scalars);
    kernels::scalarSubFrom(b, scalars); // b := s - (x + s) = -x
    kernels::negate(b);
    for (std::size_t i = 0; i < b.numLimbs(); ++i) {
        for (std::size_t j = 0; j < ctx->degree(); ++j)
            ASSERT_EQ(b.limb(i).data()[j], aRef.limb(i).data()[j]);
    }
}

TEST_F(KernelTest, SwitchModulusRecentersBothDirections)
{
    // Large -> small and small -> large, with signed recentring.
    const u64 src = ctx->qMod(0).value; // ~2^50
    const Modulus &dst = ctx->qMod(1);  // ~2^36 (smaller)
    std::vector<u64> in(ctx->degree()), out(ctx->degree());
    Prng prng(7);
    for (auto &v : in) {
        // Mix small positives and "negative" (near-src) values.
        i64 c = static_cast<i64>(prng.uniform(2000)) - 1000;
        v = c >= 0 ? static_cast<u64>(c) : src - static_cast<u64>(-c);
    }
    kernels::switchModulusLimb(*ctx, in.data(), src, out.data(), 1);
    for (std::size_t j = 0; j < ctx->degree(); ++j) {
        i64 c = in[j] > src / 2 ? static_cast<i64>(in[j])
                                      - static_cast<i64>(src)
                                : static_cast<i64>(in[j]);
        u64 want = c >= 0 ? static_cast<u64>(c)
                          : dst.value - static_cast<u64>(-c);
        ASSERT_EQ(out[j], want) << j;
    }
    // Small -> large direction (to a special prime).
    const u32 spIdx = ctx->specialIdx(0);
    const Modulus &sp = ctx->prime(spIdx).mod;
    kernels::switchModulusLimb(*ctx, in.data(), src, out.data(),
                               spIdx);
    for (std::size_t j = 0; j < ctx->degree(); ++j) {
        i64 c = in[j] > src / 2 ? static_cast<i64>(in[j])
                                      - static_cast<i64>(src)
                                : static_cast<i64>(in[j]);
        u64 want = c >= 0 ? static_cast<u64>(c)
                          : sp.value - static_cast<u64>(-c);
        ASSERT_EQ(out[j], want) << j;
    }
}

TEST_F(KernelTest, MonomialMultWrapsNegacyclically)
{
    const std::size_t n = ctx->degree();
    RNSPoly p(*ctx, 0, Format::Coeff);
    p.setZero();
    p.limb(0).data()[n - 1] = 5; // 5 X^(n-1)
    kernels::mulByMonomial(p, 2); // * X^2 -> -5 X^1
    u64 q = ctx->qMod(0).value;
    EXPECT_EQ(p.limb(0).data()[1], q - 5);
    for (std::size_t j = 0; j < n; ++j) {
        if (j != 1)
            ASSERT_EQ(p.limb(0).data()[j], 0u);
    }
    // Multiplying by X^(2n) is the identity.
    auto r = randomPoly(1, 8, Format::Coeff);
    auto ref = r.clone();
    kernels::mulByMonomial(r, 2 * n);
    for (std::size_t i = 0; i < r.numLimbs(); ++i) {
        for (std::size_t j = 0; j < n; ++j)
            ASSERT_EQ(r.limb(i).data()[j], ref.limb(i).data()[j]);
    }
    // X^n negates everything.
    kernels::mulByMonomial(r, n);
    for (std::size_t i = 0; i < r.numLimbs(); ++i) {
        u64 qq = ctx->prime(r.primeIdxAt(i)).value();
        for (std::size_t j = 0; j < n; ++j) {
            ASSERT_EQ(r.limb(i).data()[j],
                      negMod(ref.limb(i).data()[j], qq));
        }
    }
}

TEST_F(KernelTest, AutomorphAppliesPermutationPerLimb)
{
    auto a = randomPoly(2, 9);
    const auto &perm = ctx->automorphPerm(ctx->rotationGaloisElt(3));
    RNSPoly out(*ctx, 2, Format::Eval);
    kernels::automorph(out, a, perm);
    for (std::size_t i = 0; i < a.numLimbs(); ++i) {
        for (std::size_t j = 0; j < ctx->degree(); ++j) {
            ASSERT_EQ(out.limb(i).data()[j],
                      a.limb(i).data()[perm[j]]);
        }
    }
}

/** Restores the suite-shared Context's backend knobs even when an
 *  ASSERT_* bails out of the test body early. */
struct BackendConfigGuard
{
    Context *ctx;
    u32 limbBatch = ctx->limbBatch();
    bool fusion = ctx->fusionEnabled();
    ~BackendConfigGuard()
    {
        ctx->setLimbBatch(limbBatch);
        ctx->setFusion(fusion);
    }
};

TEST_F(KernelTest, FusedChainMatchesIndividualKernels)
{
    BackendConfigGuard guard{ctx};
    auto a = randomPoly(3, 20);
    auto b = randomPoly(3, 21);
    RNSPoly d0(*ctx, 3, Format::Eval), d0Ref(*ctx, 3, Format::Eval);
    RNSPoly d1(*ctx, 3, Format::Eval), d1Ref(*ctx, 3, Format::Eval);
    std::vector<u64> scalars = {11, 13, 17, 19};
    auto &devs = ctx->devices();

    ASSERT_TRUE(ctx->fusionEnabled());
    ctx->setLimbBatch(2);
    devs.resetCounters();
    kernels::FusedChain(*ctx)
        .mul(d0, a, b)
        .mulAdd(d0, b, b)
        .mul(d1, a, a)
        .add(d1, d0)
        .sub(d1, b)
        .scalarMul(d1, scalars)
        .run();
    // ONE logical kernel: ceil(4 limbs / batch 2) = 2 launches for
    // the whole six-op chain.
    EXPECT_EQ(devs.aggregateCounters().launches, 2u);

    kernels::mul(d0Ref, a, b);
    kernels::mulAddInto(d0Ref, b, b);
    kernels::mul(d1Ref, a, a);
    kernels::addInto(d1Ref, d0Ref);
    kernels::subInto(d1Ref, b);
    kernels::scalarMulInto(d1Ref, scalars);
    for (std::size_t i = 0; i < d1.numLimbs(); ++i) {
        for (std::size_t j = 0; j < ctx->degree(); ++j) {
            ASSERT_EQ(d0.limb(i).data()[j], d0Ref.limb(i).data()[j]);
            ASSERT_EQ(d1.limb(i).data()[j], d1Ref.limb(i).data()[j]);
        }
    }

    // With fusion off the same chain degrades to one logical kernel
    // per op -- 6 ops x 2 batches -- and still matches bit-exactly.
    RNSPoly e0(*ctx, 3, Format::Eval), e1(*ctx, 3, Format::Eval);
    ctx->setFusion(false);
    devs.resetCounters();
    kernels::FusedChain(*ctx)
        .mul(e0, a, b)
        .mulAdd(e0, b, b)
        .mul(e1, a, a)
        .add(e1, e0)
        .sub(e1, b)
        .scalarMul(e1, scalars)
        .run();
    EXPECT_EQ(devs.aggregateCounters().launches, 12u);
    for (std::size_t i = 0; i < e1.numLimbs(); ++i) {
        for (std::size_t j = 0; j < ctx->degree(); ++j) {
            ASSERT_EQ(e0.limb(i).data()[j], d0Ref.limb(i).data()[j]);
            ASSERT_EQ(e1.limb(i).data()[j], d1Ref.limb(i).data()[j]);
        }
    }
}

TEST_F(KernelTest, FusedChainSinglePassTrafficAndSummedOps)
{
    auto a = randomPoly(2, 22);
    auto b = randomPoly(2, 23);
    RNSPoly d0(*ctx, 2, Format::Eval);
    RNSPoly d1(*ctx, 2, Format::Eval);
    auto &devs = ctx->devices();
    const std::size_t n = ctx->degree();
    const u64 limbBytes = n * sizeof(u64) * d0.numLimbs();

    ASSERT_TRUE(ctx->fusionEnabled());
    devs.resetCounters();
    // HMult-shaped chain: reads {a, b}, writes {d0, d1}; d0/d1 reuse
    // inside the chain stays on-chip.
    kernels::FusedChain(*ctx)
        .mul(d0, a, b)
        .mulAdd(d0, a, a)
        .mul(d1, b, b)
        .add(d1, d0)
        .run();
    const KernelCounters c = devs.aggregateCounters();
    EXPECT_EQ(c.bytesRead, 2 * limbBytes);    // a, b: single pass
    EXPECT_EQ(c.bytesWritten, 2 * limbBytes); // d0, d1
    // Integer ops are summed over the chain: 5n + 6n + 5n + n.
    EXPECT_EQ(c.intOps, 17 * n * d0.numLimbs());
}

TEST(FusedGather, HoistedRotationsNegativeAndBeyondSlotCount)
{
    // Hoisted rotations whose indices wrap: negative, and >= the slot
    // count (they reduce modulo N/2 inside rotationGaloisElt). The
    // gather is applied in flight inside the key-switch inner-product
    // kernel -- no permuted digit is ever materialized -- and the
    // fused/unfused paths must agree bit-exactly.
    Parameters base = Parameters::testSmall();
    const i64 slots = static_cast<i64>(base.ringDegree() / 2);
    const std::vector<i64> ks = {-1, slots + 1, -(slots + 3)};

    Parameters pFused = base;
    pFused.fusion = true;
    Parameters pUnfused = base;
    pUnfused.fusion = false;
    Context ctxFused(pFused), ctxUnfused(pUnfused);

    auto run = [&](Context &ctx) {
        KeyGen kg(ctx);
        // Keys live per Galois element, so the wrapped indices reuse
        // the keys of their reduced counterparts {1, -1, -3}.
        KeyBundle keys = kg.makeBundle({1, -1, -3});
        Evaluator eval(ctx, keys);
        Encoder enc(ctx);
        Encryptor encr(ctx, keys.pk);
        std::vector<std::complex<double>> z(slots);
        for (i64 i = 0; i < slots; ++i)
            z[i] = {std::cos(0.21 * i), std::sin(0.83 * i)};
        auto ct = encr.encrypt(
            enc.encode(z, static_cast<u32>(slots), 2));
        auto rots = eval.hoistedRotate(ct, ks);
        // Decode and check the rotation semantics of each index.
        for (std::size_t r = 0; r < ks.size(); ++r) {
            auto got =
                enc.decode(encr.decrypt(rots[r], kg.secretKey()));
            for (i64 i = 0; i < slots; ++i) {
                const i64 src = ((i + ks[r]) % slots + slots) % slots;
                EXPECT_NEAR(got[i].real(), z[src].real(), 1e-4)
                    << "k=" << ks[r] << " slot " << i;
                EXPECT_NEAR(got[i].imag(), z[src].imag(), 1e-4)
                    << "k=" << ks[r] << " slot " << i;
            }
        }
        return rots;
    };

    auto fused = run(ctxFused);
    auto unfused = run(ctxUnfused);
    ASSERT_EQ(fused.size(), unfused.size());
    for (std::size_t r = 0; r < fused.size(); ++r) {
        fused[r].c0.syncHost();
        fused[r].c1.syncHost();
        unfused[r].c0.syncHost();
        unfused[r].c1.syncHost();
        for (std::size_t i = 0; i < fused[r].c0.numLimbs(); ++i) {
            ASSERT_EQ(0, std::memcmp(
                             fused[r].c0.limb(i).data(),
                             unfused[r].c0.limb(i).data(),
                             fused[r].c0.limb(i).size() * sizeof(u64)))
                << "rotation " << r << " limb " << i;
            ASSERT_EQ(0, std::memcmp(
                             fused[r].c1.limb(i).data(),
                             unfused[r].c1.limb(i).data(),
                             fused[r].c1.limb(i).size() * sizeof(u64)))
                << "rotation " << r << " limb " << i;
        }
    }
}

TEST_F(KernelTest, LaunchCountTracksBatchSize)
{
    auto a = randomPoly(ctx->maxLevel(), 10);
    auto b = randomPoly(ctx->maxLevel(), 11);
    auto &devs = ctx->devices();

    ctx->setLimbBatch(1);
    devs.resetCounters();
    kernels::addInto(a, b);
    u64 perLimb = devs.aggregateCounters().launches;
    EXPECT_EQ(perLimb, a.numLimbs());

    ctx->setLimbBatch(0);
    devs.resetCounters();
    kernels::addInto(a, b);
    EXPECT_EQ(devs.aggregateCounters().launches, 1u);

    ctx->setLimbBatch(2);
    devs.resetCounters();
    kernels::addInto(a, b);
    EXPECT_EQ(devs.aggregateCounters().launches, (a.numLimbs() + 1) / 2);
    ctx->setLimbBatch(Parameters::testSmall().limbBatch);
}

TEST_F(KernelTest, ByteAccountingIsPlausible)
{
    auto a = randomPoly(2, 12);
    auto b = randomPoly(2, 13);
    auto &devs = ctx->devices();
    devs.resetCounters();
    kernels::addInto(a, b);
    const u64 limbBytes = ctx->degree() * sizeof(u64) * a.numLimbs();
    EXPECT_EQ(devs.aggregateCounters().bytesRead, 2 * limbBytes);
    EXPECT_EQ(devs.aggregateCounters().bytesWritten, limbBytes);
}

TEST_F(KernelTest, RescaleAndModDownBillInttAtNttLimbCost)
{
    // The bytes one rescale and one modDown bill, summed over their
    // launches. Every iNTT limb (rescale's dropped limb, modDown's K
    // special limbs) costs nttLimbCost, as in toCoeff. The fused
    // epilogues are single pass (FusedChainSinglePassTrafficAndSummedOps):
    // rescale's reads the dropped limb's coefficient copy and the
    // input and writes the output; modDown's reads the Conv output
    // and the input and writes the output. modDown's Conv (one
    // device, one launch) reads the K special limbs and writes the
    // level + 1 output limbs.
    ASSERT_TRUE(ctx->fusionEnabled());
    ASSERT_EQ(ctx->devices().numDevices(), 1u);
    auto &devs = ctx->devices();
    const u64 limb = ctx->degree() * sizeof(u64);
    const kernels::LimbCost intt = kernels::nttLimbCost(*ctx);
    constexpr u32 kLevel = 3;

    auto r = randomPoly(kLevel, 41);
    devs.resetCounters();
    rescale(r);
    KernelCounters c = devs.aggregateCounters();
    EXPECT_EQ(c.bytesRead, intt.bytesRead + 2 * kLevel * limb);
    EXPECT_EQ(c.bytesWritten, intt.bytesWritten + kLevel * limb);

    const u64 K = ctx->numSpecial();
    RNSPoly m(*ctx, kLevel, Format::Eval, ctx->numSpecial());
    Prng prng(42);
    for (std::size_t i = 0; i < m.numLimbs(); ++i) {
        const u64 q = ctx->prime(m.primeIdxAt(i)).value();
        u64 *x = m.limb(i).data();
        for (std::size_t j = 0; j < ctx->degree(); ++j)
            x[j] = prng.uniform(q);
    }
    devs.resetCounters();
    modDown(m);
    c = devs.aggregateCounters();
    EXPECT_EQ(c.bytesRead,
              K * intt.bytesRead + K * limb + 2 * (kLevel + 1) * limb);
    EXPECT_EQ(c.bytesWritten,
              K * intt.bytesWritten + 2 * (kLevel + 1) * limb);
}

} // namespace
} // namespace fideslib::ckks
