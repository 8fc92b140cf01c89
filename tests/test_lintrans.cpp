/**
 * @file
 * Tests for homomorphic linear transforms: diagonal representation,
 * sparse composition, the FFT butterfly stage factorization (the
 * algebra CoeffToSlot/SlotToCoeff rely on), the 2s-slot stages the
 * sparse bootstrap widens for its single EvalMod, BSGS planning, and
 * encrypted application against the plain oracle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "ckks/bootstrap.hpp"
#include "ckks/encryptor.hpp"
#include "ckks/keygen.hpp"
#include "ckks/lintrans.hpp"

namespace fideslib::ckks
{
namespace
{

std::vector<Cplx>
randomVec(std::size_t n, u64 seed)
{
    std::vector<Cplx> v(n);
    for (std::size_t i = 0; i < n; ++i) {
        v[i] = Cplx(std::cos(0.71L * (i + seed)),
                    std::sin(1.3L * (i + 2 * seed)));
    }
    return v;
}

void
expectVecNear(const std::vector<Cplx> &a, const std::vector<Cplx> &b,
              double tol)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_NEAR((double)std::abs(a[i] - b[i]), 0.0, tol) << i;
}

TEST(DiagMatrix, IdentityActsTrivially)
{
    auto v = randomVec(16, 1);
    auto id = DiagMatrix::identity(16);
    expectVecNear(id.apply(v), v, 1e-15);
}

TEST(DiagMatrix, FromDenseMatchesDenseMatVec)
{
    const u32 n = 8;
    auto v = randomVec(n, 2);
    std::vector<Cplx> dense(n * n);
    for (u32 r = 0; r < n; ++r)
        for (u32 c = 0; c < n; ++c)
            dense[r * n + c] = Cplx(0.1L * r - 0.2L, 0.05L * c);
    auto m = DiagMatrix::fromDense(n, dense);
    std::vector<Cplx> want(n, Cplx(0, 0));
    for (u32 r = 0; r < n; ++r)
        for (u32 c = 0; c < n; ++c)
            want[r] += dense[r * n + c] * v[c];
    expectVecNear(m.apply(v), want, 1e-12);
}

TEST(DiagMatrix, ComposeAfterMatchesSequentialApplication)
{
    const u32 n = 16;
    auto v = randomVec(n, 3);
    auto a = DiagMatrix::fftStage(n, 4, false);
    auto b = DiagMatrix::fftStage(n, 8, true);
    auto ab = a.composeAfter(b);
    expectVecNear(ab.apply(v), a.apply(b.apply(v)), 1e-12);
}

/** composeAfter's earlier body: a rotated copy of B per diagonal pair
 *  and an addToDiag lookup per nonzero product. */
DiagMatrix
composeAfterOracle(const DiagMatrix &a, const DiagMatrix &b)
{
    const u32 n = a.slots();
    DiagMatrix out(n);
    for (const auto &[d1, diagA] : a.diags()) {
        for (const auto &[d2, diagB] : b.diags()) {
            std::vector<Cplx> rotated(n);
            for (u32 i = 0; i < n; ++i)
                rotated[i] = diagB[(i + d1) % n];
            for (u32 j = 0; j < n; ++j) {
                Cplx v = diagA[j] * rotated[j];
                if (v != Cplx(0, 0))
                    out.addToDiag(d1 + d2, j, v);
            }
        }
    }
    return out;
}

TEST(DiagMatrix, ComposeAfterMatchesOldBodyBitForBit)
{
    // Same diagonals, created in the same cases (a pair whose products
    // are all zero creates none), and the same summation order, so
    // every entry is bit-identical.
    auto expectSame = [](const DiagMatrix &got, const DiagMatrix &want,
                         const std::string &what) {
        ASSERT_EQ(got.diags().size(), want.diags().size()) << what;
        for (const auto &[d, diag] : want.diags()) {
            auto it = got.diags().find(d);
            ASSERT_NE(it, got.diags().end()) << what << " diag " << d;
            EXPECT_TRUE(it->second == diag) << what << " diag " << d;
        }
    };
    for (u32 n : {16u, 64u, 256u}) {
        for (bool inverse : {false, true}) {
            DiagMatrix acc = DiagMatrix::fftStage(n, n, inverse);
            DiagMatrix old = acc;
            for (u32 len = n / 2; len >= 2; len /= 2) {
                const auto stage = DiagMatrix::fftStage(n, len, inverse);
                acc = stage.composeAfter(acc);
                old = composeAfterOracle(stage, old);
                expectSame(acc, old,
                           std::to_string(n) + " slots, len " +
                               std::to_string(len));
            }
        }
    }
    // Zero entries: the product of diagonals 1 and 2 below vanishes
    // everywhere, so diagonal 3 exists only through other pairs.
    const u32 n = 8;
    DiagMatrix a(n), b(n);
    for (u32 j = 0; j < n; ++j) {
        a.addToDiag(1, j, j % 2 ? Cplx(0.5L, -1) : Cplx(0, 0));
        a.addToDiag(5, j, Cplx(0.25L * j, 0.125L));
        b.addToDiag(2, j, (j + 1) % 2 ? Cplx(2, 0.5L) : Cplx(0, 0));
        b.addToDiag(7, j, Cplx(-0.75L, 0.5L * j));
    }
    expectSame(a.composeAfter(b), composeAfterOracle(a, b), "sparse");
    expectSame(b.composeAfter(a), composeAfterOracle(b, a), "sparse ba");
}

TEST(DiagMatrix, ForwardStagesReproduceSpecialFFT)
{
    for (u32 n : {4u, 16u, 64u}) {
        auto u = randomVec(n, 4);
        // Reference: the encoder's forward transform.
        auto want = u;
        specialFFT(want);
        // Stage path: bit-reverse, then forward butterflies len=2..n.
        std::vector<Cplx> v(n);
        for (u32 i = 0; i < n; ++i)
            v[bitReverse(i, log2Floor(n))] = u[i];
        for (u32 len = 2; len <= n; len <<= 1)
            v = DiagMatrix::fftStage(n, len, false).apply(v);
        expectVecNear(v, want, 1e-9);
    }
}

TEST(DiagMatrix, InverseStagesInvertForwardStages)
{
    const u32 n = 32;
    auto v = randomVec(n, 5);
    auto fwd = v;
    for (u32 len = 2; len <= n; len <<= 1)
        fwd = DiagMatrix::fftStage(n, len, false).apply(fwd);
    for (u32 len = n; len >= 2; len >>= 1)
        fwd = DiagMatrix::fftStage(n, len, true).apply(fwd);
    expectVecNear(fwd, v, 1e-9);
}

TEST(LinTrans, C2SStagesEqualBitrevOfInverseFFT)
{
    for (u32 budget : {1u, 2u, 3u}) {
        const u32 n = 32;
        auto z = randomVec(n, 6);
        auto stages = buildC2SStages(n, budget);
        auto got = z;
        for (const auto &s : stages)
            got = s.apply(got);
        auto want = z;
        specialIFFT(want);
        std::vector<Cplx> wantRev(n);
        for (u32 i = 0; i < n; ++i)
            wantRev[bitReverse(i, log2Floor(n))] = want[i];
        expectVecNear(got, wantRev, 1e-9);
    }
}

TEST(LinTrans, S2CUndoesC2S)
{
    const u32 n = 64;
    auto z = randomVec(n, 7);
    auto c2s = buildC2SStages(n, 3);
    auto s2c = buildS2CStages(n, 2);
    auto v = z;
    for (const auto &s : c2s)
        v = s.apply(v);
    for (const auto &s : s2c)
        v = s.apply(v);
    expectVecNear(v, z, 1e-9);
}

TEST(LinTrans, BsgsPlanCoversAllOffsets)
{
    auto m = buildC2SStages(64, 2)[0];
    auto plan = planBsgs(m);
    for (const auto &[d, diag] : m.diags()) {
        i64 j = d % plan.babyCount;
        i64 g = d - j;
        EXPECT_NE(std::find(plan.babies.begin(), plan.babies.end(), j),
                  plan.babies.end());
        EXPECT_NE(std::find(plan.giants.begin(), plan.giants.end(), g),
                  plan.giants.end());
    }
    // Its 8 diagonals are the multiples of 8, so the baby stride is
    // 8 * 4: babies {0, 8, 16, 24} and giants {0, 32}, not one giant
    // (a full key switch) per diagonal.
    EXPECT_EQ(m.diags().size(), 8u);
    EXPECT_EQ(plan.babyCount, 32);
    EXPECT_EQ(plan.babies, (std::vector<i64>{0, 8, 16, 24}));
    EXPECT_EQ(plan.giants, (std::vector<i64>{0, 32}));
}

/** gcd of @p m's slot count and diagonal offsets. */
i64
offsetGcd(const DiagMatrix &m)
{
    i64 g = m.slots();
    for (const auto &[d, diag] : m.diags())
        g = std::gcd(g, d);
    return g;
}

TEST(LinTrans, BsgsPlanIsScaleInvariant)
{
    // A stage whose offsets are multiples of g plans like the same
    // offsets divided by g on slots / g: the stride splits the
    // offsets' own lattice, so a strided stage hoists its babies as
    // a stride-1 stage does. Covers every C2S / S2C stage and both
    // widened ones. Budget 1 is one dense matrix (g = 1): on a 4-core
    // AVX-512 host, building the C2S and S2C stages takes 0.2 / 1.0 s
    // and widening them 0.4 / 1.7 s at 1024 / 2048 slots (long double
    // complex products), so it stops at 1024.
    for (u32 slots = 4; slots <= 2048; slots *= 2) {
        for (u32 budget = slots <= 1024 ? 1 : 2; budget <= 4; ++budget) {
            auto stages = buildC2SStages(slots, budget);
            auto s2c = buildS2CStages(slots, budget);
            stages.push_back(widenC2SStage(stages.back()));
            stages.push_back(widenS2CStage(s2c.front()));
            stages.insert(stages.end(), s2c.begin(), s2c.end());
            for (const auto &m : stages) {
                const i64 g = offsetGcd(m);
                DiagMatrix onLattice(static_cast<u32>(m.slots() / g));
                for (const auto &[d, diag] : m.diags())
                    onLattice.addToDiag(d / g, 0, Cplx(1, 0));
                const BsgsPlan plan = planBsgs(m);
                const BsgsPlan reduced = planBsgs(onLattice);
                EXPECT_EQ(plan.babies.size(), reduced.babies.size())
                    << slots << " slots, budget " << budget
                    << ", stage on " << m.slots() << " slots, g " << g;
                EXPECT_EQ(plan.giants.size(), reduced.giants.size())
                    << slots << " slots, budget " << budget
                    << ", stage on " << m.slots() << " slots, g " << g;
            }
        }
    }
}

// --- sparse bootstrap: the 2s-slot stages at the EvalMod boundary ---

/** An s-slot matrix as it acts at 2s slots: diagonals (b_d, b_d). On
 *  s-periodic input it agrees with the s-slot map in each half. */
DiagMatrix
periodicExtension(const DiagMatrix &m)
{
    const u32 s = m.slots();
    DiagMatrix out(2 * s);
    for (const auto &[d, diag] : m.diags()) {
        for (u32 j = 0; j < s; ++j) {
            out.addToDiag(d, j, diag[j]);
            out.addToDiag(d, s + j, diag[j]);
        }
    }
    return out;
}

std::vector<Cplx>
concat(const std::vector<Cplx> &a, const std::vector<Cplx> &b)
{
    std::vector<Cplx> out = a;
    out.insert(out.end(), b.begin(), b.end());
    return out;
}

std::vector<Cplx>
applyAll(const std::vector<DiagMatrix> &stages, std::vector<Cplx> v)
{
    for (const auto &m : stages)
        v = m.apply(v);
    return v;
}

/** The sparse CoeffToSlot ladder at 2s slots: every stage but the
 *  last reads s-periodic data, the last one is widened. */
std::vector<DiagMatrix>
wideC2S(const std::vector<DiagMatrix> &stages)
{
    std::vector<DiagMatrix> out;
    for (std::size_t i = 0; i + 1 < stages.size(); ++i)
        out.push_back(periodicExtension(stages[i]));
    out.push_back(widenC2SStage(stages.back()));
    return out;
}

/** The sparse SlotToCoeff ladder at 2s slots. */
std::vector<DiagMatrix>
wideS2C(const std::vector<DiagMatrix> &stages)
{
    std::vector<DiagMatrix> out{widenS2CStage(stages.front())};
    for (std::size_t i = 1; i < stages.size(); ++i)
        out.push_back(periodicExtension(stages[i]));
    return out;
}

/** v + conj(v), the homomorphic conjugate-add. */
std::vector<Cplx>
addConjugate(std::vector<Cplx> v)
{
    for (auto &x : v)
        x += std::conj(x);
    return v;
}

TEST(LinTrans, WidenedC2SWritesBothHalves)
{
    const u32 s = 32;
    for (u32 budget : {1u, 2u, 3u}) {
        auto stages = buildC2SStages(s, budget);
        auto z = randomVec(s, 10 + budget);
        auto az = applyAll(stages, z);
        std::vector<Cplx> minusIAz(s);
        for (u32 j = 0; j < s; ++j)
            minusIAz[j] = Cplx(0, -1) * az[j];
        auto got = applyAll(wideC2S(stages), concat(z, z));
        expectVecNear(got, concat(az, minusIAz), 1e-12);
    }
}

TEST(LinTrans, ConjugateAddSplitsRealAndImaginary)
{
    const u32 s = 32;
    auto stages = buildC2SStages(s, 2);
    auto z = randomVec(s, 14);
    auto az = applyAll(stages, z);
    std::vector<Cplx> re(s), im(s);
    for (u32 j = 0; j < s; ++j) {
        re[j] = Cplx(2 * az[j].real(), 0);
        im[j] = Cplx(2 * az[j].imag(), 0);
    }
    auto got = addConjugate(applyAll(wideC2S(stages), concat(z, z)));
    expectVecNear(got, concat(re, im), 1e-12);
}

TEST(LinTrans, WidenedS2CMergesHalves)
{
    const u32 s = 32;
    for (u32 budget : {1u, 2u, 3u}) {
        auto stages = buildS2CStages(s, budget);
        auto u = randomVec(s, 15 + budget);
        auto v = randomVec(s, 20 + budget);
        std::vector<Cplx> merged(s);
        for (u32 j = 0; j < s; ++j)
            merged[j] = u[j] + Cplx(0, 1) * v[j];
        auto b = applyAll(stages, merged);
        auto got = applyAll(wideS2C(stages), concat(u, v));
        expectVecNear(got, concat(b, b), 1e-12);
    }
}

TEST(LinTrans, SparseRoundTripRecoversMessage)
{
    const u32 s = 64;
    for (u32 budget : {1u, 2u, 3u}) {
        auto c2s = buildC2SStages(s, budget);
        auto s2c = buildS2CStages(s, budget);
        // The bootstrap folds the split's 1/2 into the first C2S stage.
        c2s.front().scale(Cplx(0.5L, 0));
        auto z = randomVec(s, 25 + budget);
        auto split = addConjugate(applyAll(wideC2S(c2s), concat(z, z)));
        for (u32 j = 0; j < 2 * s; ++j)
            ASSERT_NEAR((double)split[j].imag(), 0.0, 1e-15) << j;
        auto got = applyAll(wideS2C(s2c), split);
        expectVecNear(got, concat(z, z), 1e-9);
    }
}

TEST(LinTrans, WidenedStagesKeepBabyStepsAndAddShiftedGiants)
{
    // 64 slots at the default level budget (3): the widened S2C
    // stage reuses the baby steps; its giants gain g + s.
    const u32 s = 64;
    auto first = buildS2CStages(s, 3).front();
    auto plan = planBsgs(first);
    auto widePlan = planBsgs(widenS2CStage(first));
    EXPECT_EQ(widePlan.babies, plan.babies);
    std::vector<i64> giants = plan.giants;
    for (i64 g : plan.giants)
        giants.push_back(g + s);
    std::sort(giants.begin(), giants.end());
    EXPECT_EQ(widePlan.giants, giants);

    auto last = buildC2SStages(s, 3).back();
    EXPECT_EQ(requiredRotations(widenC2SStage(last)),
              requiredRotations(last));
}

class LinTransHomomorphic : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        Parameters p = Parameters::testSmall();
        p.multDepth = 5;
        ctx = new Context(p);
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
    static Context *ctx;
    static KeyGen *keygen;
    static KeyBundle *keys;
    static Evaluator *eval;
};

Context *LinTransHomomorphic::ctx = nullptr;
KeyGen *LinTransHomomorphic::keygen = nullptr;
KeyBundle *LinTransHomomorphic::keys = nullptr;
Evaluator *LinTransHomomorphic::eval = nullptr;

TEST_F(LinTransHomomorphic, EncryptedApplyMatchesPlainOracle)
{
    const u32 slots = 16;
    auto m = DiagMatrix::fftStage(slots, 8, true);
    m = DiagMatrix::fftStage(slots, 4, true).composeAfter(m);
    keygen->addRotationKeys(*keys, requiredRotations(m));

    auto z = randomVec(slots, 8);
    std::vector<std::complex<double>> zd(slots);
    for (u32 i = 0; i < slots; ++i)
        zd[i] = {(double)z[i].real(), (double)z[i].imag()};

    Encoder enc(*ctx);
    Encryptor encr(*ctx, keys->pk);
    auto ct = encr.encrypt(enc.encode(zd, slots, ctx->maxLevel()));

    auto out = applyDiagMatrix(*eval, ct, m);
    auto got = enc.decode(encr.decrypt(out, keygen->secretKey()));
    auto want = m.apply(z);
    for (u32 i = 0; i < slots; ++i)
        ASSERT_NEAR(std::abs(Cplx(got[i].real(), got[i].imag())
                             - want[i]),
                    0.0, 1e-4) << i;
}

TEST_F(LinTransHomomorphic, RandomDenseMatrixEncrypted)
{
    const u32 slots = 8;
    std::vector<Cplx> dense(slots * slots);
    for (u32 i = 0; i < slots * slots; ++i)
        dense[i] = Cplx(std::cos(0.37L * i), std::sin(0.91L * i))
                 * Cplx(0.3L, 0);
    auto m = DiagMatrix::fromDense(slots, dense);
    keygen->addRotationKeys(*keys, requiredRotations(m));

    auto z = randomVec(slots, 9);
    std::vector<std::complex<double>> zd(slots);
    for (u32 i = 0; i < slots; ++i)
        zd[i] = {(double)z[i].real(), (double)z[i].imag()};

    Encoder enc(*ctx);
    Encryptor encr(*ctx, keys->pk);
    auto ct = encr.encrypt(enc.encode(zd, slots, 3));
    auto out = applyDiagMatrix(*eval, ct, m);
    auto got = enc.decode(encr.decrypt(out, keygen->secretKey()));
    auto want = m.apply(z);
    for (u32 i = 0; i < slots; ++i)
        ASSERT_NEAR(std::abs(Cplx(got[i].real(), got[i].imag())
                             - want[i]),
                    0.0, 1e-4) << i;
}

} // namespace
} // namespace fideslib::ckks
