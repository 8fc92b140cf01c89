/**
 * @file
 * Tests for the Chebyshev machinery: interpolation accuracy, the
 * Clenshaw oracle, Chebyshev long division, depth accounting, and
 * homomorphic series evaluation against the plain oracle.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "ckks/chebyshev.hpp"
#include "ckks/encryptor.hpp"
#include "ckks/keygen.hpp"

namespace fideslib::ckks
{
namespace
{

TEST(Chebyshev, InterpolationConvergesForCos)
{
    auto f = [](double x) { return std::cos(4 * x); };
    auto c = chebyshevInterpolate(f, 24);
    EXPECT_LT(chebyshevMaxError(f, c), 1e-10);
}

TEST(Chebyshev, LowDegreeExactness)
{
    // f = T_3 exactly: 4x^3 - 3x.
    auto f = [](double x) { return 4 * x * x * x - 3 * x; };
    auto c = chebyshevInterpolate(f, 5);
    EXPECT_NEAR(c[3], 1.0, 1e-12);
    for (u32 k : {0u, 1u, 2u, 4u, 5u})
        EXPECT_NEAR(c[k], 0.0, 1e-12) << k;
}

TEST(Chebyshev, ClenshawMatchesDirectSum)
{
    std::vector<double> c = {0.3, -1.2, 0.5, 0.01, -0.7};
    for (double x : {-0.9, -0.3, 0.0, 0.47, 1.0}) {
        // Direct via trig: T_k(cos t) = cos(k t).
        double t = std::acos(x);
        double want = 0;
        for (std::size_t k = 0; k < c.size(); ++k)
            want += c[k] * std::cos(k * t);
        EXPECT_NEAR(clenshawEval(c, x), want, 1e-12);
    }
}

TEST(Chebyshev, DegreeAutoSizing)
{
    // The least degree: it meets the target and its predecessor misses.
    // The last five are ApproxModEval's cosines at K_eff = 84 for
    // r = 5..9 double angles, at the bootstrap's 1e-13 target.
    struct Case
    {
        double freq, phase, target;
        u32 start;
    };
    std::vector<Case> cases = {{3.0, 0.0, 1e-8, 8}};
    for (u32 r = 5; r <= 9; ++r) {
        const double scale = std::ldexp(1.0, static_cast<int>(r));
        cases.push_back({84.0 / scale, -0.25 / scale, 1e-13, 16});
    }
    for (const Case &k : cases) {
        auto f = [&k](double x) {
            return std::cos(2 * std::numbers::pi * (k.freq * x + k.phase));
        };
        u32 d = chebyshevDegreeFor(f, k.target, k.start);
        EXPECT_LT(chebyshevMaxError(f, chebyshevInterpolate(f, d)),
                  k.target)
            << "freq " << k.freq;
        EXPECT_GE(chebyshevMaxError(f, chebyshevInterpolate(f, d - 1)),
                  k.target)
            << "freq " << k.freq << ": degree " << d << " is not least";
        EXPECT_LE(d, 128u);
    }
}

TEST(Chebyshev, DivisionReconstructs)
{
    // c = q * T_t + r must hold as functions on [-1, 1].
    std::vector<double> c(40);
    for (std::size_t i = 0; i < c.size(); ++i)
        c[i] = std::sin(0.8 * i) / (1.0 + i);
    for (u32 t : {8u, 16u, 32u}) {
        auto [q, r] = chebyshevDivide(c, t);
        for (double x : {-0.83, -0.21, 0.0, 0.4, 0.99}) {
            double tt = std::cos(t * std::acos(x));
            double got = clenshawEval(q, x) * tt + clenshawEval(r, x);
            EXPECT_NEAR(got, clenshawEval(c, x), 1e-10)
                << "t=" << t << " x=" << x;
        }
    }
}

TEST(Chebyshev, DepthEstimateIsMonotonic)
{
    u32 prev = 0;
    for (u32 d : {4u, 8u, 16u, 32u, 64u, 128u, 256u}) {
        u32 depth = chebyshevDepth(d);
        EXPECT_GE(depth, prev);
        prev = depth;
        EXPECT_LE(depth, 2 * log2Floor(d) + 4);
    }
    // The (levels, products) the Bootstrapper weighs at K_eff = 84:
    // degrees 41, 28, 20, 16 and 12 for r = 5..9 double angles.
    const std::pair<u32, ChebyshevCost> table[] = {
        {41, {6, 14}}, {28, {5, 11}}, {20, {5, 10}},
        {16, {5, 10}}, {12, {4, 7}},  {64, {7, 21}}};
    for (const auto &[d, want] : table) {
        const ChebyshevCost got = chebyshevCost(d);
        EXPECT_EQ(got.depth, want.depth) << "degree " << d;
        EXPECT_EQ(got.products, want.products) << "degree " << d;
    }
}

class ChebHomomorphic : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        Parameters p;
        p.logN = 11;
        p.multDepth = 12;
        p.logDelta = 40;
        p.dnum = 3;
        p.firstModBits = 55;
        p.specialModBits = 55;
        ctx = new Context(p);
        keygen = new KeyGen(*ctx);
        keys = new KeyBundle(keygen->makeBundle({}));
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
    encryptValues(const std::vector<double> &xs) const
    {
        Encoder enc(*ctx);
        Encryptor encr(*ctx, keys->pk);
        std::vector<std::complex<double>> z(xs.size());
        for (std::size_t i = 0; i < xs.size(); ++i)
            z[i] = {xs[i], 0.0};
        return encr.encrypt(enc.encode(z, xs.size(), ctx->maxLevel()));
    }

    std::vector<double>
    decryptValues(const Ciphertext &ct) const
    {
        Encoder enc(*ctx);
        Encryptor encr(*ctx, keys->pk);
        auto z = enc.decode(encr.decrypt(ct, keygen->secretKey()));
        std::vector<double> out(z.size());
        for (std::size_t i = 0; i < z.size(); ++i)
            out[i] = z[i].real();
        return out;
    }

    static Context *ctx;
    static KeyGen *keygen;
    static KeyBundle *keys;
    static Evaluator *eval;
};

Context *ChebHomomorphic::ctx = nullptr;
KeyGen *ChebHomomorphic::keygen = nullptr;
KeyBundle *ChebHomomorphic::keys = nullptr;
Evaluator *ChebHomomorphic::eval = nullptr;

TEST_F(ChebHomomorphic, LowDegreeSeries)
{
    std::vector<double> xs = {-0.9, -0.4, 0.0, 0.3, 0.77, 1.0, -1.0,
                              0.123};
    // A fixed degree-5 series, then one of every degree the
    // Bootstrapper can pick: each drops exactly chebyshevDepth(d)
    // levels and matches the Clenshaw oracle.
    std::vector<std::vector<double>> series = {
        {0.25, -0.8, 0.3, 0.05, -0.12, 0.07}};
    for (u32 d = 1; d <= 64; ++d) {
        std::vector<double> c(d + 1);
        for (u32 i = 0; i <= d; ++i)
            c[i] = std::sin(0.8 * i + 0.3) / (1.0 + i);
        series.push_back(std::move(c));
    }
    const auto ct = encryptValues(xs);
    for (const auto &c : series) {
        const u32 d = static_cast<u32>(c.size() - 1);
        auto out = evalChebyshevSeries(*eval, ct, c);
        EXPECT_EQ(ct.level() - out.level(), chebyshevDepth(d))
            << "degree " << d;
        auto got = decryptValues(out);
        for (std::size_t i = 0; i < xs.size(); ++i)
            ASSERT_NEAR(got[i], clenshawEval(c, xs[i]), 1e-4)
                << "degree " << d << " x=" << xs[i];
    }
}

TEST_F(ChebHomomorphic, ModerateDegreeCosine)
{
    auto f = [](double x) {
        return std::cos(2 * std::numbers::pi * x) * 0.5;
    };
    auto c = chebyshevInterpolate(f, 59);
    std::vector<double> xs = {-1.0, -0.66, -0.31, 0.0, 0.25, 0.5,
                              0.82, 1.0};
    auto ct = encryptValues(xs);
    auto out = evalChebyshevSeries(*eval, ct, c);
    auto got = decryptValues(out);
    for (std::size_t i = 0; i < xs.size(); ++i)
        ASSERT_NEAR(got[i], f(xs[i]), 1e-3) << "x=" << xs[i];
}

TEST_F(ChebHomomorphic, CanonicalHelpersKeepScaleChain)
{
    std::vector<double> xs(8, 0.5);
    auto ct = encryptValues(xs);
    EXPECT_TRUE(eval->isCanonical(ct));
    auto sq = eval->squareC(ct);
    EXPECT_TRUE(eval->isCanonical(sq));
    auto sum = eval->addC(sq, ct); // different levels: auto-aligned
    EXPECT_TRUE(eval->isCanonical(sum));
    auto got = decryptValues(sum);
    for (double g : got)
        ASSERT_NEAR(g, 0.75, 1e-4);
}

TEST_F(ChebHomomorphic, ToCanonicalLevelPreservesValues)
{
    std::vector<double> xs = {0.1, -0.7, 0.9, 0.33};
    auto ct = encryptValues(xs);
    eval->toCanonicalLevel(ct, ct.level() - 3);
    EXPECT_TRUE(eval->isCanonical(ct));
    auto got = decryptValues(ct);
    for (std::size_t i = 0; i < xs.size(); ++i)
        ASSERT_NEAR(got[i], xs[i], 1e-5);
}

} // namespace
} // namespace fideslib::ckks
