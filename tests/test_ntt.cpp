/**
 * @file
 * Tests for the negacyclic NTT: round trips, agreement with the naive
 * O(n^2) evaluation, the hierarchical schedule's bit-exact equivalence
 * to the flat schedule, the flat schedule's AVX-512 kernel against its
 * scalar loop, and the convolution property that CKKS relies on
 * (pointwise product in evaluation domain == negacyclic convolution
 * in coefficient domain).
 */

#include <gtest/gtest.h>

#include "core/ntt.hpp"
#include "core/primes.hpp"
#include "core/rng.hpp"
#include "ref/refntt.hpp"

namespace fideslib
{
namespace
{

struct NttSetup
{
    Modulus mod;
    NttTables tables;

    NttSetup(std::size_t n, u32 bits, u64 seed)
        : mod(generatePrimeBelow(bits, 2 * n)),
          tables(n, mod, findPrimitiveRoot(2 * n, mod))
    {
        (void)seed;
    }
};

std::vector<u64>
randomPoly(Prng &prng, std::size_t n, u64 q)
{
    std::vector<u64> a(n);
    sampleUniform(prng, q, a);
    return a;
}

class NttParam : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NttParam, ForwardInverseRoundTrip)
{
    std::size_t n = GetParam();
    NttSetup s(n, 59, 1);
    Prng prng(n);
    auto a = randomPoly(prng, n, s.mod.value);
    auto b = a;
    nttForward(b.data(), s.tables);
    nttInverse(b.data(), s.tables);
    EXPECT_EQ(a, b);
}

TEST_P(NttParam, ForwardMatchesNaiveEvaluation)
{
    std::size_t n = GetParam();
    NttSetup s(n, 49, 2);
    Prng prng(n + 1);
    auto a = randomPoly(prng, n, s.mod.value);
    auto naive = nttNaive(a, s.tables);
    auto fast = a;
    nttForward(fast.data(), s.tables);
    EXPECT_EQ(naive, fast);
}

TEST_P(NttParam, HierarchicalForwardBitExact)
{
    std::size_t n = GetParam();
    NttSetup s(n, 59, 3);
    Prng prng(n + 2);
    auto a = randomPoly(prng, n, s.mod.value);
    auto flat = a;
    auto hier = a;
    nttForward(flat.data(), s.tables);
    nttForwardHierarchical(hier.data(), s.tables);
    EXPECT_EQ(flat, hier);
}

TEST_P(NttParam, HierarchicalInverseBitExact)
{
    std::size_t n = GetParam();
    NttSetup s(n, 59, 4);
    Prng prng(n + 3);
    auto a = randomPoly(prng, n, s.mod.value);
    auto flat = a;
    auto hier = a;
    nttInverse(flat.data(), s.tables);
    nttInverseHierarchical(hier.data(), s.tables);
    EXPECT_EQ(flat, hier);
}

TEST_P(NttParam, HierarchicalRoundTrip)
{
    std::size_t n = GetParam();
    NttSetup s(n, 55, 5);
    Prng prng(n + 4);
    auto a = randomPoly(prng, n, s.mod.value);
    auto b = a;
    nttForwardHierarchical(b.data(), s.tables);
    nttInverseHierarchical(b.data(), s.tables);
    EXPECT_EQ(a, b);
}

TEST_P(NttParam, OutputsAreFullyReduced)
{
    std::size_t n = GetParam();
    NttSetup s(n, 60, 6);
    Prng prng(n + 5);
    auto a = randomPoly(prng, n, s.mod.value);
    nttForward(a.data(), s.tables);
    for (u64 v : a)
        ASSERT_LT(v, s.mod.value);
    nttInverse(a.data(), s.tables);
    for (u64 v : a)
        ASSERT_LT(v, s.mod.value);
}

INSTANTIATE_TEST_SUITE_P(Degrees, NttParam,
                         ::testing::Values(4u, 8u, 16u, 64u, 128u, 256u,
                                           1024u, 4096u, 8192u));

/**
 * The Flat schedule's two kernels: the AVX-512 one must reproduce the
 * scalar loop bit for bit, forward and inverse, at every degree from
 * its 16-element minimum up to 2^17 and at prime widths from 30 to 61
 * bits, on random limbs and on the edge limbs all 0, all p - 1 and
 * alternating 0 / p - 1.
 */
class NttKernelParam : public ::testing::TestWithParam<std::size_t>
{
  protected:
    void SetUp() override
    {
        if (!nttAvx512Supported())
            GTEST_SKIP() << "CPU lacks avx512f + avx512dq";
    }

    /** Random, all-zero, all-(p-1) and alternating 0 / p-1 limbs. */
    static std::vector<std::vector<u64>>
    limbs(std::size_t n, u64 p, u64 seed)
    {
        Prng prng(seed);
        std::vector<std::vector<u64>> out = {randomPoly(prng, n, p),
                                             std::vector<u64>(n, 0),
                                             std::vector<u64>(n, p - 1),
                                             std::vector<u64>(n, 0)};
        for (std::size_t j = 1; j < n; j += 2)
            out[3][j] = p - 1;
        return out;
    }

    static constexpr u32 kBits[] = {30, 36, 49, 55, 60, 61};
};

TEST_P(NttKernelParam, Avx512ForwardMatchesScalar)
{
    const std::size_t n = GetParam();
    for (u32 bits : kBits) {
        NttSetup s(n, bits, 20);
        for (const auto &a : limbs(n, s.mod.value, n + bits)) {
            auto want = a;
            nttForwardScalar(want.data(), s.tables);
            auto got = a;
            nttForwardAvx512(got.data(), s.tables);
            ASSERT_EQ(want, got) << "n=" << n << " bits=" << bits;
        }
    }
}

TEST_P(NttKernelParam, Avx512InverseMatchesScalar)
{
    const std::size_t n = GetParam();
    for (u32 bits : kBits) {
        NttSetup s(n, bits, 21);
        for (const auto &a : limbs(n, s.mod.value, 2 * n + bits)) {
            auto want = a;
            nttInverseScalar(want.data(), s.tables);
            auto got = a;
            nttInverseAvx512(got.data(), s.tables);
            ASSERT_EQ(want, got) << "n=" << n << " bits=" << bits;
        }
    }
}

TEST_P(NttKernelParam, Avx512RoundTripIsIdentity)
{
    const std::size_t n = GetParam();
    for (u32 bits : kBits) {
        NttSetup s(n, bits, 22);
        for (const auto &a : limbs(n, s.mod.value, 3 * n + bits)) {
            auto b = a;
            nttForwardAvx512(b.data(), s.tables);
            nttInverseAvx512(b.data(), s.tables);
            ASSERT_EQ(a, b) << "n=" << n << " bits=" << bits;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Degrees, NttKernelParam,
                         ::testing::Values(16u, 32u, 1024u, 1u << 14,
                                           1u << 16, 1u << 17));

/**
 * Both NttVariants -- Flat and the Figure 3/4 Hierarchical reference
 * -- must be bit-exact against the independently derived reference
 * NTT (src/ref/refntt), forward and inverse, across degrees
 * 2^10..2^14 and several prime widths.
 */
class NttZooParam : public ::testing::TestWithParam<std::size_t>
{
  protected:
    static std::vector<NttVariant> variants()
    {
        return {NttVariant::Flat, NttVariant::Hierarchical};
    }
};

TEST_P(NttZooParam, EveryVariantMatchesReferenceForward)
{
    const std::size_t n = GetParam();
    for (u32 bits : {45u, 54u, 59u}) {
        NttSetup s(n, bits, 10);
        Prng prng(n + bits);
        const auto a = randomPoly(prng, n, s.mod.value);
        auto expect = a;
        ref::refNttForward(expect, s.mod, s.tables.psi());
        for (NttVariant v : variants()) {
            auto got = a;
            nttForwardVariant(got.data(), s.tables, v);
            ASSERT_EQ(expect, got)
                << "variant=" << nttVariantName(v) << " n=" << n
                << " bits=" << bits;
        }
    }
}

TEST_P(NttZooParam, EveryVariantMatchesReferenceInverse)
{
    const std::size_t n = GetParam();
    for (u32 bits : {45u, 54u, 59u}) {
        NttSetup s(n, bits, 11);
        Prng prng(2 * n + bits);
        const auto a = randomPoly(prng, n, s.mod.value);
        auto expect = a;
        ref::refNttInverse(expect, s.mod, s.tables.psi());
        for (NttVariant v : variants()) {
            auto got = a;
            nttInverseVariant(got.data(), s.tables, v);
            ASSERT_EQ(expect, got)
                << "variant=" << nttVariantName(v) << " n=" << n
                << " bits=" << bits;
        }
    }
}

TEST_P(NttZooParam, EveryVariantRoundTrips)
{
    const std::size_t n = GetParam();
    NttSetup s(n, 59, 12);
    Prng prng(3 * n);
    const auto a = randomPoly(prng, n, s.mod.value);
    for (NttVariant fwd : variants()) {
        for (NttVariant inv : variants()) {
            auto b = a;
            nttForwardVariant(b.data(), s.tables, fwd);
            nttInverseVariant(b.data(), s.tables, inv);
            ASSERT_EQ(a, b) << "fwd=" << nttVariantName(fwd)
                            << " inv=" << nttVariantName(inv)
                            << " n=" << n;
        }
    }
}

TEST_P(NttZooParam, VariantOutputsAreFullyReduced)
{
    const std::size_t n = GetParam();
    NttSetup s(n, 60, 14);
    Prng prng(5 * n);
    const auto a = randomPoly(prng, n, s.mod.value);
    for (NttVariant v : variants()) {
        auto fwd = a;
        nttForwardVariant(fwd.data(), s.tables, v);
        for (u64 x : fwd)
            ASSERT_LT(x, s.mod.value) << nttVariantName(v);
        auto inv = a;
        nttInverseVariant(inv.data(), s.tables, v);
        for (u64 x : inv)
            ASSERT_LT(x, s.mod.value) << nttVariantName(v);
    }
}

INSTANTIATE_TEST_SUITE_P(Degrees, NttZooParam,
                         ::testing::Values(1024u, 2048u, 4096u, 8192u,
                                           16384u));

TEST(NttZoo, SmallDegreesMatchNaive)
{
    // Tiny transforms straddle the AVX-512 kernel's degree-16
    // minimum: below it Flat runs the scalar loop, from it the vector
    // kernel, whose even/odd logN stage pairing differs at 16 and 32.
    for (std::size_t n : {2u, 4u, 8u, 16u, 32u, 64u, 128u, 256u}) {
        NttSetup s(n, 49, 15);
        Prng prng(n + 7);
        const auto a = randomPoly(prng, n, s.mod.value);
        const auto naive = nttNaive(a, s.tables);
        for (NttVariant v : {NttVariant::Flat, NttVariant::Hierarchical}) {
            auto fwd = a;
            nttForwardVariant(fwd.data(), s.tables, v);
            ASSERT_EQ(naive, fwd)
                << "variant=" << nttVariantName(v) << " n=" << n;
            auto rt = fwd;
            nttInverseVariant(rt.data(), s.tables, v);
            ASSERT_EQ(a, rt)
                << "variant=" << nttVariantName(v) << " n=" << n;
        }
    }
}

/** Schoolbook negacyclic product used as the convolution oracle. */
std::vector<u64>
negacyclicMul(const std::vector<u64> &a, const std::vector<u64> &b,
              const Modulus &m)
{
    std::size_t n = a.size();
    std::vector<u64> c(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            u64 prod = mulModNaive(a[i], b[j], m.value);
            std::size_t k = i + j;
            if (k < n) {
                c[k] = addMod(c[k], prod, m.value);
            } else {
                c[k - n] = subMod(c[k - n], prod, m.value);
            }
        }
    }
    return c;
}

TEST(Ntt, ConvolutionProperty)
{
    for (std::size_t n : {8u, 32u, 128u}) {
        NttSetup s(n, 50, 7);
        Prng prng(n + 6);
        auto a = randomPoly(prng, n, s.mod.value);
        auto b = randomPoly(prng, n, s.mod.value);
        auto expect = negacyclicMul(a, b, s.mod);

        nttForward(a.data(), s.tables);
        nttForward(b.data(), s.tables);
        std::vector<u64> c(n);
        for (std::size_t i = 0; i < n; ++i)
            c[i] = mulModNaive(a[i], b[i], s.mod.value);
        nttInverse(c.data(), s.tables);
        EXPECT_EQ(c, expect) << "n=" << n;
    }
}

TEST(Ntt, LinearityUnderAddition)
{
    std::size_t n = 512;
    NttSetup s(n, 59, 8);
    Prng prng(77);
    auto a = randomPoly(prng, n, s.mod.value);
    auto b = randomPoly(prng, n, s.mod.value);
    std::vector<u64> sum(n);
    for (std::size_t i = 0; i < n; ++i)
        sum[i] = addMod(a[i], b[i], s.mod.value);
    nttForward(a.data(), s.tables);
    nttForward(b.data(), s.tables);
    nttForward(sum.data(), s.tables);
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(sum[i], addMod(a[i], b[i], s.mod.value));
}

TEST(Ntt, MonomialTimesPolyShifts)
{
    // Multiplying by X in eval domain then returning must equal a
    // negacyclic shift: [a_0..a_{n-1}] -> [-a_{n-1}, a_0, ...].
    std::size_t n = 64;
    NttSetup s(n, 45, 9);
    Prng prng(99);
    auto a = randomPoly(prng, n, s.mod.value);
    std::vector<u64> x(n, 0);
    x[1] = 1;
    auto av = a, xv = x;
    nttForward(av.data(), s.tables);
    nttForward(xv.data(), s.tables);
    std::vector<u64> c(n);
    for (std::size_t i = 0; i < n; ++i)
        c[i] = mulModNaive(av[i], xv[i], s.mod.value);
    nttInverse(c.data(), s.tables);
    EXPECT_EQ(c[0], negMod(a[n - 1], s.mod.value));
    for (std::size_t i = 1; i < n; ++i)
        ASSERT_EQ(c[i], a[i - 1]);
}

} // namespace
} // namespace fideslib
