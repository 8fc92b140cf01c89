/**
 * @file
 * Direct tests of the RNS machinery: fast base conversion exactness
 * for small inputs, ModUp residue preservation, ModDown division, the
 * ModRaise lift, and rescale's fused/unfused equivalence.
 */

#include <gtest/gtest.h>

#include "ckks/basechange.hpp"
#include "ckks/kernels.hpp"
#include "core/rng.hpp"

namespace fideslib::ckks
{
namespace
{

class RnsTest : public ::testing::Test
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
    static Context *ctx;
};

Context *RnsTest::ctx = nullptr;

/** Poly with the same small signed value pattern in every limb. */
RNSPoly
smallPoly(const Context &ctx, u32 level, u64 seed, u64 bound,
          u32 special = 0)
{
    Prng prng(seed);
    RNSPoly p(ctx, level, Format::Coeff, special);
    std::vector<i64> vals(ctx.degree());
    for (auto &v : vals) {
        v = static_cast<i64>(prng.uniform(2 * bound + 1)) -
            static_cast<i64>(bound);
    }
    for (std::size_t i = 0; i < p.numLimbs(); ++i) {
        u64 q = ctx.prime(p.primeIdxAt(i)).value();
        u64 *x = p.limb(i).data();
        for (std::size_t j = 0; j < ctx.degree(); ++j) {
            i64 v = vals[j];
            x[j] = v >= 0 ? static_cast<u64>(v)
                          : q - static_cast<u64>(-v);
        }
    }
    return p;
}

TEST_F(RnsTest, ConvertIsExactUpToSmallMultipleOfSourceModulus)
{
    // Fast base conversion (Eq. 1) computes the representative of x
    // in [0, S) plus e*S for a small e in [0, #source): verify the
    // output is exactly (v mod S) + e*S modulo each target prime.
    const u32 level = ctx->maxLevel();
    auto poly = smallPoly(*ctx, level, 42, 1000);
    const auto &tables = ctx->modUpTables(level, 0);

    std::vector<const u64 *> src;
    for (u32 gi : tables.sourceIdx)
        src.push_back(poly.limb(gi).data());
    std::vector<std::vector<u64>> out(tables.targetIdx.size(),
                                      std::vector<u64>(ctx->degree()));
    std::vector<u64 *> dst;
    for (auto &v : out)
        dst.push_back(v.data());
    convert(*ctx, src, tables, dst);

    BigInt bigS(1);
    for (u32 gi : tables.sourceIdx)
        bigS.mulWord(ctx->prime(gi).value());

    const u64 q0 = ctx->prime(tables.sourceIdx[0]).value();
    for (std::size_t t = 0; t < tables.targetIdx.size(); ++t) {
        const Modulus &m = ctx->prime(tables.targetIdx[t]).mod;
        const u64 sModP = bigS.modWord(m);
        const u64 *got = out[t].data();
        const u64 *ref = poly.limb(tables.sourceIdx[0]).data();
        for (std::size_t j = 0; j < ctx->degree(); ++j) {
            // Recover the signed value from the first source limb and
            // form its nonnegative representative mod S.
            i64 v = ref[j] > q0 / 2 ? static_cast<i64>(ref[j]) -
                                          static_cast<i64>(q0)
                                    : static_cast<i64>(ref[j]);
            u64 base = v >= 0 ? static_cast<u64>(v) % m.value
                              : subMod(sModP,
                                       static_cast<u64>(-v) % m.value,
                                       m.value);
            bool found = false;
            u64 cand = base;
            for (std::size_t e = 0; e <= tables.sourceIdx.size();
                 ++e) {
                if (got[j] == cand) {
                    found = true;
                    break;
                }
                cand = addMod(cand, sModP, m.value);
            }
            ASSERT_TRUE(found) << "t=" << t << " j=" << j;
        }
    }
}

TEST_F(RnsTest, ModUpPreservesSourceResidues)
{
    const u32 level = ctx->maxLevel();
    auto poly = smallPoly(*ctx, level, 7, 1ULL << 30);
    auto polyEval = poly.clone();
    kernels::toEval(polyEval);
    auto raised = modUpDigit(polyEval, poly, 0);
    EXPECT_EQ(raised.level(), level);
    EXPECT_EQ(raised.numSpecial(), ctx->numSpecial());
    EXPECT_EQ(raised.format(), Format::Eval);

    kernels::toCoeff(raised);
    const auto &tables = ctx->modUpTables(level, 0);
    for (u32 gi : tables.sourceIdx) {
        const u64 *a = poly.limb(gi).data();
        const u64 *b = raised.limb(gi).data();
        for (std::size_t j = 0; j < ctx->degree(); ++j)
            ASSERT_EQ(a[j], b[j]);
    }
}

TEST_F(RnsTest, ModDownDividesByP)
{
    // Construct y = P * x for small x; ModDown(y) must return x
    // exactly (the rounding term vanishes when [y]_P = 0).
    const u32 level = 2;
    auto x = smallPoly(*ctx, level, 9, 1000, 0);
    RNSPoly y(*ctx, level, Format::Coeff, ctx->numSpecial());
    // y limbs: q-limb i = x_i * P mod q_i; special limbs = 0.
    y.setZero();
    for (u32 i = 0; i <= level; ++i) {
        const Modulus &m = ctx->qMod(i);
        const u64 *src = x.limb(i).data();
        u64 *dst = y.limb(i).data();
        u64 pmod = ctx->pModQ(i);
        for (std::size_t j = 0; j < ctx->degree(); ++j)
            dst[j] = mulModBarrett(src[j], pmod, m);
    }
    y.setFormat(Format::Coeff);
    kernels::toEval(y);
    modDown(y);
    EXPECT_EQ(y.numSpecial(), 0u);
    kernels::toCoeff(y);
    for (u32 i = 0; i <= level; ++i) {
        const u64 *a = x.limb(i).data();
        const u64 *b = y.limb(i).data();
        for (std::size_t j = 0; j < ctx->degree(); ++j)
            ASSERT_EQ(a[j], b[j]) << "limb " << i;
    }
}

TEST_F(RnsTest, ModRaiseAgreesModQ0)
{
    auto x = smallPoly(*ctx, 0, 11, 1ULL << 20);
    auto raised = modRaise(x, ctx->maxLevel());
    EXPECT_EQ(raised.level(), ctx->maxLevel());
    // Residues mod q0 unchanged; other limbs must equal the centered
    // lift of the q0 value.
    const u64 q0 = ctx->qMod(0).value;
    for (std::size_t j = 0; j < ctx->degree(); ++j) {
        u64 v0 = x.limb(0).data()[j];
        ASSERT_EQ(raised.limb(0).data()[j], v0);
        i64 centered = v0 > q0 / 2
                           ? static_cast<i64>(v0) - static_cast<i64>(q0)
                           : static_cast<i64>(v0);
        for (u32 i = 1; i <= ctx->maxLevel(); ++i) {
            u64 p = ctx->qMod(i).value;
            u64 want = centered >= 0
                           ? static_cast<u64>(centered) % p
                           : p - static_cast<u64>(-centered) % p;
            ASSERT_EQ(raised.limb(i).data()[j], want);
        }
    }
}

TEST_F(RnsTest, RescaleFusedAndUnfusedAgree)
{
    auto a = smallPoly(*ctx, ctx->maxLevel(), 13, 1ULL << 40);
    kernels::toEval(a);
    auto b = a.clone();

    ctx->setFusion(true);
    rescale(a);
    ctx->setFusion(false);
    rescale(b);
    ctx->setFusion(true);

    EXPECT_EQ(a.level(), ctx->maxLevel() - 1);
    for (std::size_t i = 0; i < a.numLimbs(); ++i) {
        const u64 *x = a.limb(i).data();
        const u64 *y = b.limb(i).data();
        for (std::size_t j = 0; j < ctx->degree(); ++j)
            ASSERT_EQ(x[j], y[j]);
    }
}

TEST_F(RnsTest, LimbBatchDoesNotChangeResults)
{
    auto a = smallPoly(*ctx, ctx->maxLevel(), 17, 1ULL << 40);
    kernels::toEval(a);
    auto b = a.clone();

    ctx->setLimbBatch(1);
    rescale(a);
    ctx->setLimbBatch(0);
    rescale(b);
    ctx->setLimbBatch(2);

    for (std::size_t i = 0; i < a.numLimbs(); ++i) {
        const u64 *x = a.limb(i).data();
        const u64 *y = b.limb(i).data();
        for (std::size_t j = 0; j < ctx->degree(); ++j)
            ASSERT_EQ(x[j], y[j]);
    }
}

} // namespace
} // namespace fideslib::ckks
