/**
 * @file
 * Tests for the crypto-context: prime chain properties, digit
 * partitioning, conversion-table consistency, and automorphism
 * permutation structure.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "ckks/context.hpp"
#include "ckks/encryptor.hpp"
#include "ckks/evaluator.hpp"
#include "ckks/graph.hpp"
#include "ckks/keygen.hpp"
#include "core/primes.hpp"

namespace fideslib::ckks
{
namespace
{

TEST(Context, PrimeChainShape)
{
    Context ctx(Parameters::testSmall());
    const auto &p = ctx.params();
    EXPECT_EQ(ctx.numPrimes(), p.multDepth + 1 + ctx.numSpecial());
    std::set<u64> seen;
    for (u32 i = 0; i < ctx.numPrimes(); ++i) {
        u64 q = ctx.prime(i).value();
        EXPECT_TRUE(isPrime(q));
        EXPECT_EQ(q % (2 * ctx.degree()), 1u);
        EXPECT_TRUE(seen.insert(q).second);
        EXPECT_EQ(ctx.prime(i).special, i > p.multDepth);
    }
    // q0 close to 2^firstModBits, scaling primes close to Delta.
    EXPECT_NEAR(std::log2((double)ctx.qMod(0).value),
                p.firstModBits, 0.2);
    for (u32 i = 1; i <= p.multDepth; ++i)
        EXPECT_NEAR(std::log2((double)ctx.qMod(i).value), p.logDelta,
                    0.2);
}

TEST(Context, DigitPartitioning)
{
    Parameters p = Parameters::testSmall(); // L=4, dnum=2 -> alpha=3
    Context ctx(p);
    EXPECT_EQ(ctx.digitSize(), (p.multDepth + p.dnum) / p.dnum);
    EXPECT_EQ(ctx.numDigits(ctx.maxLevel()), p.dnum);
    EXPECT_EQ(ctx.numDigits(0), 1u);
    // Active digits shrink as levels are consumed (Figure 6 staircase).
    u32 prev = ctx.numDigits(ctx.maxLevel());
    for (i64 l = ctx.maxLevel(); l >= 0; --l) {
        u32 d = ctx.numDigits(l);
        EXPECT_LE(d, prev);
        prev = d;
    }
}

TEST(Context, ModUpTablesPartitionAndCover)
{
    Context ctx(Parameters::testSmall());
    for (u32 l = 0; l <= ctx.maxLevel(); ++l) {
        std::set<u32> covered;
        for (u32 j = 0; j < ctx.numDigits(l); ++j) {
            const auto &t = ctx.modUpTables(l, j);
            EXPECT_FALSE(t.sourceIdx.empty());
            // Target = complement q-limbs + all special limbs.
            EXPECT_EQ(t.targetIdx.size(),
                      l + 1 - t.sourceIdx.size() + ctx.numSpecial());
            for (u32 s : t.sourceIdx) {
                EXPECT_LE(s, l);
                EXPECT_TRUE(covered.insert(s).second);
            }
        }
        EXPECT_EQ(covered.size(), l + 1u);
    }
}

TEST(Context, ConvTableValuesSatisfyCrtIdentities)
{
    Context ctx(Parameters::testSmall());
    const auto &t = ctx.modUpTables(ctx.maxLevel(), 0);
    // sHatInv[i] * sHat_i = 1 mod s_i; verify via sHatModT of a
    // source prime viewed... instead check against direct BigInt math.
    BigInt prod(1);
    for (u32 s : t.sourceIdx)
        prod.mulWord(ctx.prime(s).value());
    for (std::size_t i = 0; i < t.sourceIdx.size(); ++i) {
        const Modulus &si = ctx.prime(t.sourceIdx[i]).mod;
        BigInt sHat = prod;
        EXPECT_EQ(sHat.divWord(si.value), 0u);
        u64 shatModSi = sHat.modWord(si);
        EXPECT_EQ(mulModBarrett(shatModSi, t.sHatInv[i], si), 1u);
        for (std::size_t d = 0; d < t.targetIdx.size(); ++d) {
            const Modulus &td = ctx.prime(t.targetIdx[d]).mod;
            EXPECT_EQ(t.sHatModT[i * t.targetIdx.size() + d],
                      sHat.modWord(td));
        }
    }
}

TEST(Context, PInverseIdentities)
{
    Context ctx(Parameters::testSmall());
    for (u32 i = 0; i <= ctx.maxLevel(); ++i) {
        const Modulus &qi = ctx.qMod(i);
        EXPECT_EQ(mulModBarrett(ctx.pModQ(i), ctx.pInvModQ(i), qi), 1u);
    }
}

TEST(Context, RescaleInverseIdentities)
{
    Context ctx(Parameters::testSmall());
    for (u32 l = 1; l <= ctx.maxLevel(); ++l) {
        for (u32 i = 0; i < l; ++i) {
            const Modulus &qi = ctx.qMod(i);
            u64 ql = ctx.qMod(l).value % qi.value;
            EXPECT_EQ(mulModBarrett(ql, ctx.qlInvModQ(l, i), qi), 1u);
        }
    }
}

TEST(Context, AutomorphPermIsPermutation)
{
    Context ctx(Parameters::testSmall());
    for (u64 g : {ctx.rotationGaloisElt(1), ctx.rotationGaloisElt(7),
                  ctx.conjugateGaloisElt()}) {
        const auto &perm = ctx.automorphPerm(g);
        ASSERT_EQ(perm.size(), ctx.degree());
        std::set<u32> seen(perm.begin(), perm.end());
        EXPECT_EQ(seen.size(), ctx.degree());
    }
}

TEST(Context, AutomorphIdentityElement)
{
    Context ctx(Parameters::testSmall());
    const auto &perm = ctx.automorphPerm(1);
    for (std::size_t j = 0; j < perm.size(); ++j)
        ASSERT_EQ(perm[j], j);
}

TEST(Context, RotationGaloisComposition)
{
    Context ctx(Parameters::testSmall());
    const u64 twoN = 2 * ctx.degree();
    u64 g1 = ctx.rotationGaloisElt(1);
    u64 g3 = ctx.rotationGaloisElt(3);
    EXPECT_EQ(g1 * g1 % twoN * g1 % twoN, g3);
    // Rotation by 0 and by slots wraps to identity.
    EXPECT_EQ(ctx.rotationGaloisElt(0), 1u);
    EXPECT_EQ(ctx.rotationGaloisElt(ctx.degree() / 2), 1u);
    // Negative rotations invert.
    u64 gm1 = ctx.rotationGaloisElt(-1);
    EXPECT_EQ(g1 * gm1 % twoN, 1u);
}

TEST(Context, LevelScaleChainIdentity)
{
    Context ctx(Parameters::testSmall());
    const auto &p = ctx.params();
    EXPECT_EQ((double)ctx.levelScale(p.multDepth),
              (double)ctx.defaultScale());
    for (u32 l = p.multDepth; l > 0; --l) {
        long double lhs = ctx.levelScale(l - 1)
                        * static_cast<long double>(ctx.qMod(l).value);
        long double rhs = ctx.levelScale(l) * ctx.levelScale(l);
        EXPECT_NEAR((double)(lhs / rhs), 1.0, 1e-15) << "level " << l;
    }
    // Prime alternation keeps every canonical scale near Delta.
    for (u32 l = 0; l <= p.multDepth; ++l) {
        EXPECT_NEAR(std::log2((double)ctx.levelScale(l)),
                    (double)p.logDelta, 0.5)
            << "level " << l;
    }
}

TEST(Context, RegistrySingleton)
{
    Context ctx(Parameters::testSmall());
    Context::setCurrent(&ctx);
    EXPECT_EQ(&Context::current(), &ctx);
    Context::setCurrent(nullptr);
}

TEST(Context, BackendConfigMutable)
{
    Context ctx(Parameters::testSmall());
    ctx.setLimbBatch(3);
    EXPECT_EQ(ctx.limbBatch(), 3u);
    ctx.setFusion(false);
    EXPECT_FALSE(ctx.fusionEnabled());
    ctx.setModMulKind(ModMulKind::Naive);
    EXPECT_EQ(ctx.modMulKind(), ModMulKind::Naive);
}

TEST(Context, PerfbenchNttShimsRunFlat)
{
    // perfbench's NTT probe and its per-setup "ntt segment" line make
    // exactly these calls; every op runs nttForward / nttInverse.
    Context ctx(Parameters::testSmall());
    const NttTables &t = *ctx.prime(0).ntt;
    const u64 q = ctx.prime(0).value();
    std::vector<u64> in(ctx.degree());
    for (std::size_t j = 0; j < in.size(); ++j)
        in[j] = (j * 0x9E3779B97F4A7C15ULL) % q;
    std::vector<u64> fwd = in, inv = in;
    nttForward(fwd.data(), t);
    nttInverse(inv.data(), t);

    EXPECT_FALSE(ctx.nttStats().tuned);
    for (std::size_t limbs : {1u, 3u, 64u, 1000u}) {
        const NttChoice c = ctx.nttChoiceFor(limbs);
        EXPECT_EQ(c.fwd, NttVariant::Flat) << limbs;
        EXPECT_EQ(c.inv, NttVariant::Flat) << limbs;
        EXPECT_STREQ(nttVariantName(c.fwd), "flat");
        EXPECT_STREQ(nttVariantName(c.inv), "flat");
        std::vector<u64> buf = in;
        nttForwardVariant(buf.data(), t, c.fwd, c.fwdColBlock);
        EXPECT_EQ(buf, fwd) << limbs;
        buf = in;
        nttInverseVariant(buf.data(), t, c.inv, c.invColBlock);
        EXPECT_EQ(buf, inv) << limbs;
    }
}

TEST(Context, PerfbenchPlanShimsReadZero)
{
    // perfbench's plan metrics make exactly these calls. Every op
    // dispatches live, so after repeated HMults they still read 0.
    Parameters p = Parameters::testSmall();
    p.numDevices = 2;
    p.streamsPerDevice = 2;
    Context ctx(p);
    KeyGen keygen(ctx);
    KeyBundle keys = keygen.makeBundle({});
    Evaluator eval(ctx, keys);
    Encoder enc(ctx);
    Encryptor encr(ctx, keys.pk);
    const u32 slots = static_cast<u32>(ctx.degree() / 2);
    std::vector<std::complex<double>> z(slots, {0.5, 0.25});
    Ciphertext x = encr.encrypt(enc.encode(z, slots, ctx.maxLevel()));
    for (int i = 0; i < 2; ++i)
        eval.multiply(x, x).syncHost();

    EXPECT_EQ(ctx.devices().planReplays(), 0u);
    EXPECT_EQ(ctx.planStats().misses, 0u);
    const kernels::PlanCacheStats ps = ctx.planStats();
    EXPECT_EQ(ps.keys.size(), 0u);
    EXPECT_EQ(ps.reservedBytes, 0u);
    EXPECT_EQ(ps.hits, 0u);
}

TEST(Context, PaperParameterSetsConstruct)
{
    // Construct the Figure 8 sets (except logN=16, which is heavy for
    // a unit test) and sanity-check shapes.
    for (auto p : {Parameters::paper13(), Parameters::paper14()}) {
        Context ctx(p);
        EXPECT_EQ(ctx.degree(), p.ringDegree());
        EXPECT_EQ(ctx.maxLevel(), p.multDepth);
        EXPECT_EQ(ctx.numDigits(ctx.maxLevel()), p.dnum);
    }
}

TEST(ContextDeathTest, MoreThan64AccumulatedTermsRejected)
{
    // Conv sums digitSize() products of residues below 2^61 in one
    // 128-bit accumulator and the key-switch inner product sums dnum
    // of them; past 64 terms the sum can overflow silently.
    Parameters p = Parameters::testSmall();
    p.multDepth = 63;
    p.dnum = 1;
    EXPECT_EQ(p.digitSize(), 64u);
    p.validate(); // exactly 64 terms: accepted

    p.multDepth = 70; // digit size 71
    EXPECT_DEATH(p.validate(), "digit size 71");
    p.dnum = 65; // digit size 2, but 65 digits
    EXPECT_DEATH(p.validate(), "dnum=65 exceeds 64");
}

} // namespace
} // namespace fideslib::ckks
