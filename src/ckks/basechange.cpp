#include "ckks/basechange.hpp"

#include <algorithm>
#include <cstring>

#include "ckks/kernels.hpp"
#include "core/logging.hpp"

namespace fideslib::ckks
{

namespace
{

constexpr std::size_t kConvBlock = 512; //!< coefficient tile size
constexpr u64 kWord = sizeof(u64);

/**
 * Computes target limbs [tLo, tHi) of the Conv matrix product
 * (Equation (1)): a limb-wise scaling by sHatInv followed by a
 * modular dot product per target, tiled over coefficients so the
 * scaled source values stay hot (the shared-memory caching of the
 * paper's kernel). Each simulated device computes its own share of
 * the targets, re-scaling the sources itself (the paper's replicated
 * multi-GPU partitioning of Conv).
 *
 * Exact tables (ConvTables::exact) add the centered form: per
 * coefficient, v = round(sum_i y_i / s_i) in double precision counts
 * the multiples of S in sum_i y_i (S/s_i), and v (-S mod t) joins the
 * same 128-bit tile, so the output is the source value's centered
 * residue in [-S/2, S/2). A misrounded v -- the fraction within about
 * ns^2 2^-52 of one half -- moves that output by S.
 */
void
convertTargets(const Context &ctx, const ConvTables &tables,
               const std::vector<const u64 *> &src,
               const std::vector<u64 *> &dst, std::size_t tLo,
               std::size_t tHi)
{
    const std::size_t n = ctx.degree();
    const std::size_t ns = tables.sourceIdx.size();
    const std::size_t nt = tables.targetIdx.size();
    const bool exact = tables.exact();

    std::vector<u64> scaled(ns * kConvBlock);
    std::vector<u128> acc(kConvBlock);
    std::vector<double> frac(exact ? kConvBlock : 0);
    std::vector<u64> over(exact ? kConvBlock : 0);
    for (std::size_t base = 0; base < n; base += kConvBlock) {
        const std::size_t cnt = std::min(kConvBlock, n - base);
        for (std::size_t i = 0; i < ns; ++i) {
            const u64 p = ctx.prime(tables.sourceIdx[i]).value();
            const u64 w = tables.sHatInv[i];
            const u64 ws = tables.sHatInvShoup[i];
            const u64 *s = src[i] + base;
            u64 *o = scaled.data() + i * kConvBlock;
            for (std::size_t j = 0; j < cnt; ++j)
                o[j] = mulModShoup(s[j], w, ws, p);
        }
        if (exact) {
            // The overflow count, rounded: the 0.5 start centers it.
            std::fill(frac.begin(), frac.begin() + cnt, 0.5);
            for (std::size_t i = 0; i < ns; ++i) {
                const u64 *si = scaled.data() + i * kConvBlock;
                const double inv = tables.sInv[i];
                for (std::size_t j = 0; j < cnt; ++j)
                    frac[j] += static_cast<double>(si[j]) * inv;
            }
            for (std::size_t j = 0; j < cnt; ++j)
                over[j] = static_cast<u64>(frac[j]);
        }
        for (std::size_t t = tLo; t < tHi; ++t) {
            // Sources outer, coefficients inner, into a 128-bit tile:
            // every multiply-add is independent instead of one serial
            // chain per coefficient. Reduced once per coefficient; the
            // sum of ns <= 64 products of residues below 2^61, plus
            // the exact form's v <= ns multiples of a residue, stays
            // below ns 2^122 (Parameters::validate bounds the digit
            // size at 63, so ns <= 64).
            const u64 *sv = scaled.data();
            const u64 w0 = tables.sHatModT[t];
            for (std::size_t j = 0; j < cnt; ++j)
                acc[j] = static_cast<u128>(sv[j]) * w0;
            for (std::size_t i = 1; i < ns; ++i) {
                const u64 *si = sv + i * kConvBlock;
                const u64 w = tables.sHatModT[i * nt + t];
                for (std::size_t j = 0; j < cnt; ++j)
                    acc[j] += static_cast<u128>(si[j]) * w;
            }
            if (exact) {
                const u64 w = tables.negSModT[t];
                for (std::size_t j = 0; j < cnt; ++j)
                    acc[j] += static_cast<u128>(over[j]) * w;
            }
            const Modulus &m = ctx.prime(tables.targetIdx[t]).mod;
            u64 *o = dst[t] + base;
            for (std::size_t j = 0; j < cnt; ++j)
                o[j] = barrettReduce128(acc[j], m);
        }
    }
}

/**
 * Launches Conv on the kernel engine. The sources are limbs
 * [srcFirst, srcFirst + ns) of @p from, read by every launch (a fixed
 * range). Target t lands in limb t of @p to, skipping the @p holeLen
 * limbs that start at @p srcFirst (ModUp's digit keeps its own limbs),
 * so the targets are declared as positional write spans around the
 * hole. Batch 0: one launch per device that owns targets, whatever
 * the limb batch -- each launch re-scales every source, so smaller
 * batches would only repeat that work. Each launch bills ns words
 * read and its targets' words written per coefficient, and
 * 2 ns + 2 integer ops per target coefficient; the exact form adds
 * 2 ns + 1 per coefficient for the overflow count and 2 per target
 * coefficient for its multiply-add. Conv counts no logical kernel.
 */
void
launchConv(const ConvTables &tables, const RNSPoly &from,
           std::size_t srcFirst, RNSPoly &to, std::size_t holeLen)
{
    check::ScopedLabel lbl("conv");
    const Context &ctx = from.context();
    const u64 n = ctx.degree();
    const std::size_t ns = tables.sourceIdx.size();
    const std::size_t nt = tables.targetIdx.size();
    FIDES_ASSERT(srcFirst <= nt && nt + holeLen == to.numLimbs());
    const LimbPartition &sp = from.partition();
    LimbPartition &tp = to.partition();
    std::vector<kernels::Dep> deps = {
        kernels::rdFixed(from, srcFirst, ns),
        kernels::wrSpan(to, 0, srcFirst)};
    if (srcFirst < nt)
        deps.push_back(
            kernels::wrSpan(to, srcFirst, nt - srcFirst, holeLen));
    const bool exact = tables.exact();
    kernels::launchBatches(ctx, nt, 0,
                           [n, ns, exact](std::size_t lo,
                                          std::size_t hi) {
        const u64 targets = hi - lo;
        u64 ops = targets * n * (2 * ns + 2);
        if (exact)
            ops += n * (2 * ns + 1) + targets * n * 2;
        return kernels::LimbCost{ns * n * kWord, targets * n * kWord,
                                 ops};
    }, [&ctx, &tables, &sp, &tp, srcFirst, holeLen, ns,
        nt](std::size_t lo, std::size_t hi) {
        std::vector<const u64 *> src(ns);
        for (std::size_t i = 0; i < ns; ++i)
            src[i] = sp[srcFirst + i].read();
        std::vector<u64 *> dst(nt);
        for (std::size_t t = lo; t < hi; ++t)
            dst[t] = tp[t < srcFirst ? t : t + holeLen].write();
        convertTargets(ctx, tables, src, dst, lo, hi);
    }, [&tables](std::size_t t) { return tables.targetIdx[t]; }, deps);
}

/**
 * Inverse-NTTs limbs [first, numLimbs) of @p a in place, one kernel:
 * the limbs a division drops, for its Conv or SwitchModulus to read.
 * @p a keeps its Eval tag; the division's result replaces it.
 */
void
inverseNttFrom(RNSPoly &a, std::size_t first)
{
    const Context &ctx = a.context();
    LimbPartition &ap = a.partition();
    const kernels::LimbCost intt = kernels::nttLimbCost(ctx);
    kernels::forBatches(ctx, a.numLimbs() - first, intt.bytesRead,
                        intt.bytesWritten, intt.intOps,
                        [&ctx, &ap, first](std::size_t lo,
                                           std::size_t hi) {
        for (std::size_t k = lo; k < hi; ++k) {
            Limb &l = ap[first + k];
            kernels::inttLimb(ctx, l.write(), l.primeIdx());
        }
    }, [&ap, first](std::size_t k) {
        return ap[first + k].primeIdx();
    }, {kernels::wr(a, first)});
}

/**
 * The division shared by ModDown and the merged ModDown-and-Rescale:
 * iNTTs the Conv sources, limbs [first, numLimbs) of the raised
 * polynomial @p a, converts them into the q_0..q_{outLevel} limbs of
 * a FRESH result, NTTs that and finishes out = w (a - out) per limb,
 * then moves the result into @p a. Building a new polynomial instead
 * of dropping limbs in place keeps the hot path free of host joins:
 * the old partition (and its still-pending limbs) is retired through
 * the keep-alive / deferred-free machinery.
 */
void
divideRaised(RNSPoly &a, std::size_t first, const ConvTables &tables,
             u32 outLevel, std::vector<u64> w, std::vector<u64> ws)
{
    const Context &ctx = a.context();
    inverseNttFrom(a, first);

    // Conv writes the output limbs in coefficient form. The epilogue
    // runs in place on them (paper III-F5, ModDown fusion: per q-limb,
    // NTT(out) then out = w (x - out) in the same kernel; it waits on
    // the Conv events through the limbs Conv wrote). The chain submits
    // one fused launch per batch with fusion on, or the two-kernel
    // pipeline of the no-fusion backend otherwise.
    RNSPoly out(ctx, outLevel, Format::Coeff);
    launchConv(tables, a, first, out, 0);
    kernels::FusedChain chain(ctx);
    chain.ntt(out);
    chain.rsubScalarMul(out, a, std::move(w), std::move(ws));
    chain.run();

    a = std::move(out);
}

} // namespace

void
convert(const Context &ctx, const std::vector<const u64 *> &src,
        const ConvTables &tables, const std::vector<u64 *> &dst)
{
    FIDES_ASSERT(src.size() == tables.sourceIdx.size() &&
                 dst.size() == tables.targetIdx.size());
    convertTargets(ctx, tables, src, dst, 0, dst.size());
}

RNSPoly
modUpDigit(const RNSPoly &evalPoly, const RNSPoly &coeffPoly, u32 digit)
{
    check::ScopedLabel lbl("modUpDigit");
    const Context &ctx = coeffPoly.context();
    FIDES_ASSERT(evalPoly.format() == Format::Eval);
    FIDES_ASSERT(coeffPoly.format() == Format::Coeff);
    FIDES_ASSERT(evalPoly.level() == coeffPoly.level());
    FIDES_ASSERT(evalPoly.numSpecial() == 0 &&
                 coeffPoly.numSpecial() == 0);
    const u32 level = coeffPoly.level();
    const ConvTables &tables = ctx.modUpTables(level, digit);
    const std::size_t n = ctx.degree();

    // Conv reads the digit's limbs of the coefficient poly (q-limb
    // position == global prime index) and writes every other limb of
    // `out`, around the digit's own.
    RNSPoly out(ctx, level, Format::Eval, ctx.numSpecial());
    const std::size_t srcLo = tables.sourceIdx.front();
    const std::size_t srcHi = srcLo + tables.sourceIdx.size();
    FIDES_ASSERT(tables.sourceIdx.back() + 1 == srcHi);
    launchConv(tables, coeffPoly, srcLo, out, srcHi - srcLo);

    // One kernel finishes every limb (it waits on the Conv events
    // through the limbs Conv wrote). The digit's own limbs -- a
    // contiguous q-limb block whose residues ModUp keeps -- are
    // copied from the eval-form input; only the Conv targets take a
    // forward NTT. Copied limbs are billed as copies.
    LimbPartition &op = out.partition();
    const LimbPartition &ep = evalPoly.partition();
    const kernels::LimbCost nttCost = kernels::nttLimbCost(ctx);
    const kernels::LimbCost copyCost{n * kWord, n * kWord, 0};
    kernels::forBatches(ctx, out.numLimbs(),
                        [&](std::size_t i) {
        return i >= srcLo && i < srcHi ? copyCost : nttCost;
    }, [&ctx, &op, &ep, srcLo, srcHi, n](std::size_t lo,
                                         std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            if (i >= srcLo && i < srcHi) {
                std::memcpy(op[i].write(), ep[i].read(),
                            n * sizeof(u64));
            } else {
                nttForward(op[i].write(), *ctx.prime(op[i].primeIdx()).ntt);
            }
        }
    }, [&op](std::size_t i) { return op[i].primeIdx(); },
       {kernels::wr(out),
        kernels::rdSpan(evalPoly, srcLo, srcHi - srcLo)});
    return out;
}

void
modDown(RNSPoly &a)
{
    check::ScopedLabel lbl("modDown");
    const Context &ctx = a.context();
    FIDES_ASSERT(a.format() == Format::Eval);
    FIDES_ASSERT(a.numSpecial() == ctx.numSpecial());
    const u32 level = a.level();

    // [x]_P from the K special limbs, fast Conv, scale P^{-1}.
    std::vector<u64> w(level + 1), ws(level + 1);
    for (u32 i = 0; i <= level; ++i) {
        w[i] = ctx.pInvModQ(i);
        ws[i] = ctx.pInvModQShoup(i);
    }
    divideRaised(a, level + 1, ctx.modDownTables(level), level,
                 std::move(w), std::move(ws));
}

void
rescale(RNSPoly &a)
{
    check::ScopedLabel lbl("rescale");
    const Context &ctx = a.context();
    FIDES_ASSERT(a.format() == Format::Eval);
    FIDES_ASSERT(a.numSpecial() == 0);
    FIDES_ASSERT(a.level() > 0);
    const u32 l = a.level();

    // iNTT the dropped limb in place: it is read only by the
    // SwitchModulus below, through its own Dep.
    inverseNttFrom(a, l);

    // Rescale epilogue (paper Rescale fusion), in place on a FRESH
    // level-(l-1) polynomial (same join-free rationale as modDown):
    // the SwitchModulus prologue writes it from limb l, then NTT and
    // the combined q_l^{-1} (x - out) epilogue. One fused launch per
    // batch with fusion on; the three-kernel pipeline of the no-fusion
    // backend otherwise.
    RNSPoly out(ctx, l - 1, Format::Coeff);
    std::vector<u64> w(l), ws(l);
    for (u32 i = 0; i < l; ++i) {
        w[i] = ctx.qlInvModQ(l, i);
        ws[i] = ctx.qlInvModQShoup(l, i);
    }
    kernels::FusedChain chain(ctx);
    chain.switchModulus(out, a, l);
    chain.ntt(out);
    chain.rsubScalarMul(out, a, std::move(w), std::move(ws));
    chain.run();

    a = std::move(out);
}

void
modDownRescale(RNSPoly &a)
{
    check::ScopedLabel lbl("modDownRescale");
    const Context &ctx = a.context();
    FIDES_ASSERT(a.format() == Format::Eval);
    FIDES_ASSERT(a.numSpecial() == ctx.numSpecial());
    FIDES_ASSERT(a.level() > 0);
    const u32 l = a.level();

    // The exact, centered [x]_{P q_l} from limb l and the K special
    // limbs, scale (P q_l)^{-1}.
    std::vector<u64> w(l), ws(l);
    for (u32 i = 0; i < l; ++i) {
        w[i] = ctx.pqlInvModQ(l, i);
        ws[i] = ctx.pqlInvModQShoup(l, i);
    }
    divideRaised(a, l, ctx.modDownRescaleTables(l), l - 1, std::move(w),
                 std::move(ws));
}

RNSPoly
modRaise(const RNSPoly &a, u32 newLevel)
{
    check::ScopedLabel lbl("modRaise");
    const Context &ctx = a.context();
    FIDES_ASSERT(a.format() == Format::Coeff);
    FIDES_ASSERT(a.level() == 0);
    const std::size_t n = ctx.degree();
    const u64 q0 = ctx.qMod(0).value;

    RNSPoly out(ctx, newLevel, Format::Coeff);
    LimbPartition &op = out.partition();
    const LimbPartition &ip = a.partition();
    // Limb 0 passes through; limbs 1..newLevel take the centered lift
    // of the q_0 residues. Every batch reads the single source limb
    // (a fixed dependency, not a positional one).
    kernels::forBatches(ctx, newLevel + 1, n * kWord, n * kWord, 2 * n,
                        [&ctx, &op, &ip, q0, n](std::size_t lo,
                                                std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            if (i == 0) {
                std::memcpy(op[0].write(), ip[0].read(),
                            n * sizeof(u64));
            } else {
                kernels::switchModulusLimb(ctx, ip[0].read(), q0,
                                           op[i].write(),
                                           static_cast<u32>(i));
            }
        }
    }, [](std::size_t i) { return static_cast<u32>(i); },
       {kernels::wr(out), kernels::rdFixed(a, 0)});
    return out;
}

} // namespace fideslib::ckks
