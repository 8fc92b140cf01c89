#include "ckks/evaluator.hpp"

#include <cmath>
#include <optional>

#include "ckks/basechange.hpp"
#include "ckks/kernels.hpp"
#include "core/logging.hpp"

namespace fideslib::ckks
{

void
checkScalesMatch(long double a, long double b)
{
    long double rel = std::fabs(a - b) / std::max(a, b);
    if (rel > 1e-9L)
        fatal("scale mismatch: %.6Le vs %.6Le (rescale/adjust first)",
              a, b);
}

namespace
{

void
checkAligned(const Ciphertext &a, const Ciphertext &b)
{
    if (a.level() != b.level())
        fatal("level mismatch: %u vs %u (levelReduce first)",
              a.level(), b.level());
    checkScalesMatch(a.scale, b.scale);
}

double
addNoise(double a, double b)
{
    // log-domain addition of noise magnitudes.
    double hi = std::max(a, b), lo = std::min(a, b);
    return hi + std::log2(1.0 + std::exp2(lo - hi));
}

/** Scale and noise bookkeeping of a rescale by @p ql. */
void
noteRescaled(Ciphertext &a, u64 ql)
{
    a.scale /= static_cast<long double>(ql);
    a.noiseBits = std::max(0.0, a.noiseBits
                                    - std::log2(static_cast<double>(ql)))
                + 1.0;
}

/** The HMult tensor d0 = a0 b0, d1 = a0 b1 + a1 b0, d2 = a1 b1. */
struct Tensor
{
    RNSPoly d0, d1, d2;
};

Tensor
tensorProduct(const Context &ctx, const Ciphertext &a,
              const Ciphertext &b)
{
    if (a.level() != b.level())
        fatal("HMult level mismatch: %u vs %u", a.level(), b.level());
    const u32 level = a.level();
    // One fused launch per limb batch: the four products share one
    // read of the operand limbs (Section III-F5).
    Tensor t{RNSPoly(ctx, level, Format::Eval),
             RNSPoly(ctx, level, Format::Eval),
             RNSPoly(ctx, level, Format::Eval)};
    kernels::FusedChain(ctx)
        .mul(t.d0, a.c0, b.c0)
        .mul(t.d1, a.c0, b.c1)
        .mulAdd(t.d1, a.c1, b.c0)
        .mul(t.d2, a.c1, b.c1)
        .run();
    return t;
}

/** HSquare's tensor: one of the four products saved, the rest fused
 *  into one launch per limb batch. */
Tensor
tensorSquare(const Context &ctx, const Ciphertext &a)
{
    const u32 level = a.level();
    Tensor t{RNSPoly(ctx, level, Format::Eval),
             RNSPoly(ctx, level, Format::Eval),
             RNSPoly(ctx, level, Format::Eval)};
    kernels::FusedChain(ctx)
        .mul(t.d0, a.c0, a.c0)
        .mul(t.d1, a.c0, a.c1)
        .add(t.d1, t.d1) // d1 = 2 a0 a1
        .mul(t.d2, a.c1, a.c1)
        .run();
    return t;
}

/** @p a at canonical level @p level: @p a itself, or a lowered copy
 *  held in @p lowered. */
const Ciphertext &
atCanonicalLevel(const Evaluator &eval, const Ciphertext &a, u32 level,
                 std::optional<Ciphertext> &lowered)
{
    FIDES_ASSERT(eval.isCanonical(a));
    if (a.level() == level)
        return a;
    lowered = a.clone();
    eval.toCanonicalLevel(*lowered, level);
    return *lowered;
}

} // namespace

Ciphertext
Evaluator::add(const Ciphertext &a, const Ciphertext &b) const
{
    Ciphertext r = a.clone();
    addInPlace(r, b);
    return r;
}

void
Evaluator::addInPlace(Ciphertext &a, const Ciphertext &b) const
{
    checkAligned(a, b);
    kernels::addInto(a.c0, b.c0);
    kernels::addInto(a.c1, b.c1);
    a.noiseBits = addNoise(a.noiseBits, b.noiseBits);
}

Ciphertext
Evaluator::sub(const Ciphertext &a, const Ciphertext &b) const
{
    Ciphertext r = a.clone();
    subInPlace(r, b);
    return r;
}

void
Evaluator::subInPlace(Ciphertext &a, const Ciphertext &b) const
{
    checkAligned(a, b);
    kernels::subInto(a.c0, b.c0);
    kernels::subInto(a.c1, b.c1);
    a.noiseBits = addNoise(a.noiseBits, b.noiseBits);
}

void
Evaluator::addPlainInPlace(Ciphertext &a, const Plaintext &p) const
{
    if (a.level() != p.level())
        fatal("PtAdd level mismatch: %u vs %u", a.level(), p.level());
    checkScalesMatch(a.scale, p.scale);
    kernels::addInto(a.c0, p.poly);
}

void
Evaluator::addScalarInPlace(Ciphertext &a, double c) const
{
    // The constant-slot polynomial is constant in eval form, so the
    // optimized kernel broadcasts round(c * scale) per limb.
    auto residues = encoder_.scalarResidues(c, a.scale, a.level());
    kernels::scalarAddInto(a.c0, residues);
}

void
Evaluator::negateInPlace(Ciphertext &a) const
{
    kernels::negate(a.c0);
    kernels::negate(a.c1);
}

Ciphertext
Evaluator::multiply(const Ciphertext &a, const Ciphertext &b) const
{
    Tensor t = tensorProduct(*ctx_, a, b);

    // Relinearize d2 (under s^2) back to the canonical key; the two
    // accumulates fuse into one launch.
    auto [u0, u1] =
        keySwitchAccumulate(decomposeAndModUp(t.d2), keys_->relin);
    kernels::FusedChain(*ctx_).add(t.d0, u0).add(t.d1, u1).run();

    double noise = a.noiseBits + b.noiseBits + 1.0;
    return Ciphertext{std::move(t.d0), std::move(t.d1),
                      a.scale * b.scale, std::max(a.slots, b.slots),
                      noise};
}

Ciphertext
Evaluator::square(const Ciphertext &a) const
{
    Tensor t = tensorSquare(*ctx_, a);
    auto [u0, u1] =
        keySwitchAccumulate(decomposeAndModUp(t.d2), keys_->relin);
    kernels::FusedChain(*ctx_).add(t.d0, u0).add(t.d1, u1).run();

    return Ciphertext{std::move(t.d0), std::move(t.d1),
                      a.scale * a.scale, a.slots, 2 * a.noiseBits + 1.0};
}

Ciphertext
Evaluator::relinearizeRescale(RNSPoly d0, RNSPoly d1, const RNSPoly &d2,
                              long double scale, u32 slots,
                              double noiseBits) const
{
    const Context &ctx = *ctx_;
    const u32 l = d0.level();
    FIDES_ASSERT(l > 0);

    // The key switch's Q_l P accumulators, before any ModDown. Adding
    // P d0 and P d1 into their q-limbs (one launch) makes each the
    // raised form of a component, P (d + u) up to the inner product's
    // rounding, which one exact division by P q_l finishes.
    auto [acc0, acc1] =
        keySwitchAccumulateQP(decomposeAndModUp(d2), keys_->relin);
    std::vector<u64> w(l + 1), ws(l + 1);
    for (u32 i = 0; i <= l; ++i) {
        w[i] = ctx.pModQ(i);
        ws[i] = ctx.pModQShoup(i);
    }
    kernels::FusedChain(ctx)
        .scaledAdd(acc0, d0, w, ws)
        .scaledAdd(acc1, d1, std::move(w), std::move(ws))
        .run();
    modDownRescale(acc0);
    modDownRescale(acc1);

    Ciphertext r{std::move(acc0), std::move(acc1), scale, slots,
                 noiseBits};
    noteRescaled(r, ctx.qMod(l).value);
    return r;
}

Ciphertext
Evaluator::multiplyRescale(const Ciphertext &a, const Ciphertext &b) const
{
    Tensor t = tensorProduct(*ctx_, a, b);
    return relinearizeRescale(std::move(t.d0), std::move(t.d1), t.d2,
                              a.scale * b.scale,
                              std::max(a.slots, b.slots),
                              a.noiseBits + b.noiseBits + 1.0);
}

Ciphertext
Evaluator::squareRescale(const Ciphertext &a) const
{
    Tensor t = tensorSquare(*ctx_, a);
    return relinearizeRescale(std::move(t.d0), std::move(t.d1), t.d2,
                              a.scale * a.scale, a.slots,
                              2 * a.noiseBits + 1.0);
}

void
Evaluator::multiplyPlainInPlace(Ciphertext &a, const Plaintext &p) const
{
    if (a.level() != p.level())
        fatal("PtMult level mismatch: %u vs %u", a.level(), p.level());
    kernels::mulInto(a.c0, p.poly);
    kernels::mulInto(a.c1, p.poly);
    a.scale *= p.scale;
    a.noiseBits += std::log2(static_cast<double>(p.scale));
}

void
Evaluator::multiplyScalarInPlace(Ciphertext &a, double c) const
{
    multiplyScalarInPlace(a, static_cast<long double>(c),
                          ctx_->defaultScale());
}

void
Evaluator::multiplyScalarInPlace(Ciphertext &a, long double c,
                                 long double scale) const
{
    auto residues = encoder_.scalarResidues(c, scale, a.level());
    kernels::scalarMulInto(a.c0, residues);
    kernels::scalarMulInto(a.c1, residues);
    a.scale *= scale;
}

void
Evaluator::multiplyByMonomialInPlace(Ciphertext &a, u64 k) const
{
    kernels::toCoeff(a.c0);
    kernels::toCoeff(a.c1);
    kernels::mulByMonomial(a.c0, k);
    kernels::mulByMonomial(a.c1, k);
    kernels::toEval(a.c0);
    kernels::toEval(a.c1);
}

void
Evaluator::rescaleInPlace(Ciphertext &a) const
{
    const u64 ql = ctx_->qMod(a.level()).value;
    rescale(a.c0);
    rescale(a.c1);
    noteRescaled(a, ql);
}

void
Evaluator::levelReduceInPlace(Ciphertext &a, u32 newLevel) const
{
    FIDES_ASSERT(newLevel <= a.level());
    // A fresh copy of the kept limbs (DESIGN.md 1.4): the old
    // partitions retire through the keep-alives, so the host never
    // joins on a kernel still writing a dropped limb.
    if (newLevel < a.level())
        a = a.clone(newLevel);
}

const EvalKey &
Evaluator::galoisKey(u64 galois) const
{
    auto it = keys_->galois.find(galois);
    if (it == keys_->galois.end())
        fatal("missing Galois key for element %llu "
              "(generate the rotation key first)",
              (unsigned long long)galois);
    return it->second;
}

Ciphertext
Evaluator::applyRotation(const Ciphertext &a, const RaisedDigits &raised,
                         u64 galois) const
{
    const Context &ctx = *ctx_;
    const auto &perm = ctx.automorphPerm(galois);
    auto [u0, u1] = keySwitchAccumulate(raised, galoisKey(galois),
                                        &perm);

    // Gather + accumulate in one launch (the automorphism is a pure
    // permutation, so it rides along with the add for free).
    RNSPoly c0(ctx, a.level(), Format::Eval);
    kernels::FusedChain(ctx)
        .gather(c0, a.c0, perm)
        .add(c0, u0)
        .run();
    return Ciphertext{std::move(c0), std::move(u1), a.scale, a.slots,
                      a.noiseBits + 0.5};
}

Ciphertext
Evaluator::rotate(const Ciphertext &a, i64 k) const
{
    const u64 g = ctx_->rotationGaloisElt(k);
    if (g == 1)
        return a.clone();
    auto raised = decomposeAndModUp(a.c1);
    return applyRotation(a, raised, g);
}

Ciphertext
Evaluator::conjugate(const Ciphertext &a) const
{
    auto raised = decomposeAndModUp(a.c1);
    return applyRotation(a, raised, ctx_->conjugateGaloisElt());
}

std::vector<Ciphertext>
Evaluator::hoistedRotate(const Ciphertext &a,
                         const std::vector<i64> &ks) const
{
    // One decomposition + ModUp shared by every rotation, raised on
    // the first that needs a key switch.
    std::optional<RaisedDigits> raised;
    std::vector<Ciphertext> out;
    out.reserve(ks.size());
    for (i64 k : ks) {
        const u64 g = ctx_->rotationGaloisElt(k);
        if (g == 1) {
            out.push_back(a.clone());
            continue;
        }
        if (!raised)
            raised = decomposeAndModUp(a.c1);
        out.push_back(applyRotation(a, *raised, g));
    }
    return out;
}

bool
Evaluator::isCanonical(const Ciphertext &a) const
{
    long double want = ctx_->levelScale(a.level());
    return std::fabs(a.scale - want) / want < 1e-9L;
}

void
Evaluator::toCanonicalLevel(Ciphertext &a, u32 targetLevel) const
{
    FIDES_ASSERT(targetLevel <= a.level());
    FIDES_ASSERT(isCanonical(a));
    while (a.level() > targetLevel) {
        // Multiply by 1 at scale Delta_l, then rescale by q_l:
        // Delta_l * Delta_l / q_l = Delta_{l-1}, staying canonical.
        multiplyScalarInPlace(a, 1.0L, ctx_->levelScale(a.level()));
        rescaleInPlace(a);
    }
}

Ciphertext
Evaluator::multiplyC(const Ciphertext &a, const Ciphertext &b) const
{
    const u32 l = std::min(a.level(), b.level());
    std::optional<Ciphertext> la, lb;
    return multiplyRescale(atCanonicalLevel(*this, a, l, la),
                           atCanonicalLevel(*this, b, l, lb));
}

Ciphertext
Evaluator::squareC(const Ciphertext &a) const
{
    FIDES_ASSERT(isCanonical(a));
    return squareRescale(a);
}

Ciphertext
Evaluator::addC(const Ciphertext &a, const Ciphertext &b) const
{
    const u32 l = std::min(a.level(), b.level());
    std::optional<Ciphertext> lb;
    const Ciphertext &y = atCanonicalLevel(*this, b, l, lb);
    Ciphertext x = a.clone();
    toCanonicalLevel(x, l);
    addInPlace(x, y);
    return x;
}

Ciphertext
Evaluator::multiplyPlainC(const Ciphertext &a,
                          const std::vector<Cplx> &values) const
{
    FIDES_ASSERT(isCanonical(a));
    std::vector<std::complex<double>> z(values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
        z[i] = {static_cast<double>(values[i].real()),
                static_cast<double>(values[i].imag())};
    }
    Plaintext pt = encoder_.encode(z, a.slots, a.level(),
                                   ctx_->levelScale(a.level()));
    Ciphertext r = a.clone();
    multiplyPlainInPlace(r, pt);
    rescaleInPlace(r);
    return r;
}

Ciphertext
Evaluator::dotPlain(const std::vector<const Ciphertext *> &cts,
                    const std::vector<const Plaintext *> &pts) const
{
    FIDES_ASSERT(!cts.empty() && cts.size() == pts.size());
    const Context &ctx = *ctx_;
    const u32 level = cts[0]->level();
    const long double scale = cts[0]->scale * pts[0]->scale;

    // One chain: mul for the first term, mulAdd for each later one.
    // Fused, every plaintext diagonal is read once for both
    // components; unfused, the chain bills one kernel per op.
    RNSPoly acc0(ctx, level, Format::Eval);
    RNSPoly acc1(ctx, level, Format::Eval);
    kernels::FusedChain chain(ctx);
    chain.mul(acc0, cts[0]->c0, pts[0]->poly)
        .mul(acc1, cts[0]->c1, pts[0]->poly);
    double noise = addNoise(0, cts[0]->noiseBits);
    for (std::size_t i = 1; i < cts.size(); ++i) {
        checkScalesMatch(cts[i]->scale * pts[i]->scale, scale);
        chain.mulAdd(acc0, cts[i]->c0, pts[i]->poly)
            .mulAdd(acc1, cts[i]->c1, pts[i]->poly);
        noise = addNoise(noise, cts[i]->noiseBits);
    }
    chain.run();
    noise += std::log2(static_cast<double>(pts[0]->scale));
    return Ciphertext{std::move(acc0), std::move(acc1), scale,
                      cts[0]->slots, noise};
}

} // namespace fideslib::ckks
