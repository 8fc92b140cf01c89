#include "ckks/keyswitch.hpp"

#include "ckks/basechange.hpp"
#include "ckks/kernels.hpp"
#include "core/logging.hpp"

namespace fideslib::ckks
{

RaisedDigits
decomposeAndModUp(const RNSPoly &dEval)
{
    const Context &ctx = dEval.context();
    FIDES_ASSERT(dEval.format() == Format::Eval);
    FIDES_ASSERT(dEval.numSpecial() == 0);
    const u32 level = dEval.level();

    // Conv needs coefficient form (one out-of-place iNTT kernel);
    // each digit's own limbs are copied straight from the eval-form
    // input instead.
    RNSPoly coeff(ctx, level, Format::Coeff);
    kernels::toCoeff(coeff, dEval);

    RaisedDigits out;
    out.level = level;
    const u32 digits = ctx.numDigits(level);
    out.digits.reserve(digits);
    for (u32 j = 0; j < digits; ++j)
        out.digits.push_back(modUpDigit(dEval, coeff, j));
    return out;
}

std::pair<RNSPoly, RNSPoly>
keySwitchAccumulateQP(const RaisedDigits &raised, const EvalKey &key,
                      const std::vector<u32> *perm)
{
    FIDES_ASSERT(!raised.digits.empty());
    const Context &ctx = raised.digits[0].context();
    const u32 level = raised.level;
    FIDES_ASSERT(raised.digits.size() <= key.numDigits());

    RNSPoly acc0(ctx, level, Format::Eval, ctx.numSpecial());
    RNSPoly acc1(ctx, level, Format::Eval, ctx.numSpecial());

    // The whole inner product -- every digit, both components, with
    // the automorphism gather applied on the fly -- is one kernel:
    // each digit limb is read once and multiplied into both
    // accumulators while it is hot (Sections III-F3/F5), with one
    // lazy reduction per coefficient.
    kernels::keySwitchInnerProduct(acc0, acc1, raised.digits, key.b,
                                   key.a, perm);
    return {std::move(acc0), std::move(acc1)};
}

std::pair<RNSPoly, RNSPoly>
keySwitchAccumulate(const RaisedDigits &raised, const EvalKey &key,
                    const std::vector<u32> *perm)
{
    auto acc = keySwitchAccumulateQP(raised, key, perm);
    modDown(acc.first);
    modDown(acc.second);
    return acc;
}

} // namespace fideslib::ckks
