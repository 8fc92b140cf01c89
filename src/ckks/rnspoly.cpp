#include "ckks/rnspoly.hpp"

#include <algorithm>
#include <cstring>

#include "ckks/kernels.hpp"
#include "core/logging.hpp"

namespace fideslib::ckks
{

RNSPoly::RNSPoly(const Context &ctx, u32 level, Format fmt,
                 u32 specialLimbs)
    : ctx_(&ctx), level_(level), special_(specialLimbs), format_(fmt),
      part_(std::make_shared<LimbPartition>())
{
    FIDES_ASSERT(level <= ctx.maxLevel());
    FIDES_ASSERT(specialLimbs <= ctx.numSpecial());
    // Reserve the maximum capacity once: limb addresses stay stable
    // while kernels are in flight (LimbPartition).
    part_->reserve(ctx.maxLevel() + 1 + ctx.numSpecial());
    for (u32 i = 0; i <= level; ++i)
        part_->push(Limb(ctx, i));
    for (u32 k = 0; k < specialLimbs; ++k)
        part_->push(Limb(ctx, ctx.specialIdx(k)));
}

RNSPoly
RNSPoly::clone() const
{
    return clone(level_);
}

RNSPoly
RNSPoly::clone(u32 level) const
{
    FIDES_ASSERT(level <= level_ && (level == level_ || special_ == 0));
    RNSPoly c(*ctx_, level, format_, special_);
    // Device-to-device copy: batched, accounted and event-chained
    // like any kernel. Positional, so it reads only the kept limbs.
    const std::size_t n = ctx_->degree();
    const LimbPartition &sp = *part_;
    LimbPartition &dp = *c.part_;
    kernels::forBatches(*ctx_, dp.size(), n * sizeof(u64),
                        n * sizeof(u64), 0,
                        [&sp, &dp, n](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
            std::memcpy(dp[i].write(), sp[i].read(), n * sizeof(u64));
    }, {kernels::rd(*this), kernels::wr(c)});
    return c;
}

void
RNSPoly::setZero()
{
    syncHost(); // host write below
    for (std::size_t i = 0; i < part_->size(); ++i) {
        std::memset((*part_)[i].data(), 0,
                    (*part_)[i].size() * sizeof(u64));
    }
}

void
RNSPoly::syncHost(std::initializer_list<const RNSPoly *> polys)
{
    if (std::none_of(polys.begin(), polys.end(), [](const RNSPoly *p) {
            return p->hasPendingWork();
        }))
        return;
    (*polys.begin())->ctx_->devices().noteHostJoin();
    for (const RNSPoly *p : polys)
        for (std::size_t i = 0; i < p->part_->size(); ++i)
            (*p->part_)[i].syncHost();
}

bool
RNSPoly::hasPendingWork() const
{
    for (std::size_t i = 0; i < part_->size(); ++i)
        if ((*part_)[i].hasPending())
            return true;
    return false;
}

void
RNSPoly::dropLimb()
{
    FIDES_ASSERT(special_ == 0);
    FIDES_ASSERT(level_ > 0);
    // In-flight bodies that touch the top limb index its slot; join
    // on them before the slot is destroyed. (Their batch events cover
    // every limb the batch touches, so this waits exactly the bodies
    // that can still dereference the slot.)
    const Limb &top = (*part_)[part_->size() - 1];
    if (top.hasPending()) {
        ctx_->devices().noteHostJoin();
        top.syncHost();
    }
    part_->pop();
    --level_;
}

void
RNSPoly::dropSpecialLimbs()
{
    bool joined = false;
    for (u32 k = 0; k < special_; ++k) {
        const Limb &top = (*part_)[part_->size() - 1];
        if (top.hasPending()) {
            if (!joined) {
                ctx_->devices().noteHostJoin();
                joined = true;
            }
            top.syncHost();
        }
        part_->pop();
    }
    special_ = 0;
}

} // namespace fideslib::ckks
