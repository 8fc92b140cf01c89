#include "ckks/basechange.hpp"

#include <cstring>
#include <memory>

#include "ckks/graph.hpp"
#include "ckks/kernels.hpp"
#include "core/logging.hpp"

namespace fideslib::ckks
{

namespace
{

constexpr std::size_t kConvBlock = 512; //!< coefficient tile size
constexpr u64 kWord = sizeof(u64);

/**
 * Computes the selected target limbs of the Conv matrix product
 * (Equation (1)): a limb-wise scaling by sHatInv followed by a
 * modular dot product per target, tiled over coefficients so the
 * scaled source values stay hot (the shared-memory caching of the
 * paper's kernel). @p targetSel selects which rows of the target
 * basis to produce -- each simulated device computes its own share,
 * re-scaling the sources itself (the paper's replicated multi-GPU
 * partitioning of Conv).
 */
void
convertTargets(const Context &ctx, const ConvTables &tables,
               const std::vector<const u64 *> &src,
               const std::vector<u64 *> &dst,
               const std::vector<u32> &targetSel)
{
    const std::size_t n = ctx.degree();
    const std::size_t ns = tables.sourceIdx.size();
    const std::size_t nt = tables.targetIdx.size();

    std::vector<u64> scaled(ns * kConvBlock);
    std::vector<u128> acc(kConvBlock);
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
        for (u32 t : targetSel) {
            // Sources outer, coefficients inner, into a 128-bit tile:
            // every multiply-add is independent instead of one serial
            // chain per coefficient. Reduced once per coefficient; the
            // sum of ns <= 64 products of residues below 2^61 fits
            // (Parameters::validate bounds the digit size).
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
            const Modulus &m = ctx.prime(tables.targetIdx[t]).mod;
            u64 *o = dst[t] + base;
            for (std::size_t j = 0; j < cnt; ++j)
                o[j] = barrettReduce128(acc[j], m);
        }
    }
}

/** One stream-dispatched Conv launch: the completion event and the
 *  target rows it produced. */
struct ConvLaunch
{
    Event ev;
    std::vector<u32> targets;
};

/** One limb-buffer access of a Conv launch, for the validator. */
struct ConvAccess
{
    const void *buf;
    u32 limb;
};

/** Reports a Conv launch's access set against @p rec (no-op when
 *  validation is off: @p rec is null). */
void
noteConvAccesses(const std::shared_ptr<check::LaunchRecord> &rec,
                 const std::vector<ConvAccess> &reads,
                 const std::vector<ConvAccess> &writes)
{
    for (const ConvAccess &a : reads)
        check::noteAccess(rec, a.buf, a.limb, false);
    for (const ConvAccess &a : writes)
        check::noteAccess(rec, a.buf, a.limb, true);
}

/**
 * Dispatches the Conv matrix product stream-ordered: one launch per
 * device that owns target limbs, each reading all (peer-accessible)
 * source limbs and producing its own share of the targets, matching
 * the paper's multi-GPU partitioning. Every launch waits device-side
 * on @p srcWaits; @p keep holds the source/target storage alive until
 * the launches retire. With a single stream the product runs inline
 * and no events are returned.
 *
 * Participates in plan capture/replay (graph.hpp) through symbolic
 * operand bindings: @p srcPoly / @p srcPos name the partition
 * positions behind the raw @p src pointers, @p dstPoly / @p dstPos
 * those behind @p dst. Replays take stream choice and hazards from
 * the captured plan and skip per-launch dispatch.
 */
std::vector<ConvLaunch>
dispatchConvert(const Context &ctx, const ConvTables &tables,
                std::vector<const u64 *> src, std::vector<u64 *> dst,
                const std::vector<Event> &srcWaits,
                std::vector<std::shared_ptr<const void>> keep,
                const RNSPoly &srcPoly, const std::vector<u32> &srcPos,
                const RNSPoly &dstPoly, const std::vector<u32> &dstPos)
{
    DeviceSet &devs = ctx.devices();
    const std::size_t n = ctx.degree();
    const std::size_t ns = src.size();
    const std::size_t nt = tables.targetIdx.size();
    FIDES_ASSERT(ns == tables.sourceIdx.size() && dst.size() == nt);

    // Target rows grouped by owning device.
    std::vector<std::vector<u32>> byDevice(devs.numDevices());
    for (u32 t = 0; t < nt; ++t)
        byDevice[ctx.deviceFor(tables.targetIdx[t]).id()].push_back(t);

    kernels::GraphReplay *replay = ctx.replaySession();
    kernels::GraphCapture *capture = ctx.captureSession();
    if (replay)
        replay->beginCustomCall(srcPoly, dstPoly);
    else if (capture)
        capture->beginCustomCall(srcPoly, dstPoly);

    // Validator wiring: convertTargets works on raw pointers, so each
    // launch reports its exact access set explicitly (body-time, via
    // noteAccess) instead of instrumenting the body. Source limbs are
    // shared by every launch; the written target limbs are per-launch.
    check::ScopedLabel lbl("conv");
    auto convReads = std::make_shared<std::vector<ConvAccess>>();
    if (check::enabled()) {
        const LimbPartition &p = srcPoly.partition();
        for (u32 pos : srcPos)
            convReads->push_back({p[pos].data(), p[pos].primeIdx()});
    }
    auto writeAccesses = [&](const std::vector<u32> &sel) {
        auto w = std::make_shared<std::vector<ConvAccess>>();
        if (check::enabled()) {
            const LimbPartition &p = dstPoly.partition();
            for (u32 t : sel) {
                const Limb &l = p[dstPos[t]];
                w->push_back({l.data(), l.primeIdx()});
            }
        }
        return w;
    };

    // The write positions of one launch: the dstPos entries its
    // target selection covers.
    auto writePositions = [&dstPos](const std::vector<u32> &sel) {
        std::vector<u32> writes;
        writes.reserve(sel.size());
        for (u32 t : sel)
            writes.push_back(dstPos[t]);
        return writes;
    };

    std::vector<ConvLaunch> launches;
    const StreamLease &leased = ctx.streamLease();
    std::vector<u32> rr(devs.numDevices(), 0);
    for (u32 d = 0; d < devs.numDevices(); ++d) {
        std::vector<u32> &sel = byDevice[d];
        if (sel.empty())
            continue;
        // One launch per involved device (compute bound): reads all
        // sources, writes this device's targets.
        const u64 br = ns * n * kWord;
        const u64 bw = sel.size() * n * kWord;
        const u64 ops = sel.size() * n * (2 * ns + 2);

        if (replay && replay->deferred()) {
            // Multi-instance collection: package the Conv body (and
            // its validator access report) for the batch flush. The
            // pre-created event is exactly what the live record()
            // below would have handed downstream.
            auto wAcc = writeAccesses(sel);
            Event ev = replay->deferCustomNode(
                br, bw, ops,
                [&ctx, &tables, src, dst, sel, keep, convReads, wAcc](
                    const std::shared_ptr<check::LaunchRecord> &rec) {
                    convertTargets(ctx, tables, src, dst, sel);
                    if (rec)
                        noteConvAccesses(rec, *convReads, *wAcc);
                });
            launches.push_back({std::move(ev), std::move(sel)});
            continue;
        }

        if (replay) {
            Stream *st = replay->customNode(br, bw, ops);
            if (!st) {
                auto rec = check::enabled()
                               ? check::beginLaunch(nullptr, {})
                               : nullptr;
                convertTargets(ctx, tables, src, dst, sel);
                if (rec)
                    noteConvAccesses(rec, *convReads,
                                     *writeAccesses(sel));
                continue;
            }
            auto rec = check::enabled() ? check::beginLaunch(st, {})
                                        : nullptr;
            auto wAcc = writeAccesses(sel);
            std::vector<u32> selCopy = sel;
            st->submit([&ctx, &tables, src, dst,
                        sel = std::move(selCopy), keep, rec, convReads,
                        wAcc] {
                convertTargets(ctx, tables, src, dst, sel);
                if (rec)
                    noteConvAccesses(rec, *convReads, *wAcc);
            });
            Event ev = st->record();
            replay->noteCustomEvent(ev);
            launches.push_back({std::move(ev), std::move(sel)});
            continue;
        }

        devs.device(d).launch(br, bw, ops);
        if (devs.numStreams() == 1) {
            if (capture) {
                capture->recordCustomNode(0, br, bw, ops, srcPos,
                                          writePositions(sel),
                                          Event());
            }
            auto rec = check::enabled()
                           ? check::beginLaunch(nullptr, {})
                           : nullptr;
            convertTargets(ctx, tables, src, dst, sel);
            if (rec)
                noteConvAccesses(rec, *convReads, *writeAccesses(sel));
            continue;
        }
        Stream &st = leased.streamOfDevice(d, rr[d]++);
        for (const Event &e : srcWaits)
            st.wait(e);
        auto rec = check::enabled() ? check::beginLaunch(&st, {})
                                    : nullptr;
        auto wAcc = writeAccesses(sel);
        std::vector<u32> selCopy = sel;
        st.submit([&ctx, &tables, src, dst, sel = std::move(selCopy),
                   keep, rec, convReads, wAcc] {
            convertTargets(ctx, tables, src, dst, sel);
            if (rec)
                noteConvAccesses(rec, *convReads, *wAcc);
        });
        Event ev = st.record();
        if (capture) {
            capture->recordCustomNode(st.id(), br, bw, ops, srcPos,
                                      writePositions(sel), ev);
        }
        launches.push_back({std::move(ev), std::move(sel)});
    }
    return launches;
}

/** Pending-write events of the limbs behind @p src pointers. */
std::vector<Event>
writeEventsOf(const LimbPartition &p, const std::vector<u32> &positions)
{
    std::vector<Event> evs;
    for (u32 pos : positions) {
        Event w = p[pos].lastWrite();
        if (!w.ready())
            evs.push_back(std::move(w));
    }
    return evs;
}

} // namespace

void
convert(const Context &ctx, const std::vector<const u64 *> &src,
        const ConvTables &tables, const std::vector<u64 *> &dst)
{
    FIDES_ASSERT(src.size() == tables.sourceIdx.size() &&
                 dst.size() == tables.targetIdx.size());
    std::vector<u32> all(tables.targetIdx.size());
    for (u32 t = 0; t < all.size(); ++t)
        all[t] = t;
    convertTargets(ctx, tables, src, dst, all);
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

    RNSPoly out(ctx, level, Format::Eval, ctx.numSpecial());
    LimbPartition &op = out.partition();
    const LimbPartition &sp = coeffPoly.partition();
    const LimbPartition &ep = evalPoly.partition();

    // Conv sources read the coefficient poly directly; targets land
    // in `out` at the position of each global prime.
    std::vector<const u64 *> src;
    for (u32 gi : tables.sourceIdx)
        src.push_back(sp[gi].data()); // q-limb position == gi
    std::vector<u64 *> dst;
    std::vector<u32> dstPos;
    for (u32 gi : tables.targetIdx) {
        std::size_t pos = gi <= level
                              ? gi
                              : level + 1 + (gi - (ctx.maxLevel() + 1));
        dst.push_back(op[pos].data());
        dstPos.push_back(static_cast<u32>(pos));
    }

    auto launches = dispatchConvert(
        ctx, tables, std::move(src), std::move(dst),
        writeEventsOf(sp, tables.sourceIdx),
        {coeffPoly.partShared(), out.partShared()},
        // Symbolic bindings: q-limb position == global prime index.
        coeffPoly, tables.sourceIdx, out, dstPos);
    for (const ConvLaunch &l : launches) {
        for (u32 t : l.targets)
            op[dstPos[t]].noteWrite(l.ev);
        for (u32 gi : tables.sourceIdx)
            sp[gi].noteRead(l.ev);
    }

    // One kernel finishes every limb (it waits on the Conv events
    // through the limbs Conv wrote). The digit's own limbs -- a
    // contiguous q-limb block whose residues ModUp keeps -- are
    // copied from the eval-form input; only the Conv targets take a
    // forward NTT. Copied limbs are billed as copies.
    const std::size_t srcLo = tables.sourceIdx.front();
    const std::size_t srcHi = srcLo + tables.sourceIdx.size();
    FIDES_ASSERT(tables.sourceIdx.back() + 1 == srcHi);
    const NttChoice c = ctx.nttChoiceFor(tables.targetIdx.size());
    const kernels::LimbCost nttCost = kernels::nttLimbCost(ctx, c.fwd);
    const kernels::LimbCost copyCost{n * kWord, n * kWord, 0};
    kernels::forBatches(ctx, out.numLimbs(),
                        [&](std::size_t i) {
        return i >= srcLo && i < srcHi ? copyCost : nttCost;
    }, [&ctx, &op, &ep, c, srcLo, srcHi, n](std::size_t lo,
                                            std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            if (i >= srcLo && i < srcHi) {
                std::memcpy(op[i].write(), ep[i].read(),
                            n * sizeof(u64));
            } else {
                nttForwardVariant(op[i].write(),
                                  *ctx.prime(op[i].primeIdx()).ntt,
                                  c.fwd, c.fwdColBlock);
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
    const u32 K = ctx.numSpecial();
    const std::size_t n = ctx.degree();
    const ConvTables &tables = ctx.modDownTables(level);
    LimbPartition &ap = a.partition();

    // iNTT the special limbs to coefficient form.
    kernels::forBatches(ctx, K, 2 * n * kWord, 2 * n * kWord,
                        5 * n * ctx.logDegree(),
                        [&ctx, &ap, level, K](std::size_t lo,
                                              std::size_t hi) {
        for (std::size_t k = lo; k < hi; ++k) {
            Limb &l = ap[level + 1 + k];
            kernels::inttLimb(ctx, l.write(), l.primeIdx(), K);
        }
    }, [&ap, level](std::size_t k) {
        return ap[level + 1 + k].primeIdx();
    }, {kernels::wr(a, level + 1)});

    // The result is a FRESH level-l polynomial. Building a new
    // polynomial instead of dropping the special limbs in place keeps
    // the hot path free of host joins: the old partition (and its
    // still-pending special limbs) is retired through the keep-alive /
    // deferred-free machinery.
    RNSPoly out(ctx, level, Format::Coeff);
    LimbPartition &op = out.partition();

    // Convert [x]_P into the Q_l basis (coeff form), straight into the
    // output limbs.
    std::vector<const u64 *> src;
    std::vector<u32> srcPos;
    for (u32 k = 0; k < K; ++k) {
        src.push_back(ap[level + 1 + k].data());
        srcPos.push_back(level + 1 + k);
    }
    std::vector<u64 *> dst;
    std::vector<u32> dstPos;
    for (u32 i = 0; i <= level; ++i) {
        dst.push_back(op[i].data());
        dstPos.push_back(i);
    }
    auto launches = dispatchConvert(ctx, tables, std::move(src),
                                    std::move(dst),
                                    writeEventsOf(ap, srcPos),
                                    {a.partShared(), out.partShared()},
                                    a, srcPos, out, dstPos);
    for (const ConvLaunch &l : launches) {
        for (u32 t : l.targets)
            op[t].noteWrite(l.ev);
        for (u32 pos : srcPos)
            ap[pos].noteRead(l.ev);
    }

    // Epilogue in place (paper III-F5, ModDown fusion: per q-limb,
    // NTT(out) then out = P^{-1} (x - out) in the same kernel; it
    // waits on the Conv events through the limbs Conv wrote). The
    // chain submits one fused launch per batch with fusion on, or the
    // two-kernel pipeline of the no-fusion backend otherwise.
    std::vector<u64> w(level + 1), ws(level + 1);
    for (u32 i = 0; i <= level; ++i) {
        w[i] = ctx.pInvModQ(i);
        ws[i] = ctx.pInvModQShoup(i);
    }
    kernels::FusedChain chain(ctx);
    chain.ntt(out);
    chain.rsubScalarMul(out, a, std::move(w), std::move(ws));
    chain.run();

    a = std::move(out);
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
    const std::size_t n = ctx.degree();
    const u64 ql = ctx.qMod(l).value;
    LimbPartition &ap = a.partition();

    // iNTT the dropped limb into host scratch, stream-ordered (no
    // host read: the buffer is only consumed by downstream kernels).
    auto last = std::make_shared<std::vector<u64>>(n);
    std::vector<Event> lastDone;
    kernels::forBatches(ctx, 1, 2 * n * kWord, 2 * n * kWord,
                        5 * n * ctx.logDegree(),
                        [&ctx, &ap, last, l, n](std::size_t,
                                                std::size_t) {
        std::memcpy(last->data(), ap[l].read(), n * sizeof(u64));
        kernels::inttLimb(ctx, last->data(), ap[l].primeIdx());
    }, [&ap, l](std::size_t) { return ap[l].primeIdx(); },
       {kernels::rdFixed(a, l)}, {}, &lastDone);

    // Rescale epilogue (paper Rescale fusion), in place on a FRESH
    // level-(l-1) polynomial (same join-free rationale as modDown):
    // the SwitchModulus prologue writes it, then NTT and the combined
    // q_l^{-1} (x - out) epilogue. One fused launch per batch with
    // fusion on; the three-kernel pipeline of the no-fusion backend
    // otherwise.
    RNSPoly out(ctx, l - 1, Format::Coeff);
    std::vector<u64> w(l), ws(l);
    for (u32 i = 0; i < l; ++i) {
        w[i] = ctx.qlInvModQ(l, i);
        ws[i] = ctx.qlInvModQShoup(l, i);
    }
    kernels::FusedChain chain(ctx);
    chain.switchModulus(out, last, ql);
    chain.ntt(out);
    chain.rsubScalarMul(out, a, std::move(w), std::move(ws));
    chain.run(lastDone);

    a = std::move(out);
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
