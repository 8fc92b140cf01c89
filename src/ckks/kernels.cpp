#include "ckks/kernels.hpp"

#include <chrono>
#include <cstring>
#include <ctime>
#include <memory>
#include <span>

#include "core/logging.hpp"

namespace fideslib::ckks::kernels
{

namespace
{

constexpr u64 kWord = sizeof(u64);

thread_local u64 tlDispatchNs = 0;

/** The calling thread's CPU clock (steady clock off Linux). */
u64
threadCpuNs()
{
#ifdef __linux__
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<u64>(ts.tv_sec) * 1000000000ull +
           static_cast<u64>(ts.tv_nsec);
#else
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
#endif
}

/**
 * Adds the thread CPU time of its enclosing scope to
 * dispatchEngineNs: one per multi-stream launch-engine call.
 */
class DispatchTimer
{
  public:
    DispatchTimer() : t0_(threadCpuNs()) {}
    ~DispatchTimer() { tlDispatchNs += threadCpuNs() - t0_; }

    DispatchTimer(const DispatchTimer &) = delete;
    DispatchTimer &operator=(const DispatchTimer &) = delete;

  private:
    u64 t0_;
};

/** The validator's view of one batch's Dep list: the limb buffers
 *  batch [lo, hi) resolves to (depLimbRange). */
std::vector<check::DeclaredAccess>
declaredAccesses(const std::vector<Dep> &deps, std::size_t lo,
                 std::size_t hi)
{
    std::vector<check::DeclaredAccess> out;
    for (const Dep &d : deps) {
        const auto [b, e] = depLimbRange(d, lo, hi);
        const LimbPartition &p = d.poly->partition();
        for (std::size_t i = b; i < e; ++i)
            out.push_back({p[i].data(), p[i].primeIdx(),
                           d.mode == Access::Write});
    }
    return out;
}

/** Pointwise modular multiply with the configured reduction. */
inline void
mulSpan(const Context &ctx, u64 *dst, const u64 *a, const u64 *b,
        std::size_t n, const Modulus &m)
{
    if (ctx.modMulKind() == ModMulKind::Barrett) {
        for (std::size_t j = 0; j < n; ++j)
            dst[j] = mulModBarrett(a[j], b[j], m);
    } else {
        for (std::size_t j = 0; j < n; ++j)
            dst[j] = mulModNaive(a[j], b[j], m.value);
    }
}

inline void
mulAddSpan(const Context &ctx, u64 *acc, const u64 *a, const u64 *b,
           std::size_t n, const Modulus &m)
{
    if (ctx.modMulKind() == ModMulKind::Barrett) {
        for (std::size_t j = 0; j < n; ++j)
            acc[j] = addMod(acc[j], mulModBarrett(a[j], b[j], m),
                            m.value);
    } else {
        for (std::size_t j = 0; j < n; ++j)
            acc[j] = addMod(acc[j], mulModNaive(a[j], b[j], m.value),
                            m.value);
    }
}

/**
 * One limb of the key-switch inner product: x0/x1[c] = (sum over the
 * d digits of s[j][perm[c]] * k0/k1[j][c]) mod p, accumulated in 128
 * bits and reduced once -- the exact residue, like any per-digit
 * mod-mul + add chain. d <= 64 products of residues below 2^61 sum
 * below 2^128.
 */
template <bool Barrett>
void
innerProductLimb(u64 *x0, u64 *x1, const u64 *const *s,
                 const u64 *const *k0, const u64 *const *k1,
                 std::size_t d, const u32 *perm, std::size_t n,
                 const Modulus &m)
{
    for (std::size_t c = 0; c < n; ++c) {
        const std::size_t at = perm ? perm[c] : c;
        u128 acc0 = 0, acc1 = 0;
        for (std::size_t j = 0; j < d; ++j) {
            const u64 v = s[j][at];
            acc0 += static_cast<u128>(v) * k0[j][c];
            acc1 += static_cast<u128>(v) * k1[j][c];
        }
        if constexpr (Barrett) {
            x0[c] = barrettReduce128(acc0, m);
            x1[c] = barrettReduce128(acc1, m);
        } else {
            x0[c] = static_cast<u64>(acc0 % m.value);
            x1[c] = static_cast<u64>(acc1 % m.value);
        }
    }
}

/**
 * Enqueues on @p st the stream-side waits batch [lo, hi) needs:
 * writers wait on the last writer and all in-flight readers of each
 * touched limb, readers only on the last writer. Events already
 * signalled, recorded on this same stream (in-order), or duplicated
 * across operands are skipped.
 */
void
waitHazards(Stream &st, const std::vector<Dep> &deps, std::size_t lo,
            std::size_t hi)
{
    std::vector<Event> waits;
    auto consider = [&](const Event &e) {
        if (e.ready() || e.streamId() == st.id())
            return;
        for (const Event &w : waits)
            if (w.sameAs(e))
                return;
        waits.push_back(e);
    };
    for (const Dep &d : deps) {
        const LimbPartition &p = d.poly->partition();
        auto [b, e] = depLimbRange(d, lo, hi);
        for (std::size_t i = b; i < e; ++i) {
            consider(p[i].lastWrite());
            if (d.mode == Access::Write)
                for (const Event &r : p[i].lastReads())
                    consider(r);
        }
    }
    for (const Event &e : waits)
        st.wait(e);
}

/**
 * Records batch [lo, hi)'s completion event onto the operand limbs.
 * Writes are noted before reads so that an operand appearing as both
 * (in-place kernels) ends up tracked as written-then-read.
 */
void
noteBatch(const std::vector<Dep> &deps, std::size_t lo,
          std::size_t hi, const Event &ev)
{
    for (const Dep &d : deps) {
        if (d.mode != Access::Write)
            continue;
        const LimbPartition &p = d.poly->partition();
        auto [b, e] = depLimbRange(d, lo, hi);
        for (std::size_t i = b; i < e; ++i)
            p[i].noteWrite(ev);
    }
    for (const Dep &d : deps) {
        if (d.mode != Access::Read)
            continue;
        const LimbPartition &p = d.poly->partition();
        auto [b, e] = depLimbRange(d, lo, hi);
        for (std::size_t i = b; i < e; ++i)
            p[i].noteRead(ev);
    }
}

} // namespace

u64
dispatchEngineNs()
{
    return tlDispatchNs;
}

void
forBatches(const Context &ctx, std::size_t numLimbs,
           u64 bytesReadPerLimb, u64 bytesWrittenPerLimb,
           u64 intOpsPerLimb,
           const std::function<void(std::size_t, std::size_t)> &fn,
           const std::function<u32(std::size_t)> &primeAt,
           const std::vector<Dep> &deps)
{
    // costAt is only consulted during the call: capturing by
    // reference keeps the std::function allocation-free.
    const LimbCost perLimb{bytesReadPerLimb, bytesWrittenPerLimb,
                           intOpsPerLimb};
    forBatches(ctx, numLimbs,
               [&perLimb](std::size_t) { return perLimb; }, fn, primeAt,
               deps);
}

void
forBatches(const Context &ctx, std::size_t numLimbs,
           const std::function<LimbCost(std::size_t)> &costAt,
           const std::function<void(std::size_t, std::size_t)> &fn,
           const std::function<u32(std::size_t)> &primeAt,
           const std::vector<Dep> &deps)
{
    if (numLimbs == 0)
        return;
    ctx.devices().noteLogicalKernel();
    // The modelled cost of batch [lo, hi): the sum of its limbs.
    launchBatches(ctx, numLimbs, ctx.limbBatch(),
                  [&costAt](std::size_t lo, std::size_t hi) {
        LimbCost c;
        for (std::size_t i = lo; i < hi; ++i) {
            const LimbCost l = costAt(i);
            c.bytesRead += l.bytesRead;
            c.bytesWritten += l.bytesWritten;
            c.intOps += l.intOps;
        }
        return c;
    }, fn, primeAt, deps);
}

void
launchBatches(const Context &ctx, std::size_t numLimbs,
              std::size_t limbBatch,
              const std::function<LimbCost(std::size_t, std::size_t)> &costOf,
              const std::function<void(std::size_t, std::size_t)> &fn,
              const std::function<u32(std::size_t)> &primeAt,
              const std::vector<Dep> &deps)
{
    if (numLimbs == 0)
        return;
    const std::size_t batch = limbBatch == 0 ? numLimbs : limbBatch;
    DeviceSet &devs = ctx.devices();
    if (devs.numStreams() == 1) {
        // A single stream is in-order by construction: run the
        // batches eagerly on the submitting thread. No events are
        // recorded or waited (everything this kernel could depend on
        // already ran inline too).
        for (std::size_t lo = 0; lo < numLimbs; lo += batch) {
            const std::size_t hi = std::min(numLimbs, lo + batch);
            const LimbCost c = costOf(lo, hi);
            devs.stream(0).device().launch(c.bytesRead, c.bytesWritten,
                                           c.intOps);
            if (check::enabled()) {
                check::BodyScope scope(check::beginLaunch(
                    nullptr, declaredAccesses(deps, lo, hi)));
                fn(lo, hi);
            } else {
                fn(lo, hi);
            }
        }
        return;
    }

    // Asynchronous multi-stream dispatch. The body is copied once and
    // shared by every batch; each queued task also holds the operand
    // partitions alive so a temporary polynomial may be destroyed
    // while its kernels are still in flight. Everything from here on
    // is submission work on this thread (dispatchEngineNs).
    DispatchTimer timer;
    auto body = std::make_shared<
        const std::function<void(std::size_t, std::size_t)>>(fn);
    std::vector<std::shared_ptr<LimbPartition>> keep;
    keep.reserve(deps.size());
    for (const Dep &d : deps)
        keep.push_back(d.poly->partShared());

    // Launch accounting and the simulated CPU-side launch overhead
    // are paid on the submitting thread, in submission order, exactly
    // as a CUDA launch would. Batches of one kernel touch disjoint
    // limb ranges, so they execute concurrently; ordering against
    // OTHER kernels on the same operands is enforced stream-side by
    // the recorded events -- the host never joins here.
    auto launchOn = [&](Stream &st, std::size_t lo, std::size_t hi) {
        const LimbCost c = costOf(lo, hi);
        st.device().launch(c.bytesRead, c.bytesWritten, c.intOps);
        waitHazards(st, deps, lo, hi);
        if (check::enabled()) {
            // Registered after the hazard waits so the launch clock
            // includes the edges they established; the record rides
            // along in the task so the worker-side body accesses are
            // attributed to this launch.
            auto rec = check::beginLaunch(
                &st, declaredAccesses(deps, lo, hi));
            st.submit([body, keep, rec, lo, hi] {
                check::BodyScope scope(rec);
                (*body)(lo, hi);
            });
        } else {
            st.submit([body, keep, lo, hi] { (*body)(lo, hi); });
        }
        noteBatch(deps, lo, hi, st.record());
    };

    // Stream picks go through the calling thread's lease (the whole
    // set outside serving): a request's kernels stay on its
    // submitter's streams, so concurrent requests never interleave on
    // one stream.
    const StreamLease &leased = ctx.streamLease();
    if (primeAt && devs.numDevices() > 1) {
        // Ownership-aware dispatch: split each batch at device
        // boundaries (rare, since placement is contiguous blocks of
        // the RNS base) and run every piece on a stream of the device
        // that owns its limbs, so work is accounted where the data
        // lives and kernels never touch a peer device's memory.
        std::vector<u32> rr(devs.numDevices(), 0);
        for (std::size_t lo = 0; lo < numLimbs; lo += batch) {
            const std::size_t hi = std::min(numLimbs, lo + batch);
            std::size_t sub = lo;
            while (sub < hi) {
                const u32 d = ctx.deviceFor(primeAt(sub)).id();
                std::size_t end = sub + 1;
                while (end < hi && ctx.deviceFor(primeAt(end)).id() == d)
                    ++end;
                launchOn(leased.streamOfDevice(d, rr[d]++), sub, end);
                sub = end;
            }
        }
    } else {
        // Shape-free fallback: round-robin over the leased streams.
        u32 next = 0;
        for (std::size_t lo = 0; lo < numLimbs; lo += batch) {
            const std::size_t hi = std::min(numLimbs, lo + batch);
            Stream &st = leased.stream(next);
            next = (next + 1) % leased.numStreams();
            launchOn(st, lo, hi);
        }
    }
}

void
addInto(RNSPoly &a, const RNSPoly &b)
{
    check::ScopedLabel lbl("addInto");
    FusedChain(a.context()).add(a, b).run();
}

void
subInto(RNSPoly &a, const RNSPoly &b)
{
    check::ScopedLabel lbl("subInto");
    FusedChain(a.context()).sub(a, b).run();
}

void
negate(RNSPoly &a)
{
    check::ScopedLabel lbl("negate");
    const auto &ctx = a.context();
    const std::size_t n = ctx.degree();
    LimbPartition &ap = a.partition();
    forBatches(ctx, a.numLimbs(), n * kWord, n * kWord, n,
               [&ctx, &ap, n](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            u64 p = ctx.prime(ap[i].primeIdx()).value();
            u64 *x = ap[i].write();
            for (std::size_t j = 0; j < n; ++j)
                x[j] = negMod(x[j], p);
        }
    }, [&ap](std::size_t i) { return ap[i].primeIdx(); }, {wr(a)});
}

void
mulInto(RNSPoly &a, const RNSPoly &b)
{
    check::ScopedLabel lbl("mulInto");
    FusedChain(a.context()).mul(a, a, b).run();
}

void
mul(RNSPoly &out, const RNSPoly &a, const RNSPoly &b)
{
    check::ScopedLabel lbl("mul");
    FusedChain(a.context()).mul(out, a, b).run();
}

void
keySwitchInnerProduct(RNSPoly &out0, RNSPoly &out1,
                      const std::vector<RNSPoly> &digits,
                      const std::vector<RNSPoly> &key0,
                      const std::vector<RNSPoly> &key1,
                      const std::vector<u32> *perm)
{
    check::ScopedLabel lbl("ksInnerProduct");
    const std::size_t d = digits.size();
    FIDES_ASSERT(d > 0 && d <= 64);
    FIDES_ASSERT(d <= key0.size() && d <= key1.size());
    const auto &ctx = out0.context();
    const std::size_t n = ctx.degree();
    const std::size_t limbs = out0.numLimbs();
    FIDES_ASSERT(out1.numLimbs() == limbs);
    out0.setFormat(Format::Eval);
    out1.setFormat(Format::Eval);

    // The body reads heap-stable partitions only (kept alive by the
    // Dep keep-alives). Limb i of an output pairs with limb i of each
    // digit and with the key limb of the same global prime: q-limb gi
    // sits at position gi of the full-basis key, special limb k at
    // L+1+k -- both equal the global index.
    std::vector<Dep> deps = {wr(out0), wr(out1)};
    std::vector<const LimbPartition *> sp, k0p, k1p;
    for (std::size_t j = 0; j < d; ++j) {
        FIDES_ASSERT(digits[j].format() == Format::Eval);
        FIDES_ASSERT(digits[j].numLimbs() == limbs);
        sp.push_back(&digits[j].partition());
        k0p.push_back(&key0[j].partition());
        k1p.push_back(&key1[j].partition());
        deps.push_back(rd(digits[j]));
        deps.push_back(rdWhole(key0[j]));
        deps.push_back(rdWhole(key1[j]));
    }
    LimbPartition &o0 = out0.partition();
    LimbPartition &o1 = out1.partition();
    const u32 *pm = perm ? perm->data() : nullptr;
    const bool barrett = ctx.modMulKind() == ModMulKind::Barrett;
    // Per output coefficient: d wide multiplies, d - 1 wide adds and
    // one reduction (the 4 ops beyond the multiply of a Barrett
    // mod-mul), for each of the two outputs.
    const u64 intOps = 2 * (2 * d + 3) * n;
    forBatches(ctx, limbs, 3 * d * n * kWord, 2 * n * kWord, intOps,
               [&ctx, &o0, &o1, sp, k0p, k1p, pm, barrett, d, n](
                   std::size_t lo, std::size_t hi) {
        std::vector<const u64 *> s(d), k0(d), k1(d);
        for (std::size_t i = lo; i < hi; ++i) {
            const u32 gi = o0[i].primeIdx();
            for (std::size_t j = 0; j < d; ++j) {
                s[j] = (*sp[j])[i].read();
                k0[j] = (*k0p[j])[gi].read();
                k1[j] = (*k1p[j])[gi].read();
            }
            const Modulus &m = ctx.prime(gi).mod;
            u64 *x0 = o0[i].write();
            u64 *x1 = o1[i].write();
            if (barrett)
                innerProductLimb<true>(x0, x1, s.data(), k0.data(),
                                       k1.data(), d, pm, n, m);
            else
                innerProductLimb<false>(x0, x1, s.data(), k0.data(),
                                        k1.data(), d, pm, n, m);
        }
    }, [&o0](std::size_t i) { return o0[i].primeIdx(); }, deps);
}

void
scalarMulInto(RNSPoly &a, const std::vector<u64> &scalar)
{
    check::ScopedLabel lbl("scalarMulInto");
    FusedChain(a.context()).scalarMul(a, scalar).run();
}

void
scalarAddInto(RNSPoly &a, const std::vector<u64> &scalar)
{
    check::ScopedLabel lbl("scalarAddInto");
    FIDES_ASSERT(scalar.size() >= a.numLimbs());
    const auto &ctx = a.context();
    const std::size_t n = ctx.degree();
    LimbPartition &ap = a.partition();
    forBatches(ctx, a.numLimbs(), n * kWord, n * kWord, n,
               [&ctx, &ap, n, scalar](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            u64 p = ctx.prime(ap[i].primeIdx()).value();
            u64 c = scalar[i];
            u64 *x = ap[i].write();
            for (std::size_t j = 0; j < n; ++j)
                x[j] = addMod(x[j], c, p);
        }
    }, [&ap](std::size_t i) { return ap[i].primeIdx(); }, {wr(a)});
}

void
nttLimb(const Context &ctx, u64 *data, u32 primeIdx)
{
    nttForward(data, *ctx.prime(primeIdx).ntt);
}

void
inttLimb(const Context &ctx, u64 *data, u32 primeIdx)
{
    nttInverse(data, *ctx.prime(primeIdx).ntt);
}

/**
 * Modelled off-chip traffic of one NTT limb: the flat radix-2 loop
 * spills one pass per pair of stages once the limb exceeds on-chip
 * memory, so it sweeps the limb max(2, logN/2) times.
 */
LimbCost
nttLimbCost(const Context &ctx)
{
    const u64 n = ctx.degree();
    const u64 bytes = std::max<u64>(2, ctx.logDegree() / 2) * n * kWord;
    return {bytes, bytes, 5 * n * ctx.logDegree()};
}

void
toEval(RNSPoly &a)
{
    check::ScopedLabel lbl("toEval");
    FIDES_ASSERT(a.format() == Format::Coeff);
    const auto &ctx = a.context();
    const LimbCost cost = nttLimbCost(ctx);
    LimbPartition &ap = a.partition();
    forBatches(ctx, a.numLimbs(), cost.bytesRead, cost.bytesWritten,
               cost.intOps,
               [&ctx, &ap](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
            nttForward(ap[i].write(), *ctx.prime(ap[i].primeIdx()).ntt);
    }, [&ap](std::size_t i) { return ap[i].primeIdx(); }, {wr(a)});
    a.setFormat(Format::Eval);
}

void
toCoeff(RNSPoly &a)
{
    toCoeff(a, a);
}

void
toCoeff(RNSPoly &out, const RNSPoly &in)
{
    check::ScopedLabel lbl("toCoeff");
    FIDES_ASSERT(in.format() == Format::Eval);
    FIDES_ASSERT(out.level() == in.level() &&
                 out.numSpecial() == in.numSpecial());
    const auto &ctx = in.context();
    const std::size_t n = ctx.degree();
    const LimbCost cost = nttLimbCost(ctx);
    LimbPartition &op = out.partition();
    const LimbPartition &ip = in.partition();
    // Out of place, the transform's first pass reads the input limb:
    // billed as one transform, with no copy kernel before it.
    const bool inPlace = &op == &ip;
    std::vector<Dep> deps = {wr(out)};
    if (!inPlace)
        deps.push_back(rd(in));
    forBatches(ctx, out.numLimbs(), cost.bytesRead, cost.bytesWritten,
               cost.intOps,
               [&ctx, &op, &ip, inPlace, n](std::size_t lo,
                                            std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            u64 *x = op[i].write();
            if (!inPlace)
                std::memcpy(x, ip[i].read(), n * sizeof(u64));
            nttInverse(x, *ctx.prime(op[i].primeIdx()).ntt);
        }
    }, [&op](std::size_t i) { return op[i].primeIdx(); }, deps);
    out.setFormat(Format::Coeff);
}

void
automorph(RNSPoly &out, const RNSPoly &in, const std::vector<u32> &perm)
{
    check::ScopedLabel lbl("automorph");
    FusedChain(in.context()).gather(out, in, perm).run();
}

void
mulByMonomial(RNSPoly &a, u64 k)
{
    check::ScopedLabel lbl("mulByMonomial");
    FIDES_ASSERT(a.format() == Format::Coeff);
    const auto &ctx = a.context();
    const std::size_t n = ctx.degree();
    k %= 2 * n;
    if (k == 0)
        return;
    LimbPartition &ap = a.partition();
    forBatches(ctx, a.numLimbs(), n * kWord, n * kWord, n,
               [&ctx, &ap, n, k](std::size_t lo, std::size_t hi) {
        // Per-batch scratch: batches run on concurrent streams.
        std::vector<u64> tmp(n);
        for (std::size_t i = lo; i < hi; ++i) {
            u64 p = ctx.prime(ap[i].primeIdx()).value();
            u64 *x = ap[i].write();
            // X^j * X^k = sign * X^((j+k) mod n), negacyclic wrap.
            for (std::size_t j = 0; j < n; ++j) {
                std::size_t jj = j + static_cast<std::size_t>(k);
                bool flip = (jj / n) & 1;
                jj %= n;
                tmp[jj] = flip ? negMod(x[j], p) : x[j];
            }
            std::copy(tmp.begin(), tmp.end(), x);
        }
    }, [&ap](std::size_t i) { return ap[i].primeIdx(); }, {wr(a)});
}

void
switchModulusLimb(const Context &ctx, const u64 *src, u64 srcPrime,
                  u64 *dst, u32 dstPrimeIdx)
{
    const Modulus &dm = ctx.prime(dstPrimeIdx).mod;
    const std::size_t n = ctx.degree();
    const u64 half = srcPrime >> 1;
    if (dm.value >= srcPrime) {
        const u64 diff = (dm.value - srcPrime) % dm.value;
        for (std::size_t j = 0; j < n; ++j) {
            // Recentre: values above q/2 represent negatives.
            u64 v = src[j];
            dst[j] = v > half ? addMod(v, diff, dm.value)
                              : barrettReduce64(v, dm);
        }
    } else {
        for (std::size_t j = 0; j < n; ++j) {
            u64 v = src[j];
            if (v > half) {
                // v - q mod p = v mod p - q mod p
                u64 r = barrettReduce64(v, dm);
                u64 qr = barrettReduce64(srcPrime, dm);
                dst[j] = subMod(r, qr, dm.value);
            } else {
                dst[j] = barrettReduce64(v, dm);
            }
        }
    }
}

// --- FusedChain -------------------------------------------------------

/**
 * One recorded element-wise operation. Polynomial operands are stored
 * twice: the RNSPoly pointer feeds the Dep list built at run() (and
 * must stay alive until then), the LimbPartition pointer is what the
 * kernel body dereferences -- heap-stable and kept alive past run()
 * by the Dep keep-alives.
 */
struct FusedChain::Op
{
    enum class Kind : unsigned char
    {
        Mul,
        MulAdd,
        Add,
        Sub,
        ScalarMul,
        ScaledAdd,
        Gather,
        SwitchModulus,
        Ntt,
        RsubScalarMul,
    };

    explicit Op(Kind k) : kind(k) {}

    Kind kind;
    RNSPoly *outPoly = nullptr;        //!< written polynomial
    const RNSPoly *aPoly = nullptr;    //!< first input
    const RNSPoly *bPoly = nullptr;    //!< second input
    LimbPartition *out = nullptr;
    const LimbPartition *a = nullptr;
    const LimbPartition *b = nullptr;
    const u32 *perm = nullptr;         //!< automorphism gather
    std::vector<u64> s0, s1;           //!< per-limb scalar constants
    std::size_t srcLimb = 0;           //!< SwitchModulus's source limb

    /** The polynomial whose limbs the op spans: scaledAdd writes
     *  only x's leading limbs of a possibly wider accumulator. */
    const RNSPoly *
    rangePoly() const
    {
        return kind == Kind::ScaledAdd ? aPoly : outPoly;
    }

    /** SwitchModulus reads one fixed limb of a, not a positionally. */
    bool fixedSource() const { return kind == Kind::SwitchModulus; }

    bool readsOut() const
    {
        switch (kind) {
        case Kind::MulAdd:
        case Kind::Add:
        case Kind::Sub:
        case Kind::ScalarMul:
        case Kind::ScaledAdd:
        case Kind::Ntt:
        case Kind::RsubScalarMul:
            return true;
        default:
            return false;
        }
    }

    /** Per-limb integer-op model, the same fused or unfused. */
    u64
    intOpsPerLimb(std::size_t n, u32 logN) const
    {
        switch (kind) {
        case Kind::Mul: return 5 * n;
        case Kind::MulAdd: return 6 * n;
        case Kind::Add:
        case Kind::Sub: return n;
        case Kind::ScalarMul: return 3 * n;
        case Kind::ScaledAdd: return 4 * n;
        case Kind::Gather: return 0;
        case Kind::SwitchModulus: return 2 * n;
        case Kind::Ntt: return 5 * n * logN;
        case Kind::RsubScalarMul: return 4 * n;
        }
        return 0;
    }
};

FusedChain::FusedChain(const Context &ctx) : ctx_(&ctx) {}

FusedChain::~FusedChain()
{
    // A chain destroyed with recorded ops was never run(): the caller
    // dropped a kernel sequence on the floor (early return, missing
    // trailing .run()). Catch the misuse here, where the bug is.
    FIDES_ASSERT(ops_.empty());
}

namespace
{

/** Executes one recorded op on limb @p i. */
inline void
runOpOnLimb(const Context &ctx, const FusedChain::Op &op, std::size_t i,
            std::size_t n)
{
    using Kind = FusedChain::Op::Kind;
    switch (op.kind) {
    case Kind::Mul: {
        const Modulus &m = ctx.prime((*op.out)[i].primeIdx()).mod;
        mulSpan(ctx, (*op.out)[i].write(), (*op.a)[i].read(),
                (*op.b)[i].read(), n, m);
        break;
    }
    case Kind::MulAdd: {
        const Modulus &m = ctx.prime((*op.out)[i].primeIdx()).mod;
        mulAddSpan(ctx, (*op.out)[i].write(), (*op.a)[i].read(),
                   (*op.b)[i].read(), n, m);
        break;
    }
    case Kind::Add: {
        const u64 p = ctx.prime((*op.out)[i].primeIdx()).value();
        u64 *x = (*op.out)[i].write();
        const u64 *y = (*op.b)[i].read();
        for (std::size_t j = 0; j < n; ++j)
            x[j] = addMod(x[j], y[j], p);
        break;
    }
    case Kind::Sub: {
        const u64 p = ctx.prime((*op.out)[i].primeIdx()).value();
        u64 *x = (*op.out)[i].write();
        const u64 *y = (*op.b)[i].read();
        for (std::size_t j = 0; j < n; ++j)
            x[j] = subMod(x[j], y[j], p);
        break;
    }
    case Kind::ScalarMul: {
        const u64 p = ctx.prime((*op.out)[i].primeIdx()).value();
        const u64 w = op.s0[i];
        const u64 ws = shoupPrecompute(w, p);
        u64 *x = (*op.out)[i].write();
        for (std::size_t j = 0; j < n; ++j)
            x[j] = mulModShoup(x[j], w, ws, p);
        break;
    }
    case Kind::ScaledAdd: {
        const u64 p = ctx.prime((*op.out)[i].primeIdx()).value();
        const u64 w = op.s0[i];
        const u64 ws = op.s1[i];
        const u64 *x = (*op.a)[i].read();
        u64 *o = (*op.out)[i].write();
        for (std::size_t j = 0; j < n; ++j)
            o[j] = addMod(o[j], mulModShoup(x[j], w, ws, p), p);
        break;
    }
    case Kind::Gather: {
        const u64 *src = (*op.a)[i].read();
        u64 *dst = (*op.out)[i].write();
        for (std::size_t j = 0; j < n; ++j)
            dst[j] = src[op.perm[j]];
        break;
    }
    case Kind::SwitchModulus: {
        const Limb &src = (*op.a)[op.srcLimb];
        const u64 q = ctx.prime(src.primeIdx()).value();
        switchModulusLimb(ctx, src.read(), q, (*op.out)[i].write(),
                          (*op.out)[i].primeIdx());
        break;
    }
    case Kind::Ntt:
        nttLimb(ctx, (*op.out)[i].write(), (*op.out)[i].primeIdx());
        break;
    case Kind::RsubScalarMul: {
        const u64 p = ctx.prime((*op.out)[i].primeIdx()).value();
        const u64 w = op.s0[i];
        const u64 ws = op.s1[i];
        const u64 *x = (*op.a)[i].read();
        u64 *o = (*op.out)[i].write();
        for (std::size_t j = 0; j < n; ++j)
            o[j] = mulModShoup(subMod(x[j], o[j], p), w, ws, p);
        break;
    }
    }
}

/** Per-op traffic of the no-fusion backend (words per limb). A fused
 *  one-op chain over distinct operands bills the same. */
inline std::pair<u64, u64>
unfusedTraffic(const FusedChain::Op &op)
{
    using Kind = FusedChain::Op::Kind;
    switch (op.kind) {
    case Kind::Mul: return {2, 1};
    case Kind::MulAdd: return {3, 1};
    case Kind::Add:
    case Kind::Sub: return {2, 1};
    case Kind::ScalarMul: return {1, 1};
    case Kind::ScaledAdd: return {2, 1};
    case Kind::Gather: return {1, 1};
    case Kind::SwitchModulus: return {1, 1};
    case Kind::Ntt: return {2, 2};
    case Kind::RsubScalarMul: return {2, 1};
    }
    return {0, 0};
}

/**
 * The Dep list of a run of chain ops: one positional Dep per distinct
 * polynomial, Write wherever the ops write it (Write hazards cover
 * read-modify-write), Read otherwise; a fixed source limb gets an
 * rdFixed Dep beside it. Both submission paths use it, so an unfused
 * op declares what the same op declares fused.
 */
std::vector<Dep>
chainDeps(std::span<const FusedChain::Op> ops)
{
    std::vector<Dep> deps;
    auto depFor = [&deps](const RNSPoly *p) -> Dep * {
        for (Dep &d : deps)
            if (d.poly == p && d.count == 0)
                return &d;
        return nullptr;
    };
    for (const FusedChain::Op &op : ops) {
        if (op.outPoly) {
            if (Dep *d = depFor(op.outPoly))
                d->mode = Access::Write;
            else
                deps.push_back(wr(*op.outPoly));
        }
        if (op.fixedSource())
            deps.push_back(rdFixed(*op.aPoly, op.srcLimb));
        else if (op.aPoly && !depFor(op.aPoly))
            deps.push_back(rd(*op.aPoly));
        if (op.bPoly && !depFor(op.bPoly))
            deps.push_back(rd(*op.bPoly));
    }
    return deps;
}

/** An op pairs limb i of @p in with limb i of @p out and reduces by
 *  the out limb's prime, so their primes must line up. */
void
checkPrimesAligned(const RNSPoly &out, const RNSPoly &in)
{
    for (std::size_t i = 0; i < out.numLimbs(); ++i)
        FIDES_ASSERT(out.primeIdxAt(i) == in.primeIdxAt(i));
}

} // namespace

FusedChain &
FusedChain::mul(RNSPoly &out, const RNSPoly &a, const RNSPoly &b)
{
    FIDES_ASSERT(a.format() == Format::Eval &&
                 b.format() == Format::Eval);
    FIDES_ASSERT(out.numLimbs() <= a.numLimbs() &&
                 out.numLimbs() <= b.numLimbs());
    checkPrimesAligned(out, a);
    checkPrimesAligned(out, b);
    out.setFormat(Format::Eval);
    Op op{Op::Kind::Mul};
    op.outPoly = &out;
    op.aPoly = &a;
    op.bPoly = &b;
    ops_.push_back(std::move(op));
    return *this;
}

FusedChain &
FusedChain::mulAdd(RNSPoly &acc, const RNSPoly &a, const RNSPoly &b)
{
    FIDES_ASSERT(a.format() == Format::Eval &&
                 b.format() == Format::Eval);
    FIDES_ASSERT(acc.numLimbs() <= a.numLimbs() &&
                 acc.numLimbs() <= b.numLimbs());
    checkPrimesAligned(acc, a);
    checkPrimesAligned(acc, b);
    Op op{Op::Kind::MulAdd};
    op.outPoly = &acc;
    op.aPoly = &a;
    op.bPoly = &b;
    ops_.push_back(std::move(op));
    return *this;
}

FusedChain &
FusedChain::add(RNSPoly &a, const RNSPoly &b)
{
    FIDES_ASSERT(a.numLimbs() <= b.numLimbs());
    checkPrimesAligned(a, b);
    Op op{Op::Kind::Add};
    op.outPoly = &a;
    op.bPoly = &b;
    ops_.push_back(std::move(op));
    return *this;
}

FusedChain &
FusedChain::sub(RNSPoly &a, const RNSPoly &b)
{
    FIDES_ASSERT(a.numLimbs() <= b.numLimbs());
    checkPrimesAligned(a, b);
    Op op{Op::Kind::Sub};
    op.outPoly = &a;
    op.bPoly = &b;
    ops_.push_back(std::move(op));
    return *this;
}

FusedChain &
FusedChain::scalarMul(RNSPoly &a, std::vector<u64> scalar)
{
    FIDES_ASSERT(scalar.size() >= a.numLimbs());
    Op op{Op::Kind::ScalarMul};
    op.outPoly = &a;
    op.s0 = std::move(scalar);
    ops_.push_back(std::move(op));
    return *this;
}

FusedChain &
FusedChain::scaledAdd(RNSPoly &acc, const RNSPoly &x, std::vector<u64> w,
                      std::vector<u64> wShoup)
{
    FIDES_ASSERT(acc.format() == x.format());
    FIDES_ASSERT(x.numLimbs() <= acc.numLimbs());
    FIDES_ASSERT(w.size() >= x.numLimbs() &&
                 wShoup.size() >= x.numLimbs());
    checkPrimesAligned(x, acc);
    Op op{Op::Kind::ScaledAdd};
    op.outPoly = &acc;
    op.aPoly = &x;
    op.s0 = std::move(w);
    op.s1 = std::move(wShoup);
    ops_.push_back(std::move(op));
    return *this;
}

FusedChain &
FusedChain::gather(RNSPoly &out, const RNSPoly &in,
                   const std::vector<u32> &perm)
{
    FIDES_ASSERT(in.format() == Format::Eval);
    FIDES_ASSERT(out.numLimbs() == in.numLimbs());
    checkPrimesAligned(out, in);
    out.setFormat(Format::Eval);
    Op op{Op::Kind::Gather};
    op.outPoly = &out;
    op.aPoly = &in;
    op.perm = perm.data(); // Context's automorphism cache, node-stable
    ops_.push_back(std::move(op));
    return *this;
}

FusedChain &
FusedChain::switchModulus(RNSPoly &out, const RNSPoly &src,
                          std::size_t srcLimb)
{
    FIDES_ASSERT(srcLimb < src.numLimbs());
    out.setFormat(Format::Coeff);
    Op op{Op::Kind::SwitchModulus};
    op.outPoly = &out;
    op.aPoly = &src;
    op.srcLimb = srcLimb;
    ops_.push_back(std::move(op));
    return *this;
}

FusedChain &
FusedChain::ntt(RNSPoly &a)
{
    FIDES_ASSERT(a.format() == Format::Coeff);
    a.setFormat(Format::Eval);
    Op op{Op::Kind::Ntt};
    op.outPoly = &a;
    ops_.push_back(std::move(op));
    return *this;
}

FusedChain &
FusedChain::rsubScalarMul(RNSPoly &out, const RNSPoly &x,
                          std::vector<u64> w, std::vector<u64> wShoup)
{
    FIDES_ASSERT(out.format() == Format::Eval &&
                 x.format() == Format::Eval);
    FIDES_ASSERT(out.numLimbs() <= x.numLimbs());
    checkPrimesAligned(out, x);
    Op op{Op::Kind::RsubScalarMul};
    op.outPoly = &out;
    op.aPoly = &x;
    op.s0 = std::move(w);
    op.s1 = std::move(wShoup);
    ops_.push_back(std::move(op));
    return *this;
}

void
FusedChain::run()
{
    if (ops_.empty())
        return;
    check::ScopedLabel lbl("fused_chain");
    const Context &ctx = *ctx_;
    const std::size_t n = ctx.degree();
    const u32 logN = ctx.logDegree();

    // Resolve partitions now: the body must never touch an RNSPoly
    // (stack object), only its heap-stable partition.
    for (Op &op : ops_) {
        if (op.outPoly)
            op.out = &op.outPoly->partition();
        if (op.aPoly)
            op.a = &op.aPoly->partition();
        if (op.bPoly)
            op.b = &op.bPoly->partition();
    }

    // The chain's shape -- limb count and position -> prime mapping --
    // comes from the first op's limb range (every op writes).
    const LimbPartition *shape = &ops_.front().rangePoly()->partition();
    const std::size_t numLimbs = shape->size();
    // Every op's range must span the chain's shape exactly: a smaller
    // output would silently truncate the ops after it, a larger one
    // would be left partially unwritten.
    for (const Op &op : ops_)
        FIDES_ASSERT(op.rangePoly()->numLimbs() == numLimbs);
    auto primeAt = [shape](std::size_t i) {
        return (*shape)[i].primeIdx();
    };

    if (!ctx.fusionEnabled()) {
        // Unfused backend: one logical kernel per recorded op, each
        // billed its own traffic (unfusedTraffic), chained through
        // the Dep events as usual.
        for (const Op &op : ops_) {
            // The queued bodies outlive ops_, so each holds its own
            // copy of the op.
            auto one = std::make_shared<const Op>(op);
            auto [r, w] = unfusedTraffic(op);
            forBatches(ctx, numLimbs, r * n * kWord, w * n * kWord,
                       op.intOpsPerLimb(n, logN),
                       [&ctx, one, n](std::size_t lo, std::size_t hi) {
                for (std::size_t i = lo; i < hi; ++i)
                    runOpOnLimb(ctx, *one, i, n);
            }, primeAt, chainDeps({&op, 1}));
        }
        ops_.clear();
        return;
    }

    // Fused submission: ONE logical kernel for the whole chain.
    //
    // Counters: integer ops are summed over the chain; memory traffic
    // is single-pass -- each distinct operand is counted once (reads
    // only when first touched as a read: an operand produced earlier
    // in the chain, or chain-internal scratch, stays on-chip). A fixed
    // source limb is an operand of its own.
    u64 intOps = 0;
    u64 readsPerLimb = 0, writesPerLimb = 0;
    std::vector<const void *> written, readCounted;
    auto seen = [](const std::vector<const void *> &v, const void *p) {
        for (const void *q : v)
            if (q == p)
                return true;
        return false;
    };
    auto countRead = [&](const void *slot) {
        if (slot && !seen(written, slot) && !seen(readCounted, slot)) {
            readCounted.push_back(slot);
            ++readsPerLimb;
        }
    };
    auto countWrite = [&](const void *slot) {
        if (slot && !seen(written, slot)) {
            written.push_back(slot);
            ++writesPerLimb;
        }
    };
    for (const Op &op : ops_) {
        intOps += op.intOpsPerLimb(n, logN);
        countRead(op.fixedSource() ? &(*op.a)[op.srcLimb]
                                   : static_cast<const void *>(op.a));
        countRead(op.b);
        if (op.readsOut())
            countRead(op.out);
        countWrite(op.out);
    }

    const std::vector<Dep> deps = chainDeps(ops_);
    auto ops =
        std::make_shared<const std::vector<Op>>(std::move(ops_));
    forBatches(ctx, numLimbs, readsPerLimb * n * kWord,
               writesPerLimb * n * kWord, intOps,
               [&ctx, ops, n](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
            for (const Op &op : *ops)
                runOpOnLimb(ctx, op, i, n);
    }, primeAt, deps);
    ops_.clear();
}

} // namespace fideslib::ckks::kernels
