/**
 * @file
 * Execution-layer tests: the multi-device/multi-stream schedule must
 * be a pure performance knob. The same workload run on 1 device / 1
 * stream and on 2 devices / 4 streams has to produce bit-identical
 * ciphertexts, limb placement has to follow the contiguous-block
 * policy, forBatches has to account the right launch counts for uneven
 * limb/batch splits, and the pool teardown assertion has to catch
 * leaked device buffers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <random>
#include <thread>

#include "ckks/basechange.hpp"
#include "ckks/encryptor.hpp"
#include "ckks/evaluator.hpp"
#include "ckks/kernels.hpp"
#include "ckks/keygen.hpp"

namespace fideslib::ckks
{
namespace
{

Parameters
topologyParams(u32 devices, u32 streamsPerDevice)
{
    Parameters p = Parameters::testSmall();
    // Several batches per logical kernel so the round-robin schedule
    // actually interleaves streams.
    p.limbBatch = 2;
    p.numDevices = devices;
    p.streamsPerDevice = streamsPerDevice;
    return p;
}

/**
 * Encrypt, multiply (tensor + key switch), rescale, rotate, add: a
 * pipeline crossing every kernel family, fully determined by the
 * context seed.
 */
Ciphertext
runPipeline(Context &ctx, KeyGen &keygen, const KeyBundle &keys)
{
    Evaluator eval(ctx, keys);
    Encoder enc(ctx);
    Encryptor encr(ctx, keys.pk);

    const u32 slots = static_cast<u32>(ctx.degree() / 2);
    const u32 L = ctx.maxLevel();
    std::vector<std::complex<double>> za(slots), zb(slots);
    for (u32 i = 0; i < slots; ++i) {
        za[i] = {std::cos(0.37 * i), std::sin(0.91 * i)};
        zb[i] = {std::sin(0.53 * i), std::cos(0.11 * i)};
    }
    auto a = encr.encrypt(enc.encode(za, slots, L));
    auto b = encr.encrypt(enc.encode(zb, slots, L));

    auto m = eval.multiply(a, b);
    eval.rescaleInPlace(m);
    auto r = eval.rotate(m, 1);
    eval.addInPlace(r, m);
    (void)keygen;
    return r;
}

void
expectPolyEqual(const RNSPoly &a, const RNSPoly &b)
{
    // Genuine host read: join on any kernels still in flight.
    a.syncHost();
    b.syncHost();
    ASSERT_EQ(a.numLimbs(), b.numLimbs());
    for (std::size_t i = 0; i < a.numLimbs(); ++i) {
        ASSERT_EQ(a.primeIdxAt(i), b.primeIdxAt(i));
        ASSERT_EQ(0, std::memcmp(a.limb(i).data(), b.limb(i).data(),
                                 a.limb(i).size() * sizeof(u64)))
            << "limb " << i << " differs";
    }
}

TEST(ExecutionDeterminism, MultiStreamMatchesSingleStreamBitExactly)
{
    // Baseline: 1 device, 1 stream (inline execution).
    Context ctx1(topologyParams(1, 1));
    KeyGen kg1(ctx1);
    KeyBundle keys1 = kg1.makeBundle({1});
    Ciphertext r1 = runPipeline(ctx1, kg1, keys1);

    // 2 devices x 2 streams = 4 concurrent streams.
    Context ctx2(topologyParams(2, 2));
    ASSERT_EQ(ctx2.devices().numDevices(), 2u);
    ASSERT_EQ(ctx2.devices().numStreams(), 4u);
    KeyGen kg2(ctx2);
    KeyBundle keys2 = kg2.makeBundle({1});
    Ciphertext r2 = runPipeline(ctx2, kg2, keys2);

    expectPolyEqual(r1.c0, r2.c0);
    expectPolyEqual(r1.c1, r2.c1);
    EXPECT_EQ(static_cast<double>(r1.scale),
              static_cast<double>(r2.scale));

    // And an 8-stream single-device schedule for good measure.
    Context ctx3(topologyParams(1, 8));
    KeyGen kg3(ctx3);
    KeyBundle keys3 = kg3.makeBundle({1});
    Ciphertext r3 = runPipeline(ctx3, kg3, keys3);
    expectPolyEqual(r1.c0, r3.c0);
    expectPolyEqual(r1.c1, r3.c1);
}

TEST(ExecutionDeterminism, FusedMatchesUnfusedBitExactlyAcrossTopologies)
{
    // Golden reference: fusion OFF on the inline single-stream
    // schedule. Every fused/unfused run on every topology must
    // reproduce it bit-exactly: FusedChain only changes how many
    // launches the work takes, never a single coefficient.
    Parameters pRef = topologyParams(1, 1);
    pRef.fusion = false;
    Context ctxRef(pRef);
    KeyGen kgRef(ctxRef);
    KeyBundle keysRef = kgRef.makeBundle({1});
    Ciphertext want = runPipeline(ctxRef, kgRef, keysRef);

    const std::pair<u32, u32> topologies[] = {
        {1, 1}, {1, 4}, {2, 2}, {3, 1}};
    for (auto [d, s] : topologies) {
        for (bool fused : {false, true}) {
            Parameters p = topologyParams(d, s);
            p.fusion = fused;
            Context ctx(p);
            KeyGen kg(ctx);
            KeyBundle keys = kg.makeBundle({1});
            Ciphertext got = runPipeline(ctx, kg, keys);
            SCOPED_TRACE(::testing::Message()
                         << "topology " << d << "x" << s << " fused "
                         << fused);
            expectPolyEqual(want.c0, got.c0);
            expectPolyEqual(want.c1, got.c1);
        }
    }
}

TEST(ExecutionLaunches, FusionCutsLogicalKernelsPerHMult)
{
    // The acceptance metric at unit scale: fusing the tensor product,
    // the key-switch inner product and the epilogues must cut logical
    // kernels per HMult by >= 30% against the unfused pipeline.
    auto kernelsPerHMult = [](bool fused) {
        Parameters p = topologyParams(1, 1);
        p.fusion = fused;
        Context ctx(p);
        KeyGen kg(ctx);
        KeyBundle keys = kg.makeBundle({1});
        Evaluator eval(ctx, keys);
        Encoder enc(ctx);
        Encryptor encr(ctx, keys.pk);
        const u32 slots = static_cast<u32>(ctx.degree() / 2);
        std::vector<std::complex<double>> z(slots, {0.5, 0.25});
        auto a = encr.encrypt(enc.encode(z, slots, ctx.maxLevel()));
        auto b = encr.encrypt(enc.encode(z, slots, ctx.maxLevel()));
        ctx.devices().resetCounters();
        auto r = eval.multiply(a, b);
        r.syncHost();
        return ctx.devices().logicalKernels();
    };
    const u64 unfused = kernelsPerHMult(false);
    const u64 fused = kernelsPerHMult(true);
    EXPECT_LE(fused * 10, unfused * 7)
        << "fused " << fused << " vs unfused " << unfused;
}

TEST(ExecutionSharding, LimbsFollowBlockPlacement)
{
    Context ctx(topologyParams(2, 1));
    // The RNS base is split into contiguous blocks, one per device.
    const u32 total = ctx.numPrimes();
    RNSPoly p(ctx, ctx.maxLevel(), Format::Eval, ctx.numSpecial());
    ASSERT_EQ(p.numLimbs(), total);
    for (std::size_t i = 0; i < p.numLimbs(); ++i) {
        EXPECT_EQ(p.limb(i).device().id(), p.primeIdxAt(i) * 2 / total)
            << "limb " << i;
    }
    // Both devices hold a real share of the polynomial.
    const auto &part = p.partition();
    EXPECT_GT(part.numOnDevice(0), 0u);
    EXPECT_GT(part.numOnDevice(1), 0u);
    EXPECT_EQ(part.numOnDevice(0) + part.numOnDevice(1), p.numLimbs());
    // ... and the bytes live in the owning device's pool.
    EXPECT_GT(ctx.devices().device(0).pool().bytesInUse(), 0u);
    EXPECT_GT(ctx.devices().device(1).pool().bytesInUse(), 0u);
    EXPECT_EQ(ctx.devices().bytesInUse(),
              ctx.devices().device(0).pool().bytesInUse() +
                  ctx.devices().device(1).pool().bytesInUse());
}

TEST(ExecutionLaunches, UnevenLimbBatchSplits)
{
    Context ctx(topologyParams(1, 1));
    const std::size_t n = ctx.degree();
    auto countLaunches = [&](std::size_t numLimbs, u32 batch) {
        ctx.setLimbBatch(batch);
        ctx.devices().resetCounters();
        kernels::forBatches(ctx, numLimbs, n, n, n,
                            [](std::size_t, std::size_t) {});
        return ctx.devices().aggregateCounters().launches;
    };
    EXPECT_EQ(countLaunches(7, 3), 3u); // 3+3+1
    EXPECT_EQ(countLaunches(7, 5), 2u); // 5+2
    EXPECT_EQ(countLaunches(7, 7), 1u);
    EXPECT_EQ(countLaunches(7, 9), 1u); // batch larger than limbs
    EXPECT_EQ(countLaunches(1, 4), 1u);
    EXPECT_EQ(countLaunches(0, 4), 0u); // empty kernel: no launch
    EXPECT_EQ(countLaunches(8, 0), 1u); // 0 = one launch spans all
}

TEST(ExecutionLaunches, ShapeFreeFallbackRoundRobinsAcrossDevices)
{
    Context ctx(topologyParams(2, 1)); // 2 devices, 1 stream each
    const std::size_t n = ctx.degree();
    ctx.setLimbBatch(2);
    ctx.devices().resetCounters();
    // No positional Write Dep: 7 limbs / batch 2 -> 4 batches
    // round-robin over streams 0,1,0,1.
    kernels::forBatches(ctx, 7, n, n, 0,
                        [](std::size_t, std::size_t) {});
    EXPECT_EQ(ctx.devices().device(0).counters().launches, 2u);
    EXPECT_EQ(ctx.devices().device(1).counters().launches, 2u);
    // The uneven tail batch (1 limb) is accounted with its true size:
    // total traffic covers exactly 7 limbs.
    const KernelCounters total = ctx.devices().aggregateCounters();
    EXPECT_EQ(total.bytesRead, 7 * n);
    EXPECT_EQ(total.bytesWritten, 7 * n);
}

TEST(ExecutionLaunches, OwnershipDispatchAccountsWhereLimbsLive)
{
    Context ctx(topologyParams(2, 2));
    const std::size_t n = ctx.degree();
    const u32 total = ctx.numPrimes(); // block boundary at total / 2
    RNSPoly a(ctx, ctx.maxLevel(), Format::Eval);
    RNSPoly b(ctx, ctx.maxLevel(), Format::Eval);
    a.setZero();
    b.setZero();
    const std::size_t limbs = a.numLimbs();
    const std::size_t onDev0 = std::min<std::size_t>(limbs, total / 2);
    const std::size_t onDev1 = limbs - onDev0;

    // One launch spanning all limbs still splits at the device
    // boundary: each device is charged exactly its own limbs.
    ctx.setLimbBatch(0);
    ctx.devices().resetCounters();
    kernels::addInto(a, b);
    EXPECT_EQ(ctx.devices().device(0).counters().launches,
              onDev0 ? 1u : 0u);
    EXPECT_EQ(ctx.devices().device(1).counters().launches,
              onDev1 ? 1u : 0u);
    EXPECT_EQ(ctx.devices().device(0).counters().bytesWritten,
              onDev0 * n * sizeof(u64));
    EXPECT_EQ(ctx.devices().device(1).counters().bytesWritten,
              onDev1 * n * sizeof(u64));
}

TEST(ExecutionLaunches, ConvBillsTheDevicesOwningItsTargets)
{
    // Conv writes its targets through write spans around ModUp's
    // digit; at limb batch 0 it launches once per device owning
    // targets, and each launch, like every kernel around it, is billed
    // to the device owning the limbs it writes. testSmall at dnum 3:
    // digits {q0, q1}, {q2, q3}, {q4}, K = 2, and q0..q3 live on
    // device 0, q4, p0, p1 on device 1 -- so the middle digit's Conv
    // targets after its hole sit on the other device than the hole.
    Parameters p = topologyParams(2, 2);
    p.dnum = 3;
    Context ctx(p);
    ctx.setLimbBatch(0);
    const u32 L = ctx.maxLevel();
    ASSERT_EQ(L, 4u);
    ASSERT_EQ(ctx.numSpecial(), 2u);
    for (u32 gi = 0; gi < ctx.numPrimes(); ++gi)
        ASSERT_EQ(ctx.deviceFor(gi).id(), gi < 4 ? 0u : 1u) << gi;
    const u64 limb = ctx.degree() * sizeof(u64); // copy, Conv target
    const u64 ntt = kernels::nttLimbCost(ctx).bytesWritten;
    DeviceSet &devs = ctx.devices();
    auto expectBilled = [&devs](const char *what, u64 launches0,
                                u64 bytes0, u64 launches1, u64 bytes1) {
        devs.synchronize();
        const KernelCounters d0 = devs.device(0).counters();
        const KernelCounters d1 = devs.device(1).counters();
        EXPECT_EQ(d0.launches, launches0) << what;
        EXPECT_EQ(d0.bytesWritten, bytes0) << what;
        EXPECT_EQ(d1.launches, launches1) << what;
        EXPECT_EQ(d1.bytesWritten, bytes1) << what;
    };

    // Middle digit: Conv writes q0, q1 on device 0 and q4, p0, p1 on
    // device 1; the finishing kernel NTTs the same targets and copies
    // q2, q3 (device 0).
    RNSPoly e(ctx, L, Format::Eval), c(ctx, L, Format::Coeff);
    e.setZero();
    c.setZero();
    devs.resetCounters();
    RNSPoly raised = modUpDigit(e, c, 1);
    expectBilled("modUp digit 1", 2, 2 * limb + 2 * ntt + 2 * limb, 2,
                 3 * limb + 3 * ntt);

    // modDown: iNTT of p0, p1 (device 1), Conv into q0..q4, and the
    // fused NTT + scale epilogue on q0..q4.
    raised.setZero();
    devs.resetCounters();
    modDown(raised);
    expectBilled("modDown", 2, 4 * limb + 4 * limb, 3,
                 2 * ntt + limb + limb);
}

TEST(ExecutionAccounting, PolyCloneGoesThroughLaunchCounters)
{
    Context ctx(topologyParams(1, 1));
    RNSPoly p(ctx, ctx.maxLevel(), Format::Eval);
    p.setZero();
    ctx.devices().resetCounters();
    RNSPoly c = p.clone();
    const KernelCounters after = ctx.devices().aggregateCounters();
    const u64 bytes = p.numLimbs() * ctx.degree() * sizeof(u64);
    EXPECT_GE(after.launches, 1u);
    EXPECT_EQ(after.bytesRead, bytes);
    EXPECT_EQ(after.bytesWritten, bytes);
}

// --- Event unit tests -------------------------------------------------

TEST(EventModel, RecordWaitOrdering)
{
    Device dev;
    Stream s0(dev, 0), s1(dev, 1);
    std::atomic<int> produced{0};
    s0.submit([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        produced.store(1, std::memory_order_release);
    });
    Event e = s0.record();
    // wait() enqueues the dependency device-side: the task submitted
    // to s1 after the wait must observe the s0 task's effects.
    s1.wait(e);
    std::atomic<int> observed{-1};
    s1.submit([&] {
        observed.store(produced.load(std::memory_order_acquire));
    });
    s1.synchronize();
    EXPECT_EQ(observed.load(), 1);
    EXPECT_TRUE(e.ready());
    // Double-synchronize is an idempotent no-op.
    e.synchronize();
    e.synchronize();
    s0.synchronize();
}

TEST(EventModel, NullAndIdleStreamEventsAreBornSignalled)
{
    Event null;
    EXPECT_FALSE(null.valid());
    EXPECT_TRUE(null.ready());
    null.synchronize(); // no-op

    Device dev;
    Stream s(dev, 0);
    // Nothing in flight: record() must not spawn a worker thread just
    // to flip a flag.
    Event idle = s.record();
    EXPECT_TRUE(idle.ready());
    idle.synchronize();
}

TEST(EventModel, DestructionWithPendingWaiters)
{
    Device dev;
    Stream s0(dev, 0), s1(dev, 1);
    std::atomic<bool> ran{false};
    {
        s0.submit([] {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
        });
        Event e = s0.record();
        s1.wait(e);
        // e goes out of scope here while s1's waiter still holds it.
    }
    s1.submit([&] { ran.store(true); });
    s1.synchronize(); // completes once s0 signals the shared state
    EXPECT_TRUE(ran.load());
    s0.synchronize();
}

// --- Bounded run-ahead ------------------------------------------------

/** Spins (yielding) until @p flag is set. */
void
awaitFlag(const std::atomic<bool> &flag)
{
    while (!flag.load(std::memory_order_acquire))
        std::this_thread::yield();
}

TEST(EventModel, FullQueueBlocksSubmitterUntilLowWater)
{
    Device dev;
    Stream s(dev, 0);
    std::atomic<bool> running{false}, open{false};
    std::atomic<std::size_t> ran{0};
    // The worker pops the gate task and holds it, so the queue fills
    // with exactly the tasks below.
    s.submit([&] {
        running.store(true, std::memory_order_release);
        awaitFlag(open);
        ran.fetch_add(1);
    });
    awaitFlag(running);
    for (std::size_t i = 0; i < Stream::kQueueCap; ++i)
        s.submit([&] { ran.fetch_add(1); });

    std::atomic<bool> entering{false}, returned{false};
    std::size_t ranAtReturn = 0;
    std::thread extra([&] {
        entering.store(true, std::memory_order_release);
        s.submit([&] { ran.fetch_add(1); });
        ranAtReturn = ran.load();
        returned.store(true, std::memory_order_release);
    });
    awaitFlag(entering);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    // The queue is full and its worker held: the submit cannot return.
    EXPECT_FALSE(returned.load());
    open.store(true, std::memory_order_release);
    extra.join();
    // Woken at the low-water mark: the gate and all but one of the
    // popped tasks have run. Uncapped, it returns at ran == 0.
    EXPECT_GE(ranAtReturn, Stream::kQueueCap - Stream::kQueueLowWater);
    s.synchronize();
    EXPECT_EQ(ran.load(), Stream::kQueueCap + 2);
}

TEST(EventModel, CappedStreamsWithCrossWaitsDrain)
{
    // Two submitters, each feeding its own stream several caps'
    // worth of tasks and making the OTHER stream wait on an event of
    // its own every few tasks: waits cross in both directions while
    // both queues sit at the cap.
    constexpr std::size_t kTasks = 4 * Stream::kQueueCap;
    constexpr std::size_t kWaitEvery = 8;
    Device dev;
    Stream s0(dev, 0), s1(dev, 1);
    std::atomic<bool> open{false};
    std::atomic<std::size_t> submitted{0};
    for (Stream *s : {&s0, &s1})
        s->submit([&] { awaitFlag(open); });

    std::vector<std::size_t> log0, log1;
    auto feed = [&](Stream &own, Stream &other,
                    std::vector<std::size_t> &log) {
        for (std::size_t i = 0; i < kTasks; ++i) {
            own.submit([&log, i] {
                spinNs(500);
                log.push_back(i);
            });
            submitted.fetch_add(1);
            if (i % kWaitEvery == kWaitEvery - 1)
                other.wait(own.record());
        }
    };
    std::thread a([&] { feed(s0, s1, log0); });
    std::thread b([&] { feed(s1, s0, log1); });
    // Hold both workers while the submitters fill the queues up to
    // the cap. The count below is always reached: a submitter blocks
    // only on a full queue, and each submitter adds one record or
    // wait per kWaitEvery tasks, so a full queue means at least 8/9
    // of a cap of tasks submitted.
    while (submitted.load() < Stream::kQueueLowWater)
        std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    open.store(true, std::memory_order_release);
    a.join();
    b.join();
    s0.synchronize();
    s1.synchronize();

    // Each task ran exactly once, in submission order on its stream.
    for (const auto *log : {&log0, &log1}) {
        ASSERT_EQ(log->size(), kTasks);
        for (std::size_t i = 0; i < kTasks; ++i)
            ASSERT_EQ((*log)[i], i);
    }
}

TEST(EventModelDeathTest, SubmitFromStreamWorkerTripsAssertion)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            Device dev;
            Stream s(dev, 0);
            // A worker that submitted could block on its own full
            // queue; the first submission from a worker panics.
            s.submit([&s] { s.submit([] {}); });
            s.synchronize();
        },
        "assertion failed.*tOnStreamWorker");
}

// --- Asynchronous pipelining -----------------------------------------

/**
 * A deterministic chain of kernels crossing every kernel family, with
 * NO host synchronization between them: the stream-side event hazards
 * alone must order the pipeline. Returns the final polynomial (still
 * potentially in flight -- callers syncHost before reading).
 */
RNSPoly
runKernelChain(Context &ctx, const std::vector<u32> &ops)
{
    const u32 L = ctx.maxLevel();
    const std::size_t n = ctx.degree();

    // Deterministic host-side fill of fresh polynomials (no kernels
    // pending yet, so no sync needed).
    RNSPoly a(ctx, L, Format::Coeff);
    RNSPoly b(ctx, L, Format::Coeff);
    std::mt19937_64 rng(12345);
    for (RNSPoly *p : {&a, &b}) {
        for (std::size_t i = 0; i < p->numLimbs(); ++i) {
            const u64 q = ctx.prime(p->primeIdxAt(i)).value();
            u64 *x = p->limb(i).data();
            for (std::size_t j = 0; j < n; ++j)
                x[j] = rng() % q;
        }
    }
    kernels::toEval(a);
    kernels::toEval(b);
    RNSPoly acc(ctx, L, Format::Eval);
    acc.setZero();

    std::vector<u64> scalar(L + 1 + ctx.numSpecial());
    for (std::size_t i = 0; i < scalar.size(); ++i)
        scalar[i] = 3 + i;
    const auto &perm = ctx.automorphPerm(ctx.rotationGaloisElt(1));

    for (u32 op : ops) {
        switch (op % 8) {
        case 0: kernels::addInto(a, b); break;
        case 1: kernels::subInto(b, a); break;
        case 2: kernels::mulInto(a, b); break;
        case 3: kernels::FusedChain(ctx).mulAdd(acc, a, b).run(); break;
        case 4: kernels::negate(b); break;
        case 5: kernels::scalarMulInto(a, scalar); break;
        case 6: {
            // Rotate through a temporary destroyed while its kernels
            // may still be queued (exercises the keep-alives).
            RNSPoly c(ctx, L, Format::Eval);
            kernels::automorph(c, a, perm);
            a = std::move(c);
            break;
        }
        case 7: a = a.clone(); break;
        }
    }
    kernels::addInto(a, acc);
    return a;
}

TEST(ExecutionAsync, DeterminismStressAcrossRandomTopologies)
{
    // A seeded random kernel chain, long enough that batches from
    // many kernels overlap in flight.
    std::mt19937 rng(987654);
    std::vector<u32> ops(64);
    for (u32 &op : ops)
        op = rng();

    Context base(topologyParams(1, 1));
    RNSPoly want = runKernelChain(base, ops);
    want.syncHost();

    const std::pair<u32, u32> topologies[] = {
        {1, 2}, {1, 8}, {2, 2}, {3, 1}, {2, 4}, {4, 2}};
    for (auto [d, s] : topologies) {
        Context ctx(topologyParams(d, s));
        RNSPoly got = runKernelChain(ctx, ops);
        got.syncHost();
        ASSERT_EQ(got.numLimbs(), want.numLimbs());
        for (std::size_t i = 0; i < got.numLimbs(); ++i) {
            ASSERT_EQ(0, std::memcmp(got.limb(i).data(),
                                     want.limb(i).data(),
                                     got.limb(i).size() * sizeof(u64)))
                << "topology " << d << "x" << s << " limb " << i;
        }
    }
}

TEST(ExecutionAsync, ChainedKernelsPayNoHostJoins)
{
    Context ctx(topologyParams(2, 2));
    std::vector<u32> ops(24);
    for (u32 i = 0; i < ops.size(); ++i)
        ops[i] = i;
    ctx.devices().resetCounters();
    RNSPoly r = runKernelChain(ctx, ops);
    // The whole chain pipelined stream-side: not one host block.
    EXPECT_EQ(ctx.devices().hostJoins(), 0u);
    EXPECT_GE(ctx.devices().logicalKernels(), ops.size());
    r.syncHost(); // the only join (skipped if work already drained)
    EXPECT_LE(ctx.devices().hostJoins(), 1u);
}

TEST(ExecutionAsync, HMultPipelineJoinsAtLeastTenfoldFewer)
{
    // The acceptance workload: HMult + rescale on a multi-stream
    // topology. The barrier model joined the host once per logical
    // kernel; the event model must show >= 10x fewer joins.
    Context ctx(topologyParams(2, 2));
    KeyGen kg(ctx);
    KeyBundle keys = kg.makeBundle({1});
    Evaluator eval(ctx, keys);
    Encoder enc(ctx);
    Encryptor encr(ctx, keys.pk);
    const u32 slots = static_cast<u32>(ctx.degree() / 2);
    std::vector<std::complex<double>> z(slots, {0.5, -0.25});
    auto a = encr.encrypt(enc.encode(z, slots, ctx.maxLevel()));
    auto b = encr.encrypt(enc.encode(z, slots, ctx.maxLevel()));

    ctx.devices().resetCounters();
    auto m = eval.multiply(a, b);
    eval.rescaleInPlace(m);
    auto r = eval.rotate(m, 1);
    r.syncHost();
    const u64 kernels = ctx.devices().logicalKernels();
    const u64 joins = ctx.devices().hostJoins();
    // Fusion collapses the tensor product, the key-switch inner
    // product and the epilogues, so each op runs fewer logical
    // kernels than the barrier era -- the pipeline here is HMult +
    // rescale + rotate to keep the workload above the 10x bar (the
    // final ciphertext read joins the host at most once).
    EXPECT_GE(kernels, 20u);
    EXPECT_LE(joins * 10, kernels)
        << "host joins " << joins << " vs logical kernels " << kernels;
}

TEST(ExecutionAsync, CiphertextSyncHostCountsOneJoin)
{
    // One host read of a ciphertext is one host join, even when its
    // two components finish at different times. Two gated kernels
    // write c0 and c1; a helper thread opens c0's gate once a join is
    // counted, and c1's once a second one is or 200 ms later, so a sync
    // that joins c0 and then c1 on its own counts two.
    Context ctx(topologyParams(2, 2));
    const u32 L = ctx.maxLevel();
    const std::size_t n = ctx.degree();
    Ciphertext ct{RNSPoly(ctx, L, Format::Eval),
                  RNSPoly(ctx, L, Format::Eval), ctx.defaultScale(), 1};
    std::atomic<bool> open0{false}, open1{false};
    auto gatedFill = [&ctx, n](RNSPoly &poly, std::atomic<bool> &open) {
        LimbPartition &p = poly.partition();
        kernels::forBatches(ctx, poly.numLimbs(), 0, 0, 0,
                            [&open, &p, n](std::size_t lo, std::size_t hi) {
            awaitFlag(open);
            for (std::size_t i = lo; i < hi; ++i)
                std::fill_n(p[i].write(), n, static_cast<u64>(i));
        }, {kernels::wr(poly)});
    };
    gatedFill(ct.c0, open0);
    gatedFill(ct.c1, open1);

    DeviceSet &devs = ctx.devices();
    const u64 before = devs.hostJoins();
    std::thread opener([&devs, &open0, &open1, before] {
        auto awaitJoins = [&](u64 count, std::chrono::milliseconds ms) {
            const auto deadline = std::chrono::steady_clock::now() + ms;
            while (devs.hostJoins() - before < count &&
                   std::chrono::steady_clock::now() < deadline)
                std::this_thread::yield();
        };
        awaitJoins(1, std::chrono::milliseconds(2000));
        open0.store(true, std::memory_order_release);
        awaitJoins(2, std::chrono::milliseconds(200));
        open1.store(true, std::memory_order_release);
    });
    ct.syncHost();
    const u64 joins = devs.hostJoins() - before;
    opener.join();
    devs.synchronize();
    EXPECT_EQ(joins, 1u);
    EXPECT_EQ(ct.c1.limb(L).data()[n - 1], static_cast<u64>(L));
}

TEST(ExecutionAsync, LevelReduceReturnsWhileAKernelStillWritesTheInput)
{
    // levelReduceInPlace copies the kept limbs into fresh polynomials,
    // so it returns without a host join while a kernel is still
    // writing the ciphertext, and the copy still sees what that kernel
    // writes. The kernel is held by a gate that a helper thread opens
    // once the call has returned, or after 2 s, so a level reduction
    // that joins on the writer fails here instead of hanging.
    Context ctx(topologyParams(2, 2));
    KeyGen kg(ctx);
    KeyBundle keys = kg.makeBundle({});
    Evaluator eval(ctx, keys);
    const u32 L = ctx.maxLevel();
    const std::size_t n = ctx.degree();
    Ciphertext ct{RNSPoly(ctx, L, Format::Eval),
                  RNSPoly(ctx, L, Format::Eval), ctx.defaultScale(), 1};
    auto value = [n](u32 c, std::size_t i, std::size_t j) {
        return static_cast<u64>((2 * i + c) * n + j);
    };

    std::atomic<bool> open{false}, returned{false};
    LimbPartition &p0 = ct.c0.partition();
    LimbPartition &p1 = ct.c1.partition();
    kernels::forBatches(ctx, ct.c0.numLimbs(), 0, 0, 0,
                        [&open, &p0, &p1, &value, n](std::size_t lo,
                                                     std::size_t hi) {
        awaitFlag(open);
        for (std::size_t i = lo; i < hi; ++i) {
            u64 *x0 = p0[i].write();
            u64 *x1 = p1[i].write();
            for (std::size_t j = 0; j < n; ++j) {
                x0[j] = value(0, i, j);
                x1[j] = value(1, i, j);
            }
        }
    }, {kernels::wr(ct.c0), kernels::wr(ct.c1)});
    std::thread opener([&open, &returned] {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(2);
        while (!returned.load(std::memory_order_acquire) &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
        open.store(true, std::memory_order_release);
    });

    const u64 joinsBefore = ctx.devices().hostJoins();
    eval.levelReduceInPlace(ct, 1);
    returned.store(true, std::memory_order_release);
    const u64 joins = ctx.devices().hostJoins() - joinsBefore;
    opener.join();
    EXPECT_EQ(joins, 0u);
    // The copy waited only on the kept limbs' writers: drain the rest
    // before the gate and the body's captures go out of scope.
    ctx.devices().synchronize();

    ASSERT_EQ(ct.level(), 1u);
    ct.syncHost();
    for (u32 c = 0; c < 2; ++c) {
        const RNSPoly &poly = c == 0 ? ct.c0 : ct.c1;
        ASSERT_EQ(poly.numLimbs(), 2u);
        for (std::size_t i = 0; i < 2; ++i)
            for (std::size_t j = 0; j < n; ++j)
                ASSERT_EQ(poly.limb(i).data()[j], value(c, i, j))
                    << "component " << c << " limb " << i;
    }
}

TEST(ExecutionPool, PendingBuffersAreDeferredNotRecycled)
{
    Context ctx(topologyParams(1, 2));
    DeviceSet &devs = ctx.devices();
    // Park both streams so the next kernel's batches stay queued.
    for (u32 s = 0; s < devs.numStreams(); ++s) {
        devs.stream(s).submit([] {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
        });
    }
    const u64 before = devs.device(0).pool().deferredFrees();
    {
        RNSPoly p(ctx, ctx.maxLevel(), Format::Eval);
        p.setZero();
        kernels::negate(p);
        // p dies here with its kernels still queued behind the naps:
        // the partition keep-alive defers destruction to the last
        // worker task, whose own completion event is unsignalled at
        // that point -- so its buffers must go through the pool's
        // deferred-free list, not straight back to the free lists
        // where a new allocation could catch them.
    }
    devs.synchronize();
    EXPECT_GT(devs.device(0).pool().deferredFrees(), before);
    // The host join itself swept the deferred list: the memory is
    // accounted free again with NO further allocate()/trim() (a
    // device idle after a burst no longer overstates bytesInUse).
    EXPECT_EQ(devs.bytesInUse(), 0u);
}

TEST(ExecutionPoolDeathTest, LeakedBufferTripsTeardownAssertion)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            Device dev;
            void *leaked = dev.pool().allocate(64);
            (void)leaked;
            // Device (and its pool) destructs with bytesInUse != 0.
        },
        "assertion failed");
}

} // namespace
} // namespace fideslib::ckks
