/**
 * @file
 * Capture-and-replay plan tests (graph.hpp): a replayed plan must be
 * a pure dispatch optimization. The golden test proves replayed
 * execution is bit-identical to the uncached path under every
 * (devices, streams, limbBatch) topology; the rest pin down the cache
 * mechanics -- hit/miss accounting, invalidation on execution-knob
 * changes, the FIDES_NO_GRAPH-style escape hatch, arena-reserved
 * replay allocation, and correct event chaining when replayed ops
 * interleave with un-graphed kernels.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>

#include "ckks/encryptor.hpp"
#include "ckks/evaluator.hpp"
#include "ckks/graph.hpp"
#include "ckks/keygen.hpp"

namespace fideslib::ckks
{
namespace
{

Parameters
topologyParams(u32 devices, u32 streamsPerDevice, u32 limbBatch = 2)
{
    Parameters p = Parameters::testSmall();
    p.limbBatch = limbBatch;
    p.numDevices = devices;
    p.streamsPerDevice = streamsPerDevice;
    return p;
}

/** Context + keys + helpers for one topology under test. */
struct Fixture
{
    Context ctx;
    KeyGen keygen;
    KeyBundle keys;
    Evaluator eval;
    Encoder enc;
    Encryptor encr;

    explicit Fixture(const Parameters &p)
        : ctx(p), keygen(ctx), keys(keygen.makeBundle({1, 2})),
          eval(ctx, keys), enc(ctx), encr(ctx, keys.pk)
    {}

    Ciphertext
    encrypt(double seed)
    {
        const u32 slots = static_cast<u32>(ctx.degree() / 2);
        std::vector<std::complex<double>> z(slots);
        for (u32 i = 0; i < slots; ++i)
            z[i] = {std::cos(seed * (i + 1)), std::sin(seed + i)};
        return encr.encrypt(enc.encode(z, slots, ctx.maxLevel()));
    }
};

/**
 * One pass over every plan-cached op, pipelined with NO host joins
 * between ops (rescale consumes the in-flight multiply, the rotation
 * consumes the in-flight rescale, ...) and with an un-graphed kernel
 * (addInPlace) interleaved, so replayed plans must chain correctly
 * off external events in both directions. Fully determined by the
 * context seed and the iteration number.
 */
Ciphertext
runHotOps(Fixture &f)
{
    auto a = f.encrypt(0.37);
    auto b = f.encrypt(0.53);
    auto m = f.eval.multiply(a, b); // HMult (tensor + key switch)
    f.eval.rescaleInPlace(m);       // Rescale, both components
    auto r1 = f.eval.rotate(m, 1);  // KSDecompose + KSApply
    f.eval.addInPlace(r1, m);       // un-graphed kernel in between
    auto r2 = f.eval.rotate(r1, 2); // replays the same KS plans
    auto s = f.eval.square(r2);     // HSquare
    f.eval.rescaleInPlace(s);       // Rescale one level down
    auto h = f.eval.hoistedRotate(s, {1, 2}); // shared decomposition
    f.eval.addInPlace(h[0], h[1]);
    return std::move(h[0]);
}

void
expectPolyEqual(const RNSPoly &want, const RNSPoly &got,
                const char *what)
{
    want.syncHost();
    got.syncHost();
    ASSERT_EQ(want.numLimbs(), got.numLimbs()) << what;
    for (std::size_t i = 0; i < want.numLimbs(); ++i) {
        ASSERT_EQ(want.primeIdxAt(i), got.primeIdxAt(i)) << what;
        ASSERT_EQ(0, std::memcmp(want.limb(i).data(),
                                 got.limb(i).data(),
                                 want.limb(i).size() * sizeof(u64)))
            << what << ": limb " << i << " differs";
    }
}

TEST(GraphReplay, BitIdenticalToUncachedAcrossTopologies)
{
    // Golden reference: plans disabled, inline single-stream
    // execution. Three passes, because each pass consumes context
    // randomness -- pass k of every configuration must match
    // reference pass k.
    constexpr int kPasses = 3;
    Fixture ref(topologyParams(1, 1));
    ref.ctx.setGraphEnabled(false);
    std::vector<Ciphertext> want;
    for (int k = 0; k < kPasses; ++k)
        want.push_back(runHotOps(ref));

    const std::tuple<u32, u32, u32> topologies[] = {
        {1, 1, 2}, {1, 4, 2}, {2, 2, 2}, {3, 1, 3}, {2, 4, 0}};
    for (auto [d, s, batch] : topologies) {
        Fixture f(topologyParams(d, s, batch));
        ASSERT_TRUE(f.ctx.graphEnabled());
        for (int k = 0; k < kPasses; ++k) {
            // Pass 0 captures every plan, passes 1..k replay them.
            Ciphertext got = runHotOps(f);
            SCOPED_TRACE(::testing::Message()
                         << "topology " << d << "x" << s << " batch "
                         << batch << " pass " << k);
            expectPolyEqual(want[k].c0, got.c0, "c0");
            expectPolyEqual(want[k].c1, got.c1, "c1");
            EXPECT_EQ(static_cast<double>(want[k].scale),
                      static_cast<double>(got.scale));
        }
        EXPECT_GT(f.ctx.devices().planReplays(), 0u)
            << "later passes must hit the plan cache";
        EXPECT_GT(f.ctx.plans().size(), 0u);
    }
}

TEST(GraphPlan, CaptureOnceThenReplay)
{
    Fixture f(topologyParams(2, 2));
    auto a = f.encrypt(0.11);
    auto b = f.encrypt(0.29);
    DeviceSet &devs = f.ctx.devices();

    auto m1 = f.eval.multiply(a, b);
    EXPECT_EQ(devs.planCaptures(), 1u); // one HMult plan captured
    EXPECT_EQ(devs.planReplays(), 0u);
    EXPECT_EQ(f.ctx.plans().size(), 1u);

    auto m2 = f.eval.multiply(a, b);
    EXPECT_EQ(devs.planCaptures(), 1u);
    EXPECT_EQ(devs.planReplays(), 1u); // second call replays

    // A level further down is a different shape: its own plan.
    f.eval.rescaleInPlace(m1);
    f.eval.rescaleInPlace(m2);
    auto m3 = f.eval.multiply(m1, m2);
    EXPECT_EQ(devs.planCaptures(), 3u); // + Rescale, + lower HMult
    EXPECT_EQ(devs.planReplays(), 2u);  // second rescale replayed
    EXPECT_EQ(f.ctx.plans().size(), 3u);
    m3.syncHost();
}

TEST(GraphPlan, ExecutionKnobChangesInvalidatePlans)
{
    Fixture f(topologyParams(1, 2));
    auto a = f.encrypt(0.41);
    auto b = f.encrypt(0.43);

    (void)f.eval.multiply(a, b);
    EXPECT_EQ(f.ctx.plans().size(), 1u);

    // Changing the batch split invalidates; re-setting the same
    // value must NOT (the bench sweep relies on this).
    f.ctx.setLimbBatch(3);
    EXPECT_EQ(f.ctx.plans().size(), 0u);
    (void)f.eval.multiply(a, b);
    EXPECT_EQ(f.ctx.plans().size(), 1u);
    f.ctx.setLimbBatch(3);
    EXPECT_EQ(f.ctx.plans().size(), 1u);

    f.ctx.setFusion(false);
    EXPECT_EQ(f.ctx.plans().size(), 0u);
    auto m = f.eval.multiply(a, b); // unfused topology captures fine
    (void)f.eval.multiply(a, b);
    EXPECT_GT(f.ctx.devices().planReplays(), 0u);
    m.syncHost();
}

TEST(GraphPlan, LimbBatchSwitchInvalidatesAndRecapturesIdentically)
{
    // Switching the limb batch is an execution-knob change: the
    // captured plans baked the old batch split and its arena
    // reservations, so a genuine switch must drop every plan AND
    // release the reserved arenas; re-setting the active value must
    // be a free no-op.
    Fixture f(topologyParams(1, 2));
    auto a = f.encrypt(0.29);
    auto b = f.encrypt(0.31);

    Ciphertext m1 = f.eval.multiply(a, b);
    m1.syncHost();
    ASSERT_EQ(f.ctx.plans().size(), 1u);
    ASSERT_GT(f.ctx.planStats().reservedBytes, 0u);

    // Re-setting the already-active limb batch keeps the plans.
    f.ctx.setLimbBatch(f.ctx.limbBatch());
    EXPECT_EQ(f.ctx.plans().size(), 1u);

    // A genuine switch clears the plans and the arena reservations.
    f.ctx.setLimbBatch(f.ctx.limbBatch() + 1);
    EXPECT_EQ(f.ctx.plans().size(), 0u);
    EXPECT_EQ(f.ctx.planStats().reservedBytes, 0u);

    // The fresh capture under the new split launches different
    // batches but must be bit-identical: results never depend on the
    // limb batch.
    Ciphertext m2 = f.eval.multiply(a, b);
    EXPECT_EQ(f.ctx.plans().size(), 1u);
    expectPolyEqual(m1.c0, m2.c0, "recapture c0");
    expectPolyEqual(m1.c1, m2.c1, "recapture c1");

    // And the replay of the recaptured plan matches too.
    Ciphertext m3 = f.eval.multiply(a, b);
    EXPECT_GT(f.ctx.devices().planReplays(), 0u);
    expectPolyEqual(m1.c0, m3.c0, "replay c0");
    expectPolyEqual(m1.c1, m3.c1, "replay c1");
}

TEST(GraphPlan, EscapeHatchDisablesTheLayer)
{
    Fixture f(topologyParams(2, 2));
    f.ctx.setGraphEnabled(false); // what FIDES_NO_GRAPH=1 sets up
    auto a = f.encrypt(0.17);
    auto b = f.encrypt(0.19);
    auto m1 = f.eval.multiply(a, b);
    auto m2 = f.eval.multiply(a, b);
    EXPECT_EQ(f.ctx.devices().planCaptures(), 0u);
    EXPECT_EQ(f.ctx.devices().planReplays(), 0u);
    EXPECT_EQ(f.ctx.plans().size(), 0u);
    expectPolyEqual(m1.c0, m2.c0, "uncached determinism");
}

TEST(GraphPlan, ReplayAllocatesEntirelyFromTheReservedArena)
{
    // Capturing a plan reserves its scratch footprint in the device
    // pools, so a replay's allocations must ALL be pool hits -- zero
    // host-allocator calls.
    Fixture f(topologyParams(1, 1));
    auto a = f.encrypt(0.23);
    auto b = f.encrypt(0.31);
    (void)f.eval.multiply(a, b); // capture + arena reservation

    const MemPool &pool = f.ctx.devices().device(0).pool();
    const u64 alloc0 = pool.allocCalls();
    const u64 hits0 = pool.poolHits();
    auto m = f.eval.multiply(a, b); // replay
    const u64 allocs = pool.allocCalls() - alloc0;
    const u64 hits = pool.poolHits() - hits0;
    EXPECT_GT(allocs, 0u);
    EXPECT_EQ(allocs, hits) << "a replay allocation missed the pool";
    m.syncHost();
}

TEST(GraphPlan, ReplaySkipsPerLaunchDispatchOverhead)
{
    // With a fat simulated launch overhead, the capturing call pays
    // it per kernel launch on the host thread while a replay pays it
    // once per graph -- the host-side dispatch time must collapse.
    Fixture f(topologyParams(2, 2));
    auto a = f.encrypt(0.47);
    auto b = f.encrypt(0.59);
    (void)f.eval.multiply(a, b); // capture with zero overhead
    f.ctx.devices().synchronize();

    f.ctx.devices().setLaunchOverheadNs(1000000); // 1 ms per launch
    f.ctx.setGraphEnabled(false);
    auto t0 = std::chrono::steady_clock::now();
    auto u = f.eval.multiply(a, b); // uncached: overhead per launch
    auto uncachedNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    f.ctx.devices().synchronize();

    f.ctx.setGraphEnabled(true);
    t0 = std::chrono::steady_clock::now();
    auto r = f.eval.multiply(a, b); // replay: one overhead total
    auto replayNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    f.ctx.devices().synchronize();
    f.ctx.devices().setLaunchOverheadNs(0);

    // The uncached HMult pays > 30 launches x 1 ms; generous margin
    // for scheduling noise still leaves an unambiguous gap.
    EXPECT_LT(replayNs * 4, uncachedNs)
        << "replay " << replayNs << " ns vs uncached " << uncachedNs
        << " ns";
    expectPolyEqual(u.c0, r.c0, "overhead test determinism");
}

TEST(GraphPlan, AliasedOperandsGetTheirOwnPlan)
{
    // multiply(x, x) is legal and aliases the operand slots; a plan
    // captured from it must not be replayed for a distinct-operand
    // call at the same level (and vice versa) -- the aliasing tag in
    // the key separates them.
    Fixture f(topologyParams(2, 2));
    auto x = f.encrypt(0.71);
    auto a = f.encrypt(0.73);
    auto b = f.encrypt(0.79);

    auto s1 = f.eval.multiply(x, x); // aliased capture
    auto m1 = f.eval.multiply(a, b); // distinct capture, own key
    auto m2 = f.eval.multiply(a, b); // distinct replay
    auto s2 = f.eval.multiply(x, x); // aliased replay
    EXPECT_EQ(f.ctx.plans().size(), 2u);
    EXPECT_EQ(f.ctx.devices().planCaptures(), 2u);
    EXPECT_EQ(f.ctx.devices().planReplays(), 2u);
    expectPolyEqual(m1.c0, m2.c0, "distinct-operand replay");
    expectPolyEqual(s1.c0, s2.c0, "aliased-operand replay");
}

TEST(GraphPlan, CacheSpillSparesReservedArenas)
{
    // Cache-bound eviction must never shed a plan's reserved arena:
    // a spill that silently broke the zero-malloc replay invariant
    // would be invisible until replays start hitting the host
    // allocator. Only an explicit trim() drops the pins.
    Device dev;
    MemPool &pool = dev.pool();
    pool.reserve({{1024, 4}});
    EXPECT_EQ(pool.bytesCached(), 4096u);

    pool.setCacheBound(0); // spill: evicts everything unpinned
    EXPECT_EQ(pool.bytesCached(), 4096u) << "pinned blocks evicted";

    void *p = pool.allocate(2048);
    pool.release(p, 2048); // release over the bound spills ...
    EXPECT_EQ(pool.bytesCached(), 4096u); // ... only the 2048 block

    pool.trim(); // explicit full trim overrides the pins
    EXPECT_EQ(pool.bytesCached(), 0u);
}

TEST(GraphPlan, CountersMatchBetweenCaptureAndReplay)
{
    // A replay submits exactly the work the capture did: launches,
    // logical kernels, traffic and host joins must all be identical
    // (launches/op and syncs/op "no worse" is the CI acceptance bar;
    // here it is pinned exactly).
    Fixture f(topologyParams(2, 2));
    auto a = f.encrypt(0.61);
    auto b = f.encrypt(0.67);
    DeviceSet &devs = f.ctx.devices();

    auto snapshot = [&] {
        devs.synchronize();
        return devs.aggregateCounters();
    };
    auto run = [&] {
        devs.resetCounters();
        auto m = f.eval.multiply(a, b);
        f.eval.rescaleInPlace(m);
        auto r = f.eval.rotate(m, 1);
        KernelCounters c = snapshot();
        u64 kernels = devs.logicalKernels();
        u64 joins = devs.hostJoins();
        r.syncHost();
        return std::tuple<KernelCounters, u64, u64>(c, kernels, joins);
    };

    auto [c1, k1, j1] = run(); // captures (HMult, Rescale, KS plans)
    auto [c2, k2, j2] = run(); // replays all of them
    EXPECT_GT(devs.planReplays(), 0u);
    EXPECT_EQ(c1.launches, c2.launches);
    EXPECT_EQ(c1.bytesRead, c2.bytesRead);
    EXPECT_EQ(c1.bytesWritten, c2.bytesWritten);
    EXPECT_EQ(c1.intOps, c2.intOps);
    EXPECT_EQ(k1, k2);
    EXPECT_EQ(j1, j2);
}

} // namespace
} // namespace fideslib::ckks
