/**
 * @file
 * Bootstrap plan tests: a bootstrap replays the per-op plans of its
 * HMult / HSquare / Rescale / key-switch ops (DESIGN.md §1.10), and
 * that must be a pure dispatch optimization. Uncached, capture and
 * replay runs must agree bit-for-bit on ciphertext limbs; replays
 * must serve fresh inputs without new captures; invalidation must
 * drop the plans and release their arenas; a warm bootstrap must pin
 * only per-op scratch; and a Bootstrap op must flow through the
 * serve::Server from concurrent submitters with sequential-identical
 * results (the ServeBootstrapTest suite runs under TSan in CI via the
 * Serve* filter; BootstrapPlanTest deliberately does not -- it re-runs
 * the same numeric pipeline several times and would dominate the TSan
 * budget without adding concurrency coverage).
 */

#include <gtest/gtest.h>

#include <complex>
#include <cstring>
#include <vector>

#include "ckks/bootstrap.hpp"
#include "ckks/encryptor.hpp"
#include "ckks/graph.hpp"
#include "ckks/keygen.hpp"
#include "serve/server.hpp"

namespace fideslib::ckks
{
namespace
{

void
expectPolyBits(const RNSPoly &want, const RNSPoly &got,
               const char *what)
{
    want.syncHost();
    got.syncHost();
    ASSERT_EQ(want.numLimbs(), got.numLimbs()) << what;
    for (std::size_t i = 0; i < want.numLimbs(); ++i) {
        ASSERT_EQ(0, std::memcmp(want.limb(i).data(),
                                 got.limb(i).data(),
                                 want.limb(i).size() * sizeof(u64)))
            << what << ": limb " << i << " differs";
    }
}

void
expectBitIdentical(const Ciphertext &want, const Ciphertext &got,
                   const char *what)
{
    expectPolyBits(want.c0, got.c0, what);
    expectPolyBits(want.c1, got.c1, what);
    EXPECT_EQ(static_cast<double>(want.scale),
              static_cast<double>(got.scale))
        << what;
}

/** Bootstrap-capable fixture on a non-trivial topology (2 devices x
 *  2 streams, limbBatch 2), shared across the suite: testBoot key
 *  generation is the expensive part and every test here wants the
 *  same ladders. */
class BootstrapPlanTest : public ::testing::Test
{
  protected:
    static constexpr u32 kSlots = 64;

    static void
    SetUpTestSuite()
    {
        Parameters p = Parameters::testBoot();
        p.numDevices = 2;
        p.streamsPerDevice = 2;
        p.limbBatch = 2;
        ctx = new Context(p);
        keygen = new KeyGen(*ctx);
        keys = new KeyBundle(keygen->makeBundle({}, true));
        eval = new Evaluator(*ctx, *keys);
        BootstrapConfig cfg;
        cfg.slots = kSlots;
        cfg.levelBudgetC2S = 2;
        cfg.levelBudgetS2C = 2;
        boot = new Bootstrapper(*eval, cfg);
        keygen->addRotationKeys(*keys, boot->requiredRotations());
    }
    static void
    TearDownTestSuite()
    {
        delete boot;
        delete eval;
        delete keys;
        delete keygen;
        delete ctx;
        ctx = nullptr;
    }

    void
    TearDown() override
    {
        // Leave the shared fixture in its default config for the
        // next test, with a cold cache.
        ctx->setGraphEnabled(true);
        ctx->invalidatePlans();
    }

    static Ciphertext
    encryptAtBottom(double seed)
    {
        Encoder enc(*ctx);
        Encryptor encr(*ctx, keys->pk);
        std::vector<std::complex<double>> z(kSlots);
        for (u32 i = 0; i < kSlots; ++i)
            z[i] = {0.4 * std::cos(seed * (i + 1)),
                    0.4 * std::sin(seed + i)};
        return encr.encrypt(enc.encode(z, kSlots, 0));
    }

    static Context *ctx;
    static KeyGen *keygen;
    static KeyBundle *keys;
    static Evaluator *eval;
    static Bootstrapper *boot;
};

Context *BootstrapPlanTest::ctx = nullptr;
KeyGen *BootstrapPlanTest::keygen = nullptr;
KeyBundle *BootstrapPlanTest::keys = nullptr;
Evaluator *BootstrapPlanTest::eval = nullptr;
Bootstrapper *BootstrapPlanTest::boot = nullptr;

TEST_F(BootstrapPlanTest, ReplayMatchesCaptureAndUncached)
{
    Ciphertext ct = encryptAtBottom(0.37);

    // Golden: graphs fully off, every kernel dispatched live.
    ctx->setGraphEnabled(false);
    Ciphertext golden = boot->bootstrap(ct);
    golden.syncHost();
    ctx->setGraphEnabled(true);

    // First pass captures the per-op plans, second pass replays them.
    Ciphertext captured = boot->bootstrap(ct);
    expectBitIdentical(golden, captured, "capture pass");
    EXPECT_GT(ctx->planStats().keys.size(), 0u);

    const u64 captures = ctx->devices().planCaptures();
    const u64 replays = ctx->devices().planReplays();
    Ciphertext replayed = boot->bootstrap(ct);
    expectBitIdentical(golden, replayed, "replay pass");
    EXPECT_EQ(ctx->devices().planCaptures(), captures)
        << "a warm bootstrap must not capture";
    EXPECT_GT(ctx->devices().planReplays(), replays);
}

TEST_F(BootstrapPlanTest, ReplaysAcrossDistinctCiphertexts)
{
    // Replays rebind operand slots by position: a different input
    // ciphertext must ride the same plans and still match its own
    // golden run.
    Ciphertext warm = encryptAtBottom(0.11);
    boot->bootstrap(warm).syncHost(); // capture pass
    const u64 capturesAfterWarm = ctx->devices().planCaptures();

    Ciphertext ct = encryptAtBottom(0.73);
    ctx->setGraphEnabled(false);
    Ciphertext golden = boot->bootstrap(ct);
    golden.syncHost();
    ctx->setGraphEnabled(true);

    Ciphertext replayed = boot->bootstrap(ct);
    expectBitIdentical(golden, replayed, "replay on fresh input");
    EXPECT_EQ(ctx->devices().planCaptures(), capturesAfterWarm)
        << "the second input must not trigger new captures";
}

TEST_F(BootstrapPlanTest, InvalidationDropsPlansAndArenas)
{
    Ciphertext ct = encryptAtBottom(0.52);
    Ciphertext before = boot->bootstrap(ct);
    before.syncHost();
    ASSERT_GT(ctx->plans().size(), 0u);
    ASSERT_GT(ctx->planStats().reservedBytes, 0u);

    // A config change that alters kernel decomposition must drop the
    // plans and give the pinned arenas back.
    const NttSchedule original = ctx->nttSchedule();
    const NttSchedule other = original == NttSchedule::Flat
                                  ? NttSchedule::Radix4
                                  : NttSchedule::Flat;
    ctx->setNttSchedule(other);
    EXPECT_EQ(ctx->plans().size(), 0u);
    EXPECT_EQ(ctx->planStats().reservedBytes, 0u);

    // Recapture under the new schedule; bits must match that
    // schedule's own graphs-off golden.
    ctx->setGraphEnabled(false);
    Ciphertext golden = boot->bootstrap(ct);
    golden.syncHost();
    ctx->setGraphEnabled(true);
    Ciphertext recaptured = boot->bootstrap(ct);
    expectBitIdentical(golden, recaptured,
                       "recapture after invalidation");
    EXPECT_GT(ctx->plans().size(), 0u);

    ctx->setNttSchedule(original);
}

TEST_F(BootstrapPlanTest, WarmBootstrapPinsOnlyPerOpScratch)
{
    // Each stored plan pins its op's cumulative scratch trace, so a
    // plan spanning a whole bootstrap ladder would pin ~1.2 GB here;
    // per-op plans keep it to one HMult or key switch (~10 MB in all).
    Ciphertext ct = encryptAtBottom(0.29);
    boot->bootstrap(ct).syncHost(); // capture pass
    boot->bootstrap(ct).syncHost(); // replay pass
    EXPECT_LT(ctx->planStats().reservedBytes, u64{32} * 1000 * 1000);
}

TEST_F(BootstrapPlanTest, WarmSparseBootstrapRunsOneEvalMod)
{
    // Re and Im share one 2s-slot ApproxModEval. On this fixture a
    // warm bootstrap replays 384 plan entries when each part runs its
    // own EvalMod, and 160 with the shared one.
    constexpr u64 kTwoEvalModEntries = 384;
    Ciphertext ct = encryptAtBottom(0.61);
    boot->bootstrap(ct).syncHost(); // capture pass
    DeviceSet &devs = ctx->devices();
    const u64 before = devs.planReplays() + devs.planCaptures();
    boot->bootstrap(ct).syncHost();
    const u64 entries =
        devs.planReplays() + devs.planCaptures() - before;
    EXPECT_LE(entries * 10, kTwoEvalModEntries * 6);
}

} // namespace
} // namespace fideslib::ckks

namespace fideslib::serve
{
namespace
{

using namespace fideslib::ckks;

/** Concurrent bootstrap serving on its own context: 2 devices x 4
 *  streams so the two submitters hold disjoint leases. */
class ServeBootstrapTest : public ::testing::Test
{
  protected:
    static constexpr u32 kSlots = 32;

    static void
    SetUpTestSuite()
    {
        Parameters p = Parameters::testBoot();
        p.numDevices = 2;
        p.streamsPerDevice = 4;
        p.limbBatch = 2;
        ctx = new Context(p);
        keygen = new KeyGen(*ctx);
        keys = new KeyBundle(keygen->makeBundle({}, true));
        eval = new Evaluator(*ctx, *keys);
        BootstrapConfig cfg;
        cfg.slots = kSlots;
        cfg.levelBudgetC2S = 2;
        cfg.levelBudgetS2C = 2;
        boot = new Bootstrapper(*eval, cfg);
        keygen->addRotationKeys(*keys, boot->requiredRotations());
    }
    static void
    TearDownTestSuite()
    {
        delete boot;
        delete eval;
        delete keys;
        delete keygen;
        delete ctx;
        ctx = nullptr;
    }

    static Ciphertext
    encryptAtBottom(double seed)
    {
        Encoder enc(*ctx);
        Encryptor encr(*ctx, keys->pk);
        std::vector<std::complex<double>> z(kSlots);
        for (u32 i = 0; i < kSlots; ++i)
            z[i] = {0.4 * std::cos(seed * (i + 1)),
                    0.4 * std::sin(seed + i)};
        return encr.encrypt(enc.encode(z, kSlots, 0));
    }

    /** Refresh-then-compute: the post-bootstrap square exercises the
     *  restored levels inside the same request. */
    static Request
    refreshProgram(double seed)
    {
        Request r;
        u32 a = r.input(encryptAtBottom(seed));
        u32 fresh = r.bootstrap(a);
        u32 sq = r.square(fresh);
        r.rescale(sq);
        return r;
    }

    static Context *ctx;
    static KeyGen *keygen;
    static KeyBundle *keys;
    static Evaluator *eval;
    static Bootstrapper *boot;
};

Context *ServeBootstrapTest::ctx = nullptr;
KeyGen *ServeBootstrapTest::keygen = nullptr;
KeyBundle *ServeBootstrapTest::keys = nullptr;
Evaluator *ServeBootstrapTest::eval = nullptr;
Bootstrapper *ServeBootstrapTest::boot = nullptr;

TEST_F(ServeBootstrapTest, ConcurrentBootstrapMatchesSequential)
{
    constexpr u32 kRequests = 4;
    const double seeds[kRequests] = {0.21, 0.43, 0.65, 0.87};

    // Build each request once and clone it for the reference run:
    // encryption is randomized, so the served program must reuse the
    // exact input ciphertexts the reference consumed.
    std::vector<Request> reqs;
    for (double s : seeds)
        reqs.push_back(refreshProgram(s));

    // Sequential reference on the client thread (this also captures
    // the plans, so the server's submitters replay).
    std::vector<Ciphertext> want;
    for (const Request &r : reqs) {
        want.push_back(executeProgram(*eval, boot, r.clone()));
        want.back().syncHost();
    }

    const u64 captures = ctx->devices().planCaptures();
    const u64 replays = ctx->devices().planReplays();
    Server::Options opt;
    opt.submitters = 2;
    opt.bootstrapper = boot;
    Server server(*ctx, *keys, opt);
    std::vector<Handle> handles;
    for (Request &r : reqs)
        handles.push_back(server.submit(std::move(r)));
    for (u32 i = 0; i < kRequests; ++i) {
        Ciphertext got = handles[i].get();
        ckks::expectBitIdentical(want[i], got, "served bootstrap");
    }

    Server::Stats st = server.stats();
    EXPECT_EQ(st.accepted, kRequests);
    EXPECT_EQ(st.completed, kRequests);
    EXPECT_EQ(st.failed, 0u);
    EXPECT_EQ(ctx->devices().planCaptures(), captures)
        << "served bootstraps must replay the reference run's plans";
    EXPECT_GT(ctx->devices().planReplays(), replays);
}

TEST(ServeBootstrapDeathTest, BootstrapOpWithoutEngineAborts)
{
    Context ctx(Parameters::testSmall());
    KeyGen keygen(ctx);
    KeyBundle keys = keygen.makeBundle({});
    Evaluator eval(ctx, keys);
    Encoder enc(ctx);
    Encryptor encr(ctx, keys.pk);
    const u32 slots = static_cast<u32>(ctx.degree() / 2);
    std::vector<std::complex<double>> z(slots, {0.25, 0.0});
    Request r;
    u32 a = r.input(encr.encrypt(enc.encode(z, slots, 0)));
    r.bootstrap(a);
    EXPECT_DEATH(executeProgram(eval, std::move(r)),
                 "no Bootstrapper");
}

} // namespace
} // namespace fideslib::serve
