/**
 * @file
 * Bootstrap dispatch tests: how much work a warm sparse bootstrap
 * dispatches on a multi-device topology (one shared EvalMod), and a
 * Bootstrap op flowing through the serve::Server from concurrent
 * submitters with sequential-identical results. The
 * ServeBootstrapTest suite runs under TSan in CI via the Serve*
 * filter; BootstrapDispatchTest deliberately does not -- it adds no
 * concurrency coverage.
 */

#include <gtest/gtest.h>

#include <complex>
#include <cstring>
#include <vector>

#include "ckks/bootstrap.hpp"
#include "ckks/encryptor.hpp"
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
 *  2 streams, limbBatch 2). */
class BootstrapDispatchTest : public ::testing::Test
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

Context *BootstrapDispatchTest::ctx = nullptr;
KeyGen *BootstrapDispatchTest::keygen = nullptr;
KeyBundle *BootstrapDispatchTest::keys = nullptr;
Evaluator *BootstrapDispatchTest::eval = nullptr;
Bootstrapper *BootstrapDispatchTest::boot = nullptr;

TEST_F(BootstrapDispatchTest, WarmSparseBootstrapRunsOneEvalMod)
{
    // Re and Im share one 2s-slot ApproxModEval. On this fixture a
    // warm bootstrap dispatches 851 logical kernels (forBatches
    // calls). Forcing the full-packing split of
    // Bootstrapper::bootstrap -- Re and Im each through their own
    // EvalMod, plus the two monomial multiplies -- reads 1398. The
    // bound is the midpoint, (851 + 1398) / 2 = 1124: a second
    // EvalMod alone adds over 500 kernels and breaks it.
    constexpr u64 kOneEvalMod = 851;
    constexpr u64 kTwoEvalMods = 1398;
    Ciphertext ct = encryptAtBottom(0.61);
    boot->bootstrap(ct).syncHost(); // warms the stage encodes
    DeviceSet &devs = ctx->devices();
    const u64 before = devs.logicalKernels();
    boot->bootstrap(ct).syncHost();
    const u64 kernels = devs.logicalKernels() - before;
    EXPECT_LE(2 * kernels, kOneEvalMod + kTwoEvalMods);
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

    // Sequential reference on the client thread.
    std::vector<Ciphertext> want;
    for (const Request &r : reqs) {
        want.push_back(executeProgram(*eval, boot, r.clone()));
        want.back().syncHost();
    }

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
