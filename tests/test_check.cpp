/**
 * @file
 * Hazard-validator tests (check/check.hpp, DESIGN.md §1.11). Each
 * violation class the validator exists for is seeded deliberately and
 * must be detected: an undeclared access (declcheck), a write through
 * a Dep declared Read, a conflicting access pair with no
 * happens-before path (racecheck), a read of never-written device
 * memory (initcheck), a use of a deferRelease'd block by a launch
 * that does not happen-before the guard (lifetime), and a stream
 * submission outside the thread's lease (leasecheck). The clean-path
 * tests then run real kernel pipelines -- including the concurrent
 * Server and Rescale's switchModulus, whose one non-positional read
 * is checked against a host oracle -- under Fatal mode, where any
 * false positive aborts the process.
 *
 * Violations cannot be seeded through the public kernel API alone
 * (forBatches derives its event chaining from the same Dep lists the
 * validator checks, so a declared access is automatically ordered);
 * the race/lifetime/lease seeds therefore drive the check:: protocol
 * directly on raw streams, with the calls the launch engine
 * (kernels::launchBatches) makes for every launch.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "check/check.hpp"
#include "ckks/encryptor.hpp"
#include "ckks/kernels.hpp"
#include "ckks/keygen.hpp"
#include "serve/server.hpp"

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

/** Enables validation for one test body and restores Off afterwards,
 *  dropping the shadow state either way (the mode word is process-
 *  wide; stale shadows must not leak marks into a later test whose
 *  pool happens to recycle the same buffer addresses). */
struct ScopedValidation
{
    explicit ScopedValidation(check::Mode m)
    {
        check::setMode(m);
        check::resetStats();
    }
    ~ScopedValidation()
    {
        check::onTeardown();
        check::setMode(check::Mode::Off);
    }
};

// --- seeded violations (death tests: Fatal mode panics) ---------------

TEST(CheckDeathTest, UndeclaredWriteTripsDeclcheck)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            check::setMode(check::Mode::Fatal);
            Context ctx(topologyParams(1, 1));
            RNSPoly a(ctx, ctx.maxLevel(), Format::Coeff);
            RNSPoly b(ctx, ctx.maxLevel(), Format::Coeff);
            a.setZero();
            b.setZero();
            check::ScopedLabel label("seeded_undeclared");
            // The body touches b, the Dep list only declares a: the
            // event chaining b would need is missing -- a logical
            // race even though this schedule never manifests it.
            kernels::forBatches(
                ctx, a.numLimbs(), 8, 8, 0,
                [&](std::size_t lo, std::size_t hi) {
                    for (std::size_t i = lo; i < hi; ++i)
                        b.partition()[i].write()[0] = 1;
                },
                {kernels::rd(a)});
            ctx.devices().synchronize();
        },
        "declcheck");
}

TEST(CheckDeathTest, RaceWithoutHappensBeforePath)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            check::setMode(check::Mode::Fatal);
            DeviceSet devs(1, 2, 0);
            int buf[4] = {};
            // Write on stream 0, read on stream 1, no event edge
            // between them: a textbook unordered conflicting pair.
            auto w = check::beginLaunch(&devs.stream(0),
                                        {{buf, 0, true}});
            devs.stream(0).submit([w, &buf] {
                check::BodyScope scope(w);
                check::recordWrite(buf, 0);
            });
            auto r = check::beginLaunch(&devs.stream(1),
                                        {{buf, 0, false}});
            devs.stream(1).submit([r, &buf] {
                check::BodyScope scope(r);
                check::recordRead(buf, 0);
            });
            devs.synchronize();
        },
        "racecheck");
}

TEST(CheckDeathTest, UseAfterDeferredFree)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            check::setMode(check::Mode::Fatal);
            DeviceSet devs(1, 2, 0);
            MemPool &pool = devs.device(0).pool();
            void *buf = pool.allocate(64);
            // Keep stream 0 busy so the guard event stays pending and
            // the deferred block cannot be swept early.
            std::atomic<bool> go{false};
            devs.stream(0).submit([&go] {
                while (!go.load(std::memory_order_acquire))
                    std::this_thread::yield();
            });
            Event guard = devs.stream(0).record();
            pool.deferRelease(buf, 64, {guard});
            // A launch on stream 1 is NOT ordered before the guard:
            // touching the deferred block from it is a use after
            // (deferred) free.
            auto w = check::beginLaunch(&devs.stream(1),
                                        {{buf, 0, true}});
            devs.stream(1).submit([w, buf] {
                check::BodyScope scope(w);
                check::recordWrite(buf, 0);
            });
            devs.stream(1).synchronize();
            go.store(true, std::memory_order_release);
            devs.synchronize();
        },
        "lifetime");
}

TEST(CheckDeathTest, OutOfLeaseStreamPick)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            check::setMode(check::Mode::Fatal);
            Context ctx(topologyParams(1, 2));
            // The thread leases slot 0 only (the serving layer's
            // per-worker partition), then picks the other stream.
            StreamLease lease(ctx.devices(), 0, 1);
            ctx.setThreadLease(&lease);
            ctx.devices().streamOfDevice(0, 1).submit([] {});
            ctx.devices().synchronize();
        },
        "leasecheck");
}

TEST(CheckDeathTest, UninitializedReadTripsInitcheck)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            check::setMode(check::Mode::Fatal);
            DeviceSet devs(1, 1, 0);
            void *buf = devs.device(0).pool().allocate(64);
            check::ScopedLabel label("seeded_uninit");
            auto r = check::beginLaunch(nullptr, {{buf, 0, false}});
            check::BodyScope scope(r);
            check::recordRead(buf, 0); // never written since alloc
        },
        "initcheck");
}

// --- Report-mode regression (counters and report text) ----------------

TEST(CheckReport, WriteThroughReadDepIsCountedAndLabeled)
{
    ScopedValidation v(check::Mode::Report);
    Context ctx(topologyParams(1, 1));
    // The ctor re-applied FIDES_VALIDATE if set (a ctest run under
    // the validator); this test needs Report semantics regardless.
    check::setMode(check::Mode::Report);
    RNSPoly a(ctx, ctx.maxLevel(), Format::Coeff);
    a.setZero();
    check::ScopedLabel label("seeded_misdecl");
    kernels::forBatches(
        ctx, a.numLimbs(), 8, 8, 0,
        [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i)
                a.partition()[i].write()[0] = 1;
        },
        {kernels::rd(a)});
    ctx.devices().synchronize();
    EXPECT_GE(check::stats().undeclared, 1u);
    const std::string rep = check::lastReport();
    EXPECT_NE(rep.find("declcheck"), std::string::npos) << rep;
    // The finding names the kernel that misdeclared.
    EXPECT_NE(rep.find("seeded_misdecl"), std::string::npos) << rep;
}

// --- clean paths under Fatal (false positives abort the process) ------

/** Encrypt-multiply-rescale pipeline: every kernel family plus key
 *  switching, on the given topology. */
Ciphertext
runPipeline(Context &ctx)
{
    KeyGen keygen(ctx);
    KeyBundle keys = keygen.makeBundle({1});
    Evaluator eval(ctx, keys);
    Encoder enc(ctx);
    Encryptor encr(ctx, keys.pk);
    const u32 slots = static_cast<u32>(ctx.degree() / 2);
    std::vector<std::complex<double>> z(slots);
    for (u32 i = 0; i < slots; ++i)
        z[i] = {std::cos(0.37 * i), std::sin(0.91 * i)};
    Ciphertext a = encr.encrypt(enc.encode(z, slots, ctx.maxLevel()));
    Ciphertext b = eval.multiply(a, a);
    eval.rescaleInPlace(b);
    Ciphertext c = eval.rotate(b, 1);
    return eval.add(b, c);
}

TEST(CheckClean, InlinePipelineIsViolationFree)
{
    ScopedValidation v(check::Mode::Fatal);
    Context ctx(topologyParams(1, 1));
    Ciphertext out = runPipeline(ctx);
    out.c0.syncHost();
    EXPECT_GT(check::stats().launches, 0u);
    EXPECT_GT(check::stats().accesses, 0u);
    EXPECT_EQ(check::stats().violations(), 0u);
}

TEST(CheckClean, MultiStreamPipelineIsViolationFree)
{
    ScopedValidation v(check::Mode::Fatal);
    Context ctx(topologyParams(2, 2));
    Ciphertext out = runPipeline(ctx);
    out.c0.syncHost();
    EXPECT_GT(check::stats().launches, 0u);
    EXPECT_EQ(check::stats().violations(), 0u);
}

TEST(ExecutionFusedChain, SwitchModulusReadsItsSourceLimbThroughADep)
{
    // FusedChain::switchModulus(out, src, L) reads limb L of src in
    // every limb of out, under an rdFixed Dep: it waits on the kernel
    // that last wrote that limb, and a later writer of the limb waits
    // on it. Its output must be switchModulusLimb of a host copy of
    // the limb, fused and unfused, inline and on 2 devices x 2 streams
    // in batches of 3, with the validator finding nothing.
    for (const Parameters &p :
         {topologyParams(1, 1), topologyParams(2, 2, 3)}) {
        for (bool fused : {true, false}) {
            const std::string what =
                "topology " + std::to_string(p.numDevices) + "x" +
                std::to_string(p.streamsPerDevice) +
                (fused ? " fused" : " unfused");
            ScopedValidation v(check::Mode::Fatal);
            Context ctx(p);
            ctx.setFusion(fused);
            const u32 L = ctx.maxLevel();
            const std::size_t n = ctx.degree();

            RNSPoly src(ctx, L, Format::Coeff);
            std::mt19937_64 rng(77);
            for (std::size_t i = 0; i < src.numLimbs(); ++i) {
                const u64 q = ctx.prime(src.primeIdxAt(i)).value();
                u64 *x = src.limb(i).data();
                for (std::size_t j = 0; j < n; ++j)
                    x[j] = rng() % q;
            }
            const std::vector<u64> last(src.limb(L).data(),
                                        src.limb(L).data() + n);
            // Two negations leave the values as they were, with the
            // source limb written by a kernel that may be in flight.
            kernels::negate(src);
            kernels::negate(src);

            DeviceSet &devs = ctx.devices();
            devs.resetCounters();
            RNSPoly out(ctx, L - 1, Format::Coeff);
            kernels::FusedChain(ctx).switchModulus(out, src, L).run();
            // One read slot (the source limb) and one write per limb,
            // fused or not.
            const u64 bytes = u64{L} * n * sizeof(u64);
            EXPECT_EQ(devs.aggregateCounters().bytesRead, bytes) << what;
            EXPECT_EQ(devs.aggregateCounters().bytesWritten, bytes)
                << what;
            // Write-after-read: this must not run under the chain.
            kernels::negate(src);

            out.syncHost();
            const u64 ql = ctx.prime(src.primeIdxAt(L)).value();
            std::vector<u64> want(n);
            for (std::size_t i = 0; i < out.numLimbs(); ++i) {
                kernels::switchModulusLimb(ctx, last.data(), ql,
                                           want.data(),
                                           out.primeIdxAt(i));
                ASSERT_EQ(0, std::memcmp(out.limb(i).data(), want.data(),
                                         n * sizeof(u64)))
                    << what << " limb " << i;
            }
            src.syncHost();
            EXPECT_EQ(check::stats().violations(), 0u) << what;
        }
    }
}

TEST(CheckClean, ConcurrentServerIsViolationFree)
{
    ScopedValidation v(check::Mode::Fatal);
    Context ctx(topologyParams(1, 4));
    KeyGen keygen(ctx);
    KeyBundle keys = keygen.makeBundle({1});
    Encoder enc(ctx);
    Encryptor encr(ctx, keys.pk);
    const u32 slots = static_cast<u32>(ctx.degree() / 2);

    auto encrypt = [&](double seed) {
        std::vector<std::complex<double>> z(slots);
        for (u32 i = 0; i < slots; ++i)
            z[i] = {std::cos(seed * (i + 1)), std::sin(seed + i)};
        return encr.encrypt(enc.encode(z, slots, ctx.maxLevel()));
    };

    serve::Server::Options opt;
    opt.submitters = 2;
    serve::Server server(ctx, keys, opt);
    std::vector<serve::Handle> handles;
    for (int j = 0; j < 6; ++j) {
        serve::Request r;
        u32 a = r.input(encrypt(0.3 + 0.1 * j));
        u32 b = r.input(encrypt(0.7 + 0.1 * j));
        u32 m = r.multiply(a, b);
        r.rescale(m);
        handles.push_back(server.submit(std::move(r)));
    }
    for (serve::Handle &h : handles) {
        Ciphertext out = h.get();
        out.c0.syncHost();
    }
    server.drain();
    EXPECT_GT(check::stats().launches, 0u);
    EXPECT_EQ(check::stats().violations(), 0u);
}

} // namespace
} // namespace fideslib::ckks
