/**
 * @file
 * Serving-layer tests (serve/server.hpp): N concurrent requests
 * through the Server must produce bit-identical results to the same
 * programs run sequentially, across random (devices, streams,
 * limbBatch, submitters) topologies -- concurrency must be a pure
 * scheduling optimization. The rest pin down the protocol pieces:
 * single-flight plan capture under a same-key race, plan invalidation
 * releasing the reserved MemPool arenas, settled results out of
 * Handle::get(), and queue/stats discipline. Run under TSan in CI.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <vector>

#include "ckks/encryptor.hpp"
#include "ckks/graph.hpp"
#include "ckks/keygen.hpp"
#include "serve/server.hpp"

namespace fideslib::serve
{
namespace
{

using namespace fideslib::ckks;

Parameters
topologyParams(u32 devices, u32 streamsPerDevice, u32 limbBatch = 2)
{
    Parameters p = Parameters::testSmall();
    p.limbBatch = limbBatch;
    p.numDevices = devices;
    p.streamsPerDevice = streamsPerDevice;
    return p;
}

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

/** Stats-style program: multiply + rescale + rotate + add + square. */
Request
statsProgram(Ciphertext x, Ciphertext y)
{
    Request r;
    u32 a = r.input(std::move(x));
    u32 b = r.input(std::move(y));
    u32 m = r.multiply(a, b);
    r.rescale(m);
    u32 rot = r.rotate(m, 1);
    u32 s = r.add(rot, m);
    u32 sq = r.square(s);
    r.rescale(sq);
    return r;
}

/** Mult-free program: add + rotate + sub (different plan keys). */
Request
mixProgram(Ciphertext x, Ciphertext y)
{
    Request r;
    u32 a = r.input(std::move(x));
    u32 b = r.input(std::move(y));
    u32 s = r.add(a, b);
    u32 rot = r.rotate(s, 2);
    u32 d = r.sub(rot, b);
    r.returns(d);
    return r;
}

void
expectPolyEqual(const RNSPoly &want, const RNSPoly &got,
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
expectCiphertextEqual(const Ciphertext &want, const Ciphertext &got,
                      const char *what)
{
    expectPolyEqual(want.c0, got.c0, what);
    expectPolyEqual(want.c1, got.c1, what);
    EXPECT_EQ(static_cast<double>(want.scale),
              static_cast<double>(got.scale))
        << what;
}

TEST(Serve, ConcurrentMatchesSequentialAcrossTopologies)
{
    // (devices, streamsPerDevice, limbBatch, submitters): oversized
    // submitter pools (more submitters than stream slots) must stay
    // correct too -- leases then wrap and share streams.
    const std::tuple<u32, u32, u32, u32> topologies[] = {
        {1, 1, 2, 2}, {2, 2, 2, 4}, {1, 4, 0, 3}, {2, 4, 2, 4}};
    for (auto [d, s, batch, submitters] : topologies) {
        SCOPED_TRACE(::testing::Message()
                     << "topology " << d << "x" << s << " batch "
                     << batch << " submitters " << submitters);
        Fixture f(topologyParams(d, s, batch));

        // Distinct data per request, two program shapes.
        constexpr u32 kRequests = 6;
        std::vector<Request> programs;
        for (u32 i = 0; i < kRequests; ++i) {
            auto x = f.encrypt(0.13 + 0.07 * i);
            auto y = f.encrypt(0.59 + 0.05 * i);
            programs.push_back(i % 2 == 0
                                   ? statsProgram(std::move(x),
                                                  std::move(y))
                                   : mixProgram(std::move(x),
                                                std::move(y)));
        }

        // Sequential reference on the same context (this also warms
        // the plan cache, so the server run below replays).
        std::vector<Ciphertext> want;
        for (const Request &r : programs)
            want.push_back(executeProgram(f.eval, r.clone()));

        Server::Options opt;
        opt.submitters = submitters;
        Server server(f.ctx, f.keys, opt);
        std::vector<Handle> handles;
        for (const Request &r : programs)
            handles.push_back(server.submit(r.clone()));
        for (u32 i = 0; i < kRequests; ++i) {
            Ciphertext got = handles[i].get();
            SCOPED_TRACE(::testing::Message() << "request " << i);
            expectCiphertextEqual(want[i], got, "server result");
        }
        EXPECT_GT(f.ctx.devices().planReplays(), 0u);
        Server::Stats st = server.stats();
        EXPECT_EQ(st.accepted, kRequests);
        EXPECT_EQ(st.completed, kRequests);
        EXPECT_EQ(st.failed, 0u);
    }
}

TEST(Serve, SameKeyCaptureRaceIsSingleFlight)
{
    // Many submitters race the SAME cold plan keys: exactly one
    // capture per key may happen (concurrent same-key submitters
    // block, then replay), and every result must equal the others
    // (identical inputs -> identical outputs, bit for bit).
    Fixture f(topologyParams(2, 2));
    auto x = f.encrypt(0.23);
    auto y = f.encrypt(0.71);

    Server::Options opt;
    opt.submitters = 4;
    Server server(f.ctx, f.keys, opt);
    constexpr u32 kRequests = 8;
    std::vector<Handle> handles;
    for (u32 i = 0; i < kRequests; ++i)
        handles.push_back(
            server.submit(statsProgram(x.clone(), y.clone())));

    std::vector<Ciphertext> results;
    for (Handle &h : handles)
        results.push_back(h.get());
    for (u32 i = 1; i < kRequests; ++i) {
        SCOPED_TRACE(::testing::Message() << "request " << i);
        expectCiphertextEqual(results[0], results[i], "race result");
    }

    // Single-flight: captures == distinct plan keys, never more
    // (without it, racing submitters would each capture the cold
    // keys and the counts would exceed the key count).
    DeviceSet &devs = f.ctx.devices();
    EXPECT_EQ(devs.planCaptures(), f.ctx.plans().size());
    EXPECT_GT(devs.planReplays(), 0u);
}

TEST(Serve, InvalidationReleasesReservedArenas)
{
    // Plan invalidation must release the reserved MemPool arenas:
    // before this fix the pins survived PlanCache::clear, so a config
    // sweep accreted one dead arena per configuration (and bytes
    // stayed parked on the free lists forever).
    Fixture f(topologyParams(1, 2));
    auto a = f.encrypt(0.31);
    auto b = f.encrypt(0.47);
    const MemPool &pool = f.ctx.devices().device(0).pool();
    f.ctx.devices().synchronize();
    const u64 inUseBaseline = pool.bytesInUse();

    (void)f.eval.multiply(a, b); // capture + arena reservation
    f.ctx.devices().synchronize();
    EXPECT_GT(pool.bytesReserved(), 0u);
    EXPECT_GT(f.ctx.plans().size(), 0u);

    f.ctx.setLimbBatch(3); // genuine change: invalidates
    EXPECT_EQ(f.ctx.plans().size(), 0u);
    EXPECT_EQ(pool.bytesReserved(), 0u)
        << "invalidation leaked the reserved arenas";
    EXPECT_EQ(pool.bytesInUse(), inUseBaseline);

    // The cache still works after the release.
    auto m = f.eval.multiply(a, b);
    (void)f.eval.multiply(a, b);
    EXPECT_GT(f.ctx.devices().planReplays(), 0u);
    EXPECT_GT(pool.bytesReserved(), 0u);
    m.syncHost();
}

TEST(Serve, ArenaMultiplierCoversAllSubmitters)
{
    // A server must scale plan-arena reservations to its submitter
    // count so N concurrent replays are all pool hits -- INCLUDING
    // plans captured before the server existed (warmup / sequential
    // reference runs at multiplier 1), whose pins must be topped up
    // at construction.
    Fixture f(topologyParams(1, 2));
    EXPECT_EQ(f.ctx.planArenaMultiplier(), 1u);
    auto a = f.encrypt(0.19);
    auto b = f.encrypt(0.43);
    (void)f.eval.multiply(a, b); // pre-server capture at 1x
    f.ctx.devices().synchronize();
    const MemPool &pool = f.ctx.devices().device(0).pool();
    const u64 reserved1x = pool.bytesReserved();
    ASSERT_GT(reserved1x, 0u);

    Server::Options opt;
    opt.submitters = 4;
    Server server(f.ctx, f.keys, opt);
    EXPECT_EQ(f.ctx.planArenaMultiplier(), 4u);
    EXPECT_EQ(server.submitters(), 4u);
    EXPECT_EQ(pool.bytesReserved(), 4 * reserved1x)
        << "pre-captured plan's arena not topped up to 4 submitters";
}

TEST(Serve, HandleYieldsSettledCorrectResult)
{
    // End-to-end through the front door: the result decrypts to the
    // right values and carries no pending device work (the server's
    // per-request host join settled it).
    Fixture f(topologyParams(2, 2));
    const u32 slots = static_cast<u32>(f.ctx.degree() / 2);
    std::vector<std::complex<double>> xs(slots), ys(slots);
    for (u32 i = 0; i < slots; ++i) {
        xs[i] = {0.5 * std::cos(0.1 * i), 0};
        ys[i] = {0.25 + 0.001 * (i % 7), 0};
    }
    auto ctX = f.encr.encrypt(f.enc.encode(xs, slots, f.ctx.maxLevel()));
    auto ctY = f.encr.encrypt(f.enc.encode(ys, slots, f.ctx.maxLevel()));

    Request r;
    u32 a = r.input(std::move(ctX));
    u32 b = r.input(std::move(ctY));
    u32 m = r.multiply(a, b);
    r.rescale(m);

    Server::Options opt;
    opt.submitters = 2;
    Server server(f.ctx, f.keys, opt);
    Handle h = server.submit(std::move(r));
    Ciphertext got = h.get();
    EXPECT_FALSE(got.c0.hasPendingWork());
    EXPECT_FALSE(got.c1.hasPendingWork());
    EXPECT_GE(h.latencyMs(), 0.0);

    auto decoded = f.enc.decode(f.encr.decrypt(got, f.keygen.secretKey()));
    for (u32 i = 0; i < slots; i += 97) {
        EXPECT_NEAR(decoded[i].real(), xs[i].real() * ys[i].real(),
                    1e-3)
            << "slot " << i;
    }
}

TEST(Serve, BoundedQueueBackpressureAndStats)
{
    Fixture f(topologyParams(1, 2));
    Server::Options opt;
    opt.submitters = 2;
    opt.queueCapacity = 2; // submit() blocks when 2 are waiting
    Server server(f.ctx, f.keys, opt);

    constexpr u32 kRequests = 6;
    std::vector<Handle> handles;
    for (u32 i = 0; i < kRequests; ++i) {
        auto x = f.encrypt(0.11 + 0.03 * i);
        auto y = f.encrypt(0.37 + 0.02 * i);
        handles.push_back(
            server.submit(mixProgram(std::move(x), std::move(y))));
    }
    server.drain();
    Server::Stats st = server.stats();
    EXPECT_EQ(st.accepted, kRequests);
    EXPECT_EQ(st.completed, kRequests);
    EXPECT_EQ(st.failed, 0u);
    for (Handle &h : handles)
        EXPECT_TRUE(h.ready());
}

TEST(Serve, PlanStatsReportPerKeyHitsAndArenaFootprint)
{
    // The observability hook: per-key hit/miss counts and the
    // reserved-arena footprint benches put into the committed
    // trajectory (a key-space leak shows up as keys growing while
    // hits stay flat).
    Fixture f(topologyParams(1, 2));
    auto a = f.encrypt(0.53);
    auto b = f.encrypt(0.67);
    (void)f.eval.multiply(a, b);
    (void)f.eval.multiply(a, b);
    (void)f.eval.multiply(a, b);

    kernels::PlanCacheStats ps = f.ctx.planStats();
    ASSERT_EQ(ps.keys.size(), 1u);
    EXPECT_EQ(ps.keys[0].misses, 1u);
    EXPECT_EQ(ps.keys[0].hits, 2u);
    EXPECT_EQ(ps.hits, 2u);
    EXPECT_EQ(ps.misses, 1u);
    EXPECT_GT(ps.reservedBytes, 0u);
    f.ctx.devices().synchronize();
}

// --- continuous batching (DESIGN.md §1.13) ---------------------------

/**
 * Submits @p programs to a batching server and checks every result
 * bit-identical against @p want. A large forming window makes group
 * formation reliable: the leader holds its partial batch long enough
 * for the tight submit loop below to land the rest.
 */
void
runBatchedAndCompare(Fixture &f, u32 submitters, u32 maxBatch,
                     std::vector<Request> programs,
                     const std::vector<Ciphertext> &want,
                     Server::Stats *statsOut = nullptr)
{
    Server::Options opt;
    opt.submitters = submitters;
    opt.maxBatch = maxBatch;
    opt.batchWindowUs = 100000;
    Server server(f.ctx, f.keys, opt);
    std::vector<Handle> handles;
    handles.reserve(programs.size());
    for (Request &r : programs)
        handles.push_back(server.submit(std::move(r)));
    for (std::size_t i = 0; i < handles.size(); ++i) {
        Ciphertext got = handles[i].get();
        SCOPED_TRACE(::testing::Message() << "request " << i);
        expectCiphertextEqual(want[i], got, "batched result");
    }
    server.drain();
    if (statsOut != nullptr)
        *statsOut = server.stats();
}

TEST(Serve, BatchedMatchesSequentialAcrossTopologies)
{
    // (devices, streams, limbBatch, submitters, maxBatch): coalesced
    // execution must be a pure scheduling optimization -- the
    // multi-instance replay produces bit-identical ciphertexts to
    // sequential reference runs, including when maxBatch exceeds the
    // submitter count (instances fold onto fewer leases) and when
    // leases wrap.
    const std::tuple<u32, u32, u32, u32, u32> topologies[] = {
        {1, 2, 2, 1, 4}, {2, 2, 2, 2, 2}, {1, 4, 0, 2, 3},
        {2, 4, 2, 4, 4}};
    for (auto [d, s, batch, submitters, maxBatch] : topologies) {
        SCOPED_TRACE(::testing::Message()
                     << "topology " << d << "x" << s << " batch "
                     << batch << " submitters " << submitters
                     << " maxBatch " << maxBatch);
        Fixture f(topologyParams(d, s, batch));

        constexpr u32 kRequests = 8;
        std::vector<Request> programs;
        for (u32 i = 0; i < kRequests; ++i) {
            auto x = f.encrypt(0.13 + 0.07 * i);
            auto y = f.encrypt(0.59 + 0.05 * i);
            programs.push_back(
                statsProgram(std::move(x), std::move(y)));
        }
        // Sequential reference (also warms the plan cache so the
        // server coalesces replays, not captures).
        std::vector<Ciphertext> want;
        for (const Request &r : programs)
            want.push_back(executeProgram(f.eval, r.clone()));

        Server::Stats st;
        runBatchedAndCompare(f, submitters, maxBatch,
                             std::move(programs), want, &st);
        EXPECT_EQ(st.completed, kRequests);
        EXPECT_EQ(st.failed, 0u);
        EXPECT_EQ(st.batchedRequests + st.soloRequests, kRequests);
        EXPECT_GT(st.batchedRequests, 0u)
            << "no group ever formed despite the 100ms window";
        const std::size_t opsPer = 6; // statsProgram op count
        EXPECT_EQ(st.executedOps, opsPer * kRequests);
        EXPECT_EQ(st.batchedOps + st.soloOps, st.executedOps);
    }
}

TEST(Serve, BatchedColdCaptureStaysSingleFlight)
{
    // No warmup: the first instance of a group hits Capture role
    // mid-batch. The session must flush collected work, let the
    // capture run live, and later instances replay -- results stay
    // bit-identical and captures never exceed the key count.
    Fixture f(topologyParams(2, 2));
    constexpr u32 kRequests = 6;
    std::vector<Request> programs;
    std::vector<Request> reference;
    for (u32 i = 0; i < kRequests; ++i) {
        auto x = f.encrypt(0.29 + 0.11 * i);
        auto y = f.encrypt(0.83 + 0.03 * i);
        Request r = statsProgram(std::move(x), std::move(y));
        reference.push_back(r.clone());
        programs.push_back(std::move(r));
    }

    Server::Stats st;
    {
        Server::Options opt;
        opt.submitters = 2;
        opt.maxBatch = 3;
        opt.batchWindowUs = 100000;
        Server server(f.ctx, f.keys, opt);
        std::vector<Handle> handles;
        for (Request &r : programs)
            handles.push_back(server.submit(std::move(r)));
        std::vector<Ciphertext> got;
        for (Handle &h : handles)
            got.push_back(h.get());
        // Reference AFTER the server run (cold-capture test): replays
        // the very plans the batched run captured.
        for (u32 i = 0; i < kRequests; ++i) {
            SCOPED_TRACE(::testing::Message() << "request " << i);
            expectCiphertextEqual(
                executeProgram(f.eval, std::move(reference[i])),
                got[i], "cold-capture batched result");
        }
        st = server.stats();
    }
    EXPECT_EQ(st.completed, kRequests);
    EXPECT_EQ(st.failed, 0u);
    // Single-flight held under batching: one capture per plan key.
    EXPECT_EQ(f.ctx.devices().planCaptures(), f.ctx.plans().size());
}

TEST(Serve, MixedCompatibleIncompatibleQueues)
{
    // Interleave two program shapes (different signatures): the batch
    // former may only group within a shape; incompatible jobs are
    // left queued and still retire correctly.
    Fixture f(topologyParams(2, 2));
    constexpr u32 kRequests = 10;
    std::vector<Request> programs;
    for (u32 i = 0; i < kRequests; ++i) {
        auto x = f.encrypt(0.17 + 0.05 * i);
        auto y = f.encrypt(0.41 + 0.04 * i);
        programs.push_back(i % 2 == 0
                               ? statsProgram(std::move(x),
                                              std::move(y))
                               : mixProgram(std::move(x),
                                            std::move(y)));
    }
    std::vector<Ciphertext> want;
    for (const Request &r : programs)
        want.push_back(executeProgram(f.eval, r.clone()));

    Server::Stats st;
    runBatchedAndCompare(f, 2, 4, std::move(programs), want, &st);
    EXPECT_EQ(st.completed, kRequests);
    EXPECT_EQ(st.failed, 0u);
    EXPECT_EQ(st.batchedRequests + st.soloRequests, kRequests);
}

TEST(Serve, RequestSignatureSeparatesShapes)
{
    Fixture f(topologyParams(1, 2));
    auto mk = [&](double sx, double sy) {
        return std::pair(f.encrypt(sx), f.encrypt(sy));
    };
    auto [x1, y1] = mk(0.2, 0.3);
    auto [x2, y2] = mk(0.7, 0.9);
    // Same shape, different payloads: equal signatures.
    Request a = statsProgram(x1.clone(), y1.clone());
    Request b = statsProgram(std::move(x2), std::move(y2));
    EXPECT_EQ(a.signature(), b.signature());
    EXPECT_TRUE(a.batchable());
    // Different program: different signature.
    Request c = mixProgram(std::move(x1), std::move(y1));
    EXPECT_NE(a.signature(), c.signature());
    // Different rotation amount: different signature.
    Request d1;
    Request d2;
    {
        auto [u, v] = mk(0.4, 0.6);
        u32 r1 = d1.input(std::move(u));
        d1.rotate(r1, 1);
        u32 r2 = d2.input(std::move(v));
        d2.rotate(r2, 2);
    }
    EXPECT_NE(d1.signature(), d2.signature());
    // Bootstrap ops are never batchable.
    Request e;
    u32 r = e.input(f.encrypt(0.5));
    e.bootstrap(r);
    EXPECT_FALSE(e.batchable());
}

// --- metrics conformance ---------------------------------------------

/** One parsed Prometheus histogram: cumulative bucket counts by `le`
 *  (in emission order), plus the `_sum`/`_count` pair. */
struct ParsedHistogram
{
    std::vector<std::pair<std::string, u64>> buckets;
    double sum = -1;
    u64 count = 0;
    bool haveSum = false;
    bool haveCount = false;
};

/**
 * Extracts histogram @p name (for samples carrying @p label, "" for
 * unlabeled) from a /metrics text dump. Exercises the exact
 * contract a Prometheus scraper relies on: `<name>_bucket` with `le`
 * labels, `<name>_sum`, `<name>_count`.
 */
void
parseHistogram(const std::string &text, const std::string &name,
               const std::string &label, ParsedHistogram &h)
{
    std::istringstream in(text);
    std::string line;
    const std::string bucketPrefix = name + "_bucket{";
    const std::string sumPrefix =
        name + "_sum" +
        (label.empty() ? "" : "{shard=\"" + label + "\"}");
    const std::string countPrefix =
        name + "_count" +
        (label.empty() ? "" : "{shard=\"" + label + "\"}");
    while (std::getline(in, line)) {
        if (line.rfind(bucketPrefix, 0) == 0) {
            if (!label.empty() &&
                line.find("shard=\"" + label + "\"") ==
                    std::string::npos)
                continue;
            if (label.empty() &&
                line.find("shard=") != std::string::npos)
                continue;
            const std::size_t le = line.find("le=\"");
            ASSERT_NE(le, std::string::npos) << line;
            const std::size_t end = line.find('"', le + 4);
            const std::size_t sp = line.rfind(' ');
            h.buckets.emplace_back(
                line.substr(le + 4, end - le - 4),
                static_cast<u64>(
                    std::stoull(line.substr(sp + 1))));
        } else if (line.rfind(sumPrefix + " ", 0) == 0) {
            h.sum = std::stod(line.substr(sumPrefix.size() + 1));
            h.haveSum = true;
        } else if (line.rfind(countPrefix + " ", 0) == 0) {
            h.count = static_cast<u64>(
                std::stoull(line.substr(countPrefix.size() + 1)));
            h.haveCount = true;
        }
    }
}

/** Conformance checks every Prometheus histogram must satisfy. */
void
expectHistogramConformant(const ParsedHistogram &h, u64 expectCount)
{
    ASSERT_FALSE(h.buckets.empty());
    EXPECT_TRUE(h.haveSum) << "histogram missing its _sum sample";
    ASSERT_TRUE(h.haveCount) << "histogram missing its _count sample";
    EXPECT_EQ(h.buckets.back().first, "+Inf");
    u64 prev = 0;
    for (const auto &[le, v] : h.buckets) {
        EXPECT_GE(v, prev) << "bucket counts must be cumulative";
        prev = v;
    }
    EXPECT_EQ(h.buckets.back().second, h.count)
        << "_count must equal the +Inf bucket";
    EXPECT_EQ(h.count, expectCount);
    EXPECT_GE(h.sum, 0.0);
}

TEST(Serve, MetricsHistogramsParseRoundTrip)
{
    Fixture f(topologyParams(1, 2));
    constexpr u32 kRequests = 5;
    std::vector<Request> programs;
    for (u32 i = 0; i < kRequests; ++i) {
        auto x = f.encrypt(0.21 + 0.09 * i);
        auto y = f.encrypt(0.47 + 0.06 * i);
        programs.push_back(mixProgram(std::move(x), std::move(y)));
    }
    Server::Options opt;
    opt.submitters = 2;
    opt.maxBatch = 2;
    opt.batchWindowUs = 50000;
    Server server(f.ctx, f.keys, opt);
    std::vector<Handle> handles;
    for (Request &r : programs)
        handles.push_back(server.submit(std::move(r)));
    for (Handle &h : handles)
        h.get();
    server.drain();

    // Unlabeled and shard-labeled dumps must both round-trip (the
    // Router concatenates labeled per-shard dumps into one scrape).
    for (const std::string label : {std::string{}, std::string{"s7"}}) {
        SCOPED_TRACE("label '" + label + "'");
        const std::string text = server.metricsText(label);
        ParsedHistogram lat, bsz;
        ASSERT_NO_FATAL_FAILURE(parseHistogram(
            text, "fides_serve_latency_ms", label, lat));
        expectHistogramConformant(lat, kRequests);
        ASSERT_NO_FATAL_FAILURE(parseHistogram(
            text, "fides_serve_batch_size", label, bsz));
        ASSERT_FALSE(bsz.buckets.empty());
        EXPECT_TRUE(bsz.haveSum);
        EXPECT_TRUE(bsz.haveCount);
        EXPECT_EQ(bsz.buckets.back().first, "+Inf");
        // Sum of group sizes over all dispatches == retired requests.
        EXPECT_EQ(static_cast<u64>(bsz.sum), kRequests);
        // le bounds match the declared schedule.
        ASSERT_EQ(lat.buckets.size(),
                  Server::kLatencyBucketsMs.size() + 1);
        for (std::size_t i = 0;
             i < Server::kLatencyBucketsMs.size(); ++i) {
            char want[32];
            std::snprintf(want, sizeof(want), "%g",
                          Server::kLatencyBucketsMs[i]);
            EXPECT_EQ(lat.buckets[i].first, want);
        }
    }
}

} // namespace
} // namespace fideslib::serve
