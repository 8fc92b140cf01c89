/**
 * @file
 * Serving-layer tests (serve/server.hpp): N concurrent requests
 * through the Server must produce bit-identical results to the same
 * programs run sequentially, across random (devices, streams,
 * limbBatch, submitters) topologies -- concurrency must be a pure
 * scheduling optimization. The rest pin down the protocol pieces:
 * submitters racing a cold Context's lazy caches, settled results out
 * of Handle::get(), queue/stats discipline, and the host-dispatch
 * counter. Run under TSan in CI.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <vector>

#include "ckks/adapter.hpp"
#include "ckks/encryptor.hpp"
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

/** Mult-free program: add + rotate + sub (a second request shape). */
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
    // correct too -- leases then wrap and share streams. At 2x1 every
    // worker's lease is the same two streams, the case DESIGN.md §1.8
    // argues cannot deadlock.
    const std::tuple<u32, u32, u32, u32> topologies[] = {
        {1, 1, 2, 2}, {2, 2, 2, 4}, {1, 4, 0, 3}, {2, 4, 2, 4},
        {2, 1, 2, 4}};
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

        // Sequential reference on the same context.
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
        Server::Stats st = server.stats();
        EXPECT_EQ(st.accepted, kRequests);
        EXPECT_EQ(st.completed, kRequests);
        EXPECT_EQ(st.failed, 0u);
    }
}

TEST(Serve, ColdContextRaceMatchesSequential)
{
    // Many submitters race the same program on a COLD server Context:
    // keys and inputs arrive in wire form, so no op has run on it and
    // its lazy caches (the rotation's automorphism permutation) are
    // built by whichever submitter gets there first. Every result must
    // equal a sequential run of the same program, bit for bit.
    Fixture client(topologyParams(2, 2));
    const HostKeyBundle wireKeys =
        adapter::toHost(client.ctx, client.keys);
    const HostCiphertext hx =
        adapter::toHost(client.ctx, client.encrypt(0.23));
    const HostCiphertext hy =
        adapter::toHost(client.ctx, client.encrypt(0.71));

    Context ctx(topologyParams(2, 2));
    const KeyBundle keys = adapter::toDevice(ctx, wireKeys);
    auto program = [&] {
        return statsProgram(adapter::toDevice(ctx, hx),
                            adapter::toDevice(ctx, hy));
    };
    constexpr u32 kRequests = 8;
    std::vector<Request> programs;
    for (u32 i = 0; i < kRequests; ++i)
        programs.push_back(program());
    std::vector<Handle> handles;
    {
        Server::Options opt;
        opt.submitters = 4;
        Server server(ctx, keys, opt);
        for (Request &r : programs)
            handles.push_back(server.submit(std::move(r)));
        server.drain();
    }

    const Ciphertext want = executeProgram(Evaluator(ctx, keys), program());
    for (u32 i = 0; i < kRequests; ++i) {
        SCOPED_TRACE(::testing::Message() << "request " << i);
        expectCiphertextEqual(want, handles[i].get(), "race result");
    }
}

TEST(Serve, DispatchCpuCoversLaunchOverhead)
{
    // With two or more streams every launch is submitted from the
    // worker thread and pays the simulated launch overhead there, so
    // Stats::dispatchCpuNs must cover the spins. Half of launches x
    // overhead leaves room for preemption during a spin (the spin
    // waits on the wall clock; the counter reads thread CPU).
    constexpr u64 kOverheadNs = 20000;
    constexpr u32 kRequests = 4;
    Fixture f(topologyParams(1, 2));
    auto x = f.encrypt(0.37);
    auto y = f.encrypt(0.53);
    std::vector<Request> programs;
    for (u32 i = 0; i < kRequests; ++i)
        programs.push_back(statsProgram(x.clone(), y.clone()));
    DeviceSet &devs = f.ctx.devices();
    devs.synchronize();
    const u64 launches0 = devs.aggregateCounters().launches;
    devs.setLaunchOverheadNs(kOverheadNs);

    Server::Options opt;
    opt.submitters = 2;
    Server server(f.ctx, f.keys, opt);
    for (Request &r : programs)
        server.submit(std::move(r));
    server.drain();

    const u64 launches = devs.aggregateCounters().launches - launches0;
    ASSERT_GT(launches, 0u);
    EXPECT_GE(2 * server.stats().dispatchCpuNs, launches * kOverheadNs);
}

TEST(Serve, HandleYieldsSettledCorrectResult)
{
    // End-to-end through the front door: the result decrypts to the
    // right values and carries no pending device work (the server's
    // per-request host join settled it). The Multiply and the Rescale
    // of its register run as one merged HMult + Rescale, which must
    // equal the two ops run one after the other.
    Fixture f(topologyParams(2, 2));
    const u32 slots = static_cast<u32>(f.ctx.degree() / 2);
    std::vector<std::complex<double>> xs(slots), ys(slots);
    for (u32 i = 0; i < slots; ++i) {
        xs[i] = {0.5 * std::cos(0.1 * i), 0};
        ys[i] = {0.25 + 0.001 * (i % 7), 0};
    }
    auto ctX = f.encr.encrypt(f.enc.encode(xs, slots, f.ctx.maxLevel()));
    auto ctY = f.encr.encrypt(f.enc.encode(ys, slots, f.ctx.maxLevel()));
    Ciphertext twoStep = f.eval.multiply(ctX, ctY);
    f.eval.rescaleInPlace(twoStep);

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
    expectCiphertextEqual(twoStep, got, "multiply then rescale");
    EXPECT_EQ(got.noiseBits, twoStep.noiseBits);

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
        // The bucketless batch-size pair perfbench's traced mode
        // reads: one request per dispatch, so both equal the retired
        // request count.
        ASSERT_NO_FATAL_FAILURE(parseHistogram(
            text, "fides_serve_batch_size", label, bsz));
        EXPECT_TRUE(bsz.buckets.empty());
        ASSERT_TRUE(bsz.haveSum);
        ASSERT_TRUE(bsz.haveCount);
        EXPECT_EQ(static_cast<u64>(bsz.sum), kRequests);
        EXPECT_EQ(bsz.count, kRequests);
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
