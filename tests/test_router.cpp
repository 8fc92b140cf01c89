/**
 * @file
 * Cluster-router tests (serve/router.hpp): sharding must be a pure
 * placement optimization. Requests routed through a Router -- keys
 * registered over the wire form, inputs uploaded over the wire form,
 * execution on whichever shard the ring picked -- must produce
 * results bit-identical to the same programs run directly against a
 * single client-side Evaluator. Cross-shard ciphertext moves round
 * trip bit-exactly under concurrent submitters on both shards, a
 * tenant re-registered with new keys while its requests are in
 * flight keeps its shard and serves each request under the keys it
 * was submitted with, and routing an unregistered tenant dies. Run
 * under TSan in CI via the Router* filter.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "ckks/adapter.hpp"
#include "ckks/encryptor.hpp"
#include "ckks/keygen.hpp"
#include "ckks/serial.hpp"
#include "serve/router.hpp"

namespace fideslib::serve
{
namespace
{

using namespace fideslib::ckks;

Parameters
clusterParams()
{
    Parameters p = Parameters::testSmall();
    p.limbBatch = 2;
    p.numDevices = 1;
    p.streamsPerDevice = 4;
    return p;
}

/**
 * The client side of the cluster: its own Context (same Parameters
 * as every shard -- the wire-compatibility requirement), key
 * generation, and a local Evaluator for sequential reference runs.
 * Tenants of a Router share this bundle CONTENT; each registers it
 * under its own id and the Router materializes an independent device
 * copy per shard.
 */
struct Client
{
    Context ctx;
    KeyGen keygen;
    KeyBundle keys;
    Evaluator eval;
    Encoder enc;
    Encryptor encr;
    HostKeyBundle wireKeys;

    explicit Client(const Parameters &p)
        : ctx(p), keygen(ctx), keys(keygen.makeBundle({1, 2})),
          eval(ctx, keys), enc(ctx), encr(ctx, keys.pk),
          wireKeys(adapter::toHost(ctx, keys))
    {}

    Ciphertext
    encrypt(double seed)
    {
        return encrypt(encr, seed);
    }
    /** Encrypts under @p with, e.g. a second bundle's public key. */
    Ciphertext
    encrypt(const Encryptor &with, double seed)
    {
        const u32 slots = static_cast<u32>(ctx.degree() / 2);
        std::vector<std::complex<double>> z(slots);
        for (u32 i = 0; i < slots; ++i)
            z[i] = {std::cos(seed * (i + 1)), std::sin(seed + i)};
        return with.encrypt(enc.encode(z, slots, ctx.maxLevel()));
    }
};

/** Stats-style program over two uploaded registers. */
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
    r.returns(sq);
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

/** First tenant id (from 1) the ring places on @p shard. */
u64
tenantOnShard(Router &router, const HostKeyBundle &keys, u32 shard,
              u64 startId = 1)
{
    for (u64 id = startId; id < startId + 256; ++id) {
        if (router.registerTenant(id, keys) == shard)
            return id;
    }
    ADD_FAILURE() << "no tenant hashed to shard " << shard;
    return 0;
}

TEST(RouterTest, RoutedMatchesDirectAcrossShards)
{
    Client client(clusterParams());

    Router::Options opt;
    opt.shards = 2;
    opt.submittersPerShard = 2;
    Router router(clusterParams(), opt);

    // Enough tenants that both shards serve some.
    constexpr u32 kTenants = 4;
    constexpr u32 kRequestsPerTenant = 3;
    std::vector<u64> ids;
    bool shardUsed[2] = {false, false};
    for (u64 id = 1; ids.size() < kTenants; ++id) {
        const u32 s = router.registerTenant(id, client.wireKeys);
        ids.push_back(id);
        shardUsed[s] = true;
    }
    if (!(shardUsed[0] && shardUsed[1])) {
        // Extend until the ring used both shards (id choice is
        // deterministic, so in practice this never loops far).
        for (u64 id = kTenants + 1; !(shardUsed[0] && shardUsed[1]);
             ++id) {
            shardUsed[router.registerTenant(id, client.wireKeys)] =
                true;
            ids.push_back(id);
        }
    }

    // Client-side encryption once per request; the reference consumes
    // clones, the router consumes wire-format uploads of the SAME
    // ciphertexts.
    struct Case
    {
        u64 tenant;
        Request routed;
        Ciphertext want;
    };
    std::vector<Case> cases;
    double seed = 0.1;
    for (u64 id : ids) {
        for (u32 r = 0; r < kRequestsPerTenant; ++r, seed += 0.13) {
            Ciphertext x = client.encrypt(seed);
            Ciphertext y = client.encrypt(seed + 7.0);
            Ciphertext want = executeProgram(
                client.eval,
                statsProgram(x.clone(), y.clone()));
            Request routed = statsProgram(
                router.upload(id, adapter::toHost(client.ctx, x)),
                router.upload(id, adapter::toHost(client.ctx, y)));
            cases.push_back(
                {id, std::move(routed), std::move(want)});
        }
    }

    // Concurrent client threads, one per tenant.
    std::vector<Handle> handles(cases.size());
    std::vector<std::thread> clients;
    for (u64 id : ids) {
        clients.emplace_back([&, id] {
            for (std::size_t i = 0; i < cases.size(); ++i)
                if (cases[i].tenant == id)
                    handles[i] = router.submit(
                        id, std::move(cases[i].routed));
        });
    }
    for (auto &t : clients)
        t.join();

    for (std::size_t i = 0; i < cases.size(); ++i) {
        Ciphertext got = handles[i].get();
        expectCiphertextEqual(cases[i].want, got, "routed result");
    }

    const Router::Stats st = router.stats();
    ASSERT_EQ(2u, st.shards.size());
    u64 accepted = 0, completed = 0;
    for (const auto &ss : st.shards) {
        accepted += ss.serve.accepted;
        completed += ss.serve.completed;
        EXPECT_GT(ss.tenants, 0u); // both shards actually served
    }
    EXPECT_EQ(cases.size(), accepted);
    EXPECT_EQ(cases.size(), completed);
}

TEST(RouterTest, CrossShardMoveRoundTripsBitExactUnderLoad)
{
    Client client(clusterParams());

    Router::Options opt;
    opt.shards = 2;
    opt.submittersPerShard = 1;
    Router router(clusterParams(), opt);

    const u64 t0 = tenantOnShard(router, client.wireKeys, 0);
    const u64 t1 = tenantOnShard(router, client.wireKeys, 1, t0 + 1);

    // Background load: both shards serve while ciphertexts cross.
    std::vector<Handle> handles;
    for (u32 i = 0; i < 3; ++i) {
        const double s = 0.3 + 0.17 * i;
        for (u64 id : {t0, t1}) {
            Ciphertext x = client.encrypt(s);
            Ciphertext y = client.encrypt(s + 3.0);
            handles.push_back(router.submit(
                id,
                statsProgram(
                    router.upload(id,
                                  adapter::toHost(client.ctx, x)),
                    router.upload(id,
                                  adapter::toHost(client.ctx, y)))));
        }
    }

    // Round trip shard0 -> shard1 -> shard0 over the wire format
    // while the submitters run.
    Ciphertext orig =
        router.upload(t0, adapter::toHost(client.ctx,
                                          client.encrypt(0.77)));
    Ciphertext away = serial::moveToContext(router.shardContext(0),
                                            router.shardContext(1),
                                            orig);
    Ciphertext back = serial::moveToContext(router.shardContext(1),
                                            router.shardContext(0),
                                            away);
    expectCiphertextEqual(orig, back, "cross-shard round trip");

    for (Handle &h : handles)
        EXPECT_TRUE(h.get().c0.numLimbs() > 0);
}

TEST(RouterTest, ReRegistrationRollsKeysUnderLoad)
{
    Client client(clusterParams());

    // Bundle B: a second KeyGen on the client Context draws a fresh
    // secret, so B's keys differ from A's (the client's own bundle).
    KeyGen keygenB(client.ctx);
    const KeyBundle keysB = keygenB.makeBundle({1, 2});
    const Evaluator evalB(client.ctx, keysB);
    const Encryptor encrB(client.ctx, keysB.pk);
    const HostKeyBundle wireB = adapter::toHost(client.ctx, keysB);
    ASSERT_NE(client.wireKeys.pkB.limbs, wireB.pkB.limbs);
    ASSERT_NE(client.wireKeys.relin.b.front().limbs,
              wireB.relin.b.front().limbs);

    Router::Options opt;
    opt.shards = 2;
    opt.submittersPerShard = 1;
    Router router(clusterParams(), opt);
    const u64 tenant = tenantOnShard(router, client.wireKeys, 0);
    const u32 home = router.shardOf(tenant);

    // Each case is encrypted under, and referenced against, its own
    // bundle, so a request served under the other bundle's keys
    // cannot match.
    struct Case
    {
        Request req;
        Ciphertext want;
        Handle handle;
    };
    auto prepare = [&](const Evaluator &eval, const Encryptor &encr,
                       double seed) {
        Ciphertext x = client.encrypt(encr, seed);
        Ciphertext y = client.encrypt(encr, seed + 4.0);
        Ciphertext want =
            executeProgram(eval, statsProgram(x.clone(), y.clone()));
        return Case{
            statsProgram(
                router.upload(tenant, adapter::toHost(client.ctx, x)),
                router.upload(tenant, adapter::toHost(client.ctx, y))),
            std::move(want), Handle{}};
    };
    constexpr u32 kRequests = 4;
    std::vector<Case> underA, underB;
    for (u32 i = 0; i < kRequests; ++i) {
        underA.push_back(prepare(client.eval, client.encr, 0.25 + 0.1 * i));
        underB.push_back(prepare(evalB, encrB, 2.5 + 0.1 * i));
    }

    // Slow every launch on the home shard (set while its submitter is
    // idle) so A's requests are still queued or executing when B
    // replaces the keys.
    router.shardContext(home).devices().setLaunchOverheadNs(100000);
    for (Case &c : underA)
        c.handle = router.submit(tenant, std::move(c.req));
    EXPECT_TRUE(std::any_of(underA.begin(), underA.end(),
                            [](const Case &c) {
                                return !c.handle.ready();
                            }))
        << "every request under A settled before the rollover";

    EXPECT_EQ(home, router.registerTenant(tenant, wireB));
    for (Case &c : underB)
        c.handle = router.submit(tenant, std::move(c.req));

    for (Case &c : underA)
        expectCiphertextEqual(c.want, c.handle.get(), "result under A");
    for (Case &c : underB)
        expectCiphertextEqual(c.want, c.handle.get(), "result under B");
    EXPECT_EQ(home, router.shardOf(tenant));
    EXPECT_EQ(u64{2 * kRequests},
              router.stats().shards[home].serve.completed);
}

TEST(RouterTest, ConsistentHashingIsDeterministicAndSpreads)
{
    Client client(clusterParams());

    Router::Options opt;
    opt.shards = 4;
    Router a(clusterParams(), opt);
    Router b(clusterParams(), opt);

    std::vector<bool> used(4, false);
    for (u64 id = 1; id <= 32; ++id) {
        const u32 sa = a.registerTenant(id, client.wireKeys);
        const u32 sb = b.registerTenant(id, client.wireKeys);
        EXPECT_EQ(sa, sb) << "placement differs for tenant " << id;
        used[sa] = true;
    }
    for (u32 s = 0; s < 4; ++s)
        EXPECT_TRUE(used[s]) << "no tenant placed on shard " << s;

    // Re-registration keeps the placement.
    const u32 before = a.shardOf(7);
    EXPECT_EQ(before, a.registerTenant(7, client.wireKeys));
    EXPECT_EQ(32u, a.tenants());
}

TEST(RouterTest, MetricsTextExposesShardAndRouterSamples)
{
    Client client(clusterParams());

    Router::Options opt;
    opt.shards = 2;
    Router router(clusterParams(), opt);
    const u64 tenant = tenantOnShard(router, client.wireKeys, 0);

    Ciphertext x = client.encrypt(0.9);
    Ciphertext y = client.encrypt(1.9);
    router
        .submit(tenant,
                statsProgram(
                    router.upload(tenant,
                                  adapter::toHost(client.ctx, x)),
                    router.upload(tenant,
                                  adapter::toHost(client.ctx, y))))
        .get();

    const std::string text = router.metricsText();
    for (const char *needle :
         {"fides_router_shards 2",
          "fides_serve_accepted_total{shard=\"shard0\"}",
          "fides_serve_latency_ms_bucket{shard=\"shard1\",le=\"+Inf\"}",
          "fides_serve_executed_ops_total{shard=\"shard0\"}",
          "fides_serve_queue_depth{shard=\"shard1\"} 0"})
        EXPECT_NE(std::string::npos, text.find(needle))
            << "missing sample: " << needle;
    EXPECT_NE(std::string::npos,
              text.find("fides_router_tenants " +
                        std::to_string(router.tenants()) + "\n"));

    // The tenantless shard Server also dumps unlabeled metrics.
    const std::string solo = router.shard(0).metricsText();
    EXPECT_NE(std::string::npos,
              solo.find("fides_serve_completed_total "));
}

TEST(RouterDeathTest, UnregisteredTenantAborts)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Client client(clusterParams());

    Router::Options opt;
    opt.shards = 2;
    Router router(clusterParams(), opt);
    router.registerTenant(1, client.wireKeys);

    Request r;
    r.input(router.upload(1, adapter::toHost(client.ctx,
                                             client.encrypt(0.4))));
    EXPECT_DEATH(router.submit(42, std::move(r)),
                 "no key bundle registered for tenant 42");
    EXPECT_DEATH(router.shardOf(42), "no key bundle registered");
}

} // namespace
} // namespace fideslib::serve
