/**
 * @file
 * The serving stack in action: a multi-tenant analytics CLUSTER.
 * Four clients each upload an encrypted measurement series; a
 * serve::Router shards the serving layer across two simulated GPU
 * nodes (independent Contexts), places each tenant on a shard by
 * consistent hashing, and computes every client's mean and variance
 * CONCURRENTLY -- without ever seeing a value. Keys travel to the
 * cluster in wire-registry form, ciphertexts cross the client/shard
 * boundary through the serialization format, and results come back
 * the same way: the shard boundary is the wire format. The request
 * programs are the same rotate-and-add chains as
 * examples/encrypted_stats.cpp, expressed as serve::Request
 * op-programs.
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "ckks/adapter.hpp"
#include "ckks/encryptor.hpp"
#include "ckks/keygen.hpp"
#include "ckks/serial.hpp"
#include "serve/router.hpp"

using namespace fideslib;
using namespace fideslib::ckks;
using namespace fideslib::serve;

namespace
{

/** Rotate-and-add sum over all slots, then scale by 1/n: every slot
 *  of the returned register holds the mean. */
u32
meanProgram(Request &r, u32 reg, u32 slots)
{
    u32 acc = reg;
    for (u32 k = slots / 2; k >= 1; k >>= 1) {
        u32 rot = r.rotate(acc, static_cast<i64>(k));
        acc = r.add(acc, rot);
    }
    r.multiplyScalar(acc, 1.0 / slots);
    r.rescale(acc);
    return acc;
}

} // namespace

int
main()
{
    Parameters params = Parameters::paper13();
    params.numDevices = 1;
    params.streamsPerDevice = 2;

    // The client side: key generation and encryption happen here; the
    // cluster only ever receives wire-format keys and ciphertexts.
    Context clientCtx(params);
    KeyGen keygen(clientCtx);

    const u32 slots = 256;
    std::vector<i64> rotations;
    for (u32 k = 1; k < slots; k <<= 1)
        rotations.push_back(static_cast<i64>(k));
    KeyBundle keys = keygen.makeBundle(rotations);
    const HostKeyBundle wireKeys = adapter::toHost(clientCtx, keys);
    Encoder encoder(clientCtx);
    Encryptor encryptor(clientCtx, keys.pk);

    // Four tenants with different series.
    constexpr u32 kClients = 4;
    std::vector<std::vector<std::complex<double>>> series(kClients);
    std::vector<double> wantMean(kClients), wantVar(kClients);
    for (u32 c = 0; c < kClients; ++c) {
        series[c].resize(slots);
        double sum = 0;
        for (u32 i = 0; i < slots; ++i) {
            double v = std::sin(0.05 * i + 0.3 * c) * 0.4 + 0.1 * c;
            series[c][i] = {v, 0};
            sum += v;
        }
        wantMean[c] = sum / slots;
        double var = 0;
        for (u32 i = 0; i < slots; ++i) {
            double d = series[c][i].real() - wantMean[c];
            var += d * d;
        }
        wantVar[c] = var / slots;
    }

    // The cluster: two shards (each its own Context + DeviceSet), one
    // submitter per shard, tenants placed by the consistent-hash
    // ring. Each tenant registers the wire-form key bundle; the
    // Router materializes device keys on the owning shard.
    Router::Options opt;
    opt.shards = 2;
    opt.submittersPerShard = 1;
    Router router(params, opt);
    for (u32 c = 0; c < kClients; ++c) {
        const u32 s = router.registerTenant(c + 1, wireKeys);
        std::printf("tenant %u -> %s\n", c + 1,
                    router.shardContext(s).shardLabel().c_str());
    }

    // Per client, one request computing mean and one computing
    // variance (mean of the square minus square of the mean), routed
    // to whichever shard owns the tenant.
    std::vector<Handle> meanHandles, varHandles;
    for (u32 c = 0; c < kClients; ++c) {
        const u64 tenant = c + 1;
        auto ct = router.upload(
            tenant,
            adapter::toHost(clientCtx,
                            encryptor.encrypt(encoder.encode(
                                series[c], slots,
                                clientCtx.maxLevel()))));

        Request meanReq;
        u32 x = meanReq.input(ct.clone());
        meanReq.returns(meanProgram(meanReq, x, slots));
        meanHandles.push_back(
            router.submit(tenant, std::move(meanReq)));

        // Variance = mean of squared deviations. The mean lands one
        // level down on the canonical scale chain, so the series is
        // brought there too (scalar-multiply by 1 + rescale) before
        // the exact subtraction -- the same alignment discipline as
        // examples/encrypted_stats.cpp.
        Request varReq;
        u32 xx = varReq.input(std::move(ct));
        u32 mean = meanProgram(varReq, xx, slots);
        varReq.multiplyScalar(xx, 1.0);
        varReq.rescale(xx);
        u32 dev = varReq.sub(xx, mean);
        u32 sq = varReq.square(dev);
        varReq.rescale(sq);
        varReq.returns(meanProgram(varReq, sq, slots));
        varHandles.push_back(router.submit(tenant, std::move(varReq)));
    }

    // Download: results live on the owning shard's Context; they come
    // back to the client over the wire format, where the secret key
    // decrypts them.
    auto download = [&](u64 tenant, Handle &h) {
        const Context &shardCtx =
            router.shardContext(router.shardOf(tenant));
        return serial::moveToContext(shardCtx, clientCtx, h.get());
    };

    bool ok = true;
    std::printf("client  %12s %12s %12s %12s\n", "mean(enc)",
                "mean", "var(enc)", "var");
    for (u32 c = 0; c < kClients; ++c) {
        auto gotMean =
            encoder
                .decode(encryptor.decrypt(
                    download(c + 1, meanHandles[c]),
                    keygen.secretKey()))[0]
                .real();
        auto gotVar =
            encoder
                .decode(encryptor.decrypt(
                    download(c + 1, varHandles[c]),
                    keygen.secretKey()))[0]
                .real();
        std::printf("%6u  %12.6f %12.6f %12.6f %12.6f\n", c, gotMean,
                    wantMean[c], gotVar, wantVar[c]);
        ok = ok && std::fabs(gotMean - wantMean[c]) < 1e-4 &&
             std::fabs(gotVar - wantVar[c]) < 1e-4;
    }

    const Router::Stats st = router.stats();
    for (u32 s = 0; s < router.numShards(); ++s)
        std::printf("%s: %zu tenant(s), %llu request(s) served, "
                    "%llu failed\n",
                    router.shardContext(s).shardLabel().c_str(),
                    st.shards[s].tenants,
                    (unsigned long long)st.shards[s].serve.completed,
                    (unsigned long long)st.shards[s].serve.failed);

    // The same numbers, scrape-ready (Router::metricsText dumps every
    // shard's /metrics samples; the head is enough for a demo).
    const std::string metrics = router.metricsText();
    std::printf("--- metrics head ---\n%s",
                metrics.substr(0, metrics.find('\n', 120) + 1).c_str());
    std::printf("%s\n", ok ? "OK" : "MISMATCH");
    return ok ? 0 : 1;
}
