/**
 * @file
 * Cluster-scaling benchmark for the sharded front door
 * (serve/router.hpp): the SAME total workload -- T tenants x R
 * stats-style requests, a fixed total submitter-thread budget --
 * served by a Router with {1, 2, 4} shards. One shard is the
 * single-node baseline; each added shard is an independent Context +
 * DeviceSet (a simulated GPU node), so the sweep measures what
 * splitting the same submitters over more nodes gains. Every shard
 * still runs on the host's cores, and on a 4-core host one warm
 * shard already fills them: there the ratios read about 1x.
 *
 * Before the first row, the measured program runs untimed for 2 s
 * on one shard with every submitter, so no row starts on a
 * host still ramping out of idle. Each tenant's first request is an
 * unmeasured warmup too (it builds the shard's lazy caches). Routed
 * results are bit-identical
 * across shard counts (proven by test_router); this bench measures
 * only the placement schedule.
 *
 * Writes a machine-readable summary to --json_out (default
 * BENCH_cluster.json in the CWD): per-row aggregate req/s and ops/s,
 * p50/p99 latency, host dispatch per op, and the scaling ratio
 * against the 1-shard row. CI gates the 2-shard ratio via
 * tools/check_launch_regression.py; like the submitter
 * gate, the ratio applies only on machines with enough cores
 * (reported in the "cores" field) for a second shard's submitters to
 * add wall-clock throughput. Ends with a Router::metricsText() smoke
 * dump so the /metrics surface stays exercised.
 *
 * --target_rps > 0 adds an open-loop Poisson row at the largest
 * shard count (suffix _open): the same knob, row naming and
 * host_dispatch_us field as bench_serve.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "ckks/adapter.hpp"
#include "ckks/encryptor.hpp"
#include "ckks/keygen.hpp"
#include "serve/router.hpp"

using namespace fideslib;
using namespace fideslib::ckks;
using namespace fideslib::serve;

namespace
{

u32 gStreams = 4;    //!< streams per device, per shard
u32 gRequests = 48;  //!< total measured requests, all tenants
u32 gTenants = 4;
u32 gSubmitters = 4; //!< total submitter threads, split over shards
double gTargetRps = 0; //!< open-loop Poisson arrival rate (0 = closed)
std::vector<u32> gShards = {1, 2, 4};
std::string gJsonOut = "BENCH_cluster.json";

constexpr u32 kOpsPerRequest = 6; //!< statsProgram's homomorphic ops
constexpr auto kWarmUp = std::chrono::seconds(2); //!< untimed, first

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

Parameters
shardParams()
{
    Parameters p = Parameters::paper13();
    p.numDevices = 1;
    p.streamsPerDevice = gStreams;
    // The launch-bound regime of the paper's Figure 7 (like
    // bench_serve): per-launch overhead makes host dispatch the
    // resource the shards multiply.
    p.limbBatch = 4;
    return p;
}

struct RunResult
{
    u32 shards;
    double targetRps;
    double seconds;
    double p50Ms;
    double p99Ms;
    double hostDispatchUs; //!< dispatch-engine CPU per executed op
    std::string metrics;
};

RunResult
runOnce(u32 shards, double targetRps,
        const HostKeyBundle &wireKeys, const Context &clientCtx,
        const Ciphertext &x, const Ciphertext &y)
{
    Router::Options opt;
    opt.shards = shards;
    opt.submittersPerShard = std::max(1u, gSubmitters / shards);
    Router router(shardParams(), opt);
    for (u32 s = 0; s < shards; ++s)
        router.shardContext(s).devices().setLaunchOverheadNs(2000);

    const HostCiphertext hx = adapter::toHost(clientCtx, x);
    const HostCiphertext hy = adapter::toHost(clientCtx, y);

    // Warmup: each tenant's first request runs unmeasured.
    for (u64 t = 1; t <= gTenants; ++t) {
        router.registerTenant(t, wireKeys);
        router.submit(t, statsProgram(router.upload(t, hx),
                                      router.upload(t, hy)));
    }
    router.drain();

    // Pre-built, pre-uploaded requests round-robined over the
    // tenants: the measured region contains only serving work.
    std::vector<u64> owner;
    std::vector<Request> requests;
    requests.reserve(gRequests);
    for (u32 i = 0; i < gRequests; ++i) {
        const u64 t = 1 + (i % gTenants);
        owner.push_back(t);
        requests.push_back(statsProgram(router.upload(t, hx),
                                        router.upload(t, hy)));
    }
    for (u32 s = 0; s < shards; ++s)
        router.shardContext(s).devices().synchronize();
    u64 dispatch0 = 0, ops0 = 0;
    for (const auto &ss : router.stats().shards) {
        dispatch0 += ss.serve.dispatchCpuNs;
        ops0 += ss.serve.executedOps;
    }

    // Closed loop: submit everything at once. Open loop: Poisson arrivals at --target_rps, the
    // latency-under-load view -- same seed as bench_serve so the two
    // benches stress comparable traces.
    std::mt19937_64 rng(0xF1DE5u);
    std::exponential_distribution<double> gap(targetRps);

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<Handle> handles;
    handles.reserve(requests.size());
    auto due = t0;
    for (u32 i = 0; i < gRequests; ++i) {
        if (targetRps > 0) {
            due += std::chrono::duration_cast<
                std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(gap(rng)));
            std::this_thread::sleep_until(due);
        }
        handles.push_back(
            router.submit(owner[i], std::move(requests[i])));
    }
    std::vector<double> latencies;
    latencies.reserve(handles.size());
    for (Handle &h : handles) {
        (void)h.get();
        latencies.push_back(h.latencyMs());
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();

    std::sort(latencies.begin(), latencies.end());
    auto pct = [&](double p) {
        std::size_t i = static_cast<std::size_t>(
            p * static_cast<double>(latencies.size() - 1));
        return latencies[i];
    };

    RunResult r{};
    r.shards = shards;
    r.targetRps = targetRps;
    r.seconds = seconds;
    r.p50Ms = pct(0.50);
    r.p99Ms = pct(0.99);
    const Router::Stats st = router.stats();
    u64 dispatch1 = 0, ops1 = 0;
    for (const auto &ss : st.shards) {
        dispatch1 += ss.serve.dispatchCpuNs;
        ops1 += ss.serve.executedOps;
    }
    r.hostDispatchUs = ops1 > ops0
                           ? static_cast<double>(dispatch1 - dispatch0) /
                                 1e3 / static_cast<double>(ops1 - ops0)
                           : 0;
    r.metrics = router.metricsText();
    return r;
}

void
parseFlags(int argc, char **argv)
{
    auto value = [&](int &i) -> const char * {
        const char *arg = argv[i];
        const char *eq = std::strchr(arg, '=');
        if (eq)
            return eq + 1;
        if (i + 1 < argc)
            return argv[++i];
        fatal("%.24s requires a value", arg);
    };
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strncmp(a, "--streams", 9) == 0) {
            gStreams = static_cast<u32>(std::atoi(value(i)));
        } else if (std::strncmp(a, "--requests", 10) == 0) {
            gRequests = static_cast<u32>(std::atoi(value(i)));
        } else if (std::strncmp(a, "--tenants", 9) == 0) {
            gTenants = static_cast<u32>(std::atoi(value(i)));
        } else if (std::strncmp(a, "--submitters", 12) == 0) {
            gSubmitters = static_cast<u32>(std::atoi(value(i)));
        } else if (std::strncmp(a, "--target_rps", 12) == 0) {
            gTargetRps = std::atof(value(i));
        } else if (std::strncmp(a, "--shards", 8) == 0) {
            gShards.clear();
            std::string list = value(i);
            for (std::size_t p = 0; p < list.size();) {
                std::size_t c = list.find(',', p);
                if (c == std::string::npos)
                    c = list.size();
                gShards.push_back(static_cast<u32>(
                    std::atoi(list.substr(p, c - p).c_str())));
                p = c + 1;
            }
        } else if (std::strncmp(a, "--json_out", 10) == 0) {
            gJsonOut = value(i);
        } else {
            fatal("unknown flag %.40s", a);
        }
    }
    if (gStreams < 1 || gRequests < 1 || gTenants < 1 ||
        gSubmitters < 1 || gShards.empty())
        fatal("bad flag values");
}

} // namespace

int
main(int argc, char **argv)
{
    parseFlags(argc, argv);

    // The client side: keys generated once, shipped to every cluster
    // in wire-registry form; inputs encrypted once, uploaded per
    // tenant over the wire format.
    Context clientCtx(shardParams());
    KeyGen keygen(clientCtx);
    KeyBundle keys = keygen.makeBundle({1});
    const HostKeyBundle wireKeys = adapter::toHost(clientCtx, keys);
    Encoder enc(clientCtx);
    Encryptor encr(clientCtx, keys.pk);

    const u32 slots = static_cast<u32>(clientCtx.degree() / 2);
    std::vector<std::complex<double>> xs(slots), ys(slots);
    for (u32 i = 0; i < slots; ++i) {
        xs[i] = {std::cos(0.37 * i), std::sin(0.91 * i)};
        ys[i] = {std::sin(0.53 * i), std::cos(0.11 * i)};
    }
    auto x = encr.encrypt(enc.encode(xs, slots, clientCtx.maxLevel()));
    auto y = encr.encrypt(enc.encode(ys, slots, clientCtx.maxLevel()));

    const u32 cores = std::max(1u, std::thread::hardware_concurrency());
    std::printf("bench_cluster: %u tenant(s), %u requests x %u ops, "
                "%u total submitter(s), %u core(s)\n",
                gTenants, gRequests, kOpsPerRequest, gSubmitters,
                cores);

    // Warm the host: the measured program, untimed, on one shard with
    // every submitter until kWarmUp is up.
    for (auto until = std::chrono::steady_clock::now() + kWarmUp;
         std::chrono::steady_clock::now() < until;)
        (void)runOnce(1, 0, wireKeys, clientCtx, x, y);

    // Row schedule mirrors bench_serve: one closed-loop row per shard
    // count (the scaling sweep the cluster gate reads), then an
    // open-loop Poisson row at the largest shard count when
    // --target_rps asks for latency-under-load.
    std::vector<RunResult> rows;
    for (u32 s : gShards)
        rows.push_back(runOnce(s, 0, wireKeys, clientCtx, x, y));
    if (gTargetRps > 0) {
        const u32 s =
            *std::max_element(gShards.begin(), gShards.end());
        rows.push_back(
            runOnce(s, gTargetRps, wireKeys, clientCtx, x, y));
    }

    const double base =
        static_cast<double>(gRequests) / rows.front().seconds;
    std::FILE *f = std::fopen(gJsonOut.c_str(), "w");
    if (!f)
        fatal("cannot write %.200s", gJsonOut.c_str());
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const RunResult &r = rows[i];
        const double reqPerSec =
            static_cast<double>(gRequests) / r.seconds;
        const double scaling = reqPerSec / base;
        std::string name = "cluster_sh" + std::to_string(r.shards);
        if (r.targetRps > 0)
            name += "_open";
        std::printf("  %-20s  %8.1f req/s  %8.1f ops/s  "
                    "p50 %6.2f ms  p99 %6.2f ms  x%.2f vs 1 shard  "
                    "dispatch %5.1f us/op\n",
                    name.c_str(), reqPerSec,
                    reqPerSec * kOpsPerRequest, r.p50Ms, r.p99Ms,
                    scaling, r.hostDispatchUs);
        std::fprintf(
            f,
            "  {\"name\": \"%s\", \"shards\": %u, "
            "\"submitters_per_shard\": %u, \"tenants\": %u, "
            "\"target_rps\": %.1f, "
            "\"requests\": %u, \"ops_per_request\": %u, "
            "\"requests_per_sec\": %.2f, \"ops_per_sec\": %.2f, "
            "\"p50_ms\": %.3f, \"p99_ms\": %.3f, "
            "\"scaling_vs_1shard\": %.3f, \"host_dispatch_us\": %.3f, "
            "\"cores\": %u}%s\n",
            name.c_str(), r.shards,
            std::max(1u, gSubmitters / r.shards), gTenants, r.targetRps, gRequests, kOpsPerRequest, reqPerSec,
            reqPerSec * kOpsPerRequest, r.p50Ms, r.p99Ms, scaling,
            r.hostDispatchUs, cores, i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);

    // /metrics smoke dump (router-level samples + shard 0's head) so
    // the observability surface runs in CI, not just in tests.
    const std::string &m = rows.back().metrics;
    std::printf("--- metricsText (first lines) ---\n");
    std::size_t pos = 0;
    for (int line = 0; line < 8 && pos != std::string::npos; ++line) {
        std::size_t nl = m.find('\n', pos);
        if (nl == std::string::npos)
            break;
        std::printf("%s\n", m.substr(pos, nl - pos).c_str());
        pos = nl + 1;
    }
    return 0;
}
