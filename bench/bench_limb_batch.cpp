/**
 * @file
 * Figure 7 reproduction: HMult at maximum level as a function of the
 * limb-batch size (2..12), plus the merged HMult + Rescale at batch 4. Small batches maximize temporal locality
 * but multiply the kernel-launch count; large batches amortize launch
 * cost but spill the working set out of cache. The simulated launch
 * overhead (2 us, in the range of real CUDA launch latency) makes the
 * trade-off measurable on the host; the per-platform roofline model
 * reproduces the paper's observation that higher-throughput GPUs peak
 * at larger batch sizes.
 *
 * Execution topology is selectable from the command line:
 *
 *   bench_limb_batch --devices 2 --streams 4
 *
 * shards the RNS limbs over two simulated devices and dispatches the
 * limb batches round-robin over four streams; per-device launch and
 * traffic counters are reported alongside the aggregate model.
 *
 * A warmup multiply runs outside the measured loop, and
 * host_dispatch_us reports the per-op host dispatch cost of the timed
 * iterations: hazard derivation, stream picking and the per-launch
 * overhead of every live launch.
 *
 * Besides the console output, every run (over)writes a machine-
 * readable summary (ns/op, host syncs/op, logical kernels/op,
 * per-device launches, host dispatch us/op) to --json_out, defaulting
 * to BENCH_limb_batch.json in the CWD; CI passes the repo-root path,
 * gates on kernels/op, launches/op, syncs/op, ns/op and host
 * dispatch against the committed baseline
 * (tools/check_launch_regression.py) and uploads the file as a
 * per-commit artifact so the performance trajectory of the
 * asynchronous execution model accumulates across commits.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

#include "bench_common.hpp"

#include "check/check.hpp"

namespace
{

using namespace fideslib;
using namespace fideslib::bench;

u32 gDevices = 1;
u32 gStreams = 1; //!< total streams across all devices
//! JSON summary destination. Relative paths resolve against the CWD,
//! so runs from build/ used to silently miss the repo-root trajectory
//! file CI uploads; CI now passes an absolute --json_out.
std::string gJsonOut = "BENCH_limb_batch.json";

Parameters
topologyParams()
{
    Parameters p = benchParams();
    p.numDevices = gDevices;
    p.streamsPerDevice = std::max(1u, gStreams / gDevices);
    return p;
}

std::string
topologyTag()
{
    return "fig7_d" + std::to_string(gDevices) + "_s" +
           std::to_string(gStreams);
}

/** The Figure 7 measurement of one top-level op: @p op(a, c) is
 *  either HMult or the merged HMult + Rescale. */
template <typename Op>
void
runLimbBatch(benchmark::State &state, Op op)
{
    auto &b = cachedContext(topologyTag(), topologyParams(), {1});
    const u32 batch = static_cast<u32>(state.range(0));
    const u32 L = b.ctx->maxLevel();
    auto a = b.randomCiphertext(L);
    auto c = b.randomCiphertext(L);

    b.ctx->setLimbBatch(batch);
    b.ctx->devices().setLaunchOverheadNs(2000);
    // One warm multiply outside the measured loop.
    {
        auto warm = op(*b.eval, a, c);
        benchmark::DoNotOptimize(warm.c0.limb(0).data());
        b.ctx->devices().synchronize();
    }
    b.ctx->devices().resetCounters();
    // Host-side dispatch time: multiply() returns once every kernel
    // is submitted (the work itself retires asynchronously), so the
    // submitting thread's CPU time up to the return is exactly the
    // per-op host dispatch cost.
    double dispatchNs = 0;
    for (auto _ : state) {
        const double t0 = threadCpuNs();
        auto r = op(*b.eval, a, c);
        dispatchNs += threadCpuNs() - t0;
        benchmark::DoNotOptimize(r.c0.limb(0).data());
        // Join like a CUDA bench would (cudaDeviceSynchronize): the
        // kernels pipeline asynchronously inside the iteration.
        b.ctx->devices().synchronize();
    }
    reportPlatformModel(state, state.iterations(), b.ctx->devices());
    reportPerDeviceCounters(state, state.iterations(),
                            b.ctx->devices());
    // Hazard-validator overhead observability (check/check.hpp,
    // DESIGN.md §1.11): the same multiply timed with the
    // validator on (Report mode) and off, back to back. Both ns/op
    // land in the trajectory, so the cost of a checked run -- and any
    // creep in the cost of the DISABLED hooks, which is the number
    // the <2% always-compiled-in budget gates on -- stays visible
    // across commits.
    {
        auto timedOp = [&](int iters) {
            const auto t0 = std::chrono::steady_clock::now();
            for (int i = 0; i < iters; ++i) {
                auto r = op(*b.eval, a, c);
                benchmark::DoNotOptimize(r.c0.limb(0).data());
                b.ctx->devices().synchronize();
            }
            return std::chrono::duration<double, std::nano>(
                       std::chrono::steady_clock::now() - t0)
                       .count() /
                   iters;
        };
        constexpr int kOverheadIters = 20;
        timedOp(2); // warm
        const double offNs = timedOp(kOverheadIters);
        Context::setValidation(check::Mode::Report);
        const double onNs = timedOp(kOverheadIters);
        Context::setValidation(check::Mode::Off);
        // Drop the shadow state the measured ops accumulated: the
        // validator stays off for the rest of the process.
        check::onTeardown();
        state.counters["validate_off_ns_per_op"] = offNs;
        state.counters["validate_on_ns_per_op"] = onNs;
    }
    b.ctx->devices().setLaunchOverheadNs(0);
    b.ctx->setLimbBatch(benchParams().limbBatch);
    state.counters["limb_batch"] = batch;
    state.counters["devices"] = gDevices;
    state.counters["streams"] = gStreams;
    state.counters["host_dispatch_us"] =
        dispatchNs / 1e3 /
        static_cast<double>(std::max<u64>(1, state.iterations()));
}

void
BM_HMultLimbBatch(benchmark::State &state)
{
    runLimbBatch(state, [](const Evaluator &e, const Ciphertext &x,
                           const Ciphertext &y) {
        return e.multiply(x, y);
    });
}

/** HMult + Rescale through the merged epilogue (one exact division by
 *  P q_l per component): CI gates its kernels and launches at the CI
 *  topology, beside HMult's. */
void
BM_HMultRescaleLimbBatch(benchmark::State &state)
{
    runLimbBatch(state, [](const Evaluator &e, const Ciphertext &x,
                           const Ciphertext &y) {
        return e.multiplyRescale(x, y);
    });
}

/**
 * Strips "--devices N"/"--streams N"/"--json_out PATH" (and the "=X"
 * forms) from argv before Google Benchmark sees, and rejects, unknown
 * flags.
 */
void
parseTopologyFlags(int &argc, char **argv)
{
    auto match = [](const char *arg, const char *name,
                    const char *&value) {
        std::size_t len = std::strlen(name);
        if (std::strncmp(arg, name, len) != 0)
            return false;
        if (arg[len] == '=') {
            value = arg + len + 1;
            return true;
        }
        if (arg[len] == '\0') {
            value = nullptr;
            return true;
        }
        return false;
    };

    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const char *flag = argv[i];
        const char *value = nullptr;
        u32 *target = nullptr;
        if (match(flag, "--json_out", value)) {
            if (!value && i + 1 < argc)
                value = argv[++i];
            if (!value || value[0] == '\0')
                fideslib::fatal("--json_out requires a path");
            gJsonOut = value;
            continue;
        }
        if (match(flag, "--devices", value))
            target = &gDevices;
        else if (match(flag, "--streams", value))
            target = &gStreams;
        if (!target) {
            argv[out++] = argv[i];
            continue;
        }
        if (!value && i + 1 < argc)
            value = argv[++i];
        if (!value || std::atoi(value) < 1)
            fideslib::fatal("%.9s requires a positive integer", flag);
        *target = static_cast<u32>(std::atoi(value));
    }
    argc = out;
    // The topology is devices x streamsPerDevice, so the effective
    // total stream count is rounded to a multiple of the device
    // count; report the value that actually runs.
    const u32 requested = gStreams;
    gStreams = gDevices * std::max(1u, gStreams / gDevices);
    if (gStreams != requested) {
        fideslib::warn("--streams %u rounded to %u (%u per device)",
                       requested, gStreams, gStreams / gDevices);
    }
}

} // namespace

BENCHMARK(BM_HMultLimbBatch)
    ->DenseRange(2, 12, 2)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_HMultRescaleLimbBatch)
    ->Arg(4)
    ->Unit(benchmark::kMicrosecond);

int
main(int argc, char **argv)
{
    parseTopologyFlags(argc, argv);
    ::benchmark::Initialize(&argc, argv);
    if (::benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    JsonDumpReporter reporter;
    ::benchmark::RunSpecifiedBenchmarks(&reporter);
    writeJson(reporter, gJsonOut.c_str());
    ::benchmark::Shutdown();
    return 0;
}
