/**
 * @file
 * Table VI reproduction: bootstrapping time and amortized time
 * (us / (slot * remaining level)) across slot counts, FIDESlib (all
 * optimizations) vs the Baseline-sim configuration (naive `%`
 * arithmetic, no fusion, no limb batching -- the shape of an
 * unoptimized CPU implementation on the same substrate).
 *
 * BM_BootstrapPerOp runs the FIDESlib configuration after one warmup
 * bootstrap (pool growth and the context's lazy tables; the stage
 * encodes are built at construction, DESIGN.md §1.10) and reports the
 * host dispatch cost per bootstrap.
 * BM_BootstrapBaselineSim warms the same way after its knob changes.
 * Both report device_peak_mb, the device pools' high-water during the
 * timed bootstrap, which the per-stream queue cap bounds (DESIGN.md
 * §1.2), and rotation_keys, the size of requiredRotations(). CI gates
 * host_dispatch_us, device_peak_mb, rotation_keys and the pair's
 * syncs_per_op against the committed BENCH_bootstrap.json baseline
 * (tools/check_launch_regression.py).
 *
 * Default: bootstrappable test set at logN=12 with slots
 * {64, 256, 1024}; FIDES_PAPER_SCALE=1 selects the paper's
 * [16, 29, 59, 4] and slots {64, 512, 16384, 32768}. There the
 * 64-slot PerOp row alone takes about 30 s on a 4-core AVX-512 host
 * (10 s for the timed bootstrap, the rest key generation and
 * warm-up) and peaks at 9.4 GB RSS; the paper ran an RTX 4090 with
 * 24 GB. Run it by hand, not in CI. Besides the console
 * output, every run (over)writes the machine-readable summary to
 * --json_out, defaulting to BENCH_bootstrap.json in the CWD, or to
 * BENCH_bootstrap_paper.json at paper scale so a by-hand paper run
 * never replaces the CI baseline; CI passes the repo-root path.
 */

#include <cstring>
#include <string>

#include "bench_common.hpp"
#include "ckks/bootstrap.hpp"

namespace
{

using namespace fideslib;
using namespace fideslib::bench;

//! --json_out; empty picks BENCH_bootstrap.json, or
//! BENCH_bootstrap_paper.json at paper scale.
std::string gJsonOut;

Parameters
bootParams()
{
    // 2 devices x 2 streams: kernel bodies run on stream workers, so
    // the submitting thread's CPU time (host_dispatch_us) is pure
    // dispatch. On the 1x1
    // default the kernels would execute inline on the submitter and
    // drown the signal.
    Parameters p =
        paperScale() ? Parameters::paper16() : Parameters::testBoot();
    p.numDevices = 2;
    p.streamsPerDevice = 2;
    return p;
}

std::vector<u32>
slotSweep(const Parameters &p)
{
    if (paperScale())
        return {64, 512, 16384, 32768};
    u32 maxSlots = static_cast<u32>(p.ringDegree() / 4);
    return {64, 256, std::min(1024u, maxSlots)};
}

struct BootSetup
{
    std::unique_ptr<Bootstrapper> boot;
    Ciphertext ct;

    BootSetup(BenchContext &b, u32 slots)
        : ct(b.randomCiphertext(0, slots))
    {
        BootstrapConfig cfg;
        cfg.slots = slots;
        cfg.levelBudgetC2S = 2;
        cfg.levelBudgetS2C = 2;
        boot = std::make_unique<Bootstrapper>(*b.eval, cfg);
        b.keygen->addRotationKeys(*b.keys, boot->requiredRotations());
        if (!b.keys->galois.count(b.ctx->conjugateGaloisElt())) {
            b.keys->galois.emplace(b.ctx->conjugateGaloisElt(),
                                   b.keygen->makeConjugationKey());
        }
    }
};

BootSetup &
setup(u32 slots)
{
    static std::map<u32, std::unique_ptr<BootSetup>> cache;
    auto it = cache.find(slots);
    if (it == cache.end()) {
        auto &b = cachedContext("boot", bootParams(), {}, true);
        it = cache.emplace(slots,
                           std::make_unique<BootSetup>(b, slots))
                 .first;
    }
    return *it->second;
}

/** The steady-state bootstrap loop: one warm bootstrap outside the
 *  timer, host dispatch in thread CPU time. */
void
BM_BootstrapPerOp(benchmark::State &state)
{
    const u32 slots = static_cast<u32>(state.range(0));
    auto &b = cachedContext("boot", bootParams(), {}, true);
    auto &s = setup(slots);

    b.ctx->devices().setLaunchOverheadNs(2000);
    {
        auto warm = s.boot->bootstrap(s.ct);
        benchmark::DoNotOptimize(warm.c0.limb(0).data());
        b.ctx->devices().synchronize();
    }
    DeviceSet &devs = b.ctx->devices();
    devs.resetCounters();
    u32 outLevel = 0;
    double dispatchNs = 0;
    for (auto _ : state) {
        const double t0 = threadCpuNs();
        auto fresh = s.boot->bootstrap(s.ct);
        dispatchNs += threadCpuNs() - t0;
        outLevel = fresh.level();
        benchmark::DoNotOptimize(fresh.c0.limb(0).data());
        devs.synchronize();
    }
    reportPlatformModel(state, state.iterations(), devs);
    state.counters["device_peak_mb"] =
        static_cast<double>(devs.bytesPeak()) / 1e6;

    const double iters =
        static_cast<double>(std::max<u64>(1, state.iterations()));
    state.counters["host_dispatch_us"] = dispatchNs / 1e3 / iters;
    state.counters["rotation_keys"] =
        static_cast<double>(s.boot->requiredRotations().size());
    state.counters["slots"] = slots;
    state.counters["levels_remaining"] = outLevel;

    devs.setLaunchOverheadNs(0);
    state.SetLabel("FIDESlib-perop");
}

void
BM_BootstrapBaselineSim(benchmark::State &state)
{
    const u32 slots = static_cast<u32>(state.range(0));
    auto &b = cachedContext("boot", bootParams(), {}, true);
    auto &s = setup(slots);

    b.ctx->setFusion(false);
    b.ctx->setLimbBatch(0);
    b.ctx->setModMulKind(ModMulKind::Naive);
    u32 outLevel = 0;
    DeviceSet &devs = b.ctx->devices();
    // The same simulated launch overhead as BM_BootstrapPerOp, so the
    // rows differ only in the optimizations the baseline turns off.
    devs.setLaunchOverheadNs(2000);
    // One warm bootstrap outside the timer, like its PerOp sibling.
    {
        auto warm = s.boot->bootstrap(s.ct);
        benchmark::DoNotOptimize(warm.c0.limb(0).data());
        devs.synchronize();
    }
    devs.resetCounters();
    for (auto _ : state) {
        auto fresh = s.boot->bootstrap(s.ct);
        outLevel = fresh.level();
        benchmark::DoNotOptimize(fresh.c0.limb(0).data());
        // Join like BM_BootstrapPerOp does, so the row times
        // completion, not enqueue, and compares with its sibling.
        devs.synchronize();
    }
    reportPlatformModel(state, state.iterations(), devs);
    state.counters["device_peak_mb"] =
        static_cast<double>(devs.bytesPeak()) / 1e6;
    devs.setLaunchOverheadNs(0);
    Parameters p = bootParams();
    b.ctx->setFusion(p.fusion);
    b.ctx->setLimbBatch(p.limbBatch);
    b.ctx->setModMulKind(p.modMul);
    state.counters["rotation_keys"] =
        static_cast<double>(s.boot->requiredRotations().size());
    state.counters["slots"] = slots;
    state.counters["levels_remaining"] = outLevel;
    state.SetLabel("Baseline-sim");
}

/** Strips "--json_out PATH" (and "--json_out=PATH") from argv before
 *  Google Benchmark sees, and rejects, unknown flags. */
void
parseJsonOutFlag(int &argc, char **argv)
{
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const char *value = nullptr;
        constexpr const char *kFlag = "--json_out";
        const std::size_t len = std::strlen(kFlag);
        if (std::strncmp(arg, kFlag, len) == 0) {
            if (arg[len] == '=')
                value = arg + len + 1;
            else if (arg[len] == '\0' && i + 1 < argc)
                value = argv[++i];
            if (!value || value[0] == '\0')
                fideslib::fatal("--json_out requires a path");
            gJsonOut = value;
            continue;
        }
        argv[out++] = argv[i];
    }
    argc = out;
}

} // namespace

int
main(int argc, char **argv)
{
    parseJsonOutFlag(argc, argv);
    if (gJsonOut.empty()) {
        gJsonOut = paperScale() ? "BENCH_bootstrap_paper.json"
                                : "BENCH_bootstrap.json";
    }
    Parameters p = bootParams();
    for (u32 slots : slotSweep(p)) {
        ::benchmark::RegisterBenchmark("BM_BootstrapPerOp",
                                       BM_BootstrapPerOp)
            ->Arg(slots)
            ->Unit(::benchmark::kMillisecond)
            ->Iterations(1);
        ::benchmark::RegisterBenchmark("BM_BootstrapBaselineSim",
                                       BM_BootstrapBaselineSim)
            ->Arg(slots)
            ->Unit(::benchmark::kMillisecond)
            ->Iterations(1);
    }
    ::benchmark::Initialize(&argc, argv);
    if (::benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    JsonDumpReporter reporter;
    ::benchmark::RunSpecifiedBenchmarks(&reporter);
    writeJson(reporter, gJsonOut.c_str());
    ::benchmark::Shutdown();
    return 0;
}
