/**
 * @file
 * Table VI reproduction: bootstrapping time and amortized time
 * (us / (slot * remaining level)) across slot counts, FIDESlib (all
 * optimizations) vs the Baseline-sim configuration (naive `%`
 * arithmetic, no fusion, no limb batching, flat NTT -- the shape of
 * an unoptimized CPU implementation on the same substrate).
 *
 * BM_BootstrapPerOp runs the FIDESlib configuration in the plan-cache
 * steady state: a warmup bootstrap captures the per-op plans, the
 * timed iteration replays them (DESIGN.md §1.10). It reports the host
 * dispatch cost per bootstrap and the plan-cache entries, keys and
 * arena it exercises. BM_BootstrapBaselineSim warms the same way
 * after its knob changes, so both rows time a replay. CI gates
 * plan_keys / host_dispatch_us against the committed
 * BENCH_bootstrap.json baseline (tools/check_launch_regression.py).
 *
 * Default: bootstrappable test set at logN=12 with slots
 * {64, 256, 1024}; FIDES_PAPER_SCALE=1 selects the paper's
 * [16, 29, 59, 4] and slots {64, 512, 16384, 32768} (hours on one
 * host core -- the paper ran an RTX 4090). Besides the console
 * output, every run (over)writes the machine-readable summary to
 * --json_out, defaulting to BENCH_bootstrap.json in the CWD; CI
 * passes the repo-root path.
 */

#include <cstring>
#include <string>

#include "bench_common.hpp"
#include "ckks/bootstrap.hpp"
#include "ckks/graph.hpp"

namespace
{

using namespace fideslib;
using namespace fideslib::bench;

std::string gJsonOut = "BENCH_bootstrap.json";

Parameters
bootParams()
{
    // 2 devices x 2 streams: kernel bodies run on stream workers, so
    // the submitting thread's CPU time (host_dispatch_us) is pure
    // dispatch -- the quantity plan replay shrinks. On the 1x1
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

/** The steady-state bootstrap loop: warm capture outside the timer,
 *  replays inside, host dispatch in thread CPU time. */
void
BM_BootstrapPerOp(benchmark::State &state)
{
    const u32 slots = static_cast<u32>(state.range(0));
    auto &b = cachedContext("boot", bootParams(), {}, true);
    auto &s = setup(slots);

    // Fresh cache per row so plan_keys / plan_arena_mb describe THIS
    // slot count alone (keys would otherwise accumulate across rows).
    b.ctx->invalidatePlans();
    b.ctx->devices().setLaunchOverheadNs(2000);
    {
        auto warm = s.boot->bootstrap(s.ct);
        benchmark::DoNotOptimize(warm.c0.limb(0).data());
        b.ctx->devices().synchronize();
    }
    DeviceSet &devs = b.ctx->devices();
    devs.resetCounters();
    const u64 entries0 = devs.planReplays() + devs.planCaptures();
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

    const double iters =
        static_cast<double>(std::max<u64>(1, state.iterations()));
    // Plan-cache entries exercised per bootstrap (replays + captures
    // since the warm run).
    state.counters["plan_entries_per_boot"] =
        static_cast<double>(devs.planReplays() + devs.planCaptures()
                            - entries0) /
        iters;
    const kernels::PlanCacheStats ps = b.ctx->planStats();
    state.counters["plan_keys"] =
        static_cast<double>(ps.keys.size());
    state.counters["plan_misses"] = static_cast<double>(ps.misses);
    state.counters["plan_hits"] = static_cast<double>(ps.hits);
    state.counters["plan_arena_mb"] =
        static_cast<double>(ps.reservedBytes) / 1e6;
    state.counters["host_dispatch_us"] = dispatchNs / 1e3 / iters;
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
    b.ctx->setNttSchedule(NttSchedule::Flat);
    b.ctx->setModMulKind(ModMulKind::Naive);
    u32 outLevel = 0;
    DeviceSet &devs = b.ctx->devices();
    // The same simulated launch overhead as BM_BootstrapPerOp, so the
    // rows differ only in the optimizations the baseline turns off.
    devs.setLaunchOverheadNs(2000);
    // The knob changes above dropped every plan: recapture outside
    // the timer, so the timed iteration replays like its PerOp
    // sibling instead of timing a capture pass.
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
    devs.setLaunchOverheadNs(0);
    Parameters p = bootParams();
    b.ctx->setFusion(p.fusion);
    b.ctx->setLimbBatch(p.limbBatch);
    b.ctx->setNttSchedule(p.nttSchedule);
    b.ctx->setModMulKind(p.modMul);
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
