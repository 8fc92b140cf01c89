/**
 * @file
 * Figure 4 reproduction: (i)NTT time per limb as the limb working set
 * grows (16..128 limbs) at degree 2^14, for the paper's pair of
 * schedules -- hierarchical 2D (the FIDESlib GPU layout) and flat
 * radix-2 (Phantom's, and the one every Context runs). The paper's
 * claim: the optimized schedule's per-limb time stays flat or improves
 * as the working set grows, showing better memory-bandwidth
 * efficiency.
 *
 * The JSON comes from Google Benchmark itself (--benchmark_out=<path>
 * --benchmark_out_format=json); its context records which kernel the
 * flat rows ran as flat_kernel ("avx512" or "scalar").
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "core/device.hpp"
#include "core/ntt.hpp"
#include "core/primes.hpp"
#include "core/rng.hpp"

namespace
{

using namespace fideslib;

constexpr std::size_t kDegree = 1 << 14;

struct LimbSet
{
    std::vector<std::unique_ptr<NttTables>> tables;
    std::vector<std::vector<u64>> limbs;

    LimbSet(std::size_t degree, std::size_t count)
    {
        auto primes = generatePrimes(49, 2 * degree, count);
        Prng prng(99);
        for (u64 p : primes) {
            Modulus m(p);
            tables.push_back(std::make_unique<NttTables>(
                degree, m, findPrimitiveRoot(2 * degree, m)));
            std::vector<u64> limb(degree);
            sampleUniform(prng, p, limb);
            limbs.push_back(std::move(limb));
        }
    }
};

/**
 * Per-platform roofline model for one batch of limb NTTs: the
 * hierarchical schedule moves each element in two passes (four
 * accesses per element, paper Figure 3); the flat radix-2 schedule
 * spills one pass per pair of stages.
 */
void
reportModel(benchmark::State &state, std::size_t limbs, NttVariant v)
{
    const u64 logN = log2Floor(kDegree);
    const u64 passes =
        v == NttVariant::Hierarchical ? 2 : std::max<u64>(2, logN / 2);
    KernelCounters c;
    // One grid launch per global pass.
    c.launches = passes;
    c.bytesRead = passes * limbs * kDegree * 8;
    c.bytesWritten = passes * limbs * kDegree * 8;
    c.intOps = 5 * limbs * kDegree * logN;
    for (const auto &prof : platformTable()) {
        state.counters["model_us_per_limb_" + prof.name] =
            prof.modeledTimeUs(c) / static_cast<double>(limbs);
    }
}

LimbSet &
limbSet(std::size_t count)
{
    static std::map<std::size_t, std::unique_ptr<LimbSet>> cache;
    auto it = cache.find(count);
    if (it == cache.end())
        it = cache
                 .emplace(count,
                          std::make_unique<LimbSet>(kDegree, count))
                 .first;
    return *it->second;
}

/** Figure 4 sweep for one schedule: range(0) = limb count. */
template <NttVariant V>
void
BM_NttVariantSweep(benchmark::State &state)
{
    auto &set = limbSet(state.range(0));
    for (auto _ : state) {
        for (std::size_t i = 0; i < set.limbs.size(); ++i)
            nttForwardVariant(set.limbs[i].data(), *set.tables[i], V);
        benchmark::DoNotOptimize(set.limbs[0].data());
    }
    reportModel(state, set.limbs.size(), V);
    state.SetItemsProcessed(state.iterations() * set.limbs.size());
}

template <NttVariant V>
void
BM_InttVariantSweep(benchmark::State &state)
{
    auto &set = limbSet(state.range(0));
    for (auto _ : state) {
        for (std::size_t i = 0; i < set.limbs.size(); ++i)
            nttInverseVariant(set.limbs[i].data(), *set.tables[i], V);
        benchmark::DoNotOptimize(set.limbs[0].data());
    }
    reportModel(state, set.limbs.size(), V);
    state.SetItemsProcessed(state.iterations() * set.limbs.size());
}

#define NTT_ARGS ->Arg(16)->Arg(32)->Arg(64)->Arg(128)

// Paper Figure 4 pair: FIDESlib = hierarchical, PhantomSim = flat.
BENCHMARK(BM_NttVariantSweep<NttVariant::Hierarchical>)
    ->Name("BM_NttFideslib") NTT_ARGS->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_NttVariantSweep<NttVariant::Flat>)
    ->Name("BM_NttPhantomSim") NTT_ARGS->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_InttVariantSweep<NttVariant::Hierarchical>)
    ->Name("BM_InttFideslib") NTT_ARGS->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_InttVariantSweep<NttVariant::Flat>)
    ->Name("BM_InttPhantomSim") NTT_ARGS->Unit(benchmark::kMicrosecond);

} // namespace

int
main(int argc, char **argv)
{
    ::benchmark::AddCustomContext(
        "flat_kernel",
        fideslib::nttAvx512Supported() ? "avx512" : "scalar");
    ::benchmark::Initialize(&argc, argv);
    if (::benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    ::benchmark::RunSpecifiedBenchmarks();
    ::benchmark::Shutdown();
    return 0;
}
