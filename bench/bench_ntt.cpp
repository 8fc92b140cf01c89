/**
 * @file
 * Figure 4 reproduction plus the schedule-zoo report: (i)NTT time per
 * limb as the limb working set grows (16..128 limbs) for EVERY
 * schedule variant (flat radix-2, hierarchical 2D, radix-4,
 * cache-blocked hierarchical, last-stage-fused), and the per-shape
 * autotuner table the CKKS Context bakes into captured plans under
 * NttSchedule::Auto. The paper's claim: the optimized schedule's
 * per-limb time stays flat or improves as the working set grows,
 * showing better memory-bandwidth efficiency -- the zoo generalizes
 * that from one global pick to a per-(degree, limb-count) choice.
 *
 * Besides the console output, every run (over)writes the autotuner
 * table (per shape: the kernel behind the flat schedule, the winning
 * variant per direction plus every candidate's ns/limb) to
 * --json_out, defaulting to BENCH_ntt.json in the CWD; CI passes the
 * repo-root path and uploads it as a per-commit artifact so
 * schedule-pick flips stay attributable.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/device.hpp"
#include "core/ntt.hpp"
#include "core/ntt_tune.hpp"
#include "core/primes.hpp"
#include "core/rng.hpp"

namespace
{

using namespace fideslib;

constexpr std::size_t kDegree = 1 << 14;

std::string gJsonOut = "BENCH_ntt.json";

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
 * hierarchical schedules move each element in two passes (four
 * accesses per element, paper Figure 3); a flat radix-2 schedule
 * spills one pass per pair of stages, and radix-4 halves that.
 */
void
reportModel(benchmark::State &state, std::size_t limbs, NttVariant v)
{
    const u64 logN = log2Floor(kDegree);
    u64 passes = std::max<u64>(2, logN / 2);
    if (v == NttVariant::Hierarchical || v == NttVariant::BlockedHier)
        passes = 2;
    else if (v == NttVariant::Radix4)
        passes = std::max<u64>(2, logN / 4);
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

/** Figure 4 sweep for one zoo variant: range(0) = limb count. */
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
// The rest of the zoo.
BENCHMARK(BM_NttVariantSweep<NttVariant::Radix4>)
    ->Name("BM_NttRadix4") NTT_ARGS->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_NttVariantSweep<NttVariant::BlockedHier>)
    ->Name("BM_NttBlockedHier") NTT_ARGS->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_NttVariantSweep<NttVariant::FusedLast>)
    ->Name("BM_NttFusedLast") NTT_ARGS->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_InttVariantSweep<NttVariant::Radix4>)
    ->Name("BM_InttRadix4") NTT_ARGS->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_InttVariantSweep<NttVariant::BlockedHier>)
    ->Name("BM_InttBlockedHier") NTT_ARGS->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_InttVariantSweep<NttVariant::FusedLast>)
    ->Name("BM_InttFusedLast") NTT_ARGS->Unit(benchmark::kMicrosecond);

/**
 * Runs the autotuner exactly as Context's Auto mode does (same
 * candidate set, same fixed-trial protocol) over the degree x
 * limb-count grid and dumps the table: per shape, the per-direction
 * winner plus every candidate's ns/limb.
 */
void
writeAutotunerTable(const char *path)
{
    std::FILE *f = std::fopen(path, "w");
    if (!f) {
        warn("cannot write %s", path);
        return;
    }

    const std::size_t degrees[] = {1 << 12, 1 << 13, 1 << 14};
    const u32 limbCounts[] = {1, 8, 32, 128};
    NttAutotuner tuner(NttAutotuner::Options::fromEnv());
    // Which kernel the "flat" candidate ran, so a pick flip between
    // hosts can be told apart from a kernel change.
    const char *flatKernel = nttAvx512Supported() ? "avx512" : "scalar";

    std::fprintf(f, "[\n");
    bool first = true;
    for (std::size_t degree : degrees) {
        // Fresh tables per degree, shared across the limb shapes
        // (the tuner cycles limbs over them like the RNS chain does).
        LimbSet set(degree, 8);
        std::vector<const NttTables *> tables;
        for (const auto &t : set.tables)
            tables.push_back(t.get());
        for (u32 limbs : limbCounts) {
            const NttShapeStats s = tuner.tuneShape(tables, limbs);
            if (!first)
                std::fprintf(f, ",\n");
            first = false;
            std::fprintf(
                f,
                "  {\"logN\": %u, \"limbs\": %u, \"flat_kernel\": \"%s\","
                " \"fwd_winner\": \"%s\", \"fwd_col_block\": %u,"
                " \"fwd_ns_per_limb\": %.1f,"
                " \"inv_winner\": \"%s\", \"inv_col_block\": %u,"
                " \"inv_ns_per_limb\": %.1f, \"candidates\": [",
                s.logN, s.limbs, flatKernel, nttVariantName(s.choice.fwd),
                s.choice.fwdColBlock, s.fwdNsPerLimb,
                nttVariantName(s.choice.inv), s.choice.invColBlock,
                s.invNsPerLimb);
            for (std::size_t i = 0; i < s.times.size(); ++i) {
                const NttCandidateTime &ct = s.times[i];
                std::fprintf(
                    f,
                    "%s{\"variant\": \"%s\", \"col_block\": %u,"
                    " \"fwd_ns_per_limb\": %.1f,"
                    " \"inv_ns_per_limb\": %.1f}",
                    i ? ", " : "", nttVariantName(ct.cand.variant),
                    ct.cand.colBlock, ct.fwdNsPerLimb,
                    ct.invNsPerLimb);
            }
            std::fprintf(f, "]}");
            std::printf("tune logN=%u limbs=%3u: fwd=%s(%u) %.0f "
                        "ns/limb, inv=%s(%u) %.0f ns/limb\n",
                        s.logN, s.limbs,
                        nttVariantName(s.choice.fwd),
                        s.choice.fwdColBlock, s.fwdNsPerLimb,
                        nttVariantName(s.choice.inv),
                        s.choice.invColBlock, s.invNsPerLimb);
        }
    }
    std::fprintf(f, "\n]\n");
    std::fclose(f);
}

/** Strips "--json_out PATH" (and the "=PATH" form) from argv before
 *  Google Benchmark sees, and rejects, unknown flags. */
void
parseJsonOutFlag(int &argc, char **argv)
{
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const char *value = nullptr;
        constexpr const char *kName = "--json_out";
        const std::size_t len = std::strlen(kName);
        if (std::strncmp(arg, kName, len) == 0) {
            if (arg[len] == '=')
                value = arg + len + 1;
            else if (arg[len] == '\0' && i + 1 < argc)
                value = argv[++i];
            if (!value || value[0] == '\0')
                fatal("--json_out requires a path");
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
    ::benchmark::Initialize(&argc, argv);
    if (::benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    writeAutotunerTable(gJsonOut.c_str());
    ::benchmark::RunSpecifiedBenchmarks();
    ::benchmark::Shutdown();
    return 0;
}
