/**
 * @file
 * Ablation benches for the design choices DESIGN.md calls out
 * (paper Section III-F): kernel fusion on/off, Barrett vs naive `%`
 * modular reduction inside the element-wise kernels, and hoisted vs
 * naive multi-rotation. bench_ntt compares the hierarchical and flat
 * NTT schedules (Figure 4).
 */

#include "bench_common.hpp"

namespace
{

using namespace fideslib;
using namespace fideslib::bench;

BenchContext &
bc()
{
    static BenchContext &b = cachedContext(
        "ablation", benchParams(), {1, 2, 3, 4, 5, 6, 7, 8}, false);
    return b;
}

void
BM_RescaleFusion(benchmark::State &state)
{
    auto &b = bc();
    b.ctx->setFusion(state.range(0) != 0);
    auto ct = b.randomCiphertext(b.ctx->maxLevel());
    b.ctx->devices().resetCounters();
    for (auto _ : state) {
        auto r = ct.clone();
        b.eval->rescaleInPlace(r);
        benchmark::DoNotOptimize(r.c0.limb(0).data());
    }
    reportPlatformModel(state, state.iterations(), b.ctx->devices());
    b.ctx->setFusion(true);
    state.SetLabel(state.range(0) ? "fusion-on" : "fusion-off");
}

void
BM_HMultModMul(benchmark::State &state)
{
    auto &b = bc();
    b.ctx->setModMulKind(state.range(0) ? ModMulKind::Barrett
                                        : ModMulKind::Naive);
    const u32 L = b.ctx->maxLevel();
    auto a = b.randomCiphertext(L);
    auto c = b.randomCiphertext(L);
    for (auto _ : state) {
        auto r = b.eval->multiply(a, c);
        benchmark::DoNotOptimize(r.c0.limb(0).data());
    }
    b.ctx->setModMulKind(ModMulKind::Barrett);
    state.SetLabel(state.range(0) ? "barrett" : "naive-percent");
}

void
BM_MultiRotation(benchmark::State &state)
{
    auto &b = bc();
    const bool hoisted = state.range(0) != 0;
    auto ct = b.randomCiphertext(b.ctx->maxLevel());
    std::vector<i64> ks = {1, 2, 3, 4, 5, 6, 7, 8};
    for (auto _ : state) {
        if (hoisted) {
            auto rs = b.eval->hoistedRotate(ct, ks);
            benchmark::DoNotOptimize(rs[0].c0.limb(0).data());
        } else {
            for (i64 k : ks) {
                auto r = b.eval->rotate(ct, k);
                benchmark::DoNotOptimize(r.c0.limb(0).data());
            }
        }
    }
    state.SetLabel(hoisted ? "hoisted" : "naive");
}

void
BM_DotProductFusion(benchmark::State &state)
{
    auto &b = bc();
    b.ctx->setFusion(state.range(0) != 0);
    const u32 L = b.ctx->maxLevel();
    std::vector<Ciphertext> cts;
    std::vector<Plaintext> pts;
    for (int i = 0; i < 8; ++i) {
        cts.push_back(b.randomCiphertext(L));
        pts.push_back(b.randomPlaintext(L));
    }
    std::vector<const Ciphertext *> cp;
    std::vector<const Plaintext *> pp;
    for (int i = 0; i < 8; ++i) {
        cp.push_back(&cts[i]);
        pp.push_back(&pts[i]);
    }
    b.ctx->devices().resetCounters();
    for (auto _ : state) {
        auto r = b.eval->dotPlain(cp, pp);
        benchmark::DoNotOptimize(r.c0.limb(0).data());
    }
    reportPlatformModel(state, state.iterations(), b.ctx->devices());
    b.ctx->setFusion(true);
    state.SetLabel(state.range(0) ? "fused" : "unfused");
}

BENCHMARK(BM_RescaleFusion)->Arg(0)->Arg(1)->Unit(
    benchmark::kMicrosecond);
BENCHMARK(BM_HMultModMul)->Arg(0)->Arg(1)->Unit(
    benchmark::kMicrosecond);
BENCHMARK(BM_MultiRotation)->Arg(0)->Arg(1)->Unit(
    benchmark::kMicrosecond);
BENCHMARK(BM_DotProductFusion)->Arg(0)->Arg(1)->Unit(
    benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();
