/**
 * @file
 * Table V reproduction: every public CKKS primitive on one
 * maximum-level ciphertext, across three backends:
 *   - OpenFHE-sim: the naive reference backend (CPU baseline),
 *   - Phantom-sim: device backend, Phantom's design choices (no
 *     fusion, no limb batching; ScalarAdd/ScalarMult have no fast
 *     path -- encoded-plaintext fallbacks, matching the N/A cells of
 *     the paper's table),
 *   - FIDESlib: device backend, all optimizations.
 *
 * Default set: [logN, L, Delta, dnum] = [14, 13, 49, 3]; set
 * FIDES_PAPER_SCALE=1 for the paper's [16, 29, 59, 4].
 */

#include "bench_common.hpp"
#include "ref/refeval.hpp"

namespace
{

using namespace fideslib;
using namespace fideslib::bench;

enum Backend { kOpenFheSim = 0, kPhantomSim = 1, kFideslib = 2 };

const char *const kBackendNames[] = {"OpenFHE-sim", "Phantom-sim",
                                     "FIDESlib"};

BenchContext &
bc()
{
    static BenchContext &b =
        cachedContext("primitives", benchParams(), {1}, false);
    return b;
}

/** Applies the backend's execution configuration to the context. */
void
configure(Backend be)
{
    Context &ctx = *bc().ctx;
    Parameters base = benchParams();
    if (be == kPhantomSim) {
        Parameters p = base.phantomSim();
        ctx.setFusion(p.fusion);
        ctx.setLimbBatch(p.limbBatch);
        ctx.setModMulKind(p.modMul);
    } else {
        ctx.setFusion(base.fusion);
        ctx.setLimbBatch(base.limbBatch);
        ctx.setModMulKind(base.modMul);
    }
}

#define PRIM_BENCH(NAME, OPT_BODY, REF_BODY)                           \
    void BM_##NAME(benchmark::State &state)                            \
    {                                                                  \
        auto be = static_cast<Backend>(state.range(0));                \
        auto &b = bc();                                                \
        const u32 L = b.ctx->maxLevel();                               \
        auto ct = b.randomCiphertext(L);                               \
        auto ct2 = b.randomCiphertext(L);                              \
        auto pt = b.randomPlaintext(L);                                \
        (void)ct2;                                                     \
        (void)pt;                                                      \
        configure(be);                                                 \
        b.ctx->devices().resetCounters();                            \
        if (be == kOpenFheSim) {                                       \
            for (auto _ : state) {                                     \
                REF_BODY;                                              \
            }                                                          \
        } else {                                                       \
            for (auto _ : state) {                                     \
                OPT_BODY;                                              \
            }                                                          \
            reportPlatformModel(state, state.iterations(), b.ctx->devices());            \
        }                                                              \
        configure(kFideslib);                                          \
        state.SetLabel(kBackendNames[be]);                             \
    }                                                                  \
    BENCHMARK(BM_##NAME)                                               \
        ->Arg(kOpenFheSim)                                             \
        ->Arg(kPhantomSim)                                             \
        ->Arg(kFideslib)                                               \
        ->Unit(benchmark::kMicrosecond)

PRIM_BENCH(ScalarAdd,
           {
               auto r = ct.clone();
               b.eval->addScalarInPlace(r, 1.5);
               benchmark::DoNotOptimize(r.c0.limb(0).data());
           },
           {
               auto r = ref::addScalar(*b.ctx, ct, 1.5);
               benchmark::DoNotOptimize(r.c0.limb(0).data());
           });

PRIM_BENCH(PtAdd,
           {
               auto r = ct.clone();
               b.eval->addPlainInPlace(r, pt);
               benchmark::DoNotOptimize(r.c0.limb(0).data());
           },
           {
               auto r = ref::addPlain(ct, pt);
               benchmark::DoNotOptimize(r.c0.limb(0).data());
           });

PRIM_BENCH(HAdd,
           {
               auto r = b.eval->add(ct, ct2);
               benchmark::DoNotOptimize(r.c0.limb(0).data());
           },
           {
               auto r = ref::add(ct, ct2);
               benchmark::DoNotOptimize(r.c0.limb(0).data());
           });

PRIM_BENCH(ScalarMult,
           {
               auto r = ct.clone();
               b.eval->multiplyScalarInPlace(r, 0.5);
               benchmark::DoNotOptimize(r.c0.limb(0).data());
           },
           {
               auto r = ref::multiplyScalar(*b.ctx, ct, 0.5);
               benchmark::DoNotOptimize(r.c0.limb(0).data());
           });

PRIM_BENCH(PtMult,
           {
               auto r = ct.clone();
               b.eval->multiplyPlainInPlace(r, pt);
               benchmark::DoNotOptimize(r.c0.limb(0).data());
           },
           {
               auto r = ref::multiplyPlain(ct, pt);
               benchmark::DoNotOptimize(r.c0.limb(0).data());
           });

PRIM_BENCH(Rescale,
           {
               auto r = ct.clone();
               b.eval->rescaleInPlace(r);
               benchmark::DoNotOptimize(r.c0.limb(0).data());
           },
           {
               auto r = ref::rescale(ct);
               benchmark::DoNotOptimize(r.c0.limb(0).data());
           });

PRIM_BENCH(HRotate,
           {
               auto r = b.eval->rotate(ct, 1);
               benchmark::DoNotOptimize(r.c0.limb(0).data());
           },
           {
               auto r = ref::rotate(
                   ct, 1,
                   b.keys->galois.at(b.ctx->rotationGaloisElt(1)));
               benchmark::DoNotOptimize(r.c0.limb(0).data());
           });

PRIM_BENCH(HMult,
           {
               auto r = b.eval->multiply(ct, ct2);
               benchmark::DoNotOptimize(r.c0.limb(0).data());
           },
           {
               auto r = ref::multiply(ct, ct2, b.keys->relin);
               benchmark::DoNotOptimize(r.c0.limb(0).data());
           });

PRIM_BENCH(HSquare,
           {
               auto r = b.eval->square(ct);
               benchmark::DoNotOptimize(r.c0.limb(0).data());
           },
           {
               // Phantom/OpenFHE have no HSquare fast path: full HMult.
               auto r = ref::multiply(ct, ct, b.keys->relin);
               benchmark::DoNotOptimize(r.c0.limb(0).data());
           });

} // namespace

BENCHMARK_MAIN();
