/**
 * @file
 * Table VII reproduction: logistic-regression training on encrypted
 * data -- one mini-batch iteration, and one iteration followed by
 * bootstrapping of the weight ciphertext, FIDESlib vs the
 * Baseline-sim configuration.
 *
 * Workload shape follows the paper / Han et al.: synthetic
 * loan-eligibility data (45,000 samples, 25 features padded to 32;
 * scaled to the default ring size), mini-batch gradient descent with
 * the batch packed into one ciphertext.
 */

#include "bench_common.hpp"
#include "ckks/lr.hpp"

namespace
{

using namespace fideslib;
using namespace fideslib::bench;
using fideslib::ckks::lr::Trainer;

Parameters
lrParams()
{
    if (paperScale()) {
        Parameters p = Parameters::paper16();
        p.multDepth = 26; // the paper's LR set [16, 26, 59, 4]
        return p;
    }
    return Parameters::testBoot(); // [12, 24, 50, 4], sparse secret
}

struct LrSetup
{
    std::unique_ptr<Trainer> trainer;
    std::unique_ptr<Bootstrapper> boot;
    Ciphertext w;
    Ciphertext z;

    LrSetup(BenchContext &b)
        : w(b.randomCiphertext(b.ctx->maxLevel(), 16)),
          z(b.randomCiphertext(b.ctx->maxLevel(), 16))
    {
        const u32 features = 25;
        const u32 batch = paperScale() ? 1024 : 64;
        trainer = std::make_unique<Trainer>(*b.eval, features, batch);
        b.keygen->addRotationKeys(*b.keys,
                                  trainer->requiredRotations());

        BootstrapConfig cfg;
        cfg.slots = trainer->slots();
        cfg.levelBudgetC2S = 2;
        cfg.levelBudgetS2C = 2;
        boot = std::make_unique<Bootstrapper>(*b.eval, cfg);
        b.keygen->addRotationKeys(*b.keys, boot->requiredRotations());
        if (!b.keys->galois.count(b.ctx->conjugateGaloisElt())) {
            b.keys->galois.emplace(b.ctx->conjugateGaloisElt(),
                                   b.keygen->makeConjugationKey());
        }

        auto data = ckks::lr::generateLoanDataset(45000, features, 1);
        Encryptor encr(*b.ctx, b.keys->pk);
        std::vector<double> w0(features, 0.0);
        w = trainer->encryptWeights(encr, w0, b.ctx->maxLevel());
        z = trainer->encryptBatch(encr, data, 0, b.ctx->maxLevel());
    }
};

LrSetup &
setup()
{
    static auto &b = cachedContext("lr", lrParams(), {}, true);
    static LrSetup s(b);
    return s;
}

void
configureBaseline(BenchContext &b, bool on)
{
    if (on) {
        b.ctx->setFusion(false);
        b.ctx->setLimbBatch(0);
        b.ctx->setModMulKind(ModMulKind::Naive);
    } else {
        Parameters p = lrParams();
        b.ctx->setFusion(p.fusion);
        b.ctx->setLimbBatch(p.limbBatch);
        b.ctx->setModMulKind(p.modMul);
    }
}

void
runIteration(benchmark::State &state, bool baseline, bool withBoot)
{
    auto &b = cachedContext("lr", lrParams(), {}, true);
    auto &s = setup();
    configureBaseline(b, baseline);
    for (auto _ : state) {
        auto w1 = s.trainer->iterate(s.w, s.z, 1.0);
        if (withBoot)
            w1 = s.boot->bootstrap(w1);
        benchmark::DoNotOptimize(w1.c0.limb(0).data());
    }
    configureBaseline(b, false);
    state.SetLabel(baseline ? "Baseline-sim" : "FIDESlib");
}

void
BM_LrIteration(benchmark::State &state)
{
    runIteration(state, state.range(0) != 0, false);
}

void
BM_LrIterationPlusBootstrap(benchmark::State &state)
{
    runIteration(state, state.range(0) != 0, true);
}

} // namespace

int
main(int argc, char **argv)
{
    for (int baseline : {0, 1}) {
        ::benchmark::RegisterBenchmark("BM_LrIteration",
                                       BM_LrIteration)
            ->Arg(baseline)
            ->Unit(::benchmark::kMillisecond)
            ->Iterations(1);
        ::benchmark::RegisterBenchmark("BM_LrIterationPlusBootstrap",
                                       BM_LrIterationPlusBootstrap)
            ->Arg(baseline)
            ->Unit(::benchmark::kMillisecond)
            ->Iterations(1);
    }
    ::benchmark::Initialize(&argc, argv);
    ::benchmark::RunSpecifiedBenchmarks();
    return 0;
}
