/**
 * @file
 * Shared benchmark scaffolding: lazily-constructed cached contexts
 * (key generation is expensive), the paper-scale toggle, platform
 * roofline reporting from the device counters, and random ciphertext
 * factories.
 *
 * Every benchmark binary regenerates one table or figure of the
 * paper. Default parameter sets are container-friendly but keep the
 * paper's sweep structure; set FIDES_PAPER_SCALE=1 to run the paper's
 * exact sets ([logN, L, Delta, dnum] = [16, 29, 59, 4] etc.).
 */

#pragma once

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ckks/encryptor.hpp"
#include "ckks/evaluator.hpp"
#include "ckks/keygen.hpp"
#include "core/logging.hpp"

namespace fideslib::bench
{

using namespace fideslib::ckks;

inline bool
paperScale()
{
    const char *env = std::getenv("FIDES_PAPER_SCALE");
    return env && env[0] == '1';
}

/** The benchmark parameter set: paper headline or scaled default. */
inline Parameters
benchParams()
{
    return paperScale() ? Parameters::paper16()  // [16, 29, 59, 4]
                        : Parameters::paper14(); // [14, 13, 49, 3]
}

/** A context plus keys, built once per (params, rotations) request. */
struct BenchContext
{
    std::unique_ptr<Context> ctx;
    std::unique_ptr<KeyGen> keygen;
    std::unique_ptr<KeyBundle> keys;
    std::unique_ptr<Evaluator> eval;

    explicit BenchContext(const Parameters &p,
                          const std::vector<i64> &rotations = {1},
                          bool conj = false)
    {
        ctx = std::make_unique<Context>(p);
        keygen = std::make_unique<KeyGen>(*ctx);
        keys = std::make_unique<KeyBundle>(
            keygen->makeBundle(rotations, conj));
        eval = std::make_unique<Evaluator>(*ctx, *keys);
    }

    Ciphertext
    randomCiphertext(u32 level, u32 slots = 0) const
    {
        if (slots == 0)
            slots = ctx->degree() / 2;
        Encoder enc(*ctx);
        Encryptor encr(*ctx, keys->pk);
        std::vector<std::complex<double>> z(slots);
        for (std::size_t i = 0; i < slots; ++i)
            z[i] = {std::cos(0.37 * i), std::sin(0.91 * i)};
        return encr.encrypt(enc.encode(z, slots, level));
    }

    Plaintext
    randomPlaintext(u32 level, u32 slots = 0) const
    {
        if (slots == 0)
            slots = ctx->degree() / 2;
        Encoder enc(*ctx);
        std::vector<std::complex<double>> z(slots);
        for (std::size_t i = 0; i < slots; ++i)
            z[i] = {std::sin(0.53 * i), std::cos(0.11 * i)};
        return enc.encode(z, slots, level);
    }
};

/** Process-wide cache keyed by a caller-chosen tag. */
inline BenchContext &
cachedContext(const std::string &tag, const Parameters &p,
              const std::vector<i64> &rotations = {1},
              bool conj = false)
{
    static std::map<std::string, std::unique_ptr<BenchContext>> cache;
    auto it = cache.find(tag);
    if (it == cache.end()) {
        it = cache
                 .emplace(tag, std::make_unique<BenchContext>(
                                   p, rotations, conj))
                 .first;
    }
    return *it->second;
}

/**
 * Attaches the roofline-modeled per-platform times (paper Table IV)
 * for the work recorded by the device counters during one iteration,
 * aggregated across every device in the set.
 */
inline void
reportPlatformModel(::benchmark::State &state, u64 iterations,
                    const DeviceSet &devs)
{
    if (iterations == 0)
        return;
    const KernelCounters counters = devs.aggregateCounters();
    KernelCounters per{counters.launches / iterations,
                       counters.bytesRead / iterations,
                       counters.bytesWritten / iterations,
                       counters.intOps / iterations};
    for (const auto &prof : platformTable()) {
        state.counters["model_us_" + prof.name] =
            prof.modeledTimeUs(per);
    }
    state.counters["kernel_launches"] =
        static_cast<double>(per.launches);
    // Host-join accounting: the barrier model paid one join per
    // logical kernel, the event model only at true host reads.
    state.counters["syncs_per_op"] =
        static_cast<double>(devs.hostJoins()) / iterations;
    state.counters["kernels_per_op"] =
        static_cast<double>(devs.logicalKernels()) / iterations;
}

/**
 * CPU time of the calling thread. Host dispatch cost is measured in
 * thread CPU time, not wall time: on a machine with fewer cores than
 * worker threads, wall time charges the submitting thread for every
 * preemption by a kernel body, drowning the dispatch signal in
 * scheduler noise.
 */
inline double
threadCpuNs()
{
#ifdef __linux__
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e9
         + static_cast<double>(ts.tv_nsec);
#else
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
#endif
}

/**
 * Console reporter that additionally collects every finished run so
 * main() can dump a machine-readable summary (the committed BENCH_*
 * trajectory files CI gates on). Counter names carry their meaning:
 * syncs_per_op counts host-side joins, devN_launches the per-device
 * kernel distribution.
 */
class JsonDumpReporter : public ::benchmark::ConsoleReporter
{
  public:
    struct Row
    {
        std::string name;
        double nsPerOp;
        std::map<std::string, double> counters;
    };

    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs) {
            if (run.error_occurred)
                continue;
            Row row;
            row.name = run.benchmark_name();
            const double iters =
                run.iterations ? static_cast<double>(run.iterations)
                               : 1.0;
            row.nsPerOp = run.real_accumulated_time * 1e9 / iters;
            for (const auto &[key, counter] : run.counters)
                row.counters[key] = counter.value;
            rows_.push_back(std::move(row));
        }
        ConsoleReporter::ReportRuns(runs);
    }

    const std::vector<Row> &rows() const { return rows_; }

  private:
    std::vector<Row> rows_;
};

inline void
writeJson(const JsonDumpReporter &rep, const char *path)
{
    std::FILE *f = std::fopen(path, "w");
    if (!f) {
        fideslib::warn("cannot write %s", path);
        return;
    }
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < rep.rows().size(); ++i) {
        const auto &row = rep.rows()[i];
        std::fprintf(f, "  {\"name\": \"%s\", \"ns_per_op\": %.1f",
                     row.name.c_str(), row.nsPerOp);
        for (const auto &[key, value] : row.counters)
            std::fprintf(f, ", \"%s\": %.4f", key.c_str(), value);
        std::fprintf(f, "}%s\n",
                     i + 1 < rep.rows().size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
}

/**
 * Attaches per-device launch/traffic counters, showing how evenly the
 * round-robin stream schedule and the contiguous-block limb placement
 * spread the work across a multi-device set.
 */
inline void
reportPerDeviceCounters(::benchmark::State &state, u64 iterations,
                        const DeviceSet &devs)
{
    if (iterations == 0)
        return;
    for (u32 d = 0; d < devs.numDevices(); ++d) {
        const KernelCounters c = devs.device(d).counters();
        const std::string tag = "dev" + std::to_string(d);
        state.counters[tag + "_launches"] =
            static_cast<double>(c.launches / iterations);
        state.counters[tag + "_MB"] = static_cast<double>(
            (c.bytesRead + c.bytesWritten) / iterations) / 1e6;
    }
}

} // namespace fideslib::bench
