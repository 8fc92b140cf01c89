/**
 * @file
 * The repository benchmark: one invocation runs one serving workload
 * end to end and prints its metrics, with one JSON object as the last
 * line of standard output.
 *
 *   bench_suite --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *               [--trace_out <path>]
 *
 * A run sets its workload up several times (setup_s is the median).
 * After each setup it warms the plan caches with requests that are
 * not timed, drives the serving front door for its share
 * of --seconds from one load generator thread, and then decrypts a
 * deterministic sample of the results (every k-th request, warm-ups
 * included, so the cold capture request of every setup; every
 * bootstrap result) against a cleartext double evaluation of the same
 * program.
 *
 * Every time metric is corrected for the speed of the host: the
 * measured window is cut into short chunks, and between chunks a fixed
 * kernel of this file's own (HostGauge) is timed on every core. See
 * perfbench/README.md for why and how well that works.
 *
 * --trace 0 reports the end-to-end metrics. --trace 1 is a separate
 * run that records spans around every call this file makes into the
 * library, adds a probe phase that calls each layer's public entry
 * point directly on the workload's own Context, and reports the
 * per-layer metrics; --trace_out writes the spans as Chrome Trace
 * Event JSON with each span's self time.
 *
 * Only this file measures anything: it times calls into the public
 * API (serve::Router/Server, ckks::Evaluator, ckks::keySwitch*,
 * core NTT variants, ckks::serial/adapter) and reads the counters the
 * modules already expose (DeviceSet counters, Context::planStats/
 * nttChoiceFor, Server::Stats).
 */

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ckks/adapter.hpp"
#include "ckks/bootstrap.hpp"
#include "ckks/encryptor.hpp"
#include "ckks/graph.hpp"
#include "ckks/keygen.hpp"
#include "ckks/keyswitch.hpp"
#include "ckks/serial.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"

extern char **environ;

using namespace fideslib;
using namespace fideslib::ckks;
using namespace fideslib::serve;

namespace
{

using Clock = std::chrono::steady_clock;
using Slots = std::vector<std::complex<double>>;

const Clock::time_point kEpoch = Clock::now();

double
nowUs()
{
    return std::chrono::duration<double, std::micro>(Clock::now() -
                                                     kEpoch)
        .count();
}

/** CPU time of the calling thread: host dispatch cost, immune to
 *  preemption by the stream worker threads. */
double
threadCpuUs()
{
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e6 +
           static_cast<double>(ts.tv_nsec) * 1e-3;
}

/** User + system CPU of the whole process (every library thread). */
double
processCpuMs()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto ms = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) * 1e3 +
               static_cast<double>(t.tv_usec) * 1e-3;
    };
    return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Nearest-rank quantile of @p v (copied: callers keep their order). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t i = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(v.size())));
    return v[i - 1];
}

/** The median: the mean of the two middle values of an even count. */
double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
    std::nth_element(v.begin(), mid, v.end());
    if (v.size() % 2)
        return *mid;
    return (*mid + *std::max_element(v.begin(), mid)) / 2;
}

/** Sums every sample of @p name, whatever its labels, in a
 *  Prometheus-style metricsText() dump. */
double
sumSamples(const std::string &text, const std::string &name)
{
    double sum = 0;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        if (line.size() <= name.size() ||
            line.compare(0, name.size(), name) != 0 ||
            (line[name.size()] != ' ' && line[name.size()] != '{'))
            continue;
        sum += std::strtod(line.c_str() + line.rfind(' ') + 1, nullptr);
    }
    return sum;
}

u64
splitmix64(u64 x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

// --- host speed ------------------------------------------------------------

/**
 * How fast the host runs this process's threads right now, read with a
 * fixed kernel that belongs to this file, not to the library: radix-2
 * NTT butterflies with Shoup modular multiplication, the inner loop of
 * the library's own kernels, over two 2^14-word limbs per thread
 * (256 KB, resident in a core's L2), run on every core at once.
 *
 * On a shared VM the speed of a core moves with what other tenants run
 * on the same host, by tens of percent between runs minutes apart, and
 * the library's time moves with it. Dividing each time by
 * read() / kNominalMs reports it as it would read on a host where one
 * gauge reading is kNominalMs per thread. A change to the library
 * cannot move the gauge: its code, data and threads are this file's,
 * and it runs only while the library is idle. It reads thread CPU time,
 * so a core taken away by the hypervisor does not count.
 */
class HostGauge
{
  public:
    /** The gauge's reading on the reference host (perfbench/README.md). */
    static constexpr double kNominalMs = 16.0;

    explicit HostGauge(u32 threads) : w_(kN), wShoup_(kN), data_(threads)
    {
        std::mt19937_64 rng(11);
        for (u32 i = 0; i < kN; ++i) {
            w_[i] = rng() % kQ;
            wShoup_[i] = static_cast<u64>(
                (static_cast<unsigned __int128>(w_[i]) << 64) / kQ);
        }
        for (auto &d : data_) {
            d.resize(std::size_t{kLimbs} * kN);
            for (u64 &v : d)
                v = rng() % kQ;
        }
    }

    /** One reading: the median of kPassesPerReading passes. A single
     *  pass strays from its neighbours by up to 15%, and a segment of
     *  bootstrap_refresh has only a few chunks to average that out. */
    double
    read()
    {
        std::vector<double> ms;
        for (u32 i = 0; i < kPassesPerReading; ++i)
            ms.push_back(pass());
        return median(ms);
    }

  private:
    static constexpr u32 kN = 1u << 14;
    static constexpr u32 kLimbs = 2;
    static constexpr u32 kNtts = 18;
    static constexpr u32 kPassesPerReading = 3;
    static constexpr u64 kQ = 0x0ffffffffffc0001ULL; //!< < 2^60

    /** The mean per-thread CPU ms of one pass on every thread at once. */
    double
    pass()
    {
        std::vector<double> ms(data_.size());
        {
            std::vector<std::jthread> threads;
            for (std::size_t t = 0; t < data_.size(); ++t)
                threads.emplace_back([this, &ms, t] {
                    const double c0 = threadCpuUs();
                    ntts(data_[t].data());
                    ms[t] = (threadCpuUs() - c0) * 1e-3;
                });
        }
        double sum = 0;
        for (double v : ms)
            sum += v;
        return sum / static_cast<double>(ms.size());
    }

    /** kNtts forward NTTs (no bit reversal) over every limb. */
    void
    ntts(u64 *data) const
    {
        for (u32 p = 0; p < kNtts; ++p)
            for (u32 l = 0; l < kLimbs; ++l) {
                u64 *x = data + std::size_t{l} * kN;
                for (u32 len = kN / 2, m = 1; len >= 1; len >>= 1, m <<= 1)
                    for (u32 blk = 0; blk < m; ++blk) {
                        const u64 w = w_[m + blk - (m + blk >= kN ? kN : 0)];
                        const u64 ws =
                            wShoup_[m + blk - (m + blk >= kN ? kN : 0)];
                        u64 *u = x + 2 * std::size_t{blk} * len;
                        u64 *v = u + len;
                        for (u32 j = 0; j < len; ++j) {
                            const u64 hi = static_cast<u64>(
                                (static_cast<unsigned __int128>(v[j]) * ws) >>
                                64);
                            u64 t = v[j] * w - hi * kQ;
                            t -= t >= kQ ? kQ : 0;
                            u64 s = u[j] + t;
                            s -= s >= kQ ? kQ : 0;
                            u64 d = u[j] + kQ - t;
                            d -= d >= kQ ? kQ : 0;
                            u[j] = s;
                            v[j] = d;
                        }
                    }
            }
    }

    std::vector<u64> w_, wShoup_;        //!< twiddles, Shoup form
    std::vector<std::vector<u64>> data_; //!< per-thread limbs
};

// --- tracing ---------------------------------------------------------------

/**
 * In-memory span recorder. Spans are recorded by the load-generator
 * (main) thread only, around calls into the library; request spans
 * are opened at their due time and closed when their completion is
 * known. Written once, at exit, as Chrome Trace Event JSON.
 */
class Tracer
{
  public:
    static constexpr u64 kNoRequest = ~u64{0};

    bool on = false;

    /** Opens a span nested in the innermost open one. */
    i64
    open(const char *name)
    {
        if (!on)
            return -1;
        const i64 id = add(name, nowUs(), top(), kNoRequest, 0);
        stack_.push_back(id);
        return id;
    }
    void
    close(i64 id)
    {
        if (id < 0)
            return;
        FIDES_ASSERT(!stack_.empty() && stack_.back() == id);
        stack_.pop_back();
        spans_[static_cast<std::size_t>(id)].endUs = nowUs();
    }

    /** Opens a span that overlaps others (an in-flight request): it
     *  gets its own lane and is closed later with finish(). */
    i64
    openAsync(const char *name, double startUs, u64 request, u32 lane)
    {
        if (!on)
            return -1;
        return add(name, startUs, top(), request, lane);
    }
    /** A span with an explicit parent, closed immediately. */
    void
    child(const char *name, i64 parent, double startUs, double endUs,
          u64 request)
    {
        if (!on)
            return;
        const i64 id = add(name, startUs, parent, request, 0);
        spans_[static_cast<std::size_t>(id)].endUs = endUs;
    }
    void
    finish(i64 id, double endUs)
    {
        if (id >= 0)
            spans_[static_cast<std::size_t>(id)].endUs = endUs;
    }

    /** Writes every span, with its self time, as Chrome Trace JSON. */
    bool write(const std::string &path, const std::string &workload,
               u64 seed) const;

  private:
    struct Span
    {
        const char *name;
        double startUs;
        double endUs;
        i64 parent;
        u64 request;
        u32 lane;
    };

    i64 top() const { return stack_.empty() ? -1 : stack_.back(); }
    i64
    add(const char *name, double startUs, i64 parent, u64 request,
        u32 lane)
    {
        spans_.push_back({name, startUs, startUs, parent, request, lane});
        return static_cast<i64>(spans_.size()) - 1;
    }

    std::vector<Span> spans_;
    std::vector<i64> stack_;
};

Tracer gTrace;

/** RAII span around one call. */
class SpanScope
{
  public:
    explicit SpanScope(const char *name) : id_(gTrace.open(name)) {}
    ~SpanScope() { gTrace.close(id_); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    i64 id_;
};

bool
Tracer::write(const std::string &path, const std::string &workload,
              u64 seed) const
{
    // Self time: a span's duration minus the part of it its children
    // cover (children clipped to the parent and merged first).
    std::vector<std::vector<std::pair<double, double>>> kids(
        spans_.size());
    for (const Span &s : spans_)
        if (s.parent >= 0)
            kids[static_cast<std::size_t>(s.parent)].emplace_back(
                s.startUs, s.endUs);
    std::vector<double> self(spans_.size());
    std::map<std::string, std::pair<double, u64>> byLayer;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0, curLo = 0, curHi = -1;
        for (auto [lo, hi] : iv) {
            lo = std::max(lo, s.startUs);
            hi = std::min(hi, s.endUs);
            if (hi <= lo)
                continue;
            if (lo > curHi) {
                covered += std::max(0.0, curHi - curLo);
                curLo = lo;
                curHi = hi;
            } else {
                curHi = std::max(curHi, hi);
            }
        }
        covered += std::max(0.0, curHi - curLo);
        self[i] = (s.endUs - s.startUs) - covered;
        auto &agg = byLayer[s.name];
        agg.first += self[i];
        agg.second += 1;
    }

    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "{\"name\": \"%s\", \"cat\": \"bench\", \"ph\": "
                     "\"X\", \"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, "
                     "\"tid\": %u, \"args\": {\"id\": %zu, \"parent\": "
                     "%lld, \"request\": %lld, \"self_us\": %.3f}},\n",
                     s.name, s.startUs, s.endUs - s.startUs, s.lane, i,
                     static_cast<long long>(s.parent),
                     s.request == kNoRequest
                         ? -1LL
                         : static_cast<long long>(s.request),
                     self[i]);
    }
    std::fprintf(f,
                 "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                 "\"tid\": 0, \"args\": {\"name\": \"loadgen\"}}\n");
    std::fprintf(f,
                 "], \"displayTimeUnit\": \"ms\", \"otherData\": "
                 "{\"workload\": \"%s\", \"seed\": %llu, "
                 "\"self_us_by_layer\": {",
                 workload.c_str(), static_cast<unsigned long long>(seed));
    bool first = true;
    for (const auto &[name, agg] : byLayer) {
        std::fprintf(f, "%s\"%s\": {\"self_us\": %.3f, \"spans\": %llu}",
                     first ? "" : ", ", name.c_str(), agg.first,
                     static_cast<unsigned long long>(agg.second));
        first = false;
    }
    std::fprintf(f, "}}}\n");
    return std::fclose(f) == 0;
}

// --- programs and their cleartext oracle -----------------------------------

/** Builds a workload's op program over the inputs already in @p r. */
using ProgramFn = void (*)(Request &r);

/** encrypted_stats' hot chain: 6 ops, 3 key switches. */
void
statsProgram(Request &r)
{
    const u32 m = r.multiply(0, 1);
    r.rescale(m);
    const u32 rot = r.rotate(m, 1);
    const u32 s = r.add(rot, m);
    const u32 sq = r.square(s);
    r.rescale(sq);
}

constexpr i64 kDeepRotations[] = {1, 2, 4, 8, 16, 32};

/** 16 ops, 8 key switches: a rotate-and-add reduction over 64 slots
 *  between a multiply and a square. */
void
deepProgram(Request &r)
{
    const u32 m = r.multiply(0, 1);
    r.rescale(m);
    u32 acc = m;
    for (i64 k : kDeepRotations)
        acc = r.add(acc, r.rotate(acc, k));
    const u32 sq = r.square(acc);
    r.rescale(sq);
}

/** Refresh, then compute on the refreshed ciphertext. */
void
refreshProgram(Request &r)
{
    const u32 fresh = r.bootstrap(0);
    const u32 sq = r.square(fresh);
    r.rescale(sq);
}

/** A program's ops, as the cleartext oracle replays them. */
struct OpList
{
    std::vector<Op> ops;
    u32 output = 0;
};

OpList
opsOf(ProgramFn program, std::vector<Ciphertext> inputs)
{
    Request r;
    for (Ciphertext &ct : inputs)
        r.input(std::move(ct));
    program(r);
    return {r.ops(), r.outputRegister()};
}

/** Evaluates @p prog on cleartext slot vectors in double precision.
 *  Covers the op kinds the programs above use. */
Slots
evalClear(const OpList &prog, std::vector<Slots> regs)
{
    for (const Op &op : prog.ops) {
        switch (op.kind) {
        case Op::Kind::Add:
        case Op::Kind::Multiply: {
            const Slots &a = regs[op.a];
            const Slots &b = regs[op.b];
            Slots out(a.size());
            for (std::size_t j = 0; j < a.size(); ++j)
                out[j] = op.kind == Op::Kind::Add ? a[j] + b[j] : a[j] * b[j];
            regs.push_back(std::move(out));
            break;
        }
        case Op::Kind::Square: {
            Slots out = regs[op.a];
            for (auto &v : out)
                v *= v;
            regs.push_back(std::move(out));
            break;
        }
        case Op::Kind::Rotate: {
            const Slots &a = regs[op.a];
            const i64 n = static_cast<i64>(a.size());
            Slots out(a.size());
            for (i64 j = 0; j < n; ++j)
                out[static_cast<std::size_t>(j)] =
                    a[static_cast<std::size_t>(((j + op.rot) % n + n) % n)];
            regs.push_back(std::move(out));
            break;
        }
        case Op::Kind::Rescale:
            break;
        case Op::Kind::Bootstrap:
            regs.push_back(regs[op.a]);
            break;
        default:
            FIDES_ASSERT(!"op kind without a cleartext oracle");
        }
    }
    return regs[prog.output];
}

/** How far one decrypted result is from its cleartext answer. */
struct SlotErrors
{
    double max = 0;
    double sum = 0; //!< of |error| over every slot
    u64 slots = 0;
};

SlotErrors
slotErrors(const Slots &got, const Slots &want)
{
    SlotErrors e;
    for (std::size_t j = 0; j < want.size(); ++j) {
        const double d = std::abs(got[j] - want[j]);
        e.max = std::max(e.max, d);
        e.sum += d;
    }
    e.slots = want.size();
    return e;
}

Slots
randomSlots(std::mt19937_64 &rng, u32 slots, double magnitude)
{
    std::uniform_real_distribution<double> u(-magnitude, magnitude);
    Slots z(slots);
    for (auto &v : z)
        v = {u(rng), u(rng)};
    return z;
}

// --- serving rigs ----------------------------------------------------------

/** One sent request as the load generator sees it. */
struct Sent
{
    Handle handle;
    double ingressUs = 0; //!< materializing the inputs on the server
    double submitUs = 0;  //!< the front door's submit call
    double submitStartUs = 0;
};

/** Everything the probe phase calls into, at the program's top level. */
struct ProbeTarget
{
    const Context *ctx = nullptr;
    const KeyBundle *keys = nullptr;
    const Bootstrapper *boot = nullptr;
    Ciphertext ct;  //!< a fresh ciphertext at the first op's level
    i64 rotation = 1;
    u32 submitters = 1; //!< the serving worker count on ctx
};

/** A built serving setup: a front door plus its clients' secrets. */
class Rig
{
  public:
    virtual ~Rig() = default;

    /** Request @p i, its inputs materialized on the serving side. */
    virtual Request request(u64 i) const = 0;
    /** Hands request @p i to the front door. */
    virtual Handle submit(u64 i, Request r) = 0;
    /** request() then submit(), each timed. */
    Sent
    send(u64 i)
    {
        Sent out;
        const double t0 = nowUs();
        Request r = request(i);
        out.submitStartUs = nowUs();
        out.ingressUs = out.submitStartUs - t0;
        out.handle = submit(i, std::move(r));
        out.submitUs = nowUs() - out.submitStartUs;
        return out;
    }
    /** Decrypts request @p i's result and compares it with cleartext. */
    virtual SlotErrors errors(u64 i, const Ciphertext &ct) const = 0;
    virtual std::vector<const Context *> contexts() const = 0;
    virtual std::vector<Server::Stats> serverStats() const = 0;
    virtual std::string metricsText() const = 0;
    virtual ProbeTarget probe() = 0;

    double buildS = 0; //!< Context construction (incl. NTT tuning)
    double keygenS = 0; //!< client key generation
};

/** A slot vector per input register, plus the program's answer. */
struct ClearCase
{
    std::vector<Slots> inputs;
    Slots expect;
};

/** Shape of a single-Server workload. */
struct ServerRigConfig
{
    Parameters params;
    u32 submitters = 1;
    std::vector<i64> rotations;
    std::optional<BootstrapConfig> boot;
    u32 slots = 0;     //!< 0 = N/2
    u32 numInputs = 2;
    double magnitude = 1.0;
    u32 pool = 8;      //!< distinct input sets, reused round-robin
    ProgramFn program = statsProgram;
    /** Draws the input messages from this seed instead of the run's;
     *  keys and encryption noise still follow the run's seed. */
    std::optional<u64> messageSeed;
};

/** One Context, one Server, one tenant. */
class ServerRig final : public Rig
{
  public:
    ServerRig(const ServerRigConfig &cfg, u64 seed) : cfg_(cfg)
    {
        cfg_.params.seed = splitmix64(seed);
        double t0 = nowUs();
        {
            SpanScope s("ckks.context.build");
            ctx_ = std::make_unique<Context>(cfg_.params);
        }
        double t1 = nowUs();
        buildS = (t1 - t0) * 1e-6;
        {
            SpanScope s("ckks.keygen");
            keygen_ = std::make_unique<KeyGen>(*ctx_);
            keys_ = std::make_unique<KeyBundle>(
                keygen_->makeBundle(cfg_.rotations, cfg_.boot.has_value()));
            eval_ = std::make_unique<Evaluator>(*ctx_, *keys_);
            if (cfg_.boot) {
                boot_ = std::make_unique<Bootstrapper>(*eval_, *cfg_.boot);
                keygen_->addRotationKeys(*keys_, boot_->requiredRotations());
            }
        }
        keygenS = (nowUs() - t1) * 1e-6;

        slots_ = cfg_.slots ? cfg_.slots
                            : static_cast<u32>(ctx_->degree() / 2);
        {
            SpanScope s("client.encrypt");
            Encoder enc(*ctx_);
            Encryptor encr(*ctx_, keys_->pk);
            std::mt19937_64 rng(cfg_.messageSeed.value_or(seed));
            for (u32 p = 0; p < cfg_.pool; ++p) {
                ClearCase c;
                std::vector<Ciphertext> cts;
                for (u32 k = 0; k < cfg_.numInputs; ++k) {
                    c.inputs.push_back(
                        randomSlots(rng, slots_, cfg_.magnitude));
                    cts.push_back(encr.encrypt(enc.encode(
                        c.inputs.back(), slots_, ctx_->maxLevel())));
                }
                cases_.push_back(std::move(c));
                pool_.push_back(std::move(cts));
            }
            const OpList prog =
                opsOf(cfg_.program, std::move(request(0).inputs()));
            for (ClearCase &c : cases_)
                c.expect = evalClear(prog, c.inputs);
        }
        SpanScope s("serve.server.start");
        Server::Options opt;
        opt.submitters = cfg_.submitters;
        opt.bootstrapper = boot_.get();
        server_ = std::make_unique<Server>(*ctx_, *keys_, opt);
    }

    Request
    request(u64 i) const override
    {
        Request r;
        for (const Ciphertext &ct : pool_[i % pool_.size()])
            r.input(ct.clone());
        cfg_.program(r);
        return r;
    }
    Handle
    submit(u64, Request r) override
    {
        return server_->submit(std::move(r));
    }

    SlotErrors
    errors(u64 i, const Ciphertext &ct) const override
    {
        Encoder enc(*ctx_);
        Encryptor encr(*ctx_, keys_->pk);
        const Slots got = enc.decode(encr.decrypt(ct, keygen_->secretKey()));
        return slotErrors(got, cases_[i % cases_.size()].expect);
    }

    std::vector<const Context *>
    contexts() const override
    {
        return {ctx_.get()};
    }
    std::vector<Server::Stats>
    serverStats() const override
    {
        return {server_->stats()};
    }
    std::string
    metricsText() const override
    {
        return server_->metricsText();
    }

    ProbeTarget
    probe() override
    {
        // Level of the program's first evaluator op: the input level,
        // or the refreshed level when the program starts with a
        // bootstrap.
        const u32 level = boot_ ? boot_->outputLevel() : ctx_->maxLevel();
        Encoder enc(*ctx_);
        Encryptor encr(*ctx_, keys_->pk);
        return {ctx_.get(),
                keys_.get(),
                boot_.get(),
                encr.encrypt(enc.encode(cases_[0].inputs[0], slots_, level)),
                cfg_.rotations.empty() ? boot_->requiredRotations().front()
                                       : cfg_.rotations.front(),
                cfg_.submitters};
    }

  private:
    ServerRigConfig cfg_;
    std::unique_ptr<Context> ctx_;
    std::unique_ptr<KeyGen> keygen_;
    std::unique_ptr<KeyBundle> keys_;
    std::unique_ptr<Evaluator> eval_;
    std::unique_ptr<Bootstrapper> boot_;
    u32 slots_ = 0;
    std::vector<ClearCase> cases_;
    std::vector<std::vector<Ciphertext>> pool_;
    std::unique_ptr<Server> server_; //!< last: joins before the rest dies
};

/** The sharded front door: tenants with their own keys, wire ingress. */
class RouterRig final : public Rig
{
  public:
    static constexpr u32 kTenants = 4;
    static constexpr u32 kPool = 16; //!< input pairs per tenant
    static constexpr u32 kSubmittersPerShard = 2;

    explicit RouterRig(u64 seed)
    {
        Parameters p = Parameters::paper13();
        p.numDevices = 1;
        p.streamsPerDevice = 4;
        p.launchOverheadNs = 2000;
        p.seed = splitmix64(seed);
        double t0 = nowUs();
        {
            SpanScope s("ckks.context.build");
            client_ = std::make_unique<Context>(p);
            Router::Options opt;
            opt.shards = 2;
            opt.submittersPerShard = kSubmittersPerShard;
            router_ = std::make_unique<Router>(p, opt);
        }
        double t1 = nowUs();
        buildS = (t1 - t0) * 1e-6;
        {
            SpanScope s("ckks.keygen");
            for (u32 t = 0; t < kTenants; ++t) {
                Tenant &ten = tenants_[t];
                ten.keygen = std::make_unique<KeyGen>(*client_);
                ten.keys = std::make_unique<KeyBundle>(
                    ten.keygen->makeBundle({1}));
            }
        }
        keygenS = (nowUs() - t1) * 1e-6;
        {
            SpanScope s("serve.router.register");
            for (u32 t = 0; t < kTenants; ++t)
                router_->registerTenant(
                    t, adapter::toHost(*client_, *tenants_[t].keys));
        }

        // Tenants 0-1 send at the top level, 2-3 one level lower: two
        // request signatures and two plan-key sets interleave.
        SpanScope s("client.encrypt");
        const u32 slots = static_cast<u32>(client_->degree() / 2);
        Encoder enc(*client_);
        std::mt19937_64 rng(seed);
        std::vector<Ciphertext> shape;
        for (u32 t = 0; t < kTenants; ++t) {
            Tenant &ten = tenants_[t];
            Encryptor encr(*client_, ten.keys->pk);
            const u32 level = client_->maxLevel() - (t < 2 ? 0 : 1);
            for (u32 k = 0; k < kPool; ++k) {
                ClearCase c;
                std::vector<std::string> wire;
                for (u32 in = 0; in < 2; ++in) {
                    c.inputs.push_back(randomSlots(rng, slots, 1.0));
                    Ciphertext ct = encr.encrypt(
                        enc.encode(c.inputs.back(), slots, level));
                    std::ostringstream os;
                    serial::write(os, adapter::toHost(*client_, ct));
                    wire.push_back(std::move(os).str());
                    if (shape.size() < 2)
                        shape.push_back(std::move(ct));
                }
                ten.cases.push_back(std::move(c));
                ten.wire.push_back(std::move(wire));
            }
        }
        const OpList prog = opsOf(statsProgram, std::move(shape));
        for (Tenant &ten : tenants_)
            for (ClearCase &c : ten.cases)
                c.expect = evalClear(prog, c.inputs);
    }

    /** Request @p i: its tenant's wire inputs, parsed and uploaded to
     *  the tenant's shard (the ingress path), then the program. */
    Request
    request(u64 i) const override
    {
        Request r;
        for (const std::string &bytes :
             tenants_[i % kTenants].wire[(i / kTenants) % kPool]) {
            std::istringstream is(bytes);
            r.input(router_->upload(i % kTenants, serial::readCiphertext(is)));
        }
        statsProgram(r);
        return r;
    }
    Handle
    submit(u64 i, Request r) override
    {
        return router_->submit(i % kTenants, std::move(r));
    }

    SlotErrors
    errors(u64 i, const Ciphertext &ct) const override
    {
        const u64 tenant = i % kTenants;
        const Tenant &ten = tenants_[tenant];
        // Results come back to the client over the wire format.
        const Ciphertext home = serial::moveToContext(
            router_->shardContext(router_->shardOf(tenant)), *client_, ct);
        Encoder enc(*client_);
        Encryptor encr(*client_, ten.keys->pk);
        const Slots got =
            enc.decode(encr.decrypt(home, ten.keygen->secretKey()));
        return slotErrors(got, ten.cases[(i / kTenants) % kPool].expect);
    }

    std::vector<const Context *>
    contexts() const override
    {
        std::vector<const Context *> out;
        for (u32 s = 0; s < router_->numShards(); ++s)
            out.push_back(&router_->shardContext(s));
        return out;
    }
    std::vector<Server::Stats>
    serverStats() const override
    {
        std::vector<Server::Stats> out;
        for (const auto &sh : router_->stats().shards)
            out.push_back(sh.serve);
        return out;
    }
    std::string
    metricsText() const override
    {
        return router_->metricsText();
    }

    ProbeTarget
    probe() override
    {
        // Tenant 0 sends at the top level. Its device keys stay alive
        // in the shard Context's registry while it is registered.
        const Context &ctx = router_->shardContext(router_->shardOf(0));
        return {&ctx, ctx.keyBundle(0).get(), nullptr,
                std::move(request(0).inputs()[0]), 1, kSubmittersPerShard};
    }

  private:
    struct Tenant
    {
        std::unique_ptr<KeyGen> keygen;
        std::unique_ptr<KeyBundle> keys;
        std::vector<ClearCase> cases;
        std::vector<std::vector<std::string>> wire; //!< serialized inputs
    };

    std::unique_ptr<Context> client_;
    Tenant tenants_[kTenants];
    std::unique_ptr<Router> router_;
};

// --- workloads -------------------------------------------------------------

struct Workload
{
    const char *name;
    std::function<std::unique_ptr<Rig>(u64 seed)> make;
    u32 segments;     //!< setups per run, each followed by its share
                      //!< of the measured seconds
    u32 outstanding;  //!< closed loop: requests kept in flight
    double rateRps;   //!< > 0: open-loop arrivals at this rate instead
    u32 warmups;      //!< untimed requests per setup (>= 1)
    u32 checkEvery;   //!< decrypt every k-th result, warm-ups included
                      //!< (odd, so checks cycle through every tenant
                      //!< and input)
    double minBits;   //!< precision floor: below it a result fails
    double sloMs;     //!< latency limit for loadgen.slo_attainment
    u32 probeReps;    //!< repetitions of each call in the probe phase
};

ServerRigConfig
statsClosedConfig()
{
    ServerRigConfig c;
    c.params = Parameters::paper13();
    c.params.numDevices = 2;
    c.params.streamsPerDevice = 4;
    c.params.limbBatch = 4;
    c.params.launchOverheadNs = 2000;
    c.submitters = 4;
    c.rotations = {1};
    return c;
}

ServerRigConfig
bootstrapConfig()
{
    ServerRigConfig c;
    c.params = Parameters::testBoot();
    c.params.numDevices = 2;
    c.params.streamsPerDevice = 2;
    c.params.launchOverheadNs = 2000;
    c.submitters = 2;
    BootstrapConfig b;
    b.slots = 64;
    c.boot = b;
    c.slots = 64;
    c.numInputs = 1;
    c.magnitude = 0.25;
    c.pool = 16;
    c.program = refreshProgram;
    // A refreshed result's error is a function of its message: other
    // keys and noise move precision_bits by under 0.001 bit, other
    // messages by 0.2-0.3 bit between runs of about 16 bootstraps. So
    // every seed refreshes the same messages, and precision_bits reads
    // the library rather than the draw.
    c.messageSeed = 0x626f6f74;
    return c;
}

ServerRigConfig
deepConfig()
{
    ServerRigConfig c;
    // The default NTT schedule, not Auto: the autotuner's picks flip
    // between setups on a shared host and moved this workload's median
    // latency by up to 1.8x from one setup to the next.
    c.params = Parameters::paper14();
    c.params.numDevices = 1;
    c.params.streamsPerDevice = 4;
    c.params.launchOverheadNs = 2000;
    // Four requests in flight keep the four cores busy. With two, half
    // the cores idled, and the host-speed correction removed less of
    // the host's drift: its latency then spread 0.08-0.11 across runs.
    c.submitters = 4;
    c.rotations.assign(std::begin(kDeepRotations), std::end(kDeepRotations));
    // 64 summed products of magnitude <= 1/32, squared: results <= 4.
    c.magnitude = 0.125;
    c.program = deepProgram;
    return c;
}

/**
 * The four workloads (perfbench/README.md gives the full rationale):
 *  - stats_closed: launch-bound serving steady state -- host dispatch,
 *    plan replay and stream leases on the critical path;
 *  - stats_open: partial-load latency through the sharded front door,
 *    with wire-format ingress and two interleaved request shapes;
 *  - bootstrap_refresh: composite segment plans, the plan arenas and
 *    the paper's headline operation; never batchable;
 *  - deep_keyswitch: kernel-bound -- the NTT and ModUp/ModDown set
 *    its cost.
 * Every workload simulates the device model's 2 us launch overhead.
 * minBits is the lowest per-run precision seen over 50 seeded runs on
 * a 4-core Xeon host, minus 4 bits, rounded down to a whole bit.
 */
const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> w = {
        {.name = "stats_closed",
         .make = [](u64 s) {
             return std::make_unique<ServerRig>(statsClosedConfig(), s);
         },
         .segments = 5, .outstanding = 4, .rateRps = 0, .warmups = 16,
         .checkEvery = 7, .minBits = 10, .sloMs = 100, .probeReps = 9},
        {.name = "stats_open",
         .make = [](u64 s) { return std::make_unique<RouterRig>(s); },
         .segments = 5, .outstanding = 0, .rateRps = 40, .warmups = 16,
         .checkEvery = 7, .minBits = 10, .sloMs = 100, .probeReps = 9},
        {.name = "bootstrap_refresh",
         .make = [](u64 s) {
             return std::make_unique<ServerRig>(bootstrapConfig(), s);
         },
         .segments = 2, .outstanding = 2, .rateRps = 0, .warmups = 2,
         .checkEvery = 1, .minBits = 4, .sloMs = 10000, .probeReps = 2},
        {.name = "deep_keyswitch",
         .make = [](u64 s) {
             return std::make_unique<ServerRig>(deepConfig(), s);
         },
         .segments = 5, .outstanding = 4, .rateRps = 0, .warmups = 4,
         .checkEvery = 3, .minBits = 22, .sloMs = 2000, .probeReps = 3},
    };
    return w;
}

// --- load generation -------------------------------------------------------

/** One measured request, as completed. */
struct Record
{
    double dueUs;
    double lagMs;     //!< generator free to send minus due time
    double latencyMs; //!< due time to completion
    double ingressUs;
    double submitUs;
    bool failed;
    double speed = 1; //!< host speed over its chunk (HostGauge)
};

/** Results kept for the correctness check: request index -> result. */
using Kept = std::vector<std::pair<u64, Ciphertext>>;

struct Tally
{
    u64 attempted = 0;
    u64 failed = 0;
    u64 checked = 0;
    double worstBits = 64;    //!< precision of the worst checked result
    SlotErrors errors;        //!< summed over every checked result
};

/** A sent request awaiting its result. */
struct InFlight
{
    u64 index;
    double dueUs;
    double readyUs; //!< when the generator was free to send it
    Sent sent;
    i64 span;
    u32 lane;
};

/**
 * Runs the calling thread, the load generator, under SCHED_FIFO while
 * it lives; the open loop holds one only while it sleeps until a
 * request is due. The library's threads compete with it for the cores,
 * and at normal priority it woke up to 40 ms late to send a due
 * request: a real client does not queue behind the server for CPU. The
 * send itself, and with it the ingress work the front door does on the
 * caller's thread, runs at normal priority. Without the privilege to
 * raise it, it stays at normal priority; the run says so.
 */
class GeneratorPriority
{
  public:
    GeneratorPriority()
    {
        sched_param p{};
        p.sched_priority = 1;
        raised_ =
            sched_setscheduler(0, SCHED_FIFO | SCHED_RESET_ON_FORK, &p) == 0;
    }
    ~GeneratorPriority()
    {
        if (raised_) {
            sched_param p{};
            sched_setscheduler(0, SCHED_OTHER, &p);
        }
    }
    GeneratorPriority(const GeneratorPriority &) = delete;
    GeneratorPriority &operator=(const GeneratorPriority &) = delete;

    bool raised() const { return raised_; }

  private:
    bool raised_ = false;
};

class LoadGen
{
  public:
    LoadGen(Rig &rig, Tally &tally, u32 keepEvery)
        : rig_(rig), tally_(tally), keepEvery_(keepEvery)
    {
    }

    /** Sends request @p i, due at @p dueUs; the generator was free to
     *  send it from @p readyUs on, so the lag is readyUs - dueUs. */
    InFlight
    send(u64 i, double dueUs, double readyUs)
    {
        InFlight f;
        f.index = i;
        f.dueUs = dueUs;
        f.readyUs = readyUs;
        f.lane = takeLane();
        f.span = gTrace.openAsync("serve.request", dueUs, i, f.lane);
        f.sent = rig_.send(i);
        gTrace.child("serve.ingress", f.span,
                     f.sent.submitStartUs - f.sent.ingressUs,
                     f.sent.submitStartUs, i);
        gTrace.child("serve.submit", f.span, f.sent.submitStartUs,
                     f.sent.submitStartUs + f.sent.submitUs, i);
        ++tally_.attempted;
        outstandingMax_ =
            std::max<u64>(outstandingMax_, ++outstanding_);
        return f;
    }

    /** Waits for @p f; keeps every keepEvery-th result for the check. */
    Record
    complete(InFlight &f, Kept &kept)
    {
        Record r{f.dueUs, (f.readyUs - f.dueUs) * 1e-3, 0,
                 f.sent.ingressUs, f.sent.submitUs, false};
        try {
            Ciphertext ct = f.sent.handle.get();
            if (keepEvery_ && f.index % keepEvery_ == 0)
                kept.emplace_back(f.index, std::move(ct));
        } catch (...) {
            r.failed = true;
            ++tally_.failed;
        }
        // Completion = the submit call's start + the server's own
        // submit-to-completion latency (stamped on its worker).
        const double doneUs =
            f.sent.submitStartUs + f.sent.handle.latencyMs() * 1e3;
        r.latencyMs = (doneUs - f.dueUs) * 1e-3;
        gTrace.finish(f.span, doneUs);
        lanes_.push_back(f.lane);
        --outstanding_;
        return r;
    }

    /** Closed loop: @p window requests in flight, FIFO on the oldest,
     *  sending from index @p first until @p endUs or @p maxRequests.
     *  Returns once every request it sent has completed. */
    std::vector<Record>
    closed(u64 first, u32 window, double endUs, Kept &kept,
           u64 maxRequests = ~u64{0})
    {
        std::vector<Record> out;
        std::deque<InFlight> q;
        u64 next = first;
        double due = nowUs();
        for (;;) {
            while (q.size() < window && nowUs() < endUs &&
                   next - first < maxRequests) {
                q.push_back(send(next++, due, nowUs()));
            }
            if (q.empty())
                break;
            InFlight f = std::move(q.front());
            q.pop_front();
            out.push_back(complete(f, kept));
            due = nowUs();
        }
        return out;
    }

    /**
     * Open loop for @p seconds: Poisson arrivals at @p rateRps, the
     * gaps drawn from @p rng, sent from index @p first. Each request is
     * timed from its due time; ready results are collected between
     * sends so the generator never blocks on one. Returns once every
     * request it sent has completed.
     */
    std::vector<Record>
    open(u64 first, double rateRps, double seconds, std::mt19937_64 &rng,
         Kept &kept)
    {
        std::exponential_distribution<double> gapUs(rateRps * 1e-6);
        std::vector<Record> out;
        std::deque<InFlight> q;
        auto collect = [&](bool block) {
            while (!q.empty() && (block || q.front().sent.handle.ready())) {
                InFlight f = std::move(q.front());
                q.pop_front();
                out.push_back(complete(f, kept));
            }
        };
        const double endUs = nowUs() + seconds * 1e6;
        u64 next = first;
        for (double due = nowUs() + gapUs(rng); due < endUs;
             due += gapUs(rng)) {
            // The wake-up is stamped before the priority drops: being
            // preempted after it delays the ingress, not the generator.
            double wokeUs;
            {
                const GeneratorPriority prio;
                raised_ = raised_ || prio.raised();
                std::this_thread::sleep_until(
                    kEpoch +
                    std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::micro>(due)));
                wokeUs = nowUs();
            }
            q.push_back(send(next++, due, wokeUs));
            collect(false);
        }
        collect(true);
        return out;
    }

    u64 outstandingMax() const { return outstandingMax_; }
    /** Whether the open loop ran its waits under SCHED_FIFO. */
    bool raised() const { return raised_; }

  private:
    u32
    takeLane()
    {
        if (lanes_.empty())
            return ++lanesMade_;
        const u32 l = lanes_.back();
        lanes_.pop_back();
        return l;
    }

    Rig &rig_;
    Tally &tally_;
    u32 keepEvery_;
    u64 outstanding_ = 0;
    u64 outstandingMax_ = 0;
    std::vector<u32> lanes_;
    u32 lanesMade_ = 0;
    bool raised_ = false;
};

/** Decrypts every kept result; failures and precision into @p tally. */
void
checkResults(const Rig &rig, const Workload &w, const Kept &kept,
             Tally &tally)
{
    SpanScope s("check");
    for (const auto &[i, ct] : kept) {
        const SlotErrors e = rig.errors(i, ct);
        const double bits = e.max > 0 ? -std::log2(e.max) : 64.0;
        tally.worstBits = std::min(tally.worstBits, bits);
        tally.errors.sum += e.sum;
        tally.errors.slots += e.slots;
        ++tally.checked;
        if (!(bits >= w.minBits))
            ++tally.failed;
    }
}

// --- per-layer probes ------------------------------------------------------

struct Timed
{
    double wallMs;     //!< call plus host join
    double dispatchUs; //!< calling thread's CPU until the call returned
};

/** Median wall and dispatch time of @p reps calls of @p call, after one
 *  untimed warm call (which captures the op's plan). @p call returns
 *  its dispatch-phase CPU time and performs its own host join. */
Timed
timeCall(const char *name, u32 reps, const std::function<double()> &call)
{
    call();
    std::vector<double> wall, cpu;
    for (u32 r = 0; r < reps; ++r) {
        SpanScope s(name);
        const double t0 = nowUs();
        cpu.push_back(call());
        wall.push_back((nowUs() - t0) * 1e-3);
    }
    return {median(wall), median(cpu)};
}

using Metrics = std::vector<std::pair<std::string, double>>;

/** Calls each layer's entry point directly (see perfbench/README.md).
 *  @p coldMs is the median latency of the setups' cold requests. */
void
probeLayers(Rig &rig, const Workload &w, double coldMs, Metrics &m)
{
    SpanScope phase("probe");
    ProbeTarget t = rig.probe();
    const Context &ctx = *t.ctx;
    Evaluator eval(ctx, *t.keys);
    const u32 reps = w.probeReps;
    const Ciphertext &a = t.ct;
    const Ciphertext b = a.clone();
    a.syncHost();
    b.syncHost();
    // Probe on the stream lease a serving worker holds, so the ladder
    // measures the geometry served requests run on.
    const StreamLease lease =
        leaseForWorker(ctx.devices(), 0, t.submitters);
    struct LeaseGuard
    {
        const Context &ctx;
        ~LeaseGuard() { ctx.setThreadLease(nullptr); }
    } guard{ctx};
    ctx.setThreadLease(&lease);

    // Evaluator ops: wall includes the host join on the result.
    auto op = [&](const char *span, const std::function<Ciphertext()> &f) {
        const Timed tm = timeCall(span, reps, [&] {
            const double c0 = threadCpuUs();
            Ciphertext out = f();
            const double c1 = threadCpuUs();
            out.syncHost();
            return c1 - c0;
        });
        m.emplace_back(std::string(span) + "_ms", tm.wallMs);
        m.emplace_back(std::string(span) + "_dispatch_us", tm.dispatchUs);
    };
    op("ckks.evaluator.multiply", [&] { return eval.multiply(a, b); });
    op("ckks.evaluator.square", [&] { return eval.square(a); });
    op("ckks.evaluator.rotate", [&] { return eval.rotate(a, t.rotation); });
    op("ckks.evaluator.add", [&] { return eval.add(a, b); });
    {
        // Rescale is in place: every repetition gets a fresh product.
        std::vector<Ciphertext> prods;
        for (u32 r = 0; r <= reps; ++r) {
            prods.push_back(eval.multiply(a, b));
            prods.back().syncHost();
        }
        std::size_t next = 0;
        op("ckks.evaluator.rescale", [&] {
            Ciphertext c = std::move(prods[next++]);
            eval.rescaleInPlace(c);
            return c;
        });
    }

    // Key switching, split at the public ModUp / accumulate boundary.
    {
        RaisedDigits raised = decomposeAndModUp(a.c1);
        const Timed up = timeCall("ckks.keyswitch.modup", reps, [&] {
            RaisedDigits r = decomposeAndModUp(a.c1);
            for (const RNSPoly &d : r.digits)
                d.syncHost();
            return 0.0;
        });
        for (const RNSPoly &d : raised.digits)
            d.syncHost();
        const Timed acc = timeCall("ckks.keyswitch.accumulate", reps, [&] {
            auto [u0, u1] = keySwitchAccumulate(raised, t.keys->relin);
            u0.syncHost();
            u1.syncHost();
            return 0.0;
        });
        m.emplace_back("ckks.keyswitch.modup_ms", up.wallMs);
        m.emplace_back("ckks.keyswitch.accumulate_ms", acc.wallMs);
    }

    // The tuned NTT variants on the context's own primes, at the
    // program's top-level limb count.
    {
        const u32 limbs = a.level() + 1;
        const NttChoice choice = ctx.nttChoiceFor(limbs);
        std::vector<std::vector<u64>> buf(limbs,
                                          std::vector<u64>(ctx.degree()));
        std::mt19937_64 rng(7);
        for (u32 l = 0; l < limbs; ++l)
            for (u64 &v : buf[l])
                v = rng() % ctx.prime(l).value();
        const Timed fwd = timeCall("core.ntt.forward", reps, [&] {
            for (u32 l = 0; l < limbs; ++l)
                nttForwardVariant(buf[l].data(), *ctx.prime(l).ntt,
                                  choice.fwd, choice.fwdColBlock);
            return 0.0;
        });
        const Timed inv = timeCall("core.ntt.inverse", reps, [&] {
            for (u32 l = 0; l < limbs; ++l)
                nttInverseVariant(buf[l].data(), *ctx.prime(l).ntt,
                                  choice.inv, choice.invColBlock);
            return 0.0;
        });
        m.emplace_back("core.ntt.fwd_us_per_limb", fwd.wallMs * 1e3 / limbs);
        m.emplace_back("core.ntt.inv_us_per_limb", inv.wallMs * 1e3 / limbs);
    }

    // Wire format: adapter (device <-> host) and serial (host <-> bytes).
    {
        const HostCiphertext host = adapter::toHost(ctx, a);
        std::ostringstream os;
        serial::write(os, host);
        const std::string wire = std::move(os).str();
        auto us = [&](const char *span, const std::function<void()> &f) {
            return timeCall(span, reps, [&] {
                       f();
                       return 0.0;
                   }).wallMs *
                   1e3;
        };
        m.emplace_back("ckks.adapter.to_host_us",
                       us("ckks.adapter.to_host",
                          [&] { adapter::toHost(ctx, a); }));
        m.emplace_back("ckks.adapter.to_device_us",
                       us("ckks.adapter.to_device",
                          [&] { adapter::toDevice(ctx, host).syncHost(); }));
        m.emplace_back("ckks.serial.write_us", us("ckks.serial.write", [&] {
                           std::ostringstream out;
                           serial::write(out, host);
                       }));
        m.emplace_back("ckks.serial.read_us", us("ckks.serial.read", [&] {
                           std::istringstream in(wire);
                           serial::readCiphertext(in);
                       }));
        m.emplace_back("ckks.serial.bytes_per_ct",
                       static_cast<double>(wire.size()));
    }

    // Whole program: executed directly on this thread vs served at one
    // outstanding request (the front door's own overhead). The two
    // alternate, so drift of the host hits both alike, and the overhead
    // is the median of the paired differences. Requests are built up
    // front so only execution is timed.
    {
        std::vector<Request> reqs;
        for (u32 r = 0; r < 2 * (reps + 1); ++r)
            reqs.push_back(rig.request(0));
        std::size_t next = 0;
        auto direct = [&] {
            SpanScope s("ckks.program.direct");
            const double c0 = threadCpuUs();
            Ciphertext out =
                executeProgram(eval, t.boot, std::move(reqs[next++]));
            const double c1 = threadCpuUs();
            out.syncHost();
            return c1 - c0;
        };
        auto served = [&] {
            SpanScope s("serve.served");
            rig.submit(0, std::move(reqs[next++])).get();
        };
        direct();
        served();
        std::vector<double> wall, cpu, servedMs, overhead;
        for (u32 r = 0; r < reps; ++r) {
            const double t0 = nowUs();
            cpu.push_back(direct());
            const double t1 = nowUs();
            served();
            const double t2 = nowUs();
            wall.push_back((t1 - t0) * 1e-3);
            servedMs.push_back((t2 - t1) * 1e-3);
            overhead.push_back(((t2 - t1) - (t1 - t0)) * 1e-3);
        }
        m.emplace_back("ckks.program.wall_ms", median(wall));
        m.emplace_back("ckks.program.dispatch_ms", median(cpu) * 1e-3);
        m.emplace_back("serve.server.overhead_ms", median(overhead));
        // The cold request captured the plans; a warm one served alone
        // replays them.
        m.emplace_back("ckks.graph.capture_ms", coldMs - median(servedMs));
    }
}

// --- main ------------------------------------------------------------------

struct Args
{
    std::string workload;
    u64 seed = 1;
    double seconds = 16;
    bool trace = false;
    std::string traceOut;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "bench_suite: %s\nusage: bench_suite --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--trace_out <path>]\nworkloads:",
                 why);
    for (const Workload &w : workloads())
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing flag value");
        const std::string v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end || v[0] == '-')
                usage("--seed takes a non-negative integer");
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end || !(a.seconds >= 1 && a.seconds <= 60))
                usage("--seconds takes a number in [1, 60]");
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            a.trace = v == "1";
        } else if (flag == "--trace_out") {
            a.traceOut = v;
        } else {
            usage("unknown flag");
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    return a;
}

/**
 * The benchmark measures what ships: a build with assertions compiled
 * in, or any FIDES_* switch (escape hatches, NTT pins, the validator)
 * in the environment, would measure something else.
 */
void
requireShippedPath()
{
#ifndef NDEBUG
    std::fprintf(stderr, "bench_suite: built without NDEBUG; "
                         "configure with CMAKE_BUILD_TYPE=Release\n");
    std::exit(3);
#endif
    for (char **e = environ; *e; ++e) {
        if (std::strncmp(*e, "FIDES_", 6) == 0) {
            std::fprintf(stderr,
                         "bench_suite: %.64s is set; the benchmark runs "
                         "only the library defaults\n",
                         *e);
            std::exit(3);
        }
    }
}

/** Cumulative counters of one rig, read before and after a segment. */
struct Snapshot
{
    KernelCounters k;
    u64 kernels = 0, joins = 0, replays = 0, misses = 0;
    std::vector<Server::Stats> stats;
    double groups = 0, grouped = 0; //!< dispatch groups, their requests

    static Snapshot
    take(const Rig &rig)
    {
        Snapshot s;
        for (const Context *c : rig.contexts()) {
            c->devices().synchronize();
            s.k += c->devices().aggregateCounters();
            s.kernels += c->devices().logicalKernels();
            s.joins += c->devices().hostJoins();
            s.replays += c->devices().planReplays();
            s.misses += c->planStats().misses;
        }
        s.stats = rig.serverStats();
        const std::string text = rig.metricsText();
        s.groups = sumSamples(text, "fides_serve_batch_size_count");
        s.grouped = sumSamples(text, "fides_serve_batch_size_sum");
        return s;
    }
};

/** What every measured segment of a run adds up to. */
struct Totals
{
    std::vector<Record> recs;
    double seconds = 0;   //!< summed wall time of the measured chunks
    double cpuMs = 0;     //!< process CPU over the measured chunks
    double cpuMsAtNominal = 0; //!< the same, each chunk over its speed
    std::vector<double> gaugeMs; //!< every HostGauge reading
    KernelCounters k;
    double kernels = 0, joins = 0, replays = 0, misses = 0;
    double dispatchNs = 0, ops = 0, batched = 0, solo = 0;
    double groups = 0, grouped = 0;
    std::vector<double> shardCompleted;
    u64 outstandingMax = 0;
    bool generatorRaised = false; //!< the open loop waited under SCHED_FIFO

    void
    add(const Snapshot &a, const Snapshot &b)
    {
        k += KernelCounters{b.k.launches - a.k.launches,
                            b.k.bytesRead - a.k.bytesRead,
                            b.k.bytesWritten - a.k.bytesWritten,
                            b.k.intOps - a.k.intOps};
        kernels += static_cast<double>(b.kernels - a.kernels);
        joins += static_cast<double>(b.joins - a.joins);
        replays += static_cast<double>(b.replays - a.replays);
        misses += static_cast<double>(b.misses - a.misses);
        groups += b.groups - a.groups;
        grouped += b.grouped - a.grouped;
        shardCompleted.resize(b.stats.size());
        for (std::size_t s = 0; s < b.stats.size(); ++s) {
            const Server::Stats &x = a.stats[s], &y = b.stats[s];
            shardCompleted[s] += static_cast<double>(y.completed - x.completed);
            dispatchNs += static_cast<double>(y.dispatchCpuNs - x.dispatchCpuNs);
            ops += static_cast<double>(y.executedOps - x.executedOps);
            batched += static_cast<double>(y.batchedRequests - x.batchedRequests);
            solo += static_cast<double>(y.soloRequests - x.soloRequests);
        }
    }
};

/**
 * The untimed warm-up that ends a setup: w.warmups requests at the
 * workload's concurrency from the first one on. Request 0 captures the
 * plans while the others wait for them and then replay, so the first
 * round also touches the scratch arenas of every concurrent executor;
 * left to the measured window, that first touch slowed the first
 * measured round of bootstrap_refresh. Returns request 0's latency.
 * Results are kept for the check as in the measured window, request 0
 * among them.
 */
double
warmUp(Rig &rig, const Workload &w, Tally &tally, Kept &kept)
{
    SpanScope s("setup.warmup");
    LoadGen gen(rig, tally, w.checkEvery);
    const std::vector<Record> recs =
        gen.closed(0, w.outstanding ? w.outstanding : 4, nowUs() + 600e6,
                   kept, w.warmups);
    return recs.front().latencyMs;
}

/** Length of one measured chunk; a HostGauge reading follows each. */
constexpr double kChunkS = 0.5;

/**
 * One measured segment of @p seconds, its requests numbered from
 * @p first, cut into chunks of kChunkS. Each chunk ends with every
 * request it sent completed, and a HostGauge reading follows it; the
 * chunk's speed is the mean of the readings on either side of it
 * (@p gaugeMs is the one taken before the first). Results are checked
 * after the last chunk; counters are added to @p tot.
 */
void
measure(Rig &rig, const Workload &w, HostGauge &gauge, double gaugeMs,
        std::mt19937_64 &arrivals, double seconds, u64 first,
        Tally &tally, Totals &tot)
{
    const Snapshot before = Snapshot::take(rig);
    Kept kept;
    LoadGen gen(rig, tally, w.checkEvery);
    const double endUs = nowUs() + seconds * 1e6;
    u64 next = first;
    // A chunk runs until its last request completes, so it can overrun
    // endUs by one request's latency. Starting no chunk in the last half
    // of the previous one's length caps that overrun.
    double lastChunkUs = 0;
    while (nowUs() + lastChunkUs / 2 < endUs) {
        const double c0 = processCpuMs();
        const double t0 = nowUs();
        std::vector<Record> recs;
        {
            SpanScope s("loadgen.chunk");
            recs = w.rateRps > 0
                       ? gen.open(next, w.rateRps,
                                  std::min(kChunkS, (endUs - t0) * 1e-6),
                                  arrivals, kept)
                       : gen.closed(next, w.outstanding,
                                    std::min(t0 + kChunkS * 1e6, endUs),
                                    kept);
        }
        const double cpuMs = processCpuMs() - c0;
        lastChunkUs = nowUs() - t0;
        tot.seconds += lastChunkUs * 1e-6;
        double after;
        {
            SpanScope s("host.gauge");
            after = gauge.read();
        }
        const double speed = (gaugeMs + after) / 2 / HostGauge::kNominalMs;
        gaugeMs = after;
        tot.gaugeMs.push_back(after);
        tot.cpuMs += cpuMs;
        tot.cpuMsAtNominal += cpuMs / speed;
        for (Record &rec : recs)
            rec.speed = speed;
        tot.recs.insert(tot.recs.end(), recs.begin(), recs.end());
        next += recs.size();
    }
    tot.add(before, Snapshot::take(rig));
    tot.outstandingMax = std::max(tot.outstandingMax, gen.outstandingMax());
    tot.generatorRaised = tot.generatorRaised || gen.raised();
    checkResults(rig, w, kept, tally);
}

void
printResult(bool correct, const Tally &tally, const Metrics &m,
            const std::map<std::string, std::string> &units)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed));
    for (std::size_t i = 0; i < m.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m[i].first.c_str(), m[i].second,
                    units.at(m[i].first).c_str());
    std::printf("}}\n");
}

const std::map<std::string, std::string> &
unitTable()
{
    static const std::map<std::string, std::string> u = {
        {"setup_s", "s"},
        {"cpu_ms_per_request", "ms"},
        {"latency_p50_ms", "ms"},
        {"peak_rss_mb", "MB"},
        {"precision_bits", "bits"},
        {"host.gauge_ms", "ms"},
        {"host.setup_s_raw", "s"},
        {"host.cpu_ms_per_request_raw", "ms"},
        {"host.latency_p50_ms_raw", "ms"},
        {"run.wall_s", "s"},
        {"loadgen.throughput_rps", "req/s"},
        {"loadgen.lag_p99_ms", "ms"},
        {"loadgen.outstanding_max", "count"},
        {"loadgen.slo_attainment", "fraction"},
        {"serve.ingress_us_p50", "us"},
        {"serve.submit_us_p50", "us"},
        {"serve.shard_share_max", "fraction"},
        {"serve.server.dispatch_us_per_op", "us"},
        {"serve.server.batch_size_mean", "count"},
        {"serve.server.batched_share", "fraction"},
        {"serve.server.overhead_ms", "ms"},
        {"ckks.program.wall_ms", "ms"},
        {"ckks.program.dispatch_ms", "ms"},
        {"ckks.graph.plan_hits_per_request", "count"},
        {"ckks.graph.plan_misses_steady", "count"},
        {"ckks.graph.plan_keys", "count"},
        {"ckks.graph.arena_mb", "MB"},
        {"ckks.graph.capture_ms", "ms"},
        {"ckks.evaluator.multiply_ms", "ms"},
        {"ckks.evaluator.multiply_dispatch_us", "us"},
        {"ckks.evaluator.square_ms", "ms"},
        {"ckks.evaluator.square_dispatch_us", "us"},
        {"ckks.evaluator.rotate_ms", "ms"},
        {"ckks.evaluator.rotate_dispatch_us", "us"},
        {"ckks.evaluator.add_ms", "ms"},
        {"ckks.evaluator.add_dispatch_us", "us"},
        {"ckks.evaluator.rescale_ms", "ms"},
        {"ckks.evaluator.rescale_dispatch_us", "us"},
        {"ckks.keyswitch.modup_ms", "ms"},
        {"ckks.keyswitch.accumulate_ms", "ms"},
        {"core.ntt.fwd_us_per_limb", "us"},
        {"core.ntt.inv_us_per_limb", "us"},
        {"ckks.adapter.to_host_us", "us"},
        {"ckks.adapter.to_device_us", "us"},
        {"ckks.serial.write_us", "us"},
        {"ckks.serial.read_us", "us"},
        {"ckks.serial.bytes_per_ct", "bytes"},
        {"ckks.context.build_s", "s"},
        {"ckks.keygen_s", "s"},
        {"core.device.launches_per_request", "count"},
        {"core.device.kernels_per_request", "count"},
        {"core.device.host_joins_per_request", "count"},
        {"core.device.mb_per_request", "MB"},
        {"core.device.gintops_per_request", "Gop"},
        {"core.device.model_ms_per_request", "ms"},
        {"core.device.bytes_in_use_mb", "MB"},
    };
    return u;
}

/** Latencies of the completed measured requests, sorted; each divided
 *  by its chunk's host speed when @p atNominal. */
std::vector<double>
completedLatencies(const Totals &tot, bool atNominal)
{
    std::vector<double> lat;
    for (const Record &rec : tot.recs)
        if (!rec.failed)
            lat.push_back(rec.latencyMs / (atNominal ? rec.speed : 1.0));
    std::sort(lat.begin(), lat.end());
    return lat;
}

/**
 * The end-to-end metrics: set-up time, what the operator pays per
 * request, what the client waits, and what it gets back. Times are at
 * the nominal host speed (HostGauge).
 */
void
endToEnd(const Totals &tot, const Tally &tally,
         const std::vector<double> &setupS, std::size_t completed,
         Metrics &m)
{
    m.emplace_back("setup_s", median(setupS));
    m.emplace_back("cpu_ms_per_request",
                   tot.cpuMsAtNominal / static_cast<double>(completed));
    m.emplace_back("latency_p50_ms", median(completedLatencies(tot, true)));
    m.emplace_back("peak_rss_mb", peakRssMb());
    // Mean precision: -log2 of the mean |error| over every checked
    // slot. The worst result is held to the floor instead.
    m.emplace_back("precision_bits",
                   -std::log2(tally.errors.sum /
                              static_cast<double>(tally.errors.slots)));
}

/** The per-layer metrics read off the load generator and counters. */
void
perLayer(const Rig &rig, const Totals &tot, const std::vector<double> &setupRawS,
         const std::vector<double> &buildS, const std::vector<double> &keygenS,
         double sloMs, Metrics &m)
{
    std::vector<double> lag, ingress, submit;
    double completed = 0, withinSlo = 0;
    for (const Record &rec : tot.recs) {
        lag.push_back(rec.lagMs);
        ingress.push_back(rec.ingressUs);
        submit.push_back(rec.submitUs);
        completed += rec.failed ? 0 : 1;
        withinSlo += !rec.failed && rec.latencyMs <= sloMs ? 1 : 0;
    }
    const double perReq = 1.0 / completed;
    m.emplace_back("host.gauge_ms", median(tot.gaugeMs));
    m.emplace_back("host.setup_s_raw", median(setupRawS));
    m.emplace_back("host.cpu_ms_per_request_raw", tot.cpuMs * perReq);
    m.emplace_back("host.latency_p50_ms_raw",
                   median(completedLatencies(tot, false)));
    m.emplace_back("loadgen.throughput_rps", completed / tot.seconds);
    m.emplace_back("loadgen.lag_p99_ms", quantile(lag, 0.99));
    m.emplace_back("loadgen.outstanding_max",
                   static_cast<double>(tot.outstandingMax));
    m.emplace_back("loadgen.slo_attainment",
                   withinSlo / static_cast<double>(tot.recs.size()));
    m.emplace_back("serve.ingress_us_p50", median(ingress));
    m.emplace_back("serve.submit_us_p50", median(submit));
    m.emplace_back("serve.shard_share_max",
                   *std::max_element(tot.shardCompleted.begin(),
                                     tot.shardCompleted.end()) *
                       perReq);
    m.emplace_back("serve.server.dispatch_us_per_op",
                   tot.dispatchNs * 1e-3 / tot.ops);
    m.emplace_back("serve.server.batch_size_mean", tot.grouped / tot.groups);
    m.emplace_back("serve.server.batched_share",
                   tot.batched / (tot.batched + tot.solo));

    double keys = 0, arena = 0, inUse = 0;
    for (const Context *c : rig.contexts()) {
        const kernels::PlanCacheStats ps = c->planStats();
        keys += static_cast<double>(ps.keys.size());
        arena += static_cast<double>(ps.reservedBytes) / 1e6;
        inUse += static_cast<double>(c->devices().bytesInUse()) / 1e6;
    }
    m.emplace_back("ckks.graph.plan_hits_per_request", tot.replays * perReq);
    m.emplace_back("ckks.graph.plan_misses_steady", tot.misses);
    m.emplace_back("ckks.graph.plan_keys", keys);
    m.emplace_back("ckks.graph.arena_mb", arena);
    m.emplace_back("ckks.context.build_s", median(buildS));
    m.emplace_back("ckks.keygen_s", median(keygenS));

    double modelUs = 0;
    for (const DeviceProfile &p : platformTable())
        if (p.name == "RTX-4090")
            modelUs = p.modeledTimeUs(tot.k);
    m.emplace_back("core.device.launches_per_request",
                   static_cast<double>(tot.k.launches) * perReq);
    m.emplace_back("core.device.kernels_per_request", tot.kernels * perReq);
    m.emplace_back("core.device.host_joins_per_request", tot.joins * perReq);
    m.emplace_back("core.device.mb_per_request",
                   static_cast<double>(tot.k.bytesRead + tot.k.bytesWritten) /
                       1e6 * perReq);
    m.emplace_back("core.device.gintops_per_request",
                   static_cast<double>(tot.k.intOps) / 1e9 * perReq);
    m.emplace_back("core.device.model_ms_per_request", modelUs * 1e-3 * perReq);
    m.emplace_back("core.device.bytes_in_use_mb", inUse);
}

} // namespace

int
main(int argc, char **argv)
{
    const double runStartUs = nowUs();
    const Args args = parseArgs(argc, argv);
    requireShippedPath();
    const Workload *wp = nullptr;
    for (const Workload &w : workloads())
        if (args.workload == w.name)
            wp = &w;
    if (!wp)
        usage("unknown workload");
    const Workload &w = *wp;
    gTrace.on = args.trace;

    const u32 cores = std::max(1u, std::thread::hardware_concurrency());
    std::printf("workload %s seed %llu seconds %g trace %d cores %u\n",
                w.name, static_cast<unsigned long long>(args.seed),
                args.seconds, args.trace ? 1 : 0, cores);

    // A run is w.segments rounds of: set up from scratch, warm up, then
    // measure seconds / segments. Samples of all rounds are pooled, so
    // one run averages over several independent setups (thread
    // placement, memory layout, keys and inputs) spread across its wall
    // time. Every round's keys, inputs and arrival times follow from
    // --seed alone.
    HostGauge gauge(cores);
    Tally tally;
    Totals tot;
    std::unique_ptr<Rig> rig;
    std::vector<double> setupS, setupRawS, buildS, keygenS, coldMs;
    for (u32 seg = 0; seg < w.segments; ++seg) {
        const u64 segSeed = splitmix64(args.seed) + seg;
        // Hand the previous setup's memory back to the system, so
        // peak_rss_mb is one setup's peak rather than a sum of what the
        // allocator kept cached across setups.
        rig.reset();
        malloc_trim(0);
        Kept kept;
        double g0, g1;
        {
            SpanScope s("host.gauge");
            g0 = gauge.read();
        }
        {
            SpanScope s("setup");
            const double t0 = nowUs();
            rig = w.make(segSeed);
            coldMs.push_back(warmUp(*rig, w, tally, kept));
            setupRawS.push_back((nowUs() - t0) * 1e-6);
        }
        {
            SpanScope s("host.gauge");
            g1 = gauge.read();
        }
        tot.gaugeMs.push_back(g0);
        tot.gaugeMs.push_back(g1);
        setupS.push_back(setupRawS.back() /
                         ((g0 + g1) / 2 / HostGauge::kNominalMs));
        buildS.push_back(rig->buildS);
        keygenS.push_back(rig->keygenS);
        checkResults(*rig, w, kept, tally);
        kept.clear();
        // The NTT variants in use at the top level: should the default
        // schedule become the autotuner, a pick that flips between
        // setups explains a shift that would otherwise read as noise.
        {
            const Context &ctx = *rig->contexts()[0];
            const NttChoice c = ctx.nttChoiceFor(ctx.maxLevel() + 1);
            std::printf("ntt segment %u tuned %d fwd %s inv %s\n", seg,
                        ctx.nttStats().tuned ? 1 : 0, nttVariantName(c.fwd),
                        nttVariantName(c.inv));
        }
        // Requests pick their inputs by index; the + seg shifts each
        // segment's checked requests onto other entries of the pools.
        std::mt19937_64 arrivals(splitmix64(segSeed ^ 0x6f70656eULL));
        measure(*rig, w, gauge, g1, arrivals, args.seconds / w.segments,
                1000000 * (seg + 1) + seg, tally, tot);
    }

    const std::vector<double> lat = completedLatencies(tot, false);
    if (lat.empty() || tally.checked == 0) {
        std::fprintf(stderr, "bench_suite: no measured request completed\n");
        return 1;
    }

    // Every run prints both sets; the JSON result carries the one its
    // --trace asks for, so traced and untraced numbers can be compared.
    Metrics e2e, layers;
    endToEnd(tot, tally, setupS, lat.size(), e2e);
    if (args.trace) {
        perLayer(*rig, tot, setupRawS, buildS, keygenS, w.sloMs, layers);
        probeLayers(*rig, w, median(coldMs), layers);
    }
    rig.reset();
    const double wallS = (nowUs() - runStartUs) * 1e-6;
    if (args.trace)
        layers.emplace_back("run.wall_s", wallS);

    const bool correct = tally.failed == 0;
    for (const Metrics *ms : {&e2e, &layers})
        for (const auto &[name, value] : *ms)
            std::printf("%-40s %.6g %s\n", name.c_str(), value,
                        unitTable().at(name).c_str());
    // The highest percentile with at least ten samples beyond it.
    for (const double q : {0.99, 0.9}) {
        const double beyond = std::floor(static_cast<double>(lat.size()) *
                                         (1 - q));
        if (beyond >= 10) {
            std::printf("latency p%g %.4g ms (uncorrected), %.0f of %zu "
                        "samples beyond it\n",
                        q * 100, quantile(lat, q), beyond, lat.size());
            break;
        }
    }
    std::printf("host gauge %.3f ms (nominal %.1f); uncorrected setup_s %.4g, "
                "cpu_ms_per_request %.4g, latency_p50_ms %.4g\n",
                median(tot.gaugeMs), HostGauge::kNominalMs, median(setupRawS),
                tot.cpuMs / static_cast<double>(lat.size()), median(lat));
    std::printf("latency samples %zu, checked results %llu, precision "
                "worst %.2f bits (floor %.1f), load generator %s, run wall "
                "%.1f s\n",
                lat.size(), static_cast<unsigned long long>(tally.checked),
                tally.worstBits, w.minBits,
                w.rateRps == 0         ? "closed loop"
                : tot.generatorRaised  ? "SCHED_FIFO while waiting"
                                       : "normal priority",
                wallS);

    if (args.trace && !args.traceOut.empty() &&
        !gTrace.write(args.traceOut, w.name, args.seed))
        std::fprintf(stderr, "bench_suite: cannot write %s\n",
                     args.traceOut.c_str());
    printResult(correct, tally, args.trace ? layers : e2e, unitTable());
    return 0;
}
