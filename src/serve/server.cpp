#include "serve/server.hpp"

#include <chrono>
#include <cstdio>
#include <exception>

#include "check/check.hpp"
#include "ckks/bootstrap.hpp"
#include "ckks/kernels.hpp"
#include "core/logging.hpp"

namespace fideslib::serve
{

using Clock = std::chrono::steady_clock;

// --- program execution ------------------------------------------------

ckks::Ciphertext
executeProgram(const ckks::Evaluator &eval, Request req)
{
    return executeProgram(eval, nullptr, std::move(req));
}

ckks::Ciphertext
executeProgram(const ckks::Evaluator &eval,
               const ckks::Bootstrapper *boot, Request req)
{
    std::vector<ckks::Ciphertext> regs = std::move(req.inputs());
    regs.reserve(req.numRegisters());
    const std::vector<Op> &ops = req.ops();
    for (std::size_t k = 0; k < ops.size(); ++k) {
        const Op &op = ops[k];
        // A Multiply or Square whose register the next op rescales
        // runs as one merged HMult + Rescale, which consumes that op.
        const bool rescaledNext = k + 1 < ops.size() &&
                                  ops[k + 1].kind == Op::Kind::Rescale &&
                                  ops[k + 1].a == op.dst;
        switch (op.kind) {
        case Op::Kind::Add:
            regs.push_back(eval.add(regs[op.a], regs[op.b]));
            break;
        case Op::Kind::Sub:
            regs.push_back(eval.sub(regs[op.a], regs[op.b]));
            break;
        case Op::Kind::Multiply:
            if (rescaledNext) {
                regs.push_back(
                    eval.multiplyRescale(regs[op.a], regs[op.b]));
                ++k;
            } else {
                regs.push_back(eval.multiply(regs[op.a], regs[op.b]));
            }
            break;
        case Op::Kind::Square:
            if (rescaledNext) {
                regs.push_back(eval.squareRescale(regs[op.a]));
                ++k;
            } else {
                regs.push_back(eval.square(regs[op.a]));
            }
            break;
        case Op::Kind::Rotate:
            regs.push_back(eval.rotate(regs[op.a], op.rot));
            break;
        case Op::Kind::Rescale:
            eval.rescaleInPlace(regs[op.a]);
            break;
        case Op::Kind::MultiplyScalar:
            eval.multiplyScalarInPlace(regs[op.a], op.scalar);
            break;
        case Op::Kind::Bootstrap:
            if (boot == nullptr) {
                fatal("request has a Bootstrap op but no Bootstrapper "
                      "was configured (Server::Options::bootstrapper)");
            }
            regs.push_back(boot->bootstrap(regs[op.a]));
            break;
        }
        FIDES_ASSERT(regs.size() <= req.numRegisters());
    }
    FIDES_ASSERT(regs.size() == req.numRegisters());
    return std::move(regs[req.outputRegister()]);
}

// --- Handle -----------------------------------------------------------

struct Handle::State
{
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    std::optional<ckks::Ciphertext> result;
    std::exception_ptr error;
    Clock::time_point submitted;
    Clock::time_point completed;
};

bool
Handle::ready() const
{
    FIDES_ASSERT(st_ != nullptr);
    std::lock_guard<std::mutex> lock(st_->m);
    return st_->done;
}

ckks::Ciphertext
Handle::get()
{
    FIDES_ASSERT(st_ != nullptr);
    std::unique_lock<std::mutex> lock(st_->m);
    st_->cv.wait(lock, [this] { return st_->done; });
    if (check::enabled())
        check::onHostObserve(st_.get());
    if (st_->error)
        std::rethrow_exception(st_->error);
    FIDES_ASSERT(st_->result.has_value());
    ckks::Ciphertext out = std::move(*st_->result);
    st_->result.reset();
    return out;
}

double
Handle::latencyMs() const
{
    FIDES_ASSERT(st_ != nullptr);
    std::lock_guard<std::mutex> lock(st_->m);
    FIDES_ASSERT(st_->done);
    return std::chrono::duration<double, std::milli>(st_->completed -
                                                     st_->submitted)
        .count();
}

// --- Server -----------------------------------------------------------

struct Server::Job
{
    Request req;
    std::shared_ptr<Handle::State> state;
    //! Key material resolved at submit time: the job keeps the
    //! bundle alive even if the tenant re-registers mid-flight.
    Tenant tenant;
};

Server::Server(const ckks::Context &ctx, Options opt)
    : ctx_(&ctx), capacity_(opt.queueCapacity)
{
    numWorkers_ = opt.submitters ? opt.submitters : 1;
    workers_.reserve(numWorkers_);
    for (u32 i = 0; i < numWorkers_; ++i)
        workers_.emplace_back(&Server::workerLoop, this, i);
}

Server::Server(const ckks::Context &ctx, const ckks::KeyBundle &keys,
               Options opt)
    : Server(ctx, opt)
{
    // The single-bundle front door: caller-owned keys (aliased, not
    // owned -- the caller keeps them alive for the server's lifetime,
    // as before multi-tenant registration existed) and the optional
    // Bootstrapper built over them.
    std::lock_guard<std::mutex> lock(m_);
    tenants_[kDefaultTenant] =
        Tenant{std::shared_ptr<const ckks::KeyBundle>(
                   std::shared_ptr<const ckks::KeyBundle>(), &keys),
               opt.bootstrapper};
}

Server::~Server()
{
    {
        std::lock_guard<std::mutex> lock(m_);
        stop_ = true;
    }
    wake_.notify_all();
    space_.notify_all(); // unblock submitters stuck on backpressure
    for (std::thread &w : workers_)
        w.join();
}

void
Server::registerTenant(u64 tenant,
                       std::shared_ptr<const ckks::KeyBundle> keys)
{
    FIDES_ASSERT(keys != nullptr);
    std::lock_guard<std::mutex> lock(m_);
    tenants_[tenant] = Tenant{std::move(keys), nullptr};
}

std::size_t
Server::tenants() const
{
    std::lock_guard<std::mutex> lock(m_);
    return tenants_.size();
}

Handle
Server::submit(u64 tenant, Request req)
{
    auto state = std::make_shared<Handle::State>();
    state->submitted = Clock::now();
    {
        std::unique_lock<std::mutex> lock(m_);
        FIDES_ASSERT(!stop_);
        auto it = tenants_.find(tenant);
        if (it == tenants_.end())
            fatal("serve: no key bundle registered for tenant %llu "
                  "on this server",
                  static_cast<unsigned long long>(tenant));
        Tenant keys = it->second;
        if (capacity_ > 0)
            space_.wait(lock, [this] {
                return stop_ || queue_.size() < capacity_;
            });
        // Re-checked after the backpressure wait: the server must not
        // accept a job its (exiting) workers would strand.
        FIDES_ASSERT(!stop_);
        // The queue handoff is a happens-before edge the validator
        // cannot see (host mutex, no stream/event involved): publish
        // the submitting thread's clock for the worker to join.
        if (check::enabled())
            check::onHostPublish(state.get());
        queue_.push_back(Job{std::move(req), state, std::move(keys)});
        ++stats_.accepted;
    }
    wake_.notify_one();
    return Handle(std::move(state));
}

void
Server::drain()
{
    std::unique_lock<std::mutex> lock(m_);
    drained_.wait(lock,
                  [this] { return queue_.empty() && busy_ == 0; });
}

Server::Stats
Server::stats() const
{
    std::lock_guard<std::mutex> lock(m_);
    Stats st = stats_;
    st.queued = queue_.size() + busy_;
    return st;
}

std::string
Server::metricsText(const std::string &label) const
{
    // /metrics-style text (ROADMAP observability slice): counters
    // first, then the cumulative latency histogram, then the
    // dispatch totals. Samples carry a shard label when
    // the caller (Router) provides one, so shard dumps concatenate
    // into one scrape.
    const std::string tag =
        label.empty() ? "" : "{shard=\"" + label + "\"}";
    Stats st;
    std::array<u64, kLatencyBucketsMs.size() + 1> lat{};
    double latSumMs = 0;
    std::size_t numTenants = 0;
    {
        std::lock_guard<std::mutex> lock(m_);
        st = stats_;
        st.queued = queue_.size() + busy_;
        lat = latency_;
        latSumMs = latencySumMs_;
        numTenants = tenants_.size();
    }
    char line[160];
    std::string out;
    auto emit = [&](const char *name, double v) {
        std::snprintf(line, sizeof(line), "%s%s %.0f\n", name,
                      tag.c_str(), v);
        out += line;
    };
    emit("fides_serve_accepted_total", static_cast<double>(st.accepted));
    emit("fides_serve_completed_total",
         static_cast<double>(st.completed));
    emit("fides_serve_failed_total", static_cast<double>(st.failed));
    emit("fides_serve_queue_depth", static_cast<double>(st.queued));
    emit("fides_serve_submitters", numWorkers_);
    emit("fides_serve_tenants", static_cast<double>(numTenants));

    // Prometheus histograms are cumulative per bucket.
    const std::string bucketTag =
        label.empty() ? "" : "shard=\"" + label + "\",";
    u64 cum = 0;
    for (std::size_t i = 0; i < kLatencyBucketsMs.size(); ++i) {
        cum += lat[i];
        std::snprintf(line, sizeof(line),
                      "fides_serve_latency_ms_bucket{%sle=\"%g\"} "
                      "%llu\n",
                      bucketTag.c_str(), kLatencyBucketsMs[i],
                      static_cast<unsigned long long>(cum));
        out += line;
    }
    cum += lat[kLatencyBucketsMs.size()];
    std::snprintf(line, sizeof(line),
                  "fides_serve_latency_ms_bucket{%sle=\"+Inf\"} %llu\n",
                  bucketTag.c_str(),
                  static_cast<unsigned long long>(cum));
    out += line;
    // Prometheus histogram conformance: a histogram is the bucket
    // series PLUS the `_sum`/`_count` pair -- rate(sum)/rate(count)
    // is how dashboards derive the mean, so `_sum` is not optional.
    std::snprintf(line, sizeof(line),
                  "fides_serve_latency_ms_sum%s %.3f\n", tag.c_str(),
                  latSumMs);
    out += line;
    emit("fides_serve_latency_ms_count", static_cast<double>(cum));

    // perfbench's Snapshot::take sums this pair (one request per dispatch).
    const double retired = static_cast<double>(st.completed + st.failed);
    emit("fides_serve_batch_size_sum", retired);
    emit("fides_serve_batch_size_count", retired);
    emit("fides_serve_dispatch_cpu_ns_total",
         static_cast<double>(st.dispatchCpuNs));
    emit("fides_serve_executed_ops_total",
         static_cast<double>(st.executedOps));
    return out;
}

void
Server::executeJob(Job &job)
{
    const std::size_t numOps = job.req.ops().size();
    std::exception_ptr error;
    std::optional<ckks::Ciphertext> result;
    // Submission CPU of this job (multi-stream launches).
    // Thread-local counter, and the whole job executes on this worker
    // thread, so a delta around it is exact.
    const u64 dispatch0 = ckks::kernels::dispatchEngineNs();
    try {
        ckks::Evaluator eval(*ctx_, *job.tenant.keys);
        result = executeProgram(eval, job.tenant.boot,
                                std::move(job.req));
        // The request's one host join: the handle yields a settled
        // ciphertext (ready for serialization/decryption without
        // further waits).
        result->syncHost();
    } catch (...) {
        error = std::current_exception();
    }
    const u64 dispatchNs =
        ckks::kernels::dispatchEngineNs() - dispatch0;
    const double latencyMs = std::chrono::duration<double, std::milli>(
                                 Clock::now() - job.state->submitted)
                                 .count();
    // Stats first, then the handle, then the idle transition: a
    // client returning from Handle::get() must observe its request
    // counted, and drain() must not return before the handle of
    // every accepted request is fulfilled.
    {
        std::lock_guard<std::mutex> slock(m_);
        if (error)
            ++stats_.failed;
        else
            ++stats_.completed;
        std::size_t b = 0;
        while (b < kLatencyBucketsMs.size() &&
               latencyMs > kLatencyBucketsMs[b])
            ++b;
        ++latency_[b];
        latencySumMs_ += latencyMs;
        ++stats_.soloRequests;
        stats_.dispatchCpuNs += dispatchNs;
        stats_.executedOps += numOps;
    }
    // The result handback is the reverse host edge: the client
    // thread joining on Handle::get() observes this clock.
    if (check::enabled())
        check::onHostPublish(job.state.get());
    {
        std::lock_guard<std::mutex> slock(job.state->m);
        job.state->result = std::move(result);
        job.state->error = error;
        job.state->completed = Clock::now();
        job.state->done = true;
    }
    job.state->cv.notify_all();
}

void
Server::workerLoop(u32 index)
{
    // Per-submitter execution state: one stream lease for the
    // worker's lifetime, installed thread-locally so every kernel
    // this thread dispatches lands on it. Leases wrap when submitters
    // outnumber stream slots; DESIGN.md §1.8 explains why streams
    // shared that way cannot deadlock. The Evaluator is per JOB -- it
    // is two pointers plus an Encoder view, and each job carries its
    // own tenant's keys.
    const StreamLease lease =
        leaseForWorker(ctx_->devices(), index, numWorkers_);
    ctx_->setThreadLease(&lease);

    std::unique_lock<std::mutex> lock(m_);
    for (;;) {
        wake_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) {
            if (stop_)
                break;
            continue;
        }
        Job job = std::move(queue_.front());
        queue_.pop_front();
        ++busy_;
        lock.unlock();
        if (check::enabled())
            check::onHostObserve(job.state.get());
        if (capacity_ > 0)
            space_.notify_one();

        executeJob(job);

        lock.lock();
        --busy_;
        if (queue_.empty() && busy_ == 0)
            drained_.notify_all();
    }
    lock.unlock();
    ctx_->setThreadLease(nullptr);
}

} // namespace fideslib::serve
