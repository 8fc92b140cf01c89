#include "serve/server.hpp"

#include <chrono>
#include <cstdio>
#include <exception>

#include "check/check.hpp"
#include "ckks/bootstrap.hpp"
#include "ckks/graph.hpp"
#include "core/logging.hpp"

namespace fideslib::serve
{

using Clock = std::chrono::steady_clock;

namespace
{

/** One program step against one instance's register file. */
void
applyOp(const ckks::Evaluator &eval, const ckks::Bootstrapper *boot,
        std::vector<ckks::Ciphertext> &regs, const Op &op)
{
    switch (op.kind) {
    case Op::Kind::Add:
        regs.push_back(eval.add(regs[op.a], regs[op.b]));
        break;
    case Op::Kind::Sub:
        regs.push_back(eval.sub(regs[op.a], regs[op.b]));
        break;
    case Op::Kind::Multiply:
        regs.push_back(eval.multiply(regs[op.a], regs[op.b]));
        break;
    case Op::Kind::Square:
        regs.push_back(eval.square(regs[op.a]));
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
}

} // namespace

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
    for (const Op &op : req.ops()) {
        applyOp(eval, boot, regs, op);
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
    //! bundle alive even if the tenant is unregistered mid-flight
    //! (migration's source-side drain).
    Tenant tenant;
    //! Batch-compatibility key, hashed once at submit time so the
    //! batch former's queue scan is a u64 compare per job.
    u64 sig = 0;
    bool batchable = false;
};

Server::Server(const ckks::Context &ctx, Options opt)
    : ctx_(&ctx), capacity_(opt.queueCapacity)
{
    numWorkers_ = opt.submitters ? opt.submitters : 1;
    // Continuous batching is effective only when there is more than
    // one stream to interleave instances across -- a single-stream
    // set degenerates to sequential execution anyway, and
    // BatchSession requires the multi-stream substrate.
    batchWindowUs_ = opt.batchWindowUs;
    if (opt.maxBatch > 1 && ctx.devices().numStreams() > 1)
        maxBatch_ = opt.maxBatch;
    // Partitioned arenas: every plan stored from now on reserves
    // enough scratch for all submitters to replay it at once -- and
    // plans captured BEFORE this server existed (warmup, sequential
    // reference runs) get their reservations topped up to the same
    // multiple, so no concurrent replay ever falls off the reserved
    // pool onto the host allocator. Under batching a leader holds up
    // to maxBatch collected-but-unflushed replays at once, so the
    // multiple scales with the group cap.
    const u32 replayMultiple = numWorkers_ * maxBatch_;
    if (ctx.planArenaMultiplier() < replayMultiple) {
        ctx.setPlanArenaMultiplier(replayMultiple);
        ctx.plans().reserveScratch(ctx.devices(), replayMultiple);
    }
    leases_.reserve(numWorkers_);
    for (u32 i = 0; i < numWorkers_; ++i)
        leases_.push_back(
            leaseForWorker(ctx.devices(), i, numWorkers_));
    leaseBusy_.assign(numWorkers_, 0);
    leaseFreeCount_ = numWorkers_;
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
    // as before multi-tenant registration existed).
    registerTenant(kDefaultTenant,
                   std::shared_ptr<const ckks::KeyBundle>(
                       std::shared_ptr<const ckks::KeyBundle>(), &keys),
                   opt.bootstrapper);
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
                       std::shared_ptr<const ckks::KeyBundle> keys,
                       const ckks::Bootstrapper *boot)
{
    FIDES_ASSERT(keys != nullptr);
    std::lock_guard<std::mutex> lock(m_);
    tenants_[tenant] = Tenant{std::move(keys), boot};
}

void
Server::unregisterTenant(u64 tenant)
{
    std::lock_guard<std::mutex> lock(m_);
    tenants_.erase(tenant);
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
    // Hash the compatibility key outside the lock (it walks the
    // program and input metadata). Only needed when coalescing is on.
    u64 sig = 0;
    bool batchable = false;
    if (maxBatch_ > 1) {
        sig = req.signature();
        batchable = req.batchable();
    }
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
        queue_.push_back(
            Job{std::move(req), state, std::move(keys), sig,
                batchable});
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
    // Context's plan-cache stats. Samples carry a shard label when
    // the caller (Router) provides one, so shard dumps concatenate
    // into one scrape.
    const std::string tag =
        label.empty() ? "" : "{shard=\"" + label + "\"}";
    Stats st;
    std::array<u64, kLatencyBucketsMs.size() + 1> lat{};
    std::array<u64, kBatchBuckets.size() + 1> bsz{};
    double latSumMs = 0;
    double bszSum = 0;
    std::size_t numTenants = 0;
    {
        std::lock_guard<std::mutex> lock(m_);
        st = stats_;
        st.queued = queue_.size() + busy_;
        lat = latency_;
        latSumMs = latencySumMs_;
        bsz = batchSize_;
        bszSum = batchSizeSum_;
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

    // Continuous-batching observability (DESIGN.md §1.13): the
    // dispatch group-size histogram plus batched-vs-solo op counters.
    u64 bcum = 0;
    for (std::size_t i = 0; i < kBatchBuckets.size(); ++i) {
        bcum += bsz[i];
        std::snprintf(line, sizeof(line),
                      "fides_serve_batch_size_bucket{%sle=\"%g\"} "
                      "%llu\n",
                      bucketTag.c_str(), kBatchBuckets[i],
                      static_cast<unsigned long long>(bcum));
        out += line;
    }
    bcum += bsz[kBatchBuckets.size()];
    std::snprintf(line, sizeof(line),
                  "fides_serve_batch_size_bucket{%sle=\"+Inf\"} %llu\n",
                  bucketTag.c_str(),
                  static_cast<unsigned long long>(bcum));
    out += line;
    std::snprintf(line, sizeof(line),
                  "fides_serve_batch_size_sum%s %.0f\n", tag.c_str(),
                  bszSum);
    out += line;
    emit("fides_serve_batch_size_count", static_cast<double>(bcum));
    emit("fides_serve_batched_requests_total",
         static_cast<double>(st.batchedRequests));
    emit("fides_serve_solo_requests_total",
         static_cast<double>(st.soloRequests));
    emit("fides_serve_batched_ops_total",
         static_cast<double>(st.batchedOps));
    emit("fides_serve_solo_ops_total",
         static_cast<double>(st.soloOps));
    emit("fides_serve_dispatch_cpu_ns_total",
         static_cast<double>(st.dispatchCpuNs));
    emit("fides_serve_executed_ops_total",
         static_cast<double>(st.executedOps));
    emit("fides_serve_max_batch", maxBatch_);

    const ckks::kernels::PlanCacheStats ps = ctx_->planStats();
    emit("fides_plan_keys", static_cast<double>(ps.keys.size()));
    emit("fides_plan_hits_total", static_cast<double>(ps.hits));
    emit("fides_plan_misses_total", static_cast<double>(ps.misses));
    emit("fides_plan_arena_reserved_bytes",
         static_cast<double>(ps.reservedBytes));
    return out;
}

void
Server::gatherCompatibleLocked(std::vector<Job> &group, u32 maxBatch)
{
    // Claims queued jobs whose signature matches the leader's,
    // front-to-back, skipping (and leaving queued) incompatible ones.
    // This reorders the queue for incompatible shapes -- a documented
    // trade of strict FIFO for coalescing; skipped jobs are picked up
    // by the next idle worker (the leader passes the baton via
    // wake_).
    const u64 sig = group[0].sig;
    for (auto it = queue_.begin();
         it != queue_.end() && group.size() < maxBatch;) {
        if (it->batchable && it->sig == sig) {
            group.push_back(std::move(*it));
            it = queue_.erase(it);
            ++busy_; // claimed: drain() must still wait for it
        } else {
            ++it;
        }
    }
}

std::vector<u32>
Server::acquireLeases(std::size_t k, u32 preferred)
{
    // All-or-nothing checkout: an executor holds no lease while it
    // waits, and once served it takes every lease it needs in one
    // step, so checkout itself can never cycle. FIFO tickets keep a
    // k-lease leader from starving behind a stream of solo claims.
    std::vector<u32> claimed;
    claimed.reserve(k);
    std::unique_lock<std::mutex> lock(leaseM_);
    const u64 ticket = leaseTicketNext_++;
    leaseFree_.wait(lock, [&] {
        return leaseTicketServing_ == ticket && leaseFreeCount_ >= k;
    });
    ++leaseTicketServing_;
    if (!leaseBusy_[preferred]) {
        leaseBusy_[preferred] = 1;
        claimed.push_back(preferred);
    }
    for (u32 i = 0; claimed.size() < k; ++i)
        if (!leaseBusy_[i]) {
            leaseBusy_[i] = 1;
            claimed.push_back(i);
        }
    leaseFreeCount_ -= claimed.size();
    lock.unlock();
    leaseFree_.notify_all(); // next ticket may already be satisfiable
    return claimed;
}

void
Server::releaseLeases(const std::vector<u32> &claimed)
{
    {
        std::lock_guard<std::mutex> lock(leaseM_);
        for (u32 i : claimed)
            leaseBusy_[i] = 0;
        leaseFreeCount_ += claimed.size();
    }
    leaseFree_.notify_all();
}

void
Server::executeGroup(std::vector<Job> &group, u32 index)
{
    const std::size_t k = group.size();
    const std::size_t opsPerRequest = group[0].req.ops().size();
    std::vector<std::exception_ptr> errors(k);
    std::vector<std::optional<ckks::Ciphertext>> results(k);
    // Exclusive stream leases for the whole dispatch: one per
    // instance (reused round-robin if the group outnumbers the
    // pool -- same-thread submission order keeps that safe).
    const std::vector<u32> own = acquireLeases(
        std::min<std::size_t>(k, numWorkers_), index);
    // Dispatch-engine CPU of this group (plan-replay submission;
    // collection + flush when coalescing). Thread-local counter, and
    // the whole group executes on this worker thread, so a delta
    // around the group is exact.
    const u64 dispatch0 = ckks::kernels::dispatchEngineNs();
    if (k == 1) {
        // Solo path: bit-identical to the pre-batching server (no
        // BatchSession is ever constructed), which is also the
        // maxBatch=1 default.
        Job &job = group[0];
        ctx_->setThreadLease(&leases_[own[0]]);
        try {
            ckks::Evaluator eval(*ctx_, *job.tenant.keys);
            results[0] = executeProgram(eval, job.tenant.boot,
                                        std::move(job.req));
            // The request's one host join: the handle yields a
            // settled ciphertext (ready for serialization/decryption
            // without further waits).
            results[0]->syncHost();
        } catch (...) {
            errors[0] = std::current_exception();
        }
    } else {
        // Coalesced path: one op-lockstep walk over the shared
        // program. For each op position every instance executes
        // under its own lease with the BatchSession collecting the
        // plan replay; one flush() per position then submits the
        // whole wave -- the host pays each plan's graph walk (and
        // its launch-overhead spin) once for the group instead of
        // once per request. Equal signatures guarantee the op
        // sequences are identical, so every position resolves to the
        // same plan key across instances.
        try {
            std::vector<ckks::Evaluator> evals;
            evals.reserve(k);
            std::vector<std::vector<ckks::Ciphertext>> regs(k);
            for (std::size_t i = 0; i < k; ++i) {
                evals.emplace_back(*ctx_, *group[i].tenant.keys);
                regs[i] = std::move(group[i].req.inputs());
                regs[i].reserve(group[i].req.numRegisters());
            }
            const std::vector<Op> &ops = group[0].req.ops();
            {
                ckks::kernels::BatchSession session(*ctx_);
                for (const Op &op : ops) {
                    for (std::size_t i = 0; i < k; ++i) {
                        // Instance i dispatches onto its own checked-
                        // out lease so the group's device work
                        // spreads across the set exactly as k solo
                        // workers would have.
                        ctx_->setThreadLease(
                            &leases_[own[i % own.size()]]);
                        session.beginInstance(static_cast<u32>(i));
                        applyOp(evals[i], nullptr, regs[i], op);
                    }
                    session.flush();
                }
            }
            ctx_->setThreadLease(&leases_[own[0]]);
            for (std::size_t i = 0; i < k; ++i) {
                results[i] = std::move(
                    regs[i][group[i].req.outputRegister()]);
                results[i]->syncHost();
            }
        } catch (...) {
            // A failure mid-wave poisons the whole group: instances
            // share the flushed device work, so no per-instance
            // result can be certified. Every handle reports the same
            // exception (documented in DESIGN.md §1.13).
            ctx_->setThreadLease(&leases_[own[0]]);
            for (std::size_t i = 0; i < k; ++i) {
                errors[i] = std::current_exception();
                results[i].reset();
            }
        }
    }
    const u64 dispatchNs =
        ckks::kernels::dispatchEngineNs() - dispatch0;
    ctx_->setThreadLease(nullptr);
    releaseLeases(own);

    const Clock::time_point now = Clock::now();
    // Stats first, then the handles, then the idle transition: a
    // client returning from Handle::get() must observe its request
    // counted, and drain() must not return before the handle of
    // every accepted request is fulfilled.
    {
        std::lock_guard<std::mutex> slock(m_);
        for (std::size_t i = 0; i < k; ++i) {
            if (errors[i])
                ++stats_.failed;
            else
                ++stats_.completed;
            const double latencyMs =
                std::chrono::duration<double, std::milli>(
                    now - group[i].state->submitted)
                    .count();
            std::size_t b = 0;
            while (b < kLatencyBucketsMs.size() &&
                   latencyMs > kLatencyBucketsMs[b])
                ++b;
            ++latency_[b];
            latencySumMs_ += latencyMs;
        }
        std::size_t b = 0;
        while (b < kBatchBuckets.size() &&
               static_cast<double>(k) > kBatchBuckets[b])
            ++b;
        ++batchSize_[b];
        batchSizeSum_ += static_cast<double>(k);
        if (k >= 2) {
            stats_.batchedRequests += k;
            stats_.batchedOps += opsPerRequest * k;
        } else {
            ++stats_.soloRequests;
            stats_.soloOps += opsPerRequest;
        }
        stats_.dispatchCpuNs += dispatchNs;
        stats_.executedOps += opsPerRequest * k;
    }
    for (std::size_t i = 0; i < k; ++i) {
        Job &job = group[i];
        // The result handback is the reverse host edge: the client
        // thread joining on Handle::get() observes this clock.
        if (check::enabled())
            check::onHostPublish(job.state.get());
        {
            std::lock_guard<std::mutex> slock(job.state->m);
            job.state->result = std::move(results[i]);
            job.state->error = errors[i];
            job.state->completed = Clock::now();
            job.state->done = true;
        }
        job.state->cv.notify_all();
    }
}

void
Server::workerLoop(u32 index)
{
    // Leases are checked out per dispatch group inside executeGroup
    // (exclusive use is what keeps the replay sweep deadlock-free);
    // between dispatches this thread holds none. The Evaluator is per
    // JOB -- it is two pointers plus an Encoder view, and each job
    // carries its own tenant's keys.
    std::unique_lock<std::mutex> lock(m_);
    for (;;) {
        wake_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) {
            if (stop_)
                break;
            continue;
        }
        std::vector<Job> group;
        group.reserve(maxBatch_);
        group.push_back(std::move(queue_.front()));
        queue_.pop_front();
        ++busy_;
        if (maxBatch_ > 1 && group[0].batchable) {
            gatherCompatibleLocked(group, maxBatch_);
            if (group.size() < maxBatch_ && batchWindowUs_ > 0 &&
                !stop_) {
                // Partial batch: hold the claimed jobs and wait (up
                // to the window) for more compatible arrivals. busy_
                // already covers the claimed jobs, so drain() keeps
                // waiting; `seen` tracks the residual queue size so
                // incompatible leftovers don't spin the predicate.
                const auto deadline =
                    Clock::now() +
                    std::chrono::microseconds(batchWindowUs_);
                std::size_t seen = queue_.size();
                while (group.size() < maxBatch_) {
                    const bool woke = wake_.wait_until(
                        lock, deadline, [this, seen] {
                            return stop_ || queue_.size() > seen;
                        });
                    if (!woke || stop_)
                        break;
                    gatherCompatibleLocked(group, maxBatch_);
                    seen = queue_.size();
                    if (!queue_.empty())
                        wake_.notify_one();
                }
            }
        }
        if (!queue_.empty())
            wake_.notify_one(); // baton for jobs we left queued
        lock.unlock();
        if (check::enabled())
            for (const Job &job : group)
                check::onHostObserve(job.state.get());
        if (capacity_ > 0) {
            if (group.size() > 1)
                space_.notify_all();
            else
                space_.notify_one();
        }

        executeGroup(group, index);

        lock.lock();
        busy_ -= group.size();
        if (queue_.empty() && busy_ == 0)
            drained_.notify_all();
    }
    lock.unlock();
}

} // namespace fideslib::serve
