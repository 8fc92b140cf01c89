#include "core/device.hpp"

#include <algorithm>
#include <chrono>

namespace fideslib
{

namespace
{

//! Set on stream worker threads, which must never submit: a worker
//! blocked on a full queue could wait on its own stream (DESIGN.md
//! §1.8).
thread_local bool tOnStreamWorker = false;

} // namespace

double
DeviceProfile::modeledTimeUs(const KernelCounters &c) const
{
    double launchUs = c.launches * launchOverheadNs * 1e-3;
    double bytes = static_cast<double>(c.bytesRead + c.bytesWritten);
    double memUs = bytes / (bandwidthGBs * 1e3); // GB/s -> bytes/us
    double computeUs = static_cast<double>(c.intOps)
                     / (int32Tops * 1e6); // TOPS -> ops/us
    return launchUs + std::max(memUs, computeUs);
}

const std::vector<DeviceProfile> &
platformTable()
{
    static const std::vector<DeviceProfile> table = {
        // name, int32 TOPS, bandwidth GB/s, L2 MB, launch overhead ns
        {"Ryzen-9-7900", 2.13, 81.0, 64.0, 150.0},
        {"RTX-4060Ti",  11.03, 288.0, 32.0, 2800.0},
        {"RTX-A4500",   11.83, 640.0,  6.0, 3600.0},
        {"V100",        14.13, 897.0,  6.0, 4200.0},
        {"RTX-4090",    41.29, 1000.0, 72.0, 2200.0},
    };
    return table;
}

// --- MemPool ---------------------------------------------------------------

MemPool::~MemPool()
{
    // The destructor is the only host-blocking reclamation point:
    // wait for every deferred free's events, then sweep. Streams are
    // destroyed (drained) before their device's pool, so by the time
    // a Context tears down these waits are trivially satisfied.
    {
        std::lock_guard<std::mutex> lock(m_);
        for (auto &d : deferred_)
            for (const Event &e : d.events)
                e.synchronize();
        sweepDeferredLocked();
    }
    // Every DeviceVector must have been destroyed before its pool:
    // devices live in the Context's DeviceSet, so polynomials cannot
    // outlive the Context they were created under.
    FIDES_ASSERT(bytesInUse_ == 0);
    trim();
}

void *
MemPool::allocate(std::size_t bytes)
{
    std::lock_guard<std::mutex> lock(m_);
    if (!deferred_.empty())
        sweepDeferredLocked();
    bytesInUse_ += bytes;
    bytesPeak_ = std::max(bytesPeak_, bytesInUse_);
    auto it = freeLists_.find(bytes);
    if (it != freeLists_.end() && !it->second.empty()) {
        void *p = it->second.back();
        it->second.pop_back();
        bytesCached_ -= bytes;
        ++poolHits_;
        if (check::enabled())
            check::onAlloc(p);
        return p;
    }
    void *p = std::malloc(bytes);
    FIDES_ASSERT(p != nullptr);
    if (check::enabled())
        check::onAlloc(p);
    return p;
}

void
MemPool::release(void *ptr, std::size_t bytes)
{
    std::lock_guard<std::mutex> lock(m_);
    releaseLocked(ptr, bytes);
}

void
MemPool::releaseLocked(void *ptr, std::size_t bytes)
{
    if (check::enabled())
        check::onFree(ptr);
    FIDES_ASSERT(bytesInUse_ >= bytes);
    bytesInUse_ -= bytes;
    bytesCached_ += bytes;
    freeLists_[bytes].push_back(ptr);
    // Keep the cache bounded so long sweeps do not hoard RAM: shed
    // only the excess (a full flush here would force the next
    // allocation storm to re-malloc everything it just released).
    if (bytesCached_ > cacheBound_)
        evictLocked(cacheBound_);
}

void
MemPool::deferRelease(void *ptr, std::size_t bytes,
                      std::vector<Event> events)
{
    if (!ptr)
        return;
    // Arm the use-after-deferred-free check before pruning: the guard
    // frontier is the join of ALL the guarding events' clocks.
    if (check::enabled())
        check::onDeferRelease(ptr, events);
    // Drop already-signalled events; if none remain the free is
    // immediate.
    std::erase_if(events, [](const Event &e) { return e.ready(); });
    std::lock_guard<std::mutex> lock(m_);
    if (events.empty()) {
        releaseLocked(ptr, bytes);
        return;
    }
    ++deferredFrees_;
    deferred_.push_back({ptr, bytes, std::move(events)});
}

void
MemPool::sweepDeferredLocked()
{
    std::erase_if(deferred_, [this](DeferredFree &d) {
        for (const Event &e : d.events)
            if (!e.ready())
                return false;
        releaseLocked(d.ptr, d.bytes);
        return true;
    });
}

void
MemPool::trim()
{
    std::lock_guard<std::mutex> lock(m_);
    sweepDeferredLocked();
    trimLocked();
}

void
MemPool::sweepDeferred()
{
    std::lock_guard<std::mutex> lock(m_);
    if (!deferred_.empty())
        sweepDeferredLocked();
}

void
MemPool::trimLocked()
{
    evictLocked(0);
}

void
MemPool::evictLocked(u64 targetBytes)
{
    // Largest size classes first: big blocks shed the most bytes per
    // eviction and are the least likely to be recycled verbatim.
    for (auto it = freeLists_.rbegin();
         it != freeLists_.rend() && bytesCached_ > targetBytes; ++it) {
        auto &[sz, list] = *it;
        while (!list.empty() && bytesCached_ > targetBytes) {
            std::free(list.back());
            list.pop_back();
            bytesCached_ -= sz;
        }
    }
}

u64
MemPool::bytesInUse() const
{
    std::lock_guard<std::mutex> lock(m_);
    return bytesInUse_;
}

u64
MemPool::bytesPeak() const
{
    std::lock_guard<std::mutex> lock(m_);
    return bytesPeak_;
}

void
MemPool::resetPeak()
{
    std::lock_guard<std::mutex> lock(m_);
    bytesPeak_ = bytesInUse_;
}

u64
MemPool::poolHits() const
{
    std::lock_guard<std::mutex> lock(m_);
    return poolHits_;
}

u64
MemPool::deferredFrees() const
{
    std::lock_guard<std::mutex> lock(m_);
    return deferredFrees_;
}

u64
MemPool::bytesCached() const
{
    std::lock_guard<std::mutex> lock(m_);
    return bytesCached_;
}

void
MemPool::setCacheBound(u64 bytes)
{
    std::lock_guard<std::mutex> lock(m_);
    cacheBound_ = bytes;
    if (bytesCached_ > cacheBound_)
        evictLocked(cacheBound_);
}

// --- Device ----------------------------------------------------------------

void
Device::launch(u64 bytesRead, u64 bytesWritten, u64 intOps)
{
    {
        std::lock_guard<std::mutex> lock(countersMutex_);
        ++counters_.launches;
        counters_.bytesRead += bytesRead;
        counters_.bytesWritten += bytesWritten;
        counters_.intOps += intOps;
    }
    if (launchOverheadNs_)
        spinNs(launchOverheadNs_);
}

KernelCounters
Device::counters() const
{
    std::lock_guard<std::mutex> lock(countersMutex_);
    return counters_;
}

void
Device::resetCounters()
{
    std::lock_guard<std::mutex> lock(countersMutex_);
    counters_ = {};
}

// --- Stream ----------------------------------------------------------------

Stream::~Stream()
{
    {
        std::lock_guard<std::mutex> lock(m_);
        stop_ = true;
    }
    wake_.notify_all();
    if (worker_.joinable())
        worker_.join();
}

void
Stream::submit(std::function<void()> task)
{
    FIDES_ASSERT(!tOnStreamWorker);
    if (check::enabled())
        check::onSubmit(this);
    std::unique_lock<std::mutex> lock(m_);
    FIDES_ASSERT(!stop_);
    enqueueLocked(lock, std::move(task));
}

Event
Stream::record()
{
    FIDES_ASSERT(!tOnStreamWorker);
    auto st = std::make_shared<Event::State>();
    st->streamId = id_;
    // Snapshot before the event is shared: waiters join this clock.
    if (check::enabled())
        st->checkClock = check::makeEventClock(this);
    std::unique_lock<std::mutex> lock(m_);
    FIDES_ASSERT(!stop_);
    if (inFlight_ == 0) {
        // Idle stream: everything before the record has retired, so
        // the event is born signalled (and an inline schedule never
        // spawns a worker just to flip a flag).
        st->done.store(true, std::memory_order_release);
        return Event(std::move(st));
    }
    enqueueLocked(lock, [st] {
        {
            std::lock_guard<std::mutex> lock(st->m);
            st->done.store(true, std::memory_order_release);
        }
        st->cv.notify_all();
    });
    return Event(std::move(st));
}

void
Stream::enqueueLocked(std::unique_lock<std::mutex> &lock,
                      std::function<void()> task)
{
    if (!worker_.joinable())
        worker_ = std::thread(&Stream::workerLoop, this);
    // A full queue blocks the submitter until workerLoop has drained
    // it to kQueueLowWater.
    space_.wait(lock, [this] { return queue_.size() < kQueueCap; });
    queue_.push_back(std::move(task));
    ++inFlight_;
    wake_.notify_one();
}

void
Stream::wait(const Event &e)
{
    // The happens-before edge holds on every path below (ready,
    // same-stream, queued wait), so the validator join is
    // unconditional.
    if (check::enabled())
        check::onStreamWait(this, e);
    // In-order execution makes waiting on this stream's own earlier
    // events (and on anything already signalled) redundant.
    if (e.ready() || e.streamId() == id_)
        return;
    submit([e] { e.synchronize(); });
}

void
Stream::synchronize()
{
    {
        std::unique_lock<std::mutex> lock(m_);
        drained_.wait(lock, [this] { return inFlight_ == 0; });
    }
    // The caller happens-after everything submitted so far -- a
    // condition-variable join with no Event the validator would
    // otherwise see.
    if (check::enabled())
        check::onStreamDrained(this);
    // The stream just went idle: events recorded on it have signalled,
    // so deferred frees keyed on them are reclaimable now. Without
    // this, a device idle after a burst would hold the buffers (and
    // overstate bytesInUse) until the next allocate()/trim().
    dev_->pool().sweepDeferred();
}

void
Stream::workerLoop()
{
    tOnStreamWorker = true;
    std::unique_lock<std::mutex> lock(m_);
    for (;;) {
        wake_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) {
            if (stop_)
                return;
            continue;
        }
        std::function<void()> task = std::move(queue_.front());
        queue_.pop_front();
        // Wake blocked submitters once per drain to half, not per pop.
        if (queue_.size() == kQueueLowWater)
            space_.notify_all();
        lock.unlock();
        task();
        lock.lock();
        // inFlight_ counts queued plus executing tasks, so it only
        // drops once the body has finished -- synchronize() cannot
        // return while a kernel is still running.
        --inFlight_;
        if (inFlight_ == 0)
            drained_.notify_all();
    }
}

// --- DeviceSet -------------------------------------------------------------

DeviceSet::DeviceSet(u32 numDevices, u32 streamsPerDevice,
                     u64 launchOverheadNs)
    : streamsPerDevice_(streamsPerDevice)
{
    FIDES_ASSERT(numDevices >= 1);
    FIDES_ASSERT(streamsPerDevice >= 1);
    devices_.reserve(numDevices);
    for (u32 d = 0; d < numDevices; ++d) {
        devices_.push_back(std::make_unique<Device>(d));
        devices_.back()->setLaunchOverheadNs(launchOverheadNs);
    }
    // Interleave so round-robin over streams alternates devices.
    const u32 total = numDevices * streamsPerDevice;
    streams_.reserve(total);
    for (u32 s = 0; s < total; ++s)
        streams_.push_back(
            std::make_unique<Stream>(*devices_[s % numDevices], s));
}

DeviceSet::~DeviceSet()
{
    streams_.clear();
    devices_.clear();
    // Drop every registered actor and shadow record: the streams (and
    // the buffers their pools owned) are gone, and the validator must
    // not misread recycled pointers against stale clocks.
    if (check::enabled())
        check::onTeardown();
}

void
DeviceSet::synchronize()
{
    noteHostJoin();
    for (auto &s : streams_)
        s->synchronize();
    // Every stream has drained, so every deferred free is reclaimable
    // -- including ones keyed on events of another device's streams,
    // which the per-stream sweeps above may have run too early for.
    for (auto &d : devices_)
        d->pool().sweepDeferred();
}

KernelCounters
DeviceSet::aggregateCounters() const
{
    KernelCounters total;
    for (const auto &d : devices_)
        total += d->counters();
    return total;
}

void
DeviceSet::resetCounters()
{
    for (auto &d : devices_) {
        d->resetCounters();
        d->pool().resetPeak();
    }
    hostJoins_.store(0, std::memory_order_relaxed);
    logicalKernels_.store(0, std::memory_order_relaxed);
}

void
DeviceSet::setLaunchOverheadNs(u64 ns)
{
    for (auto &d : devices_)
        d->setLaunchOverheadNs(ns);
}

u64
DeviceSet::bytesInUse() const
{
    u64 total = 0;
    for (const auto &d : devices_)
        total += d->pool().bytesInUse();
    return total;
}

u64
DeviceSet::bytesPeak() const
{
    u64 total = 0;
    for (const auto &d : devices_)
        total += d->pool().bytesPeak();
    return total;
}

void
spinNs(u64 ns)
{
    using clock = std::chrono::steady_clock;
    auto end = clock::now() + std::chrono::nanoseconds(ns);
    while (clock::now() < end) {
        // busy wait
    }
}

} // namespace fideslib
