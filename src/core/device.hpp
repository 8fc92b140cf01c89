/**
 * @file
 * Simulated GPU execution substrate: devices, streams, memory pools.
 *
 * The paper's backend targets CUDA: RAII device buffers allocated from
 * the stream-ordered memory pool (`VectorGPU`), kernels launched on
 * CUDA streams, RNS limbs partitioned across multiple GPUs, and a
 * per-launch CPU overhead that motivates limb batching. This container
 * has no GPU, so the substrate is modelled:
 *
 *  - MemPool      stream-ordered pool allocator (size-class free
 *                 lists, allocation statistics, peak tracking). Guarded
 *                 by a mutex so buffers can be created and released
 *                 while kernels run on other streams.
 *  - DeviceVector RAII buffer on a device's pool; also supports the
 *                 paper's "unmanaged" views into a flattened 2-D
 *                 allocation.
 *  - Device       one simulated GPU: a pool, kernel counters, and the
 *                 launch-overhead configuration. Instantiable -- a
 *                 process may hold any number of devices; the library
 *                 groups them in a DeviceSet owned by the Context.
 *  - Stream       in-order execution queue backed by a worker thread;
 *                 kernels submitted to distinct streams run
 *                 concurrently. The queue is finite, like a CUDA
 *                 launch queue: a submitter that finds it full
 *                 blocks until it has drained to half. Launch
 *                 accounting and the simulated CPU-side launch
 *                 overhead (busy-wait, reproducing the launch-bound
 *                 regime of Figure 7) are paid on the submitting
 *                 thread, exactly like a real CUDA launch.
 *  - Event        stream-ordered completion marker (cudaEvent_t):
 *                 Stream::record() returns one, Stream::wait() makes
 *                 another stream wait for it device-side, and
 *                 Event::synchronize() blocks only the calling host
 *                 thread. Events are how kernels chain without global
 *                 barriers.
 *  - DeviceSet    N devices plus their streams; provides round-robin
 *                 stream selection (global and per-device), the
 *                 full join used at teardown/benchmark boundaries,
 *                 and per-device counter aggregation, plus the
 *                 host-join/logical-kernel counters that expose how
 *                 rarely the asynchronous schedule blocks the host.
 *                 The limb -> device placement policy lives on the
 *                 Context (it depends on the RNS base).
 *  - KernelCounters / DeviceProfile
 *                 every kernel reports bytes touched and integer op
 *                 counts; a roofline model over the platform table
 *                 (paper Table IV) converts the counters into modelled
 *                 times for the four GPU platforms.
 *
 * All kernel bodies are real computation -- only the execution
 * substrate is simulated (see DESIGN.md, substitution #1).
 */

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "check/check.hpp"
#include "core/common.hpp"
#include "core/logging.hpp"

namespace fideslib
{

/**
 * Tiny test-and-set spinlock for critical sections of a few loads and
 * stores (per-limb completion tracking). Cheaper than a std::mutex
 * when contention is rare and the hold time is nanoseconds; TSan
 * understands the acquire/release pairing. BasicLockable: hold with
 * std::lock_guard<SpinLock>.
 */
class SpinLock
{
  public:
    void
    lock()
    {
        while (flag_.test_and_set(std::memory_order_acquire)) {
            // spin: holders only copy a handful of events
        }
    }
    void unlock() { flag_.clear(std::memory_order_release); }

  private:
    std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
};

/**
 * A stream-ordered completion marker, the stand-in for cudaEvent_t.
 *
 * An Event is recorded on a stream (Stream::record) and signals once
 * every task submitted to that stream before the record has retired.
 * Other streams can wait on it device-side (Stream::wait) and the
 * host can block on it (synchronize) -- blocking only the caller,
 * never the devices. Events are cheap shared handles: copies observe
 * the same completion state, and a signalled event stays signalled
 * forever (waiters that arrive late return immediately).
 *
 * A default-constructed Event is null: always ready, waits are
 * no-ops. This is what single-stream (inline) execution uses.
 */
class Event
{
  public:
    Event() = default;

    bool valid() const { return st_ != nullptr; }

    /** Non-blocking completion poll. Null events are always ready.
     *  Observing completion is a happens-before edge the hazard
     *  validator must see: every ready-skip fast path in the dispatch
     *  layer funnels through here. */
    bool
    ready() const
    {
        if (!st_)
            return true;
        const bool done = st_->done.load(std::memory_order_acquire);
        if (done && check::enabled())
            check::onEventObserved(st_->checkClock);
        return done;
    }

    /** Blocks the calling host thread until the event signals.
     *  Idempotent: synchronizing twice (or a signalled event) is a
     *  no-op. */
    void
    synchronize() const
    {
        if (ready())
            return;
        std::unique_lock<std::mutex> lock(st_->m);
        st_->cv.wait(lock, [this] {
            return st_->done.load(std::memory_order_acquire);
        });
        if (check::enabled())
            check::onEventObserved(st_->checkClock);
    }

    /** Global id of the stream the event was recorded on. */
    u32 streamId() const { return st_ ? st_->streamId : 0; }

    /** Two events are the same iff they share completion state. */
    bool
    sameAs(const Event &o) const
    {
        return st_ == o.st_;
    }

    /** The validator clock snapshot taken at record() (null when
     *  validation was off, or for null events). */
    std::shared_ptr<void>
    checkClock() const
    {
        return st_ ? st_->checkClock : nullptr;
    }

  private:
    friend class Stream;

    struct State
    {
        std::mutex m;
        std::condition_variable cv;
        std::atomic<bool> done{false};
        u32 streamId = 0;
        //! Hazard-validator clock snapshot (check::makeEventClock),
        //! set once at record() before the event is shared.
        std::shared_ptr<void> checkClock;
    };

    explicit Event(std::shared_ptr<State> st) : st_(std::move(st)) {}

    std::shared_ptr<State> st_;
};

/** Aggregate work counters reported by every kernel launch. */
struct KernelCounters
{
    u64 launches = 0;
    u64 bytesRead = 0;
    u64 bytesWritten = 0;
    u64 intOps = 0;

    void
    operator+=(const KernelCounters &o)
    {
        launches += o.launches;
        bytesRead += o.bytesRead;
        bytesWritten += o.bytesWritten;
        intOps += o.intOps;
    }
};

/** One compute platform from Table IV of the paper. */
struct DeviceProfile
{
    std::string name;
    double int32Tops;       //!< 32b integer TOPS
    double bandwidthGBs;    //!< DRAM bandwidth
    double l2CacheMB;       //!< shared cache capacity
    double launchOverheadNs; //!< per-kernel CPU launch cost

    /** Roofline-modelled execution time for a set of counters. */
    double modeledTimeUs(const KernelCounters &c) const;
};

/** The four GPUs (and the CPU) the paper evaluates on (Table IV). */
const std::vector<DeviceProfile> &platformTable();

/**
 * Stream-ordered pool allocator. Frees go back to a size-class free
 * list and are recycled by later allocations, mirroring CUDA's
 * cudaMemPool_t behaviour that makes RAII device buffers cheap.
 *
 * Thread safe: buffers may be allocated and released from any thread
 * while kernels execute on the device's streams. Destruction asserts
 * that every allocation was returned (bytesInUse == 0), catching
 * leaks the moment a pool's owner -- a Device inside a Context's
 * DeviceSet -- is torn down.
 */
class MemPool
{
  public:
    ~MemPool();

    void *allocate(std::size_t bytes);
    void release(void *ptr, std::size_t bytes);

    /**
     * Releases a buffer that kernels may still be touching: the
     * buffer stays owned by the pool's deferred list (and counted as
     * in-use) until every @p events entry has signalled, then it is
     * recycled like a normal free. This is the stream-ordered free of
     * cudaFreeAsync -- the host never blocks; reclamation happens
     * opportunistically on later allocate()/trim() calls, and the
     * destructor is the only place that waits.
     */
    void deferRelease(void *ptr, std::size_t bytes,
                      std::vector<Event> events);

    u64 bytesInUse() const;
    /** High-water of bytesInUse since construction or resetPeak(). */
    u64 bytesPeak() const;
    /** Restarts the high-water at the bytes in use now. */
    void resetPeak();
    u64 poolHits() const;
    u64 deferredFrees() const;
    /** Bytes sitting on the free lists, available for recycling. */
    u64 bytesCached() const;

    /**
     * Upper bound on the cached (freed but not returned) bytes.
     * Crossing it on a release evicts blocks -- largest size classes
     * first -- until the cache is back under the bound, so a spill
     * sheds only the excess instead of flushing the whole cache.
     */
    void setCacheBound(u64 bytes);

    /** Returns cached blocks to the host allocator. */
    void trim();

    /**
     * Reclaims deferred frees whose events have all signalled. Called
     * by Stream::synchronize() / DeviceSet::synchronize() so a device
     * that goes idle after a burst returns its buffers (and stops
     * overstating bytesInUse) without waiting for the next allocate().
     */
    void sweepDeferred();

  private:
    struct DeferredFree
    {
        void *ptr;
        std::size_t bytes;
        std::vector<Event> events;
    };

    void trimLocked();
    void evictLocked(u64 targetBytes);
    void sweepDeferredLocked();
    void releaseLocked(void *ptr, std::size_t bytes);

    mutable std::mutex m_;
    std::map<std::size_t, std::vector<void *>> freeLists_;
    std::vector<DeferredFree> deferred_;
    u64 bytesInUse_ = 0;
    u64 bytesPeak_ = 0;
    u64 bytesCached_ = 0;
    u64 cacheBound_ = 4ULL << 30;
    u64 poolHits_ = 0;
    u64 deferredFrees_ = 0;
};

/**
 * One simulated device: owns the memory pool, the kernel counters,
 * and the launch-overhead configuration. Plain instantiable object --
 * create as many as the topology needs (normally via DeviceSet).
 */
class Device
{
  public:
    explicit Device(u32 id = 0) : id_(id) {}

    Device(const Device &) = delete;
    Device &operator=(const Device &) = delete;

    u32 id() const { return id_; }
    MemPool &pool() { return pool_; }
    const MemPool &pool() const { return pool_; }

    KernelCounters counters() const;
    void resetCounters();

    /** Simulated per-launch CPU overhead (0 disables the spin). */
    void setLaunchOverheadNs(u64 ns) { launchOverheadNs_ = ns; }
    u64 launchOverheadNs() const { return launchOverheadNs_; }

    /**
     * Accounts one kernel launch (bytes/ops) and pays the simulated
     * CPU-side launch overhead. Called on the submitting thread,
     * before the kernel body is handed to a stream.
     */
    void launch(u64 bytesRead, u64 bytesWritten, u64 intOps);

  private:
    u32 id_;
    MemPool pool_;
    mutable std::mutex countersMutex_;
    KernelCounters counters_;
    u64 launchOverheadNs_ = 0;
};

/** Busy-waits for approximately @p ns nanoseconds. */
void spinNs(u64 ns);

/**
 * An in-order execution stream bound to one device. Work submitted to
 * a stream runs on its worker thread in submission order; work on
 * distinct streams runs concurrently. synchronize() blocks the caller
 * until every submitted task has retired (cudaStreamSynchronize).
 *
 * The worker thread is spawned lazily on the first submit, so a
 * single-stream configuration that executes kernels inline (the
 * fast path in kernels::forBatches) never pays for a thread.
 *
 * The queue holds at most kQueueCap tasks (kernel bodies, waits and
 * event records; the running task does not count). A submit() or
 * record() that finds it full blocks the submitting thread until the
 * worker has drained it to kQueueLowWater, so the host runs at most
 * kQueueCap tasks ahead of each stream and queued tasks keep at most
 * that many kernels' operands alive. Stream workers never submit
 * (asserted): a full queue drains without any submitter's help
 * (DESIGN.md §1.8).
 */
class Stream
{
  public:
    //! Queued tasks at which submission blocks.
    static constexpr std::size_t kQueueCap = 1024;
    //! Queued tasks at which the worker wakes blocked submitters.
    static constexpr std::size_t kQueueLowWater = kQueueCap / 2;

    Stream(Device &dev, u32 id) : dev_(&dev), id_(id) {}
    ~Stream();

    Stream(const Stream &) = delete;
    Stream &operator=(const Stream &) = delete;

    u32 id() const { return id_; }
    Device &device() const { return *dev_; }

    /** Enqueues @p task; returns once it is queued, which blocks only
     *  while the queue holds kQueueCap tasks. */
    void submit(std::function<void()> task);

    /**
     * Records a completion event after everything currently enqueued
     * (cudaEventRecord). If the stream is idle the event is returned
     * already signalled, so an inline (no-worker) schedule never
     * spawns a thread just to signal. Blocks like submit() on a full
     * queue.
     */
    Event record();

    /**
     * Makes work submitted to THIS stream after the call wait for
     * @p e device-side (cudaStreamWaitEvent): the worker blocks, the
     * host returns immediately. Signalled/null events, and events
     * recorded earlier on this same stream, are no-ops -- in-order
     * execution already covers them.
     */
    void wait(const Event &e);

    /** Blocks until the queue is empty and the worker is idle. */
    void synchronize();

  private:
    /** Spawns the worker if needed, waits while the queue is full and
     *  enqueues @p task; @p lock holds m_. */
    void enqueueLocked(std::unique_lock<std::mutex> &lock,
                       std::function<void()> task);
    void workerLoop();

    Device *dev_;
    u32 id_;
    std::thread worker_;
    std::mutex m_;
    std::condition_variable wake_;
    std::condition_variable drained_;
    std::condition_variable space_; //!< queue drained to kQueueLowWater
    std::deque<std::function<void()>> queue_;
    std::size_t inFlight_ = 0; //!< queued + currently executing
    bool stop_ = false;
};

/**
 * The process's execution topology: N simulated devices and S streams
 * per device (the limb -> device placement policy lives on the
 * Context, which knows the RNS base size). Provides the stream
 * schedules used by kernels::forBatches: a global round-robin and a
 * per-device round-robin for ownership-aware dispatch.
 *
 * Streams are interleaved across devices: stream i belongs to device
 * i % N, so walking streams round-robin also balances the devices.
 */
class DeviceSet
{
  public:
    explicit DeviceSet(u32 numDevices = 1, u32 streamsPerDevice = 1,
                       u64 launchOverheadNs = 0);
    ~DeviceSet();

    DeviceSet(const DeviceSet &) = delete;
    DeviceSet &operator=(const DeviceSet &) = delete;

    u32 numDevices() const { return static_cast<u32>(devices_.size()); }
    u32 numStreams() const { return static_cast<u32>(streams_.size()); }
    u32 streamsPerDevice() const { return streamsPerDevice_; }

    Device &device(u32 i) { return *devices_[i]; }
    const Device &device(u32 i) const { return *devices_[i]; }
    Stream &stream(u32 i) { return *streams_[i]; }

    /** The k-th (mod S) stream bound to device @p deviceId. */
    Stream &
    streamOfDevice(u32 deviceId, u32 k)
    {
        return *streams_[deviceId +
                         (k % streamsPerDevice_) * numDevices()];
    }

    /**
     * Full join: blocks until every stream on every device is idle.
     * No longer called per logical kernel -- only at genuine host
     * boundaries (benchmark iteration edges, teardown). Counted as
     * one host join.
     */
    void synchronize();

    /** Sum of the per-device kernel counters. */
    KernelCounters aggregateCounters() const;
    /** Zeroes every counter and restarts each pool's high-water at
     *  its bytes in use, so bytesPeak() covers what runs next. */
    void resetCounters();
    void setLaunchOverheadNs(u64 ns);

    /** Total bytes currently allocated across all device pools. */
    u64 bytesInUse() const;
    /** Sum over devices of each pool's bytesPeak(). */
    u64 bytesPeak() const;

    // Asynchrony accounting. ------------------------------------------
    /** Called whenever the host actually blocks on device work (a
     *  DeviceSet::synchronize, or an Event wait that found pending
     *  work). The barrier model paid one of these per logical kernel;
     *  the event model pays them only at true host reads. */
    void noteHostJoin() { hostJoins_.fetch_add(1, std::memory_order_relaxed); }
    u64 hostJoins() const { return hostJoins_.load(std::memory_order_relaxed); }

    /** One per kernels::forBatches call (a "logical kernel"). The
     *  barrier model joined the host after every one of these, so
     *  logicalKernels() / hostJoins() is the measured join reduction. */
    void noteLogicalKernel() { logicalKernels_.fetch_add(1, std::memory_order_relaxed); }
    u64 logicalKernels() const { return logicalKernels_.load(std::memory_order_relaxed); }

    /** Always 0: no op replays a plan. Kept because perfbench reads it. */
    u64 planReplays() const { return 0; }

  private:
    std::vector<std::unique_ptr<Device>> devices_;
    std::vector<std::unique_ptr<Stream>> streams_;
    u32 streamsPerDevice_ = 1;
    std::atomic<u64> hostJoins_{0};
    std::atomic<u64> logicalKernels_{0};
};

/**
 * A per-submitter view over a DeviceSet: a contiguous range of stream
 * slots on EVERY device (each device keeps participating -- limb
 * placement is data-determined -- but a request's kernels only ever
 * land on its leased slots). The serving layer hands each submitter
 * thread a disjoint lease, so two concurrent requests never interleave
 * on the same stream: within a lease the single-submitter invariants
 * of the dispatch layer hold unchanged, and cross-request ordering
 * needs no events at all because requests share no mutable operands
 * (key material is read-only).
 */
class StreamLease
{
  public:
    StreamLease(DeviceSet &devs, u32 firstSlot, u32 numSlots)
        : devs_(&devs), first_(firstSlot), slots_(numSlots)
    {
        FIDES_ASSERT(numSlots >= 1);
        FIDES_ASSERT(firstSlot + numSlots <= devs.streamsPerDevice());
    }

    /** The whole-set lease: every slot of every device. */
    explicit StreamLease(DeviceSet &devs)
        : StreamLease(devs, 0, devs.streamsPerDevice())
    {}

    DeviceSet &devices() const { return *devs_; }
    u32 slotsPerDevice() const { return slots_; }
    u32 numStreams() const { return slots_ * devs_->numDevices(); }

    /** The k-th (mod lease width) leased stream of device @p d. */
    Stream &
    streamOfDevice(u32 d, u32 k) const
    {
        return devs_->streamOfDevice(d, first_ + (k % slots_));
    }

    /** The i-th leased stream, interleaved across devices exactly
     *  like DeviceSet's global numbering (shape-free round-robin). */
    Stream &
    stream(u32 i) const
    {
        const u32 nd = devs_->numDevices();
        return streamOfDevice(i % nd, (i / nd) % slots_);
    }

  private:
    DeviceSet *devs_;
    u32 first_;
    u32 slots_;
};

/**
 * Partitions @p totalWorkers submitters over a set's stream slots:
 * worker @p worker gets a contiguous slot group, groups as equal as
 * possible; with more workers than slots the groups wrap (two
 * submitters then share streams, which stays correct -- stream queues
 * are mutex-guarded, cross-request hazards do not exist and waits
 * cannot cycle (DESIGN.md §1.8) -- but loses the isolation, so
 * servers should prefer submitters <= slots).
 */
inline StreamLease
leaseForWorker(DeviceSet &devs, u32 worker, u32 totalWorkers)
{
    const u32 slots = devs.streamsPerDevice();
    const u32 groups = totalWorkers < slots ? totalWorkers : slots;
    const u32 g = worker % groups;
    const u32 first = g * slots / groups;
    const u32 last = (g + 1) * slots / groups;
    return StreamLease(devs, first, last - first);
}

/**
 * RAII device buffer, the stand-in for the paper's VectorGPU.
 *
 * Managed vectors own memory from one device's pool and remember the
 * device so destruction releases to the right pool and clone()
 * accounts its copy traffic as a device launch. Unmanaged vectors
 * wrap a caller-provided pointer (the paper's
 * flattened-2D-with-simulated-stack pattern for short-lived,
 * constant-sized RNS polynomials).
 */
template <typename T>
class DeviceVector
{
  public:
    DeviceVector() = default;

    DeviceVector(std::size_t n, Device &dev)
        : dev_(&dev), size_(n), owned_(true)
    {
        data_ = static_cast<T *>(dev.pool().allocate(n * sizeof(T)));
    }

    /** Unmanaged view: memory owned by a higher-level class. */
    DeviceVector(T *ptr, std::size_t n, Device *dev = nullptr)
        : dev_(dev), data_(ptr), size_(n), owned_(false)
    {}

    DeviceVector(const DeviceVector &) = delete;
    DeviceVector &operator=(const DeviceVector &) = delete;

    DeviceVector(DeviceVector &&o) noexcept
        : dev_(o.dev_), data_(o.data_), size_(o.size_), owned_(o.owned_)
    {
        o.dev_ = nullptr;
        o.data_ = nullptr;
        o.size_ = 0;
        o.owned_ = false;
    }

    DeviceVector &
    operator=(DeviceVector &&o) noexcept
    {
        if (this != &o) {
            destroy();
            dev_ = o.dev_;
            data_ = o.data_;
            size_ = o.size_;
            owned_ = o.owned_;
            o.dev_ = nullptr;
            o.data_ = nullptr;
            o.size_ = 0;
            o.owned_ = false;
        }
        return *this;
    }

    ~DeviceVector() { destroy(); }

    T *data() { return data_; }
    const T *data() const { return data_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    bool managed() const { return owned_; }
    Device *device() const { return dev_; }

    T &operator[](std::size_t i) { return data_[i]; }
    const T &operator[](std::size_t i) const { return data_[i]; }

    /**
     * Deep copy into a new managed vector on the same device. The
     * copy is a device-to-device transfer, so its traffic goes
     * through the launch counters like any other kernel.
     */
    DeviceVector
    clone() const
    {
        FIDES_ASSERT(dev_ != nullptr);
        DeviceVector c(size_, *dev_);
        dev_->launch(size_ * sizeof(T), size_ * sizeof(T), 0);
        std::memcpy(c.data_, data_, size_ * sizeof(T));
        if (check::enabled())
            check::markInitialized(c.data_);
        return c;
    }

    /**
     * Relinquishes ownership of the buffer without releasing it to
     * the pool; the caller becomes responsible (used to hand a
     * still-pending buffer to MemPool::deferRelease). Returns nullptr
     * for unmanaged or empty vectors.
     */
    T *
    detach()
    {
        if (!owned_)
            return nullptr;
        owned_ = false;
        T *p = data_;
        data_ = nullptr;
        return p;
    }

  private:
    void
    destroy()
    {
        if (owned_ && data_) {
            dev_->pool().release(data_, size_ * sizeof(T));
        }
        data_ = nullptr;
    }

    Device *dev_ = nullptr;
    T *data_ = nullptr;
    std::size_t size_ = 0;
    bool owned_ = false;
};

} // namespace fideslib
