/**
 * @file
 * The RNS polynomial data hierarchy of the paper's Figure 2:
 *
 *   RNSPoly -> LimbPartition -> Limb -> DeviceVector
 *
 * An RNSPoly is an N-degree polynomial decomposed over the RNS base
 * B = {q_0 ... q_l} (plus, transiently, the P extension limbs during
 * key switching). Each Limb stores the polynomial modulo one prime as
 * a device buffer allocated from the device that owns the prime; a
 * LimbPartition holds a polynomial's limbs, sharded in contiguous
 * blocks of the RNS base across the context's devices (Section III-B
 * multi-GPU partitioning -- with one device, this degenerates to the
 * paper's released single-GPU configuration).
 *
 * Completion tracking (the asynchronous execution model): each Limb
 * remembers the Event of the last kernel that wrote it and of the
 * last readers still in flight. kernels::forBatches consults these to
 * chain kernels stream-side without host barriers; RNSPoly::syncHost
 * is the explicit join used at genuine host reads (decode,
 * serialization, adapters). Event bookkeeping is guarded by a
 * per-limb spinlock: the serving layer runs MANY submitter threads
 * over one Context, and while each request touches its own
 * ciphertexts, shared read-only operands (key material, plaintext
 * diagonals) collect reader events from every submitter
 * concurrently. The critical sections are a handful of shared_ptr
 * copies, so the lock is nanoseconds and uncontended in
 * single-submitter runs (DESIGN.md 1.8).
 *
 * Lifetime: the partition is held by shared_ptr. Kernel bodies
 * capture the partition (never the stack RNSPoly) plus a keep-alive
 * reference, so a temporary polynomial may be destroyed while its
 * kernels are still queued; the buffers of limbs that die with
 * pending events are handed to MemPool::deferRelease instead of being
 * recycled under a running kernel.
 */

#pragma once

#include <initializer_list>
#include <memory>
#include <vector>

#include "ckks/context.hpp"
#include "core/device.hpp"

namespace fideslib::ckks
{

/** Domain of the stored values. */
enum class Format { Coeff, Eval };

/**
 * One residue polynomial: N coefficients modulo one prime, resident
 * on the device the context's placement policy assigns to that prime.
 */
class Limb
{
  public:
    Limb(const Context &ctx, u32 primeIdx)
        : dev_(&ctx.deviceFor(primeIdx)),
          data_(ctx.degree(), *dev_),
          primeIdx_(primeIdx)
    {}

    // Moves transfer the data and tracking but not the lock (locks
    // are not movable); a partition being (re)built is not yet shared
    // with another thread, so the unguarded transfer is safe.
    Limb(Limb &&o) noexcept
        : dev_(o.dev_), data_(std::move(o.data_)),
          primeIdx_(o.primeIdx_), write_(std::move(o.write_)),
          reads_(std::move(o.reads_))
    {
        o.dev_ = nullptr;
    }

    Limb &
    operator=(Limb &&o) noexcept
    {
        if (this != &o) {
            dev_ = o.dev_;
            data_ = std::move(o.data_);
            primeIdx_ = o.primeIdx_;
            write_ = std::move(o.write_);
            reads_ = std::move(o.reads_);
            o.dev_ = nullptr;
        }
        return *this;
    }

    ~Limb()
    {
        // A limb dying while kernels are still in flight (temporary
        // polynomial destroyed right after its last kernel was
        // enqueued) must not recycle its buffer under them: hand the
        // allocation to the pool's deferred-free list keyed on the
        // pending events.
        if (dev_ && data_.managed() && hasPending()) {
            std::vector<Event> ev;
            collectPending(ev);
            const std::size_t bytes = data_.size() * sizeof(u64);
            dev_->pool().deferRelease(data_.detach(), bytes,
                                      std::move(ev));
        }
    }

    /** Raw buffer for host-side writes (encode, deserialize, memset
     *  paths). When validation is on, the mutable access marks the
     *  buffer initialized -- host paths synchronize via syncHost(), so
     *  they are outside the racecheck scope. */
    u64 *
    data()
    {
        if (check::enabled())
            check::markInitialized(data_.data());
        return data_.data();
    }
    const u64 *data() const { return data_.data(); }

    /** Instrumented kernel-body accessors: bodies use these instead of
     *  data() so the hazard validator sees the actual access set of
     *  every launch (racecheck + declcheck + initcheck). Zero cost
     *  when validation is off. */
    const u64 *
    read() const
    {
        if (check::enabled())
            check::recordRead(data_.data(), primeIdx_);
        return data_.data();
    }
    u64 *
    write()
    {
        if (check::enabled())
            check::recordWrite(data_.data(), primeIdx_);
        return data_.data();
    }

    std::size_t size() const { return data_.size(); }
    u32 primeIdx() const { return primeIdx_; }
    Device &device() const { return *dev_; }

    // Completion tracking (any submitter thread). ---------------------
    /** The event of the kernel that last wrote this limb supersedes
     *  both the previous write and all outstanding reads (they are
     *  ordered before it stream-side by forBatches). */
    void
    noteWrite(const Event &e) const
    {
        std::lock_guard<SpinLock> g(lock_);
        write_ = e;
        reads_.clear();
    }

    /** Registers an in-flight reader; at most one event per stream is
     *  kept (a later read on the same stream supersedes the earlier
     *  one, streams being in-order). */
    void
    noteRead(const Event &e) const
    {
        std::lock_guard<SpinLock> g(lock_);
        for (Event &r : reads_) {
            if (r.streamId() == e.streamId()) {
                r = e;
                return;
            }
        }
        reads_.push_back(e);
    }

    /** Snapshot of the last-writer event (by value: the tracked state
     *  may be updated by another submitter while the caller holds the
     *  copy -- a stale event is merely a conservative extra wait). */
    Event
    lastWrite() const
    {
        std::lock_guard<SpinLock> g(lock_);
        return write_;
    }

    /** Snapshot of the in-flight reader events. */
    std::vector<Event>
    lastReads() const
    {
        std::lock_guard<SpinLock> g(lock_);
        return reads_;
    }

    bool
    hasPending() const
    {
        std::lock_guard<SpinLock> g(lock_);
        if (!write_.ready())
            return true;
        for (const Event &r : reads_)
            if (!r.ready())
                return true;
        return false;
    }

    void
    collectPending(std::vector<Event> &out) const
    {
        std::lock_guard<SpinLock> g(lock_);
        if (!write_.ready())
            out.push_back(write_);
        for (const Event &r : reads_)
            if (!r.ready())
                out.push_back(r);
    }

    /** Host-blocks until every pending kernel on this limb retired,
     *  then clears the settled tracking. Never blocks while holding
     *  the spinlock: pending events are snapshotted, synchronized
     *  outside the lock, and re-checked (another thread may have
     *  noted new readers of a shared limb meanwhile). */
    void
    syncHost() const
    {
        std::vector<Event> pending;
        for (;;) {
            {
                std::lock_guard<SpinLock> g(lock_);
                pending.clear();
                if (!write_.ready())
                    pending.push_back(write_);
                for (const Event &r : reads_)
                    if (!r.ready())
                        pending.push_back(r);
                if (pending.empty()) {
                    write_ = Event();
                    reads_.clear();
                    return;
                }
            }
            for (const Event &e : pending)
                e.synchronize();
        }
    }

  private:
    Device *dev_;
    DeviceVector<u64> data_;
    u32 primeIdx_;
    mutable SpinLock lock_;
    mutable Event write_;
    mutable std::vector<Event> reads_;
};

/**
 * The limbs of one polynomial, sharded over the context's devices by
 * the block placement policy (each Limb records its owner).
 *
 * Storage is reserved up-front for the maximum limb count so the
 * element addresses stay stable while kernels are in flight: a body
 * running on a worker thread indexes limbs that were live when it was
 * enqueued, and pushes/pops on the host never reallocate under it.
 */
class LimbPartition
{
  public:
    std::size_t size() const { return limbs_.size(); }
    Limb &operator[](std::size_t i) { return limbs_[i]; }
    const Limb &operator[](std::size_t i) const { return limbs_[i]; }

    void reserve(std::size_t n) { limbs_.reserve(n); }
    void push(Limb &&l) { limbs_.push_back(std::move(l)); }
    void pop() { limbs_.pop_back(); }
    void clear() { limbs_.clear(); }

    /** Number of limbs resident on device @p deviceId. */
    std::size_t
    numOnDevice(u32 deviceId) const
    {
        std::size_t count = 0;
        for (const Limb &l : limbs_)
            if (l.device().id() == deviceId)
                ++count;
        return count;
    }

  private:
    std::vector<Limb> limbs_;
};

/**
 * An RNS polynomial at a given level: limbs 0..level hold residues
 * modulo q_0..q_level; when present, `special` further limbs hold the
 * residues modulo the P extension primes (key-switching raised form).
 */
class RNSPoly
{
  public:
    RNSPoly(const Context &ctx, u32 level, Format fmt,
            u32 specialLimbs = 0);

    // The partition is shared with in-flight kernels as a keep-alive,
    // never between two live polynomials: copying is explicit
    // (clone()), moving transfers the handle.
    RNSPoly(const RNSPoly &) = delete;
    RNSPoly &operator=(const RNSPoly &) = delete;
    RNSPoly(RNSPoly &&) = default;
    RNSPoly &operator=(RNSPoly &&) = default;

    const Context &context() const { return *ctx_; }
    u32 level() const { return level_; }
    u32 numSpecial() const { return special_; }
    /** Total number of limbs, q plus special. */
    std::size_t numLimbs() const { return part_->size(); }
    Format format() const { return format_; }
    void setFormat(Format f) { format_ = f; }

    /** Limb by position: 0..level are q-limbs, then special limbs. */
    Limb &limb(std::size_t i) { return (*part_)[i]; }
    const Limb &limb(std::size_t i) const { return (*part_)[i]; }

    /** Global prime index of limb position i. */
    u32 primeIdxAt(std::size_t i) const
    {
        return (*part_)[i].primeIdx();
    }

    LimbPartition &partition() { return *part_; }
    const LimbPartition &partition() const { return *part_; }

    /**
     * Shared handle to the partition, used by the kernel layer as the
     * keep-alive its queued bodies capture (the partition, hence
     * every limb buffer, outlives the last kernel that touches it
     * even if this RNSPoly is destroyed first).
     */
    std::shared_ptr<LimbPartition> partShared() const { return part_; }

    /** Deep copy. */
    RNSPoly clone() const;

    /** Deep copy of limbs 0..@p level (at most level()) into a fresh
     *  polynomial: one copy kernel, no host join. Level reduction
     *  lowers this way (DESIGN.md 1.4). A lower level drops top
     *  q-limbs, so it takes a polynomial without special limbs. */
    RNSPoly clone(u32 level) const;

    /** Fills every limb with zeros (host write: joins if pending). */
    void setZero();

    /**
     * Host join: blocks until every kernel that reads or writes this
     * polynomial has retired. Required before any host-side access to
     * limb data (decode, serialization, adapters). No-op -- and not
     * counted as a join -- when nothing is pending.
     */
    void syncHost() const { syncHost({this}); }

    /** One host join on several polynomials (of one Context): counted
     *  once, when any of them has work pending. */
    static void syncHost(std::initializer_list<const RNSPoly *> polys);

    /** True if any kernel on this polynomial is still in flight. */
    bool hasPendingWork() const;

    /** Drops the top q-limb in place (the host-side reference
     *  evaluator's level reduction). Joins on the dropped limb's
     *  pending kernels first: in-flight bodies index the live limb
     *  vector, so the slot cannot be destroyed under them. */
    void dropLimb();

    /** Removes the special limbs (post-ModDown). Joins like
     *  dropLimb; the hot ModDown path avoids this by building a
     *  fresh result polynomial instead. */
    void dropSpecialLimbs();

  private:
    const Context *ctx_;
    u32 level_;
    u32 special_;
    Format format_;
    std::shared_ptr<LimbPartition> part_;
};

} // namespace fideslib::ckks
