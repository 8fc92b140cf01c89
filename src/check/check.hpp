/**
 * @file
 * Hazard validator: a compute-sanitizer-style racecheck / declcheck /
 * initcheck / lifetime analysis layer over the stream/event
 * execution stack (DESIGN.md §1.11).
 *
 * The execution model rests on an honor-system invariant: every
 * kernels::forBatches launch declares the limbs it touches via its
 * Dep list, and event chaining and deferred frees are both derived
 * from those declarations. An undeclared access
 * is a real (logical) GPU race, yet the simulated worker-thread
 * streams often serialize accidentally, so tests pass and TSan sees
 * nothing -- the host threads are correctly synchronized; it is the
 * stream-ordering that is wrong. This module checks the model itself:
 *
 *  - racecheck: shadow access tracking records the actual limb
 *    buffers each kernel body reads and writes, builds a
 *    happens-before relation from Event::record()/wait() edges and
 *    stream program order (vector clocks, one component per stream
 *    and per host thread), and reports any conflicting access pair
 *    with no happens-before path.
 *  - declcheck: actual accesses are cross-checked against the
 *    declared Dep list, so an undeclared read/write (or a write
 *    through a Dep declared Read) fails loudly even when no race
 *    manifested on this schedule.
 *  - initcheck: a kernel read of device memory that was never
 *    written since allocation is reported.
 *  - lifetime: an access to a MemPool::deferRelease'd block by a
 *    launch that does not happen-before the guarding events, and a
 *    stream submission outside the calling thread's StreamLease, are
 *    reported.
 *
 * The layer is compiled in always and enabled per-process via
 * Context::setValidation(...) or FIDES_VALIDATE=1; when off, every
 * hook is a relaxed atomic load and a not-taken branch.
 *
 * This header is intentionally light (no core includes) so that
 * core/device.hpp can include it for the inline Event hooks.
 */

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace fideslib
{
class Stream;
class Event;
} // namespace fideslib

namespace fideslib::check
{

/** Validation mode. Report logs each finding (warn) and counts it;
 *  Fatal panics on the first finding, which makes every violation
 *  class death-testable. */
enum class Mode : int { Off = 0, Report = 1, Fatal = 2 };

//! Process-wide mode word, read on every hook fast path. Do not
//! write directly; use setMode().
extern std::atomic<int> gMode;

/** True when any validation is active. The only cost the hooks pay
 *  when validation is off. */
inline bool
enabled()
{
    return gMode.load(std::memory_order_relaxed) !=
           static_cast<int>(Mode::Off);
}

void setMode(Mode m);
Mode mode();

/** Violation and coverage counters (process-wide, monotonic until
 *  resetStats()). */
struct Stats
{
    uint64_t launches = 0; //!< launch records created
    uint64_t accesses = 0; //!< instrumented accesses processed
    uint64_t races = 0;
    uint64_t undeclared = 0; //!< declcheck findings (both kinds)
    uint64_t uninit = 0;
    uint64_t lifetime = 0; //!< use-after-deferred-free
    uint64_t lease = 0;    //!< out-of-lease stream submissions
    uint64_t
    violations() const
    {
        return races + undeclared + uninit + lifetime + lease;
    }
};

Stats stats();
void resetStats();
/** The last finding's full report text (empty if none since reset).
 *  Report-mode regression tests match on this. */
std::string lastReport();

// --- Label stack ------------------------------------------------------

/**
 * Thread-local kernel-label stack: kernel entry points push their
 * name so every launch record (and so every finding) names the
 * logical kernel it belongs to, without widening the forBatches
 * signature. Nested scopes join with '/' ("hmult/ntt_fwd").
 */
class ScopedLabel
{
  public:
    explicit ScopedLabel(const char *name);
    ~ScopedLabel();

    ScopedLabel(const ScopedLabel &) = delete;
    ScopedLabel &operator=(const ScopedLabel &) = delete;

  private:
    bool pushed_ = false; //!< only pushed while validation is on
};

// --- Launch protocol --------------------------------------------------

/** One declared (or explicitly reported) limb-buffer access. */
struct DeclaredAccess
{
    const void *buffer; //!< limb device-buffer base pointer
    uint32_t limb;      //!< limb position (for the report text)
    bool write;
};

struct LaunchRecord; // opaque: defined by the validator

/**
 * Registers one kernel launch on @p st (nullptr = the calling host
 * thread executes the body inline) with its declared access set.
 * Allocates the launch's epoch on the stream's clock and snapshots
 * the vector clock -- so it must be called AFTER the launch's hazard
 * waits were issued on the stream. Returns null when validation is
 * off.
 */
std::shared_ptr<LaunchRecord>
beginLaunch(const Stream *st, std::vector<DeclaredAccess> declared);

/**
 * Processes one access attributed to @p rec without declcheck (used
 * by custom launch paths that report their exact access set instead
 * of instrumenting the body). No-op when @p rec is null.
 */
void noteAccess(const std::shared_ptr<LaunchRecord> &rec,
                const void *buffer, uint32_t limb, bool write);

/**
 * RAII: installs @p rec as the calling thread's active kernel body,
 * so instrumented Limb accessors (Limb::read()/write()) attribute
 * their accesses to it. Null @p rec installs nothing (clears any
 * inherited scope for the duration).
 */
class BodyScope
{
  public:
    explicit BodyScope(std::shared_ptr<LaunchRecord> rec);
    ~BodyScope();

    BodyScope(const BodyScope &) = delete;
    BodyScope &operator=(const BodyScope &) = delete;

  private:
    //! Owned: the inline dispatch paths pass a temporary, and the
    //! record must outlive the body it is installed for.
    std::shared_ptr<LaunchRecord> rec_;
    LaunchRecord *prev_;
};

/** Instrumented body-side accesses: called by Limb::read()/write()
 *  when validation is on. Outside a BodyScope these are host
 *  accesses: a write marks the buffer initialized, a read is
 *  ignored. */
void recordRead(const void *buffer, uint32_t limb);
void recordWrite(const void *buffer, uint32_t limb);

/** Marks @p buffer as initialized by a host-side write (memset /
 *  memcpy through an uninstrumented pointer). */
void markInitialized(const void *buffer);

// --- Core-layer hooks -------------------------------------------------

/** Stream::record(): snapshots the stream's vector clock into the
 *  event state (the clock the event's waiters will join). */
std::shared_ptr<void> makeEventClock(const Stream *st);

/** Event::ready()/synchronize(): the calling thread observed the
 *  event complete, so it joins the event's clock -- this is how
 *  ready-skip fast paths (waitHazards, writeEventsOf) stay visible
 *  to the happens-before relation. */
void onEventObserved(const std::shared_ptr<void> &clock);

/** Stream::wait(e): work submitted to @p st after this point
 *  happens-after @p e. Sound on
 *  every Stream::wait fast path (ready / same-stream), so it is
 *  called unconditionally at entry. */
void onStreamWait(const Stream *st, const Event &e);

/** Stream::submit(): lease check -- flags a submission to a stream
 *  outside the calling thread's installed StreamLease. */
void onSubmit(const Stream *st);

/** Stream::synchronize(): the calling thread drained @p st without an
 *  Event (condition-variable join), so it happens-after everything
 *  submitted to the stream so far. */
void onStreamDrained(const Stream *st);

/** Host-side happens-before edge the execution layer cannot see: a
 *  mutex-guarded cross-thread handoff (the serving queue, a result
 *  handle). Publish snapshots the calling thread's clock under
 *  @p token, joining any clock already published there; observe joins
 *  the published clock into the calling thread's and consumes it.
 *  Only call at genuine synchronization points -- a publish/observe
 *  pair asserts an ordering the racecheck will then trust. */
void onHostPublish(const void *token);
void onHostObserve(const void *token);

/** MemPool hooks: allocation resets the buffer's shadow (recycled
 *  blocks start over as never-written); a plain release forgets it;
 *  deferRelease arms the use-after-deferred-free check with the
 *  join of the guarding events' clocks. */
void onAlloc(const void *ptr);
void onFree(const void *ptr);
void onDeferRelease(const void *ptr, const std::vector<Event> &guards);

/** Installs the calling thread's allowed stream set (@p n == 0
 *  clears it; a thread with no lease may submit anywhere). */
void setThreadLease(const Stream *const *streams, std::size_t n);

/** DeviceSet teardown: bumps the shadow generation and drops all
 *  shadow state, bounding clock width and map growth across the many
 *  short-lived Contexts of a test or bench process. */
void onTeardown();

} // namespace fideslib::check
