/**
 * @file
 * Hazard validator engine (see check.hpp for the model).
 *
 * Happens-before is a vector clock with one component per actor: a
 * registered Stream, or a host thread that executes kernel bodies
 * inline / observes event completions. Every launch takes a fresh
 * epoch on its stream's component; Event::record snapshots the
 * stream clock; Stream::wait joins the event clock into the
 * waiting stream; a host
 * thread that observes an event complete joins the event clock into
 * its thread-local clock, and every launch it submits joins that
 * thread clock -- which is what keeps the dispatcher's ready-skip
 * fast path (waitHazards) part of the relation.
 *
 * Shadow state is one record per device buffer (limb base pointer):
 * the last write and the last read per actor, each with the full
 * clock snapshot of its launch, so access pairs can be checked for a
 * happens-before path in either direction regardless of the order
 * the worker threads happen to process them in. All shadow state is
 * guarded by one leaf mutex (the validator never calls back into
 * pool or stream code while holding it).
 *
 * Lifecycle: DeviceSet teardown bumps a generation counter and drops
 * every registered actor and shadow record. Clock snapshots carry
 * their generation, so a stale snapshot from a previous Context is
 * ignored rather than misread against recycled actor indices. All
 * state only ever *loses* history on reset -- losing history can
 * miss a violation but never fabricates one.
 */

#include "check/check.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <mutex>
#include <unordered_map>

#include "core/device.hpp"
#include "core/logging.hpp"

namespace fideslib::check
{

std::atomic<int> gMode{0};

namespace
{

using VC = std::vector<uint64_t>;

/** Joins @p src into @p dst (component-wise max). */
void
joinInto(VC &dst, const VC &src)
{
    if (dst.size() < src.size())
        dst.resize(src.size(), 0);
    for (std::size_t i = 0; i < src.size(); ++i)
        dst[i] = std::max(dst[i], src[i]);
}

/** epoch(@p actor) = @p epoch happened-before the launch that
 *  snapshotted @p vc? */
bool
covers(const VC &vc, uint32_t actor, uint64_t epoch)
{
    return actor < vc.size() && vc[actor] >= epoch;
}

/** The payload Stream::record() parks in the event state. */
struct ClockHandle
{
    uint64_t gen;
    VC vc;
};

constexpr uint32_t kNoActor = 0xffffffffu;

struct Decl
{
    bool write;
    uint32_t limb;
};

} // namespace

/** One registered kernel launch (or inline host execution). */
struct LaunchRecord
{
    VC vc;             //!< clock at submission, own epoch included
    uint32_t actor;    //!< clock component this launch ticks
    uint64_t epoch;
    uint32_t streamId; //!< global stream id, kNoActor for host
    std::string label; //!< joined ScopedLabel stack at submission
    std::unordered_map<const void *, Decl> declared;
};

namespace
{

struct AccessMark
{
    bool valid = false;
    uint32_t actor = 0;
    uint64_t epoch = 0;
    uint32_t streamId = 0;
    std::string label;
    VC vc; //!< full launch clock: the shadow outlives the launch
           //!< record, and the pair check needs both directions
};

/** Buffer pointers in report text, printf-%p style. */
std::string
hexPtr(const void *p)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%p", p);
    return buf;
}

/** Shadow record for one device buffer. */
struct Shadow
{
    bool fresh = false; //!< allocated under validation, never written
    bool deferred = false;
    VC guard; //!< join of the deferRelease guard-event clocks
    AccessMark write;
    std::unordered_map<uint32_t, AccessMark> reads; //!< per actor
};

struct Central
{
    std::mutex m;
    std::atomic<uint64_t> gen{1};
    std::unordered_map<const void *, uint32_t> actors;
    std::vector<VC> actorVC; //!< per-actor current clock
    std::unordered_map<const void *, Shadow> shadows;
    //! Clocks published at host-side handoff points (onHostPublish),
    //! keyed by handoff token and consumed by the observer.
    std::unordered_map<const void *, VC> published;
    Stats stats;
    std::string lastReport;
};

Central &
central()
{
    static Central c;
    return c;
}

/** Host-thread clock: what this thread has observed complete. */
struct HostTls
{
    uint64_t gen = 0;
    uint32_t actor = kNoActor;
    VC vc;
    //! Allowed stream set installed by Context::setThreadLease.
    std::vector<const Stream *> lease;
    //! Label stack (ScopedLabel). Plain pointers: the pushed
    //! literals outlive their scope by construction.
    std::vector<const char *> labels;
    //! Active kernel body (BodyScope).
    LaunchRecord *body = nullptr;
};

thread_local HostTls tTls;

/** Re-bases the thread clock after a generation bump. Lease, labels
 *  and body scope are left alone: they are owned by live frames of
 *  this thread, not by the torn-down DeviceSet. */
void
refreshTls()
{
    const uint64_t g =
        central().gen.load(std::memory_order_relaxed);
    if (tTls.gen != g) {
        tTls.gen = g;
        tTls.actor = kNoActor;
        tTls.vc.clear();
    }
}

/** Registers (or finds) the actor index for @p key. Caller holds the
 *  central mutex. */
uint32_t
actorIndexLocked(const void *key)
{
    Central &c = central();
    auto [it, inserted] =
        c.actors.emplace(key, static_cast<uint32_t>(c.actorVC.size()));
    if (inserted)
        c.actorVC.emplace_back();
    return it->second;
}

std::string
joinedLabel()
{
    if (tTls.labels.empty())
        return "<unlabeled>";
    std::string out;
    for (const char *l : tTls.labels) {
        if (!out.empty())
            out.push_back('/');
        out += l;
    }
    return out;
}

std::string
describeStream(uint32_t streamId)
{
    if (streamId == kNoActor)
        return "host";
    return "stream " + std::to_string(streamId);
}

/** Counts and emits one finding. Caller must NOT hold the central
 *  mutex (Fatal-mode panic unwinds through logging). */
void
report(uint64_t Stats::*counter, const std::string &msg)
{
    Central &c = central();
    {
        std::lock_guard<std::mutex> lock(c.m);
        ++(c.stats.*counter);
        c.lastReport = msg;
    }
    if (mode() == Mode::Fatal)
        panic("hazard validator: %s", msg.c_str());
    warn("hazard validator: %s", msg.c_str());
}

/**
 * The shadow-state update and all per-access checks. Returns the
 * finding text (empty = clean); the caller reports outside the lock.
 */
std::string
processAccessLocked(Central &c, const LaunchRecord &rec,
                    const void *buffer, uint32_t limb, bool write,
                    uint64_t Stats::*&counter)
{
    ++c.stats.accesses;
    Shadow &sh = c.shadows[buffer];
    const char *kind = write ? "Write" : "Read";

    // Lifetime: the buffer was handed to MemPool::deferRelease; only
    // launches ordered before the guarding events may still touch it.
    if (sh.deferred && !covers(sh.guard, rec.actor, rec.epoch)) {
        counter = &Stats::lifetime;
        return "lifetime (use-after-deferred-free): " + rec.label +
               " [" + describeStream(rec.streamId) + "] " + kind +
               "s limb " + std::to_string(limb) + " of buffer " +
               hexPtr(buffer) +
               " already handed to MemPool::deferRelease, and the "
               "launch does not happen-before the guarding events";
    }

    // Initcheck: reading memory nothing ever wrote.
    if (!write && sh.fresh) {
        counter = &Stats::uninit;
        return "initcheck (uninitialized read): " + rec.label + " [" +
               describeStream(rec.streamId) + "] reads limb " +
               std::to_string(limb) + " of buffer " + hexPtr(buffer) +
               ", which was never written since allocation";
    }

    // Racecheck: a conflicting pair needs a happens-before path in
    // one direction or the other. Both marks carry their full launch
    // clocks, so the test is order-of-processing independent (worker
    // threads may process a reader before the writer it races with).
    auto ordered = [&](const AccessMark &prior) {
        if (prior.actor == rec.actor)
            return true; // same stream / same thread: program order
        if (covers(rec.vc, prior.actor, prior.epoch))
            return true; // prior happened-before this launch
        return covers(prior.vc, rec.actor, rec.epoch);
    };
    auto raceText = [&](const AccessMark &prior,
                        const char *priorKind) {
        return "racecheck: conflicting accesses on limb " +
               std::to_string(limb) + " of buffer " + hexPtr(buffer) +
               " with no happens-before path: " + kind + " by " +
               rec.label + " [" + describeStream(rec.streamId) +
               "] vs " + priorKind + " by " + prior.label + " [" +
               describeStream(prior.streamId) +
               "]; the Dep (and the event edge it would derive) "
               "covering the pair is missing";
    };
    if (sh.write.valid && !ordered(sh.write)) {
        counter = &Stats::races;
        return raceText(sh.write, "Write");
    }
    if (write) {
        for (const auto &[actor, mark] : sh.reads) {
            (void)actor;
            if (!ordered(mark)) {
                counter = &Stats::races;
                return raceText(mark, "Read");
            }
        }
    }

    // Update the shadow.
    AccessMark mark;
    mark.valid = true;
    mark.actor = rec.actor;
    mark.epoch = rec.epoch;
    mark.streamId = rec.streamId;
    mark.label = rec.label;
    mark.vc = rec.vc;
    if (write) {
        sh.fresh = false;
        sh.write = std::move(mark);
        sh.reads.clear();
    } else {
        sh.reads[rec.actor] = std::move(mark);
    }
    return {};
}

/** Declcheck + shadow processing for one instrumented access. */
void
processAccess(const LaunchRecord &rec, const void *buffer,
              uint32_t limb, bool write)
{
    uint64_t Stats::*counter = nullptr;
    std::string msg;

    auto it = rec.declared.find(buffer);
    if (it == rec.declared.end()) {
        counter = &Stats::undeclared;
        msg = std::string("declcheck (undeclared access): ") +
              rec.label + " [" + describeStream(rec.streamId) + "] " +
              (write ? "writes" : "reads") + " limb " +
              std::to_string(limb) +
              " without declaring it; missing Dep {" +
              (write ? "Write" : "Read") + ", limb " +
              std::to_string(limb) + "}";
    } else if (write && !it->second.write) {
        counter = &Stats::undeclared;
        msg = std::string("declcheck (write through Read Dep): ") +
              rec.label + " [" + describeStream(rec.streamId) +
              "] writes limb " + std::to_string(limb) +
              " declared only as Read; the Dep must be {Write, limb " +
              std::to_string(limb) + "}";
    }
    if (counter) {
        report(counter, msg);
        // Fall through: still feed the shadow below so a single
        // mis-declaration does not cascade (Report mode).
        counter = nullptr;
        msg.clear();
    }

    Central &c = central();
    {
        std::lock_guard<std::mutex> lock(c.m);
        msg = processAccessLocked(c, rec, buffer, limb, write,
                                  counter);
    }
    if (counter)
        report(counter, msg);
}

} // namespace

// --- Mode and stats ---------------------------------------------------

void
setMode(Mode m)
{
    gMode.store(static_cast<int>(m), std::memory_order_relaxed);
}

Mode
mode()
{
    return static_cast<Mode>(gMode.load(std::memory_order_relaxed));
}

Stats
stats()
{
    Central &c = central();
    std::lock_guard<std::mutex> lock(c.m);
    return c.stats;
}

void
resetStats()
{
    Central &c = central();
    std::lock_guard<std::mutex> lock(c.m);
    c.stats = Stats{};
    c.lastReport.clear();
}

std::string
lastReport()
{
    Central &c = central();
    std::lock_guard<std::mutex> lock(c.m);
    return c.lastReport;
}

// --- Labels -----------------------------------------------------------

ScopedLabel::ScopedLabel(const char *name)
{
    if (enabled()) {
        tTls.labels.push_back(name);
        pushed_ = true;
    }
}

ScopedLabel::~ScopedLabel()
{
    if (pushed_)
        tTls.labels.pop_back();
}

// --- Launch protocol --------------------------------------------------

std::shared_ptr<LaunchRecord>
beginLaunch(const Stream *st, std::vector<DeclaredAccess> declared)
{
    if (!enabled())
        return nullptr;
    refreshTls();
    auto rec = std::make_shared<LaunchRecord>();
    rec->label = joinedLabel();
    rec->streamId = st ? st->id() : kNoActor;
    rec->declared.reserve(declared.size());
    for (const DeclaredAccess &d : declared) {
        auto [it, inserted] =
            rec->declared.emplace(d.buffer, Decl{d.write, d.limb});
        // An operand appearing as both Read and Write (in-place
        // kernels) must end up Write: Write covers read-modify-write.
        if (!inserted && d.write)
            it->second.write = true;
    }

    Central &c = central();
    std::lock_guard<std::mutex> lock(c.m);
    ++c.stats.launches;
    const uint32_t a = st ? actorIndexLocked(st)
                          : (tTls.actor != kNoActor
                                 ? tTls.actor
                                 : (tTls.actor = actorIndexLocked(
                                        &tTls)));
    VC &clock = st ? c.actorVC[a] : tTls.vc;
    // The launch happens-after everything its submitting thread has
    // observed (ready-skipped waits included) and, for a stream,
    // after everything earlier on that stream.
    if (st)
        joinInto(clock, tTls.vc);
    if (clock.size() <= a)
        clock.resize(a + 1, 0);
    rec->epoch = ++clock[a];
    rec->actor = a;
    rec->vc = clock;
    return rec;
}

BodyScope::BodyScope(std::shared_ptr<LaunchRecord> rec)
    : rec_(std::move(rec)), prev_(tTls.body)
{
    tTls.body = rec_.get();
}

BodyScope::~BodyScope()
{
    tTls.body = prev_;
}

void
recordRead(const void *buffer, uint32_t limb)
{
    if (!enabled())
        return;
    if (const LaunchRecord *rec = tTls.body)
        processAccess(*rec, buffer, limb, /*write=*/false);
    // Host-side reads outside any kernel body are not checked: the
    // host synchronizes via syncHost() before touching data, and the
    // encoder/serializer read paths are not hazard-relevant.
}

void
recordWrite(const void *buffer, uint32_t limb)
{
    if (!enabled())
        return;
    if (const LaunchRecord *rec = tTls.body) {
        processAccess(*rec, buffer, limb, /*write=*/true);
        return;
    }
    markInitialized(buffer);
}

void
markInitialized(const void *buffer)
{
    if (!enabled())
        return;
    Central &c = central();
    std::lock_guard<std::mutex> lock(c.m);
    auto it = c.shadows.find(buffer);
    if (it != c.shadows.end())
        it->second.fresh = false;
}

// --- Core-layer hooks -------------------------------------------------

std::shared_ptr<void>
makeEventClock(const Stream *st)
{
    if (!enabled())
        return nullptr;
    refreshTls();
    auto h = std::make_shared<ClockHandle>();
    h->gen = tTls.gen;
    Central &c = central();
    std::lock_guard<std::mutex> lock(c.m);
    const uint32_t a = actorIndexLocked(st);
    h->vc = c.actorVC[a];
    return h;
}

void
onEventObserved(const std::shared_ptr<void> &clock)
{
    if (!clock)
        return;
    refreshTls();
    const auto *h = static_cast<const ClockHandle *>(clock.get());
    if (h->gen == tTls.gen)
        joinInto(tTls.vc, h->vc);
}

void
onStreamWait(const Stream *st, const Event &e)
{
    if (!enabled())
        return;
    const std::shared_ptr<void> &clock = e.checkClock();
    if (!clock)
        return;
    refreshTls();
    const auto *h = static_cast<const ClockHandle *>(clock.get());
    if (h->gen != tTls.gen)
        return;
    Central &c = central();
    std::lock_guard<std::mutex> lock(c.m);
    joinInto(c.actorVC[actorIndexLocked(st)], h->vc);
}

void
onSubmit(const Stream *st)
{
    if (tTls.lease.empty())
        return;
    for (const Stream *s : tTls.lease)
        if (s == st)
            return;
    report(&Stats::lease,
           "leasecheck (out-of-lease stream pick): " + joinedLabel() +
               " submitted work to stream " + std::to_string(st->id()) +
               ", which is outside the calling thread's StreamLease");
}

void
onStreamDrained(const Stream *st)
{
    if (!enabled())
        return;
    refreshTls();
    Central &c = central();
    std::lock_guard<std::mutex> lock(c.m);
    joinInto(tTls.vc, c.actorVC[actorIndexLocked(st)]);
}

void
onHostPublish(const void *token)
{
    if (!enabled())
        return;
    refreshTls();
    Central &c = central();
    std::lock_guard<std::mutex> lock(c.m);
    joinInto(c.published[token], tTls.vc);
}

void
onHostObserve(const void *token)
{
    if (!enabled())
        return;
    refreshTls();
    Central &c = central();
    std::lock_guard<std::mutex> lock(c.m);
    auto it = c.published.find(token);
    if (it == c.published.end())
        return;
    joinInto(tTls.vc, it->second);
    c.published.erase(it);
}

void
onAlloc(const void *ptr)
{
    Central &c = central();
    std::lock_guard<std::mutex> lock(c.m);
    Shadow &sh = c.shadows[ptr];
    sh = Shadow{};
    sh.fresh = true;
}

void
onFree(const void *ptr)
{
    Central &c = central();
    std::lock_guard<std::mutex> lock(c.m);
    c.shadows.erase(ptr);
}

void
onDeferRelease(const void *ptr, const std::vector<Event> &guards)
{
    refreshTls();
    Central &c = central();
    std::lock_guard<std::mutex> lock(c.m);
    auto it = c.shadows.find(ptr);
    if (it == c.shadows.end())
        return;
    Shadow &sh = it->second;
    sh.deferred = true;
    // Launches ordered before the guard events (the buffer's last
    // tracked writer/readers) are the legitimately in-flight ones;
    // the join of the guard clocks is exactly that frontier. The
    // submitting thread's own clock participates too: everything it
    // observed complete cannot touch the buffer again either.
    sh.guard = tTls.vc;
    for (const Event &e : guards) {
        const std::shared_ptr<void> &clock = e.checkClock();
        if (!clock)
            continue;
        const auto *h = static_cast<const ClockHandle *>(clock.get());
        if (h->gen == tTls.gen)
            joinInto(sh.guard, h->vc);
    }
}

void
setThreadLease(const Stream *const *streams, std::size_t n)
{
    tTls.lease.assign(streams, streams + n);
}

void
onTeardown()
{
    Central &c = central();
    std::lock_guard<std::mutex> lock(c.m);
    c.gen.fetch_add(1, std::memory_order_relaxed);
    c.actors.clear();
    c.actorVC.clear();
    c.shadows.clear();
    c.published.clear();
}

} // namespace fideslib::check
