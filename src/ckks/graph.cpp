#include "ckks/graph.hpp"

#include <chrono>
#include <exception>

#include "check/check.hpp"
#include "core/logging.hpp"

namespace fideslib::ckks::kernels
{

namespace
{

thread_local u64 tlDispatchNs = 0;

/** Accumulates the enclosing scope's thread CPU time into the
 *  calling thread's dispatch-engine counter (dispatchEngineNs). CPU
 *  time rather than wall time: the engine sections run concurrently
 *  with the stream threads executing earlier waves, so on small
 *  machines wall deltas would mostly measure preemption, not
 *  dispatch work. */
struct DispatchTimer
{
    u64 t0 = now();
    ~DispatchTimer() { tlDispatchNs += now() - t0; }

    static u64 now()
    {
#ifdef __linux__
        timespec ts;
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
        return static_cast<u64>(ts.tv_sec) * 1000000000ull +
               static_cast<u64>(ts.tv_nsec);
#else
        return static_cast<u64>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
#endif
    }
};

/**
 * Pins @p multiplier x a plan's per-device scratch histograms in the
 * device pools -- the arena reservation shared by plan storage and
 * the Server's top-up of pre-server plans. reserve() takes per-class
 * maxima, so repeated calls only ever grow the pins.
 */
void
reserveScaledScratch(DeviceSet &devs,
                     const std::vector<std::map<std::size_t, u32>> &scratch,
                     u32 multiplier)
{
    for (u32 d = 0; d < devs.numDevices(); ++d) {
        std::map<std::size_t, u32> scaled = scratch[d];
        if (multiplier > 1)
            for (auto &[bytes, count] : scaled)
                count *= multiplier;
        devs.device(d).pool().reserve(scaled);
    }
}

} // namespace

std::vector<check::DeclaredAccess>
declaredAccesses(const std::vector<Dep> &deps, std::size_t lo,
                 std::size_t hi)
{
    std::vector<check::DeclaredAccess> out;
    for (const Dep &d : deps) {
        const auto [b, e] = depLimbRange(d, lo, hi);
        const LimbPartition &p = d.poly->partition();
        for (std::size_t i = b; i < e; ++i)
            out.push_back({p[i].data(), p[i].primeIdx(),
                           d.mode == Access::Write});
    }
    return out;
}

// --- PlanCache --------------------------------------------------------

PlanCache::Lease
PlanCache::acquire(const PlanKey &key)
{
    // Replay fast path: a warm key resolves under a SHARED lock --
    // concurrent same-key replays (the serving steady state, N
    // submitters re-dispatching identical programs) read the map and
    // bump an atomic counter, never contending on the exclusive
    // lock. The graph pointer stays valid because clear() (the only
    // path that destroys a stored graph) asserts no lease is active.
    {
        std::shared_lock<std::shared_mutex> lock(m_);
        auto it = plans_.find(key);
        if (it != plans_.end() && it->second.graph) {
            it->second.hits.fetch_add(1, std::memory_order_relaxed);
            activeLeases_.fetch_add(1, std::memory_order_relaxed);
            return {Role::Replay, it->second.graph.get()};
        }
    }
    std::unique_lock<std::shared_mutex> lock(m_);
    for (;;) {
        Entry &e = plans_[key];
        if (e.graph) {
            e.hits.fetch_add(1, std::memory_order_relaxed);
            activeLeases_.fetch_add(1, std::memory_order_relaxed);
            return {Role::Replay, e.graph.get()};
        }
        if (!e.capturing) {
            // Single-flight: this caller captures; same-key callers
            // arriving before publish()/abandon() block below.
            e.capturing = true;
            e.misses.fetch_add(1, std::memory_order_relaxed);
            activeLeases_.fetch_add(1, std::memory_order_relaxed);
            return {Role::Capture, nullptr};
        }
        published_.wait(lock);
        // Re-race from scratch: the capture may have been published
        // (replay it), abandoned (someone must capture again), or the
        // whole cache cleared meanwhile.
    }
}

void
PlanCache::publish(const PlanKey &key, std::unique_ptr<KernelGraph> graph)
{
    FIDES_ASSERT(graph != nullptr);
    {
        std::lock_guard<std::shared_mutex> lock(m_);
        Entry &e = plans_[key];
        FIDES_ASSERT(e.capturing && !e.graph);
        e.capturing = false;
        e.graph = std::move(graph);
    }
    activeLeases_.fetch_sub(1, std::memory_order_relaxed);
    published_.notify_all();
}

void
PlanCache::abandon(const PlanKey &key)
{
    {
        std::lock_guard<std::shared_mutex> lock(m_);
        auto it = plans_.find(key);
        FIDES_ASSERT(it != plans_.end() && it->second.capturing);
        it->second.capturing = false;
    }
    activeLeases_.fetch_sub(1, std::memory_order_relaxed);
    published_.notify_all();
}

void
PlanCache::release()
{
    activeLeases_.fetch_sub(1, std::memory_order_relaxed);
}

void
PlanCache::clear()
{
    std::lock_guard<std::shared_mutex> lock(m_);
    // A plan must never die under an active capture or replay --
    // execution knobs may only change while no op is in flight.
    FIDES_ASSERT(activeLeases_.load(std::memory_order_relaxed) == 0);
    plans_.clear();
}

std::size_t
PlanCache::size() const
{
    std::shared_lock<std::shared_mutex> lock(m_);
    std::size_t stored = 0;
    for (const auto &[key, e] : plans_)
        if (e.graph)
            ++stored;
    return stored;
}

void
PlanCache::reserveScratch(DeviceSet &devs, u32 multiplier) const
{
    std::shared_lock<std::shared_mutex> lock(m_);
    for (const auto &[key, e] : plans_)
        if (e.graph)
            reserveScaledScratch(devs, e.graph->scratch, multiplier);
}

PlanCacheStats
PlanCache::stats() const
{
    std::shared_lock<std::shared_mutex> lock(m_);
    PlanCacheStats out;
    out.keys.reserve(plans_.size());
    for (const auto &[key, e] : plans_) {
        const u64 hits = e.hits.load(std::memory_order_relaxed);
        const u64 misses = e.misses.load(std::memory_order_relaxed);
        out.keys.push_back({key, hits, misses});
        out.hits += hits;
        out.misses += misses;
    }
    return out;
}

// --- GraphCapture -----------------------------------------------------

GraphCapture::GraphCapture(const Context &ctx)
    : ctx_(&ctx), graph_(std::make_unique<KernelGraph>())
{
    DeviceSet &devs = ctx.devices();
    graph_->scratch.resize(devs.numDevices());
    for (u32 d = 0; d < devs.numDevices(); ++d)
        devs.device(d).pool().beginAllocTrace();
}

u32
GraphCapture::slotOf(const RNSPoly &poly)
{
    const LimbPartition *p = &poly.partition();
    auto it = slotIndex_.find(p);
    if (it != slotIndex_.end())
        return it->second;
    Slot slot;
    slot.pin = poly.partShared();
    slots_.push_back(std::move(slot));
    const u32 s = static_cast<u32>(slots_.size() - 1);
    // The pin guarantees the partition address is not recycled while
    // this capture lives, so the identity key stays unambiguous.
    slotIndex_.emplace(p, s);
    return s;
}

GraphCapture::LimbState &
GraphCapture::state(u32 slot, std::size_t limb)
{
    auto &limbs = slots_[slot].limbs;
    if (limbs.size() <= limb)
        limbs.resize(limb + 1);
    return limbs[limb];
}

void
GraphCapture::addEdge(GraphNode &node, u32 from)
{
    // Same-stream ordering is free (streams are in-order queues and
    // the replay reuses the recorded assignment), so those edges are
    // pruned here once instead of skipped at every replay.
    if (graph_->nodes[from].streamId == node.streamId)
        return;
    for (u32 w : node.waits)
        if (w == from)
            return;
    node.waits.push_back(from);
}

void
GraphCapture::hazards(GraphNode &node, u32 slot, std::size_t lo,
                      std::size_t hi, bool write)
{
    // Limbs with no in-graph writer yet depend on whatever the bound
    // polynomial carries when a replay starts: record them as a
    // first-touch external check (as contiguous runs). Once a node of
    // this graph writes a limb, external events are superseded and
    // later nodes chain purely through edges -- exactly the
    // noteWrite-supersedes-everything rule of live tracking.
    constexpr std::size_t kNoRun = static_cast<std::size_t>(-1);
    std::size_t runLo = kNoRun;
    auto flush = [&](std::size_t end) {
        if (runLo != kNoRun) {
            node.extChecks.push_back({slot, static_cast<u32>(runLo),
                                      static_cast<u32>(end), write});
            runLo = kNoRun;
        }
    };
    for (std::size_t i = lo; i < hi; ++i) {
        LimbState &st = state(slot, i);
        if (st.writer != GraphNode::kNone) {
            flush(i);
            addEdge(node, st.writer);
        } else if (runLo == kNoRun) {
            runLo = i;
        }
        if (write) {
            for (const auto &[stream, reader] : st.readers)
                addEdge(node, reader);
        }
    }
    flush(hi);
}

void
GraphCapture::commit(u32 nodeIdx, u32 streamId, u32 slot,
                     std::size_t lo, std::size_t hi, bool write)
{
    for (std::size_t i = lo; i < hi; ++i) {
        LimbState &st = state(slot, i);
        if (write) {
            st.writer = nodeIdx;
            st.readers.clear();
        } else {
            // At most one reader per stream (a later read on the same
            // stream supersedes the earlier one, streams in-order).
            bool replaced = false;
            for (auto &[stream, reader] : st.readers) {
                if (stream == streamId) {
                    reader = nodeIdx;
                    replaced = true;
                    break;
                }
            }
            if (!replaced)
                st.readers.push_back({streamId, nodeIdx});
        }
    }
}

void
GraphCapture::finishNode(GraphNode &&node, const Event &ev)
{
    const u32 idx = static_cast<u32>(graph_->nodes.size());
    graph_->nodes.push_back(std::move(node));
    ++graph_->calls.back().numNodes;
    if (ev.valid())
        eventNodes_[ev.identity()] = idx;
}

void
GraphCapture::beginCall(std::size_t numLimbs,
                        const std::vector<Dep> &deps)
{
    if (!valid_)
        return;
    GraphCall call;
    call.firstNode = static_cast<u32>(graph_->nodes.size());
    call.numLimbs = numLimbs;
    call.depSlots.reserve(deps.size());
    for (const Dep &d : deps)
        call.depSlots.push_back(slotOf(*d.poly));
    graph_->calls.push_back(std::move(call));
}

void
GraphCapture::recordNode(u32 streamId, std::size_t lo, std::size_t hi,
                         u64 bytesRead, u64 bytesWritten, u64 intOps,
                         const std::vector<Dep> &deps,
                         const std::vector<Event> &extraWaits,
                         const Event &ev)
{
    if (!valid_)
        return;
    GraphNode node;
    node.streamId = streamId;
    node.lo = lo;
    node.hi = hi;
    node.bytesRead = bytesRead;
    node.bytesWritten = bytesWritten;
    node.intOps = intOps;

    const GraphCall &call = graph_->calls.back();
    FIDES_ASSERT(call.depSlots.size() == deps.size());

    // Hazard pass: edges and external checks against the pre-node
    // state. Derived structurally from the Dep lists, never from
    // observed event readiness -- readiness at capture time is a race
    // outcome the replay must not bake in.
    for (std::size_t j = 0; j < deps.size(); ++j) {
        auto [b, e] = depLimbRange(deps[j], lo, hi);
        hazards(node, call.depSlots[j], b, e,
                deps[j].mode == Access::Write);
    }
    for (const Event &w : extraWaits) {
        if (!w.valid())
            continue;
        auto it = eventNodes_.find(w.identity());
        if (it == eventNodes_.end()) {
            // An event produced outside the graph and outside the Dep
            // model: the plan cannot rebind it, so this op stays
            // uncached.
            invalidate();
            return;
        }
        addEdge(node, it->second);
    }

    // Commit pass, writes before reads (an operand that is both ends
    // up tracked written-then-read, like live noteBatch).
    const u32 idx = static_cast<u32>(graph_->nodes.size());
    for (std::size_t j = 0; j < deps.size(); ++j) {
        if (deps[j].mode != Access::Write)
            continue;
        auto [b, e] = depLimbRange(deps[j], lo, hi);
        commit(idx, streamId, call.depSlots[j], b, e, true);
    }
    for (std::size_t j = 0; j < deps.size(); ++j) {
        if (deps[j].mode != Access::Read)
            continue;
        auto [b, e] = depLimbRange(deps[j], lo, hi);
        commit(idx, streamId, call.depSlots[j], b, e, false);
    }
    finishNode(std::move(node), ev);
}

void
GraphCapture::beginCustomCall(const RNSPoly &srcPoly,
                              const RNSPoly &dstPoly)
{
    if (!valid_)
        return;
    GraphCall call;
    call.firstNode = static_cast<u32>(graph_->nodes.size());
    call.custom = true;
    call.depSlots.push_back(slotOf(srcPoly));
    call.depSlots.push_back(slotOf(dstPoly));
    graph_->calls.push_back(std::move(call));
}

void
GraphCapture::recordCustomNode(u32 streamId, u64 bytesRead,
                               u64 bytesWritten, u64 intOps,
                               const std::vector<u32> &srcPos,
                               const std::vector<u32> &dstPos,
                               const Event &ev)
{
    if (!valid_)
        return;
    GraphNode node;
    node.streamId = streamId;
    node.bytesRead = bytesRead;
    node.bytesWritten = bytesWritten;
    node.intOps = intOps;

    const GraphCall &call = graph_->calls.back();
    for (u32 p : srcPos)
        hazards(node, call.depSlots[0], p, p + 1, false);
    for (u32 p : dstPos)
        hazards(node, call.depSlots[1], p, p + 1, true);

    const u32 idx = static_cast<u32>(graph_->nodes.size());
    for (u32 p : dstPos)
        commit(idx, streamId, call.depSlots[1], p, p + 1, true);
    for (u32 p : srcPos)
        commit(idx, streamId, call.depSlots[0], p, p + 1, false);
    finishNode(std::move(node), ev);
}

std::unique_ptr<KernelGraph>
GraphCapture::finish()
{
    DeviceSet &devs = ctx_->devices();
    for (u32 d = 0; d < devs.numDevices(); ++d) {
        auto histogram = devs.device(d).pool().endAllocTrace();
        if (valid_)
            graph_->scratch[d] = std::move(histogram);
    }
    if (!valid_)
        return nullptr;
    graph_->numSlots = static_cast<u32>(slots_.size());
    // Exit notes, writes first so replays reproduce the
    // noteWrite-then-noteRead order of live tracking.
    for (u32 s = 0; s < slots_.size(); ++s) {
        const auto &limbs = slots_[s].limbs;
        for (std::size_t l = 0; l < limbs.size(); ++l) {
            if (limbs[l].writer != GraphNode::kNone)
                graph_->exits.push_back(
                    {s, static_cast<u32>(l), limbs[l].writer, true});
        }
    }
    for (u32 s = 0; s < slots_.size(); ++s) {
        const auto &limbs = slots_[s].limbs;
        for (std::size_t l = 0; l < limbs.size(); ++l) {
            for (const auto &[stream, reader] : limbs[l].readers)
                graph_->exits.push_back(
                    {s, static_cast<u32>(l), reader, false});
        }
    }
    // Mark the nodes whose events anything consumes; replays skip
    // event bookkeeping for the rest.
    for (const GraphNode &node : graph_->nodes)
        for (u32 w : node.waits)
            graph_->nodes[w].observed = true;
    for (const GraphExitNote &x : graph_->exits)
        graph_->nodes[x.node].observed = true;
    return std::move(graph_);
}

// --- GraphReplay ------------------------------------------------------

GraphReplay::GraphReplay(const Context &ctx, const KernelGraph &graph)
    : ctx_(&ctx), graph_(&graph)
{
    bound_.reserve(graph.numSlots);
    nodeEvents_.resize(graph.nodes.size());
}

GraphReplay::GraphReplay(const Context &ctx, const KernelGraph &graph,
                         DeferredProgram *sink)
    : GraphReplay(ctx, graph)
{
    FIDES_ASSERT(sink != nullptr);
    sink_ = sink;
}

void
GraphReplay::bindSlot(u32 slot, const RNSPoly &poly)
{
    if (slot == bound_.size()) {
        bound_.push_back(poly.partShared());
        return;
    }
    // Determinism check: the op body must present the same object in
    // every position it did at capture (a mismatch means the plan no
    // longer describes this op -- a library bug, not a user error).
    FIDES_ASSERT(slot < bound_.size());
    FIDES_ASSERT(bound_[slot].get() == &poly.partition());
}

const GraphCall &
GraphReplay::nextCall(bool custom)
{
    FIDES_ASSERT(callCursor_ < graph_->calls.size());
    const GraphCall &call = graph_->calls[callCursor_++];
    FIDES_ASSERT(call.custom == custom);
    FIDES_ASSERT(call.firstNode == nodeCursor_);
    return call;
}

void
GraphReplay::gatherWaits(const Stream &st, const GraphNode &node,
                         std::vector<Event> &waits) const
{
    auto consider = [&](const Event &e) {
        // Same-stream pruning stays sound in deferred mode: a
        // deferred event's streamId is the remapped stream the node
        // WILL retire on, and the flush preserves collection order
        // per stream, so in-order execution covers the dependency by
        // the time anything runs.
        if (e.ready() || e.streamId() == st.id())
            return;
        for (const Event &w : waits)
            if (w.sameAs(e))
                return;
        waits.push_back(e);
    };
    // Precomputed in-graph hazards...
    for (u32 j : node.waits)
        consider(nodeEvents_[j]);
    // ...plus whatever is still in flight on the first-touch limbs of
    // the freshly bound operands (work enqueued before this replay).
    for (const GraphNode::ExtCheck &c : node.extChecks) {
        const LimbPartition &p = *bound_[c.slot];
        FIDES_ASSERT(c.hi <= p.size());
        for (u32 i = c.lo; i < c.hi; ++i) {
            consider(p[i].lastWrite());
            if (c.write)
                for (const Event &r : p[i].lastReads())
                    consider(r);
        }
    }
}

void
GraphReplay::submitWaits(Stream &st, std::vector<Event> &waits)
{
    if (waits.empty())
        return;
    if (waits.size() == 1) {
        st.wait(waits[0]);
        return;
    }
    // One combined waiter task instead of one per event: the stream
    // cannot proceed until all have signalled either way, and the
    // queue traffic per node drops to a single submission. The
    // combined task bypasses Stream::wait, so the happens-before
    // edges it creates are reported to the validator explicitly.
    if (check::enabled())
        for (const Event &e : waits)
            check::onStreamWait(&st, e);
    st.submit([waits = std::move(waits)] {
        for (const Event &e : waits)
            e.synchronize();
    });
}

void
GraphReplay::replayCall(
    std::size_t numLimbs,
    const std::function<void(std::size_t, std::size_t)> &fn,
    const std::vector<Dep> &deps, std::vector<Event> *recorded)
{
    const GraphCall &call = nextCall(/*custom=*/false);
    FIDES_ASSERT(call.numLimbs == numLimbs);
    FIDES_ASSERT(call.depSlots.size() == deps.size());
    for (std::size_t j = 0; j < deps.size(); ++j)
        bindSlot(call.depSlots[j], *deps[j].poly);

    DeviceSet &devs = ctx_->devices();
    const StreamLease &lease = ctx_->streamLease();

    if (sink_) {
        // Deferred collection: resolve everything a flush needs NOW
        // (streams against this instance's lease, waits against the
        // current event state, declared accesses against the bound
        // operands) but submit nothing. Completion events are
        // pre-created so recorded out-params and exit notes carry
        // handles identical in behaviour to live-recorded ones.
        const u32 callIdx = static_cast<u32>(callCursor_ - 1);
        DeferredProgram::CallRec &cr = sink_->calls[callIdx];
        cr.body = fn;
        cr.keep.reserve(deps.size());
        for (const Dep &d : deps)
            cr.keep.push_back(d.poly->partShared());
        for (u32 k = 0; k < call.numNodes; ++k) {
            const u32 idx = static_cast<u32>(nodeCursor_++);
            const GraphNode &node = graph_->nodes[idx];
            Stream &st = lease.remap(node.streamId);
            DeferredProgram::NodeRec &nr = sink_->nodes[idx];
            nr.stream = &st;
            nr.call = callIdx;
            nr.lo = node.lo;
            nr.hi = node.hi;
            KernelCounters &c = sink_->perDevice[st.device().id()];
            c.launches += 1;
            c.bytesRead += node.bytesRead;
            c.bytesWritten += node.bytesWritten;
            c.intOps += node.intOps;
            gatherWaits(st, node, nr.waits);
            if (check::enabled())
                nr.declared = declaredAccesses(deps, node.lo, node.hi);
            if (node.observed || recorded) {
                Event ev = Event::makeDeferred(st.id());
                sink_->events[idx] = ev;
                nodeEvents_[idx] = ev;
                if (recorded)
                    recorded->push_back(std::move(ev));
            }
        }
        return;
    }

    if (devs.numStreams() == 1) {
        // Inline replay: batches run eagerly in capture order, which
        // is the live submission order -- bit-identical by
        // construction, with only the launch accounting changed.
        for (u32 k = 0; k < call.numNodes; ++k) {
            const GraphNode &node = graph_->nodes[nodeCursor_++];
            lease.remap(node.streamId)
                .device()
                .launchReplayed(node.bytesRead, node.bytesWritten,
                                node.intOps);
            if (check::enabled()) {
                check::BodyScope scope(check::beginLaunch(
                    nullptr, declaredAccesses(deps, node.lo, node.hi)));
                fn(node.lo, node.hi);
            } else {
                fn(node.lo, node.hi);
            }
        }
        return;
    }

    // Same lifetime contract as the live dispatcher -- the body is
    // copied once and every queued batch holds the operand partitions
    // alive -- but packed into ONE shared payload, so each batch task
    // copies a single pointer instead of the whole keep-alive set.
    struct Payload
    {
        std::function<void(std::size_t, std::size_t)> body;
        std::vector<std::shared_ptr<LimbPartition>> keep;
    };
    auto payload = std::make_shared<const Payload>();
    {
        auto p = std::const_pointer_cast<Payload>(payload);
        p->body = fn;
        p->keep.reserve(deps.size());
        for (const Dep &d : deps)
            p->keep.push_back(d.poly->partShared());
    }

    // Pass 1 -- plan bookkeeping, untimed: derive every node's wait
    // set. Sound as a separate pass because batches of one call touch
    // disjoint state (the forBatches contract), so in-graph edges only
    // ever point at earlier calls' nodes -- asserted below.
    const u32 firstNode = static_cast<u32>(nodeCursor_);
    waitScratch_.resize(call.numNodes);
    for (u32 k = 0; k < call.numNodes; ++k) {
        const GraphNode &node = graph_->nodes[firstNode + k];
        for (u32 j : node.waits)
            FIDES_ASSERT(j < firstNode);
        waitScratch_[k].clear();
        gatherWaits(lease.remap(node.streamId), node, waitScratch_[k]);
    }

    // Pass 2 -- the queue-facing sweep, timed as dispatch-engine
    // cost: launch accounting, wait enqueue, task submission and
    // event records (the simulated CUDA API surface a live replay
    // pays per node and a batched flush pays once per group).
    DispatchTimer timer;
    for (u32 k = 0; k < call.numNodes; ++k) {
        const u32 idx = static_cast<u32>(nodeCursor_++);
        const GraphNode &node = graph_->nodes[idx];
        // The recorded id is folded onto the replaying thread's lease
        // (same device, slot modulo the lease width): a plan captured
        // by one serving submitter replays on another's streams.
        Stream &st = lease.remap(node.streamId);
        st.device().launchReplayed(node.bytesRead, node.bytesWritten,
                                   node.intOps);
        submitWaits(st, waitScratch_[k]);
        const std::size_t lo = node.lo, hi = node.hi;
        if (check::enabled()) {
            auto rec = check::beginLaunch(
                &st, declaredAccesses(deps, lo, hi));
            st.submit([payload, rec, lo, hi] {
                check::BodyScope scope(rec);
                payload->body(lo, hi);
            });
        } else {
            st.submit([payload, lo, hi] { payload->body(lo, hi); });
        }
        if (node.observed || recorded) {
            Event ev = st.record();
            nodeEvents_[idx] = ev;
            if (recorded)
                recorded->push_back(std::move(ev));
        }
    }
}

void
GraphReplay::beginCustomCall(const RNSPoly &srcPoly,
                             const RNSPoly &dstPoly)
{
    const GraphCall &call = nextCall(/*custom=*/true);
    bindSlot(call.depSlots[0], srcPoly);
    bindSlot(call.depSlots[1], dstPoly);
}

Event
GraphReplay::deferCustomNode(
    u64 bytesRead, u64 bytesWritten, u64 intOps,
    std::function<void(const std::shared_ptr<check::LaunchRecord> &)> run)
{
    FIDES_ASSERT(sink_ != nullptr);
    FIDES_ASSERT(nodeCursor_ < graph_->nodes.size());
    const u32 idx = static_cast<u32>(nodeCursor_++);
    const GraphNode &node = graph_->nodes[idx];
    Stream &st = ctx_->streamLease().remap(node.streamId);
    DeferredProgram::NodeRec &nr = sink_->nodes[idx];
    nr.stream = &st;
    nr.custom = std::move(run);
    KernelCounters &c = sink_->perDevice[st.device().id()];
    c.launches += 1;
    c.bytesRead += bytesRead;
    c.bytesWritten += bytesWritten;
    c.intOps += intOps;
    gatherWaits(st, node, nr.waits);
    // Custom events are unconditionally consumed by the dispatcher's
    // launch list, so always pre-create one (live replay records one
    // unconditionally too).
    Event ev = Event::makeDeferred(st.id());
    sink_->events[idx] = ev;
    nodeEvents_[idx] = ev;
    return ev;
}

Stream *
GraphReplay::customNode(u64 bytesRead, u64 bytesWritten, u64 intOps)
{
    FIDES_ASSERT(sink_ == nullptr); // deferred mode uses deferCustomNode
    FIDES_ASSERT(nodeCursor_ < graph_->nodes.size());
    const GraphNode &node = graph_->nodes[nodeCursor_];
    DeviceSet &devs = ctx_->devices();
    Stream &st = ctx_->streamLease().remap(node.streamId);
    if (devs.numStreams() == 1) {
        st.device().launchReplayed(bytesRead, bytesWritten, intOps);
        ++nodeCursor_;
        return nullptr;
    }
    std::vector<Event> waits;
    gatherWaits(st, node, waits);
    DispatchTimer timer;
    st.device().launchReplayed(bytesRead, bytesWritten, intOps);
    submitWaits(st, waits);
    return &st;
}

void
GraphReplay::noteCustomEvent(const Event &ev)
{
    FIDES_ASSERT(sink_ == nullptr);
    nodeEvents_[nodeCursor_++] = ev;
}

void
GraphReplay::finish()
{
    FIDES_ASSERT(callCursor_ == graph_->calls.size());
    FIDES_ASSERT(nodeCursor_ == graph_->nodes.size());
    FIDES_ASSERT(bound_.size() == graph_->numSlots);
    if (ctx_->devices().numStreams() == 1)
        return; // inline: nothing pending, nothing to note
    // In deferred mode the exit notes carry the pre-created events:
    // downstream live work (the next op in the batch's lockstep walk)
    // chains off them through the ordinary limb tracking, blocking
    // stream-side until the flush signals them.
    for (const GraphExitNote &x : graph_->exits) {
        const LimbPartition &p = *bound_[x.slot];
        FIDES_ASSERT(x.limb < p.size());
        if (x.write)
            p[x.limb].noteWrite(nodeEvents_[x.node]);
        else
            p[x.limb].noteRead(nodeEvents_[x.node]);
    }
    if (sink_) {
        DeviceSet &devs = ctx_->devices();
        for (u32 d = 0; d < devs.numDevices(); ++d)
            if (sink_->perDevice[d].launches)
                devs.device(d).launchReplayedBulk(sink_->perDevice[d]);
        sink_->complete = true;
    }
}

// --- BatchSession -----------------------------------------------------

BatchSession::BatchSession(const Context &ctx) : ctx_(&ctx)
{
    // Single-stream execution is inline (bodies run on the collecting
    // thread as they are walked); there is nothing to defer and the
    // pre-created events would deadlock the inline waits.
    FIDES_ASSERT(ctx.devices().numStreams() > 1);
    FIDES_ASSERT(ctx.batchSession() == nullptr);
    ctx.setBatchSession(this);
}

BatchSession::~BatchSession()
{
    flush();
    ctx_->setBatchSession(nullptr);
}

void
BatchSession::beginInstance(u32)
{
    scopePos_ = 0;
}

void
BatchSession::notePosition(const PlanKey &key, u32 pos)
{
    // The batch former only groups requests whose programs walk an
    // identical plan-key sequence; a divergence here is a grouping
    // bug, not a user error.
    if (posKeys_.size() <= pos) {
        FIDES_ASSERT(posKeys_.size() == pos);
        posKeys_.push_back(key);
        return;
    }
    const PlanKey &k = posKeys_[pos];
    FIDES_ASSERT(!(k < key) && !(key < k));
}

BatchSession::Engage
BatchSession::beginReplay(const KernelGraph &graph, const PlanKey &key)
{
    const u32 pos = scopePos_++;
    notePosition(key, pos);
    if (spinPaid_.size() <= pos)
        spinPaid_.resize(pos + 1, false);
    const bool pay = !spinPaid_[pos];
    spinPaid_[pos] = true;

    auto prog = std::make_shared<DeferredProgram>();
    prog->graph = &graph;
    prog->calls.resize(graph.calls.size());
    prog->nodes.resize(graph.nodes.size());
    prog->events.resize(graph.nodes.size());
    prog->perDevice.resize(ctx_->devices().numDevices());
    Engage out{prog.get(), pay};
    programs_.push_back(std::move(prog));
    return out;
}

void
BatchSession::noteCapture(const PlanKey &key)
{
    notePosition(key, scopePos_++);
    // The capture executes LIVE: its kernels chain off operand events
    // through the ordinary tracking, and the same-stream wait-pruning
    // fast paths are only sound against physically enqueued work --
    // so everything deferred so far must be flushed first. Position
    // bookkeeping survives (the flush is mid-op, not an op boundary):
    // later instances at already-paid positions still skip the spin.
    flushPrograms();
}

void
BatchSession::executeComposite(
    const std::shared_ptr<DeferredProgram> &prog)
{
    // One task per ACTUAL stream: sweeping nodes in index order and
    // bucketing by their collected (remapped) stream gives each
    // stream its steps in capture order -- and handles folded leases
    // for free: when the lease maps two recorded streams onto one
    // actual stream, their steps merge in node-index (= collection)
    // order, which is the order the same-stream wait pruning assumed
    // at collection time. The tasks never touch the KernelGraph (the
    // plan-cache lease is released when the flush returns); the
    // NodeRecs carry everything a step needs.
    std::vector<std::pair<Stream *, std::vector<u32>>> buckets;
    for (u32 idx = 0; idx < prog->nodes.size(); ++idx) {
        DeferredProgram::NodeRec &nr = prog->nodes[idx];
        Stream *st = nr.stream;
        FIDES_ASSERT(st != nullptr);
        if (check::enabled()) {
            // The combined wait + launch protocol of a solo replay,
            // on this thread in node order: report the happens-before
            // edges, allocate the launch's epoch, then snapshot the
            // stream clock into the deferred event (what record()
            // would have taken).
            for (const Event &e : nr.waits)
                check::onStreamWait(st, e);
            nr.rec = check::beginLaunch(st, nr.declared);
            const Event &ev = prog->events[idx];
            if (ev.valid())
                ev.bindDeferredClock(check::makeEventClock(st));
        }
        std::vector<u32> *steps = nullptr;
        for (auto &b : buckets)
            if (b.first == st) {
                steps = &b.second;
                break;
            }
        if (steps == nullptr) {
            buckets.emplace_back(st, std::vector<u32>{});
            steps = &buckets.back().second;
        }
        steps->push_back(idx);
    }
    for (auto &b : buckets) {
        b.first->submit([prog, steps = std::move(b.second)] {
            for (u32 idx : steps) {
                const DeferredProgram::NodeRec &nr = prog->nodes[idx];
                for (const Event &e : nr.waits)
                    e.synchronize();
                if (nr.custom) {
                    nr.custom(nr.rec);
                } else if (nr.rec) {
                    check::BodyScope scope(nr.rec);
                    prog->calls[nr.call].body(nr.lo, nr.hi);
                } else {
                    prog->calls[nr.call].body(nr.lo, nr.hi);
                }
                const Event &ev = prog->events[idx];
                if (ev.valid())
                    ev.signalDeferred();
            }
        });
    }
}

void
BatchSession::flushPrograms()
{
    if (programs_.empty())
        return;
    DispatchTimer timer;
    // Lease aggregation: the collected programs span every grouped
    // instance's lease, so the flushing thread widens its own to the
    // whole set for the duration (restored below -- the batch former
    // reinstalls a per-instance lease at the next position anyway).
    const StreamLease *saved = ctx_->installedThreadLease();
    ctx_->setThreadLease(nullptr);
    for (const auto &prog : programs_) {
        if (prog->complete) {
            executeComposite(prog);
        } else {
            // Unwound mid-collection: the outputs are dead, but the
            // pre-created events escaped into deferred-free guards
            // and recorded out-params -- signal them so nothing
            // (pool reclamation, stream waiters) blocks forever.
            for (const Event &ev : prog->events)
                if (ev.valid())
                    ev.signalDeferred();
        }
        ctx_->plans().release();
    }
    programs_.clear();
    ctx_->setThreadLease(saved);
}

void
BatchSession::flush()
{
    flushPrograms();
    scopePos_ = 0;
    posKeys_.clear();
    spinPaid_.clear();
}

// --- PlanScope --------------------------------------------------------

PlanScope::PlanScope(const Context &ctx, PlanOp op, u32 level,
                     u32 aux)
{
    if (!ctx.graphEnabled() || ctx.captureSession() ||
        ctx.replaySession())
        return;
    ctx_ = &ctx;
    key_ = PlanKey{op, level + 1, ctx.numDigits(level), aux};
    // May block: a concurrent submitter capturing the SAME key holds
    // the capture until it publishes (we then replay) or abandons.
    PlanCache::Lease lease = ctx.plans().acquire(key_);
    if (lease.role == PlanCache::Role::Replay) {
        ctx.devices().notePlanReplay();
        if (BatchSession *bs = ctx.batchSession()) {
            // Multi-instance replay: collect instead of submit, and
            // pay the whole-graph overhead once per scope position
            // per batch -- instances 2..k ride the first one's spin.
            BatchSession::Engage e = bs->beginReplay(*lease.graph, key_);
            if (e.paySpin) {
                DispatchTimer timer;
                spinNs(ctx.devices().device(0).launchOverheadNs());
            }
            replay_ = std::make_unique<GraphReplay>(ctx, *lease.graph,
                                                    e.program);
        } else {
            // cudaGraphLaunch economics: one dispatch overhead for
            // the whole replayed graph instead of one per launch.
            DispatchTimer timer;
            spinNs(ctx.devices().device(0).launchOverheadNs());
            replay_ = std::make_unique<GraphReplay>(ctx, *lease.graph);
        }
        ctx.setReplaySession(replay_.get());
    } else {
        ctx.devices().notePlanCapture();
        if (BatchSession *bs = ctx.batchSession())
            bs->noteCapture(key_);
        capture_ = std::make_unique<GraphCapture>(ctx);
        ctx.setCaptureSession(capture_.get());
    }
}

PlanScope::~PlanScope()
{
    if (!ctx_)
        return;
    if (replay_) {
        ctx_->setReplaySession(nullptr);
        // During exception unwind the op stopped mid-plan: skip the
        // completeness asserts and the exit notes (the op's outputs
        // are dead on the unwind path anyway).
        if (std::uncaught_exceptions() == 0)
            replay_->finish();
        // A deferred replay's lease is released by the flush -- the
        // graph must stay alive until its collected program executes.
        if (!replay_->deferred())
            ctx_->plans().release();
        return;
    }
    ctx_->setCaptureSession(nullptr);
    std::unique_ptr<KernelGraph> graph = capture_->finish();
    if (!graph || std::uncaught_exceptions() > 0) {
        // Same-key waiters re-race; one of them captures next.
        ctx_->plans().abandon(key_);
        return;
    }
    // Reserve the plan's scratch footprint in the device pools so no
    // replay allocation ever reaches the host allocator -- scaled by
    // the arena multiplier so the configured number of concurrent
    // replays all hit the pool (the serving layer's partitioned
    // arenas: submitters never compete for the same reserved blocks).
    reserveScaledScratch(ctx_->devices(), graph->scratch,
                         ctx_->planArenaMultiplier());
    ctx_->plans().publish(key_, std::move(graph));
}

u64
dispatchEngineNs()
{
    return tlDispatchNs;
}

} // namespace fideslib::ckks::kernels
