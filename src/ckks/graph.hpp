/**
 * @file
 * Capture-and-replay execution plans for the CKKS hot ops -- the CUDA
 * Graphs analogue of the simulated substrate (DESIGN.md §1.7,
 * substitution #9).
 *
 * At a fixed (op kind, level, topology, limb batch) the launch
 * topology of HMult/HSquare/Rescale/KeySwitch is identical on every
 * call, yet the live dispatcher re-derives it each time: per batch it
 * walks the operand Dep lists for hazards, picks streams, and the
 * temporaries re-allocate from the MemPool. A PlanScope placed around
 * the op body makes the first call CAPTURE that work into a
 * KernelGraph -- per-batch launch records with a fixed stream
 * assignment, precomputed RAW/WAR/WAW edges, symbolic operand
 * bindings (slot id + limb offset, never a raw Limb pointer) and the
 * scratch footprint -- and every later call REPLAY it: batches are
 * enqueued straight onto their recorded streams, waiting only on the
 * precomputed edges (plus the recorded first-touch external checks
 * against whatever work is still in flight on the freshly bound
 * operands), with the pool's free lists pre-reserved so no replay
 * allocation reaches the host allocator.
 *
 * Replay re-binds operands by position: the op body runs again (it
 * must -- kernel bodies close over this call's polynomials and
 * constants), but kernels::forBatches and the base-conversion
 * dispatcher consult the Context's active session instead of deriving
 * a schedule. Capture and replay therefore submit bit-identical work
 * in an identical order; only the host-side dispatch cost differs.
 *
 * Sessions are thread-local Context state: every serving submitter
 * captures or replays independently over the shared plan cache, which
 * is mutex-guarded with SINGLE-FLIGHT capture -- the first submitter
 * to miss a key captures it while concurrent submitters for the same
 * key block until the plan is published (then replay it); distinct
 * keys capture in parallel (per-thread pool allocation traces keep
 * their footprints separate). Replays fold the recorded stream ids
 * onto the replaying thread's StreamLease, so one plan serves every
 * submitter regardless of which stream subset it leases
 * (DESIGN.md §1.8). Nested scopes are inert: an op captured inside
 * another op's scope simply contributes its kernels to the outer
 * graph. The `FIDES_NO_GRAPH` environment variable (or
 * Context::setGraphEnabled(false)) disables the whole layer; plans
 * are invalidated whenever an execution knob that shapes the schedule
 * changes (limb batch, fusion, NTT schedule, modular-reduction
 * strategy).
 */

#pragma once

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "check/check.hpp"
#include "ckks/kernels.hpp"

namespace fideslib::ckks::kernels
{

/** Hot operations with cacheable launch topologies. */
enum class PlanOp : u32
{
    HMult,       //!< Evaluator::multiply (tensor + relin key switch)
    HSquare,     //!< Evaluator::square
    Rescale,     //!< Evaluator::rescaleInPlace (both components)
    KSDecompose, //!< decomposeAndModUp (digit split + ModUp)
    KSApply,     //!< applyRotation (inner product + ModDown + gather)

    // Composite segment plans: a whole straight-line ladder captured
    // as ONE graph. A segment scope swallows every inner op (their
    // nested PlanScopes stay inert), so a bootstrap replays a handful
    // of giant plans instead of hundreds of per-op ones. Segment keys
    // carry the pipeline's config hash in `aux` -- two Bootstrappers
    // with different slot counts or level budgets at the same level
    // must not share a plan.
    CoeffToSlotSeg, //!< Bootstrapper: the CoeffToSlot stage ladder
    EvalModSeg,     //!< Bootstrapper: conj split + ApproxMod + recombine
    SlotToCoeffSeg, //!< Bootstrapper: the SlotToCoeff stage ladder
    LinTransSeg,    //!< applyEncoded: one BSGS diag-matrix product
    ChebSeg,        //!< evalChebyshevSeries: the whole PS evaluation
};

/** True for the composite-segment plan kinds (gated by
 *  Context::segmentPlansEnabled / FIDES_NO_SEGMENT_PLANS). */
inline bool
isSegmentOp(PlanOp op)
{
    return op >= PlanOp::CoeffToSlotSeg;
}

/**
 * FNV-1a accumulator for segment aux tags: segment plans are keyed on
 * everything their call SEQUENCE depends on beyond (op, level) --
 * slot counts, level budgets, BSGS structure, Chebyshev coefficient
 * zero patterns -- folded into PlanKey::aux. Values that only change
 * kernel BODIES (plaintext contents, scalar constants) must stay out:
 * bodies are rebuilt live on every replay.
 */
constexpr u32 kPlanAuxSeed = 2166136261u;
inline u32
planAuxMix(u32 h, u64 v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= static_cast<u32>(v & 0xffu);
        h *= 16777619u;
        v >>= 8;
    }
    return h;
}

/**
 * Plan identity: everything the schedule shape depends on besides the
 * Context itself (topology and dnum are fixed per context; the
 * mutable execution knobs invalidate the cache instead of widening
 * the key).
 */
struct PlanKey
{
    PlanOp op;
    u32 limbs;   //!< q-limb count (level + 1) of the operand
    u32 digits;  //!< key-switch digits active at that level
    u32 aux = 0; //!< operand-aliasing tag (HMult: a and b are the
                 //!< same object). Aliased operands share slots, so
                 //!< an aliased capture does not describe a
                 //!< distinct-operand call -- it gets its own plan.

    bool
    operator<(const PlanKey &o) const
    {
        if (op != o.op)
            return op < o.op;
        if (limbs != o.limbs)
            return limbs < o.limbs;
        if (digits != o.digits)
            return digits < o.digits;
        return aux < o.aux;
    }
};

/** Per-key observability record (Context::planStats). */
struct PlanKeyStats
{
    PlanKey key;
    u64 hits = 0;   //!< replays served from the cached plan
    u64 misses = 0; //!< capture attempts (first call + re-captures)
};

/** Cache-wide observability snapshot (Context::planStats). */
struct PlanCacheStats
{
    std::vector<PlanKeyStats> keys;
    u64 hits = 0;          //!< summed over keys
    u64 misses = 0;        //!< summed over keys
    u64 reservedBytes = 0; //!< pinned arena footprint, all pools

    // Segmentation: the same totals split composite-segment vs per-op
    // (isSegmentOp on each key), so benches can report how much of the
    // replay traffic the segment layer absorbs without re-deriving it
    // from the key list.
    std::size_t segmentKeys = 0; //!< stored keys with a segment op
    u64 segmentHits = 0;
    u64 segmentMisses = 0;
};

/**
 * Per-Context store of captured plans. Thread-safe with single-flight
 * capture: acquire() hands the first caller of a missing key the
 * Capture role and blocks concurrent callers of the SAME key until
 * the capture is published (they then replay) or abandoned (one of
 * them becomes the next capturer); distinct keys proceed in parallel.
 */
class PlanCache
{
  public:
    enum class Role { Replay, Capture };
    struct Lease
    {
        Role role;
        const KernelGraph *graph; //!< non-null iff role == Replay
    };

    /**
     * Resolves @p key to a role, blocking while another thread holds
     * the same key's capture. Every acquire must be matched by
     * exactly one release() (Replay role) or publish()/abandon()
     * (Capture role).
     *
     * The replay steady state -- every serving submitter resolving
     * the same warm keys per request -- takes only a SHARED lock (a
     * lookup plus an atomic hit count), so same-key replays from N
     * submitters never serialize on the cache; the exclusive lock is
     * reserved for the mutating paths (first-miss insertion, publish,
     * abandon, clear).
     */
    Lease acquire(const PlanKey &key);
    /** Stores a freshly captured plan and wakes same-key waiters. */
    void publish(const PlanKey &key, std::unique_ptr<KernelGraph> graph);
    /** Gives up a capture (invalidated or unwound); same-key waiters
     *  re-race, one of them capturing next. */
    void abandon(const PlanKey &key);
    /** Ends a Replay lease (the graph pointer must not outlive it). */
    void release();

    /** Drops every stored plan. Must not be called while any lease is
     *  outstanding -- a plan must never die under a replay. */
    void clear();
    std::size_t size() const;
    PlanCacheStats stats() const;

    /**
     * Tops up the device pools' arena reservations so every ALREADY
     * stored plan has @p multiplier x its scratch footprint pinned
     * (reserve() takes per-class maxima, so this only grows pins).
     * Called when a Server raises the arena multiplier after plans
     * were captured at a smaller one (warmup, sequential runs).
     */
    void reserveScratch(DeviceSet &devs, u32 multiplier) const;

  private:
    struct Entry
    {
        std::unique_ptr<KernelGraph> graph;
        bool capturing = false;
        //! Atomic so shared-lock replay lookups can count hits
        //! without upgrading to the exclusive lock.
        std::atomic<u64> hits{0};
        std::atomic<u64> misses{0};
    };

    mutable std::shared_mutex m_;
    std::condition_variable_any published_;
    std::map<PlanKey, Entry> plans_;
    std::atomic<u32> activeLeases_{0};
};

/**
 * One instance's fully resolved slice of a multi-instance replay
 * (BatchSession): everything a flush needs to execute a captured plan
 * WITHOUT the collecting thread -- remapped streams, rebuilt kernel
 * bodies, precomputed wait events, pre-created (deferred) completion
 * events and the accumulated launch counters. A deferred GraphReplay
 * fills one of these per replayed scope instead of submitting; the
 * batch former flushes the collected programs as either one composite
 * task per stream (the PlanExec linear sweep) or one task per node
 * (the validator-instrumented fallback).
 *
 * Everything stream tasks touch after the flush lives HERE (nodes,
 * calls, events), never in the KernelGraph: the plan-cache lease is
 * released when the flush returns, so the graph may only be
 * dereferenced by the flushing host thread.
 */
struct DeferredProgram
{
    /** One forBatches call's rebuilt body plus the operand
     *  partitions it must keep alive (mirrors the live dispatcher's
     *  lifetime contract). Empty body for custom (Conv) calls, whose
     *  nodes carry their own closures. */
    struct CallRec
    {
        std::function<void(std::size_t, std::size_t)> body;
        std::vector<std::shared_ptr<LimbPartition>> keep;
    };

    /** One launch, resolved at collection time against the instance's
     *  lease and operand bindings. */
    struct NodeRec
    {
        Stream *stream = nullptr; //!< remapped at collection
        u32 call = 0;             //!< owning CallRec / GraphCall index
        std::size_t lo = 0;       //!< limb batch range (forBatches)
        std::size_t hi = 0;
        /** Events this node synchronizes before its body: the
         *  precomputed in-graph edges (deferred events of earlier
         *  nodes) plus the external first-touch checks, pruned like a
         *  solo replay (ready / same remapped stream / duplicate). */
        std::vector<Event> waits;
        /** Custom (Conv) body: invoked with the flush's launch record
         *  (null when validation is off). Null for forBatches nodes. */
        std::function<void(const std::shared_ptr<check::LaunchRecord> &)>
            custom;
        /** Declared access set, resolved at collection (validation
         *  runs only; empty otherwise). */
        std::vector<check::DeclaredAccess> declared;
    };

    const KernelGraph *graph = nullptr; //!< host-side flush use only
    std::vector<CallRec> calls;         //!< indexed like graph->calls
    std::vector<NodeRec> nodes;         //!< indexed like graph->nodes
    /** Pre-created completion event per node (invalid when the node
     *  is unobserved); signalled by the flushed stream task that
     *  retires the node. */
    std::vector<Event> events;
    /** Launch counters accumulated at collection, flushed in one
     *  Device::launchReplayedBulk per device. */
    std::vector<KernelCounters> perDevice;
    /** Set by GraphReplay::finish(): the scope closed normally. An
     *  incomplete program (exception unwind) is discarded at flush --
     *  its events are signalled so nothing waits forever, but no body
     *  runs. */
    bool complete = false;
};

/** The validator's view of one batch's Dep list: the limb buffers
 *  batch [lo, hi) resolves to (depLimbRange). Live launches and
 *  replays are held to the same declared set. */
std::vector<check::DeclaredAccess>
declaredAccesses(const std::vector<Dep> &deps, std::size_t lo,
                 std::size_t hi);

/**
 * Records the launch topology of one op while it executes live.
 * forBatches (and the base-conversion dispatcher) feed it one call /
 * node at a time; edges and external checks are derived structurally
 * from the Dep lists -- never from observed event readiness, which is
 * timing-dependent -- so a replay enforces exactly the orderings live
 * execution would.
 */
class GraphCapture
{
  public:
    explicit GraphCapture(const Context &ctx);

    // forBatches hooks. -----------------------------------------------
    /** Starts a logical-kernel call and maps its deps to slots. */
    void beginCall(std::size_t numLimbs, const std::vector<Dep> &deps);
    /** Records one batch launch of the current call. @p ev is the
     *  batch's completion event (null in inline execution). */
    void recordNode(u32 streamId, std::size_t lo, std::size_t hi,
                    u64 bytesRead, u64 bytesWritten, u64 intOps,
                    const std::vector<Dep> &deps,
                    const std::vector<Event> &extraWaits,
                    const Event &ev);

    // Base-conversion hooks (per-device custom launches). -------------
    /** @p dstPoly may be null: targets in host scratch are untracked
     *  (consumers chain through the returned events -> edges). */
    void beginCustomCall(const RNSPoly *srcPoly, const RNSPoly *dstPoly);
    /** One per-device Conv launch reading @p srcPos of the source and
     *  writing @p dstPos of the destination (empty for scratch). */
    void recordCustomNode(u32 streamId, u64 bytesRead, u64 bytesWritten,
                          u64 intOps, const std::vector<u32> &srcPos,
                          const std::vector<u32> &dstPos,
                          const Event &ev);

    /** Marks the capture unusable (an event the plan cannot represent
     *  symbolically was seen); finish() will return null and the op
     *  simply stays uncached. */
    void invalidate() { valid_ = false; }

    /** Finalizes: computes the exit notes and the per-device scratch
     *  histograms. Returns null if the capture was invalidated. */
    std::unique_ptr<KernelGraph> finish();

  private:
    /** Per-(slot, limb) tracking state, mirroring Limb::noteWrite /
     *  noteRead with node ids instead of events. */
    struct LimbState
    {
        u32 writer = GraphNode::kNone;
        //! (streamId, node): latest in-flight reader per stream.
        std::vector<std::pair<u32, u32>> readers;
    };
    struct Slot
    {
        //! Pins the partition so pointer identity cannot be recycled
        //! by a mid-capture free + re-allocation.
        std::shared_ptr<const LimbPartition> pin;
        std::vector<LimbState> limbs;
    };

    u32 slotOf(const RNSPoly &poly);
    LimbState &state(u32 slot, std::size_t limb);
    /** Hazard pass: edges vs the pre-node state, plus first-touch
     *  external checks. */
    void hazards(GraphNode &node, u32 slot, std::size_t lo,
                 std::size_t hi, bool write);
    /** Commit pass: updates the tracking state with this node. */
    void commit(u32 nodeIdx, u32 streamId, u32 slot, std::size_t lo,
                std::size_t hi, bool write);
    void addEdge(GraphNode &node, u32 from);
    void finishNode(GraphNode &&node, const Event &ev);

    const Context *ctx_;
    std::unique_ptr<KernelGraph> graph_;
    std::vector<Slot> slots_;
    //! Partition identity -> slot index. Composite segments bind
    //! hundreds of operands; the linear scan this replaces made
    //! every beginCall O(slots).
    std::unordered_map<const LimbPartition *, u32> slotIndex_;
    //! Event identity -> producer node, for extraWaits resolution
    //! (same O(nodes)-scan concern at segment scale).
    std::unordered_map<const void *, u32> eventNodes_;
    bool valid_ = true;
};

/**
 * Walks a captured plan: for each node, the recorded stream gets the
 * precomputed edge waits (plus live checks on the first-touch limbs
 * of the freshly bound operands), the launch is accounted without the
 * per-kernel dispatch overhead, and the body -- rebuilt by the live op
 * code against this call's polynomials -- is submitted. finish()
 * notes the exit events back onto the bound polynomials so downstream
 * un-graphed work chains correctly.
 */
class GraphReplay
{
  public:
    GraphReplay(const Context &ctx, const KernelGraph &graph);

    /**
     * Deferred (multi-instance) mode: instead of submitting, every
     * hook resolves its streams, waits and counters into @p sink for
     * a later BatchSession flush. Completion events are pre-created
     * (Event::makeDeferred) so exit notes and recorded out-params
     * behave exactly as in a live replay -- consumers simply block
     * until the flushed stream task signals them.
     */
    GraphReplay(const Context &ctx, const KernelGraph &graph,
                DeferredProgram *sink);

    /** True in deferred-collection mode (BatchSession installed). */
    bool deferred() const { return sink_ != nullptr; }

    /** forBatches hook: replays every recorded batch of the next
     *  call, billing each launch the counters recorded at capture.
     *  @p recorded mirrors the live out-parameter. */
    void replayCall(std::size_t numLimbs,
                    const std::function<void(std::size_t, std::size_t)> &fn,
                    const std::vector<Dep> &deps,
                    std::vector<Event> *recorded);

    // Base-conversion hooks. ------------------------------------------
    void beginCustomCall(const RNSPoly *srcPoly, const RNSPoly *dstPoly);
    /** Accounts the next custom node and enqueues its waits. Returns
     *  the recorded stream, or null when execution is inline (single
     *  stream): the caller then runs the body itself. */
    Stream *customNode(u64 bytesRead, u64 bytesWritten, u64 intOps);
    /** The completion event of the custom node just issued. */
    void noteCustomEvent(const Event &ev);

    /**
     * Deferred-mode custom node (base conversion): collects @p run --
     * the Conv body, taking the flush-time launch record -- into the
     * sink and returns the node's pre-created completion event (what
     * a live replay's Stream::record would have produced).
     */
    Event deferCustomNode(
        u64 bytesRead, u64 bytesWritten, u64 intOps,
        std::function<void(const std::shared_ptr<check::LaunchRecord> &)>
            run);

    /** Applies the exit notes and asserts the whole plan was
     *  consumed (a partial replay is a library bug). In deferred mode
     *  also flushes the accumulated counters and marks the sink
     *  complete. */
    void finish();

  private:
    void bindSlot(u32 slot, const RNSPoly &poly);
    /** The pruned wait set of @p node against @p st (shared by the
     *  live enqueue path and deferred collection). */
    void gatherWaits(const Stream &st, const GraphNode &node,
                     std::vector<Event> &out) const;
    /** Enqueues a pre-gathered wait set onto @p st (one Stream::wait,
     *  or one combined waiter task); may move from @p waits. */
    void submitWaits(Stream &st, std::vector<Event> &waits);
    const GraphCall &nextCall(bool custom);

    const Context *ctx_;
    const KernelGraph *graph_;
    DeferredProgram *sink_ = nullptr;
    std::vector<std::shared_ptr<LimbPartition>> bound_;
    std::vector<Event> nodeEvents_;
    //! Per-node wait sets of the current call (live replay's untimed
    //! gather pass); reused across calls to keep allocation churn out
    //! of the replay loop.
    std::vector<std::vector<Event>> waitScratch_;
    std::size_t callCursor_ = 0;
    std::size_t nodeCursor_ = 0;
};

/**
 * Cross-request continuous batching: drives k independent operand
 * sets (k requests' ciphertexts) through shared captured plans with
 * ONE host-side walk per plan per batch (DESIGN.md §1.13).
 *
 * The batch former (serve::Server) installs a session on its leader
 * thread, then runs the grouped requests' programs in op-lockstep:
 * for each op position, every instance's op body executes under that
 * instance's StreamLease with the session installed -- PlanScope
 * replays then COLLECT into DeferredPrograms instead of submitting,
 * and the whole-graph launch overhead is paid once per scope position
 * instead of once per instance -- followed by one flush() that
 * submits everything. Ops without a plan (Add, host glue) run live,
 * which is why the flush must sit on every op boundary: live work
 * chains off the deferred events through the ordinary limb tracking,
 * and the same-stream wait-pruning fast paths are only sound once the
 * deferred tasks are physically enqueued.
 *
 * Flushing executes each program either as the composite PlanExec
 * sweep -- one task per stream that runs waits/body/signal for every
 * step in capture order; O(streams) queue operations per instance --
 * or, when the validator is on or the instance's lease folds recorded
 * streams together, as the per-node classic walk (bit-identical, just
 * more queue traffic). Submission spans every collected instance's
 * lease; the flushing thread temporarily widens its own lease to the
 * whole set (the aggregation the serving layer's batch former is
 * licensed to do).
 *
 * Capture misses stay live: a scope that draws the Capture role first
 * flushes the pending programs (so its live kernels chain off
 * physically enqueued work), captures as usual, and later instances
 * of the same position replay-collect against the published plan.
 */
class BatchSession
{
  public:
    /** Installs the session as @p ctx's calling-thread batch sink.
     *  Requires a multi-stream topology (single-stream execution is
     *  inline and has nothing to defer). */
    explicit BatchSession(const Context &ctx);
    /** Flushes anything still pending and uninstalls. */
    ~BatchSession();

    BatchSession(const BatchSession &) = delete;
    BatchSession &operator=(const BatchSession &) = delete;

    /** Marks the start of instance @p instance's slice of the current
     *  op position (resets the per-instance scope counter). */
    void beginInstance(u32 instance);

    /**
     * Executes every collected program in collection order and
     * releases their plan-cache leases. On return the calling
     * thread's lease is restored; all deferred events are enqueued
     * (signalled once their stream tasks retire). Must be called at
     * every op-position boundary before any instance's NEXT op runs.
     */
    void flush();

    // PlanScope hooks. ------------------------------------------------
    struct Engage
    {
        DeferredProgram *program;
        bool paySpin; //!< first replay at this scope position: pay
                      //!< the whole-graph launch overhead (once per
                      //!< position per batch, not per instance)
    };
    /** Starts deferred collection of one replayed scope. */
    Engage beginReplay(const KernelGraph &graph, const PlanKey &key);
    /** A scope at the current position drew the Capture role: flush
     *  pending programs so the live capture chains correctly. */
    void noteCapture(const PlanKey &key);

    // Observability (Server metrics). ---------------------------------
    u64 flushedPrograms() const { return flushedPrograms_; }
    /** Programs flushed via the composite per-stream sweep (the rest
     *  took the per-node classic walk). */
    u64 compositeFlushes() const { return compositeFlushes_; }

  private:
    void notePosition(const PlanKey &key, u32 pos);
    void flushPrograms();
    void executeComposite(const std::shared_ptr<DeferredProgram> &prog);
    void executeClassic(const std::shared_ptr<DeferredProgram> &prog);

    const Context *ctx_;
    std::vector<std::shared_ptr<DeferredProgram>> programs_;
    //! Structural lockstep check: instance i's scope sequence must
    //! key-match instance 0's (the batch former's compatibility rule).
    std::vector<PlanKey> posKeys_;
    std::vector<bool> spinPaid_;
    u32 scopePos_ = 0;
    u64 flushedPrograms_ = 0;
    u64 compositeFlushes_ = 0;
};

/**
 * RAII plan-cache routing for one hot op: the constructor either
 * activates a replay session (cache hit -- pays the single
 * whole-graph launch overhead), activates a capture session (miss;
 * may block until a concurrent same-key capture resolves), or does
 * nothing (graphs disabled, or a session is already active on this
 * thread: nested ops contribute to the enclosing graph). The
 * destructor closes the session, storing a freshly captured plan and
 * reserving its scratch footprint -- scaled by the context's
 * plan-arena multiplier so N concurrent replays are all served from
 * pool hits -- in the device pools.
 *
 * Composite segment scopes (isSegmentOp kinds) additionally require
 * Context::segmentPlansEnabled(): with segments disabled
 * (FIDES_NO_SEGMENT_PLANS) a segment scope is inert and the inner
 * per-op scopes engage exactly as before -- the bit-identical
 * fallback path. With segments enabled the outermost segment scope
 * captures every inner op into one graph; the inner per-op scopes
 * see an active session and stay inert, so one bootstrap replays a
 * handful of composite plans instead of hundreds of per-op ones.
 */
class PlanScope
{
  public:
    /** @p aux distinguishes shapes the (op, level) pair cannot --
     *  currently only operand aliasing (PlanKey::aux). */
    PlanScope(const Context &ctx, PlanOp op, u32 level, u32 aux = 0);
    ~PlanScope();

    PlanScope(const PlanScope &) = delete;
    PlanScope &operator=(const PlanScope &) = delete;

    bool capturing() const { return capture_ != nullptr; }
    bool replaying() const { return replay_ != nullptr; }

  private:
    const Context *ctx_ = nullptr;
    PlanKey key_{};
    std::unique_ptr<GraphCapture> capture_;
    std::unique_ptr<GraphReplay> replay_;
};

/**
 * Dispatch-engine accounting: cumulative thread CPU the CALLING
 * thread has spent on the simulated device-API surface of plan
 * replay -- the whole-graph launch-overhead spin (the cudaGraphLaunch
 * analog), a solo replay's per-node queue traffic (wait enqueue, task
 * submission, event records, launch accounting: the per-node
 * cudaStreamWaitEvent / cudaLaunchKernel / cudaEventRecord analogs),
 * and a batched flush's per-stream bulk submission. Monotone
 * per-thread counter; callers take deltas around a region (the
 * serving layer's host-dispatch-per-op metric).
 *
 * Graph-walk bookkeeping -- operand binding, wait derivation, body
 * construction, deferred collection -- is deliberately OUTSIDE the
 * counter on BOTH paths: it runs once per instance in solo and
 * batched execution alike, so including it would only dilute the
 * structural difference. What the counter isolates is exactly what
 * cross-request coalescing changes: a solo op pays O(nodes) queue
 * operations every request, a coalesced group pays the spin plus
 * O(streams) flush submissions once for the WHOLE group.
 */
u64 dispatchEngineNs();

} // namespace fideslib::ckks::kernels
