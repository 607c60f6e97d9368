/**
 * @file
 * Discrete-event simulation kernel.
 *
 * One queue of intrusive events in strict (tick, key) order, where the
 * key packs priority above insertion order. It has two parts:
 *
 *  - a 4-ary min-heap holding everything scheduled from outside run(),
 *    plus whatever the run-next buffer spills;
 *  - a 16-seat sorted run-next buffer in front of it. Events scheduled
 *    by a running handler park there: they are the next hops of
 *    in-flight transactions and overwhelmingly the next events to run.
 *
 * On the Figure-7 configs 90-97% of executed events never touch the
 * heap: the buffer or a fused hop chain serves them (compare
 * calendar_ops_per_miss with events per miss in BENCH_hotpath.json).
 * That is why the heap needs no faster structure in front of it
 * (docs/parallel_kernel.md).
 *
 * Events are intrusive (sim/event.hh): the heap slot index lives
 * inside the Event, events are recycled through slab pools, and the
 * whole schedule/execute path performs zero heap allocations. Ties are
 * broken first by an explicit priority, then by insertion order, so
 * execution is fully deterministic.
 */

#ifndef DSP_SIM_EVENT_QUEUE_HH
#define DSP_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <type_traits>
#include <vector>

#include "sim/event.hh"
#include "sim/types.hh"

namespace dsp {

/** Scheduling priority; lower values run first at equal ticks.
 *  Values must fit in a byte (the queue packs them above the 56-bit
 *  insertion sequence to form one 64-bit tiebreak key). */
enum class EventPriority : int {
    NetworkOrder = 0,   ///< interconnect ordering-point events
    Delivery = 10,      ///< message deliveries
    Controller = 20,    ///< cache/memory controller work
    Cpu = 30,           ///< processor model ticks
    Stats = 40,         ///< bookkeeping
    Default = 50,
};

/**
 * Deterministic discrete-event queue.
 *
 * Not thread safe. Under the sharded kernel each shard owns one queue
 * and only that shard's thread touches it; events for other shards
 * travel through mailboxes (sim/sharded_kernel.hh).
 */
class EventQueue
{
  public:
    EventQueue() = default;
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Schedule an intrusive event at absolute tick `when` (>= now). */
    void schedule(Event &ev, Tick when,
                  EventPriority prio = EventPriority::Default);

    /** Schedule an intrusive event `delay` ticks from now. */
    void
    scheduleIn(Event &ev, Tick delay,
               EventPriority prio = EventPriority::Default)
    {
        schedule(ev, now_ + delay, prio);
    }

    /**
     * Schedule a callable at absolute tick `when` (>= now). The
     * callable is moved into a pooled CallbackEvent; its captures live
     * in the slab slot, so no heap allocation occurs.
     */
    template <typename F,
              typename = std::enable_if_t<std::is_invocable_v<F &>>>
    void
    schedule(Tick when, F cb,
             EventPriority prio = EventPriority::Default)
    {
        assertSchedulable(when);
        schedule(*CallbackEvent<F>::make(std::move(cb)), when, prio);
    }

    /** Schedule a callable `delay` ticks from now. */
    template <typename F,
              typename = std::enable_if_t<std::is_invocable_v<F &>>>
    void
    scheduleIn(Tick delay, F cb,
               EventPriority prio = EventPriority::Default)
    {
        schedule(now_ + delay, std::move(cb), prio);
    }

    /**
     * Schedule an intrusive event with a caller-supplied tiebreak key.
     * The queue only requires that keys at equal ticks are unique and
     * that the priority occupies the top byte; the sharded kernel
     * packs (priority << 56 | 10-bit domain << 46 | 46-bit per-domain
     * seq), while this queue's own schedule() packs (priority << 56 |
     * 56-bit per-queue seq) -- the spaces stay disjoint because
     * kernel domain ids are nonzero and a queue-local sequence
     * cannot reach bit 46 in any realistic run (2^46 events on one
     * queue). The key is assigned by the *sending* domain and carried
     * across shard boundaries, so the resulting total order is
     * independent of which shard the event is inserted from -- the
     * foundation of the K-shard == 1-shard determinism contract.
     */
    void scheduleWithKey(Event &ev, Tick when, std::uint64_t key);

    /**
     * Cancel a scheduled event: remove it from the queue and release()
     * it (pooled events are recycled immediately; member events become
     * reschedulable).
     */
    void deschedule(Event &ev);

    /**
     * Allocate the tiebreak key the next schedule() at this priority
     * would assign, consuming the same sequence counter. Chain fusion
     * pre-assigns hop keys with this so a fused run's key stream is
     * bit-identical to the unfused one; pair with scheduleWithKey().
     */
    std::uint64_t allocKey(EventPriority prio) { return allocKeys(prio, 1); }

    /**
     * Allocate `n` (>= 1) consecutive keys at once and return the
     * first: exactly the keys `n` allocKey() calls would return, as
     * one contiguous range (key i is the first plus i).
     */
    std::uint64_t allocKeys(EventPriority prio, std::uint64_t n);

    /**
     * Inline-advance to a fused chain hop at (when, key): legal only
     * when nothing pending orders before it and `when` lies inside the
     * current run() limit (a fused hop must never leak past a window
     * boundary the scheduler planned around). On success the clock
     * moves to `when`, the hop counts as an executed event, and the
     * hop's domain is published to the domain sink exactly as a real
     * pop would; the caller then runs the hop's work inline. On
     * refusal nothing changes -- the caller re-inserts itself with
     * scheduleWithKey() and the queue serves the hop normally.
     */
    bool chainAdvance(Tick when, std::uint64_t key,
                      std::uint16_t domain);

    /** True when an event at `when` would still execute inside the
     *  run() in progress, before the window boundary the scheduler
     *  planned around (always true outside run()). */
    bool withinRun(Tick when) const { return when <= runLimit_; }

    /** Heap work over the queue's lifetime: heap inserts plus heap
     *  pops, i.e. every event the run-next buffer did not serve
     *  (counted once on the way in and once on the way out). Fused
     *  chain hops and buffer-served events cost neither, so this is
     *  the counter chain fusion and the buffer exist to shrink.
     *  Benches report it as calendar_ops_per_miss. */
    std::uint64_t calendarOps() const { return inserts_ + pops_; }

    /** Restore the lifetime heap-op counter from a checkpoint. */
    void
    ckptSetCalendarOps(std::uint64_t n)
    {
        inserts_ = n;
        pops_ = 0;
    }

    /** True if no events remain. */
    bool
    empty() const
    {
        return heap_.empty() && runNextLive_ == 0;
    }

    /** Tick of the earliest pending event (maxTick when empty). */
    Tick
    earliestTick() const
    {
        return empty() ? maxTick : peekEarliest()->when_;
    }

    /**
     * Ticks of the two earliest pending events, as a multiset (two
     * events at one tick report it twice); maxTick fills absent
     * slots. The sharded kernel merges these across shards to decide
     * whether a quiet stretch can be batched into one wide window.
     */
    void earliestTwo(Tick &first, Tick &second) const;

    /**
     * Advance the clock to `t` without executing anything; all
     * pending events must lie strictly after `t`. Equivalent to the
     * trailing clock advance of run(t), for shards that provably had
     * nothing to run in a window (batched windows skip their run()).
     */
    void advanceTo(Tick t);

    /**
     * Route the domain id of every executed event into `sink`
     * (before its process() runs). The sharded kernel points this at
     * the shard's current-domain latch so schedules made *during* an
     * event execution are keyed by the executing domain.
     */
    void
    setDomainSink(std::uint16_t *sink)
    {
        domainSink_ = sink != nullptr ? sink : &dummyDomain_;
    }

    /** Number of pending events. */
    std::size_t
    pending() const
    {
        return heap_.size() + runNextLive_;
    }

    /** Execute the single earliest event, advancing time. */
    void step();

    /**
     * Run until the queue drains or `limit` ticks is reached (events at
     * tick > limit remain queued). Returns number of events executed.
     */
    std::uint64_t run(Tick limit = maxTick);

    /** Total events executed over the queue's lifetime. */
    std::uint64_t executed() const { return executed_; }

    /** Restore the lifetime executed counter from a checkpoint. */
    void ckptSetExecuted(std::uint64_t n) { executed_ = n; }

    /**
     * Visit every pending event (heap and buffer, no particular order)
     * with its scheduling coordinates: fn(ev, when, key, domain).
     * Checkpointing uses this to enumerate in-flight events at a
     * quiescent barrier; callers sort by (when, key) themselves to
     * get the shard-count-independent canonical order.
     */
    template <typename Fn>
    void
    forEachPending(Fn &&fn) const
    {
        for (const HeapEntry &entry : heap_)
            fn(*entry.ev, entry.when, entry.key, entry.ev->domain_);
        for (std::size_t i = 0; i < runNextLive_; ++i) {
            Event *ev = runNext_[i];
            fn(*ev, ev->when_, ev->key_, ev->domain_);
        }
    }

  private:
    /**
     * One heap slot: the full ordering key plus the event.
     * Priority (one byte) is packed above a 56-bit insertion sequence,
     * so the (tick, priority, sequence) contract is two integer
     * compares.
     */
    struct HeapEntry {
        Tick when;
        std::uint64_t key;
        Event *ev;
    };

    /** 4-ary heap: half the depth of a binary heap, and the four
     *  children of a node share one or two cache lines. */
    static constexpr std::size_t heapArity = 4;

    static bool
    earlier(const HeapEntry &a, const HeapEntry &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.key < b.key;
    }

    void assertSchedulable(Tick when) const;

    /**
     * Enqueue a prepared event (when_/key_/scheduled_ set). An event
     * scheduled from inside run() parks in the small sorted run-next
     * buffer instead of entering the heap: the hops the in-flight
     * transactions schedule next are overwhelmingly the next things
     * to run, and consuming one from the buffer skips the heap insert
     * and pop entirely (the sequential half of chain fusion -- the
     * request->order->deliver->supply ladder -- without touching any
     * call site). The buffer competes with the heap on exact
     * (when, key) order everywhere the queue compares events, so
     * execution order is bit-identical to a heap alone; when it
     * fills, the latest-ordering parked event spills to the heap.
     * Parked events survive run() boundaries -- every observer
     * (pending counts, earliest queries, checkpoints via
     * forEachPending, deschedule) sees the buffer as well as the
     * heap. Only the heap-op counter notices: buffer-served events
     * cost no insert and no pop, which is the point.
     */
    void enqueuePrepared(Event &ev);

    /** Earliest pending event, heap root or buffer front; no side
     *  effects. The queue must be non-empty. */
    Event *peekEarliest() const;

    /** Detach and run one event (the current minimum, from the heap
     *  or the buffer). */
    void execute(Event *ev);

    /** Insert a prepared event into the heap, counting the insert. */
    void heapPush(Event &ev);
    void siftUp(std::size_t i);
    void siftDown(std::size_t i);

    /** Detach the event at heap slot `i`, restoring the heap. */
    Event *heapRemoveAt(std::size_t i);

    void
    place(std::size_t i, const HeapEntry &entry)
    {
        heap_[i] = entry;
        entry.ev->heapIndex_ = i;
    }

    std::vector<HeapEntry> heap_;

    /** Capacity of the run-next buffer: enough seats for every
     *  in-flight transaction's next hop at the contention levels the
     *  workloads produce, small enough that the sorted insert is a
     *  few pointer moves within two cache lines. */
    static constexpr std::size_t runNextCap = 16;

    /** Run-next buffer: events parked outside the heap, sorted
     *  ascending by (when, key) so runNext_[0] is its minimum (see
     *  enqueuePrepared). */
    Event *runNext_[runNextCap] = {};
    std::size_t runNextLive_ = 0;

    /** True while run() is executing events (parking is legal). */
    bool running_ = false;

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t inserts_ = 0;
    std::uint64_t pops_ = 0;

    /** Inclusive upper tick of the run() in progress (maxTick outside
     *  run()); chainAdvance() refuses hops beyond it so fusion cannot
     *  cross a window boundary. */
    Tick runLimit_ = maxTick;

    /** Where execute() publishes the running event's domain id.
     *  Defaults to an internal dummy so the store is unconditional. */
    std::uint16_t dummyDomain_ = 0;
    std::uint16_t *domainSink_ = &dummyDomain_;
};

} // namespace dsp

#endif // DSP_SIM_EVENT_QUEUE_HH
