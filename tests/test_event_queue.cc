/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <tuple>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace dsp {
namespace {

TEST(EventQueue, StartsAtTickZeroAndEmpty)
{
    EventQueue q;
    EXPECT_EQ(q.now(), 0u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_EQ(q.executed(), 0u);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&]() { order.push_back(3); });
    q.schedule(10, [&]() { order.push_back(1); });
    q.schedule(20, [&]() { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, TiesBreakByPriorityThenInsertion)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&]() { order.push_back(2); },
               EventPriority::Controller);
    q.schedule(5, [&]() { order.push_back(1); },
               EventPriority::NetworkOrder);
    q.schedule(5, [&]() { order.push_back(3); },
               EventPriority::Controller);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, ScheduleInIsRelative)
{
    EventQueue q;
    Tick seen = 0;
    q.schedule(100, [&q, &seen]() {
        q.scheduleIn(50, [&q, &seen]() { seen = q.now(); });
    });
    q.run();
    EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue q;
    int count = 0;
    std::function<void()> chain = [&]() {
        if (++count < 5)
            q.scheduleIn(10, chain);
    };
    q.scheduleIn(10, chain);
    q.run();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(q.now(), 50u);
}

TEST(EventQueue, RunWithLimitStopsAndAdvancesClock)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&]() { ++fired; });
    q.schedule(100, [&]() { ++fired; });
    std::uint64_t n = q.run(50);
    EXPECT_EQ(n, 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.now(), 50u);
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue q;
    q.schedule(100, []() {});
    q.run();
    PanicGuard guard;
    EXPECT_THROW(q.schedule(50, []() {}), std::runtime_error);
}

TEST(EventQueue, StepOnEmptyPanics)
{
    EventQueue q;
    PanicGuard guard;
    EXPECT_THROW(q.step(), std::runtime_error);
}

TEST(EventQueue, SameTickSchedulingAllowed)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&]() {
        q.schedule(10, [&]() { ++fired; });  // same tick, runs after
    });
    q.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.now(), 10u);
}

TEST(EventQueue, ExecutedCounterAccumulates)
{
    EventQueue q;
    for (int i = 0; i < 10; ++i)
        q.schedule(static_cast<Tick>(i), []() {});
    q.run();
    EXPECT_EQ(q.executed(), 10u);
}

TEST(EventQueue, DeterministicAcrossIdenticalRuns)
{
    auto run_once = []() {
        EventQueue q;
        std::vector<int> order;
        for (int i = 0; i < 100; ++i) {
            q.schedule(static_cast<Tick>(i % 7),
                       [&order, i]() { order.push_back(i); });
        }
        q.run();
        return order;
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(TickConversion, NsRoundTrip)
{
    EXPECT_EQ(nsToTicks(50.0), 50u * ticksPerNs);
    EXPECT_DOUBLE_EQ(ticksToNs(nsToTicks(112.0)), 112.0);
    EXPECT_EQ(nsToTicks(0.5), ticksPerNs / 2);
}

// ---- intrusive events and pools ------------------------------------------

/** Member-style event: records its execution; never pooled. */
struct RecordingEvent final : Event {
    void process() override { log->push_back(id); }
    std::vector<int> *log = nullptr;
    int id = 0;
};

/** Pool-style event, as the interconnect/system message events use. */
struct PooledTestEvent final : Event {
    PooledTestEvent(std::vector<int> *l, int i) : log(l), id(i) {}

    void process() override { log->push_back(id); }

    void
    release() override
    {
        EventPool<PooledTestEvent>::instance().release(this);
    }

    std::vector<int> *log;
    int id;
};

TEST(EventQueueIntrusive, MemberEventRunsAndReschedules)
{
    EventQueue q;
    std::vector<int> log;
    RecordingEvent ev;
    ev.log = &log;
    ev.id = 1;

    q.schedule(ev, 10);
    EXPECT_TRUE(ev.scheduled());
    q.run();
    EXPECT_FALSE(ev.scheduled());

    // A member event is reusable after it executed.
    ev.id = 2;
    q.schedule(ev, 20);
    q.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

TEST(EventQueueIntrusive, SameTickSamePriorityRunsInInsertionOrder)
{
    EventQueue q;
    std::vector<int> log;
    // Mix pooled, member, and lambda events at one (tick, priority):
    // execution must follow insertion order exactly.
    auto &pool = EventPool<PooledTestEvent>::instance();
    RecordingEvent member;
    member.log = &log;
    member.id = 2;

    q.schedule(*pool.acquire(&log, 1), 5, EventPriority::Controller);
    q.schedule(member, 5, EventPriority::Controller);
    q.schedule(5, [&log]() { log.push_back(3); },
               EventPriority::Controller);
    q.schedule(*pool.acquire(&log, 4), 5, EventPriority::Controller);
    q.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueueIntrusive, DescheduleCancelsAndRecyclesPooledEvent)
{
    EventQueue q;
    std::vector<int> log;
    auto &pool = EventPool<PooledTestEvent>::instance();

    PooledTestEvent *cancelled = pool.acquire(&log, 99);
    q.schedule(*cancelled, 10);
    q.schedule(*pool.acquire(&log, 1), 20);

    EventPoolStats before = pool.stats();
    q.deschedule(*cancelled);
    EXPECT_EQ(pool.stats().releases, before.releases + 1);

    // The free list is LIFO: the cancelled slot is reused immediately,
    // proving the cancellation returned it to the pool.
    PooledTestEvent *recycled = pool.acquire(&log, 2);
    EXPECT_EQ(static_cast<void *>(recycled),
              static_cast<void *>(cancelled));
    q.schedule(*recycled, 5);

    q.run();
    EXPECT_EQ(log, (std::vector<int>{2, 1}));  // 99 never ran
}

TEST(EventQueueIntrusive, DescheduleMiddleOfHeapKeepsOrdering)
{
    EventQueue q;
    std::vector<int> log;
    auto &pool = EventPool<PooledTestEvent>::instance();

    std::vector<PooledTestEvent *> events;
    for (int i = 0; i < 16; ++i) {
        events.push_back(pool.acquire(&log, i));
        q.schedule(*events.back(), static_cast<Tick>(10 * (i + 1)));
    }
    // Cancel the odd ones, in arbitrary order.
    for (int i = 15; i >= 1; i -= 2)
        q.deschedule(*events[static_cast<std::size_t>(i)]);
    q.run();
    EXPECT_EQ(log, (std::vector<int>{0, 2, 4, 6, 8, 10, 12, 14}));
}

TEST(EventPool, SteadyStateSchedulingAllocatesNoSlabs)
{
    EventQueue q;
    // A function pointer gives every schedule below the same pooled
    // event type (lambdas would each get their own pool).
    using Fn = void (*)();
    Fn noop = +[]() {};

    // Warm the pool past the largest wave used below.
    for (Tick t = 0; t < 600; ++t)
        q.schedule(t, noop);
    q.run();

    EventPoolStats before = eventPoolStats();
    constexpr std::uint64_t waves = 100;
    constexpr std::uint64_t perWave = 500;
    for (std::uint64_t w = 0; w < waves; ++w) {
        for (Tick t = 0; t < perWave; ++t)
            q.schedule(q.now() + t, noop);
        q.run();
    }
    EventPoolStats after = eventPoolStats();

    // The acceptance invariant: once pools are warm, the schedule /
    // execute path performs zero heap allocations -- slab count and
    // footprint stay exactly flat while tens of thousands of events
    // cycle through.
    EXPECT_EQ(after.slabAllocations, before.slabAllocations);
    EXPECT_EQ(after.slabBytes, before.slabBytes);
    EXPECT_EQ(after.acquires - before.acquires, waves * perWave);
    EXPECT_EQ(after.live(), before.live());
}

TEST(EventQueueIntrusive, PendingPooledEventsReleasedOnQueueDestruction)
{
    auto &pool = EventPool<PooledTestEvent>::instance();
    std::vector<int> log;
    EventPoolStats before = pool.stats();
    {
        EventQueue q;
        q.schedule(*pool.acquire(&log, 1), 100);
        q.schedule(*pool.acquire(&log, 2), 200);
        // Destroyed with events pending.
    }
    EventPoolStats after = pool.stats();
    EXPECT_EQ(after.acquires - before.acquires, 2u);
    EXPECT_EQ(after.releases - before.releases, 2u);
    EXPECT_TRUE(log.empty());
}

// ---- far-future inputs ----------------------------------------------------
//
// Coherence traffic is short-horizon (link hops and controller
// latencies well under a microsecond); these tests mix it with events
// several microseconds out and pin same-tick order, deschedule, run
// limits and release on destruction across that range.

/** About 2 us of ticks: "near" is well inside it, "far" beyond it. */
constexpr Tick kHorizon = Tick{1} << 21;

TEST(EventQueueCalendar, SameTickOrderAcrossRingAndOverflow)
{
    // Events at one far-future tick must run in (priority, insertion)
    // order -- including against an event scheduled at the same tick
    // much later, from a handler (so it parks in the run-next buffer).
    EventQueue q;
    std::vector<int> log;
    constexpr Tick far = 3 * kHorizon + 17;

    q.schedule(far, [&log]() { log.push_back(2); },
               EventPriority::Controller);
    q.schedule(far, [&log]() { log.push_back(3); },
               EventPriority::Controller);
    q.schedule(far, [&log]() { log.push_back(1); },
               EventPriority::NetworkOrder);
    // A stepping stone well before `far` that adds one more event at
    // that tick.
    q.schedule(kHorizon / 2, [&q, &log]() {
        q.schedule(far, [&log]() { log.push_back(4); },
                   EventPriority::Controller);
    });

    q.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(q.now(), far);
}

TEST(EventQueueCalendar, DescheduleInsideAndOutsideHorizon)
{
    EventQueue q;
    std::vector<int> log;
    auto &pool = EventPool<PooledTestEvent>::instance();

    // Deschedule must find and release near and far events alike.
    PooledTestEvent *near_keep = pool.acquire(&log, 1);
    PooledTestEvent *near_cancel = pool.acquire(&log, 90);
    PooledTestEvent *far_keep = pool.acquire(&log, 2);
    PooledTestEvent *far_cancel = pool.acquire(&log, 91);

    q.schedule(*near_keep, 100);
    q.schedule(*near_cancel, 200);
    q.schedule(*far_cancel, 5 * kHorizon);
    q.schedule(*far_keep, 5 * kHorizon + 1);
    ASSERT_EQ(q.pending(), 4u);

    EventPoolStats before = pool.stats();
    q.deschedule(*near_cancel);
    q.deschedule(*far_cancel);
    EXPECT_EQ(pool.stats().releases, before.releases + 2);
    EXPECT_EQ(q.pending(), 2u);

    q.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

TEST(EventQueueCalendar, RingWrapKeepsTimeOrder)
{
    // March time across many horizons; each event schedules the next
    // one most of a horizon ahead.
    EventQueue q;
    std::vector<Tick> fired;
    const Tick stride = kHorizon - 1536;

    std::function<void()> hop = [&]() {
        fired.push_back(q.now());
        if (fired.size() < 40)
            q.scheduleIn(stride, hop);
    };
    q.scheduleIn(stride, hop);
    q.run();

    ASSERT_EQ(fired.size(), 40u);
    for (std::size_t i = 0; i < fired.size(); ++i)
        EXPECT_EQ(fired[i], (i + 1) * stride);
}

TEST(EventQueueCalendar, OverflowMigrationPreservesInterleaving)
{
    // Far events one-or-more horizons out interleave with near events
    // exactly by tick.
    EventQueue q;
    std::vector<int> log;
    for (int lap = 0; lap < 4; ++lap) {
        Tick base = static_cast<Tick>(lap) * kHorizon;
        q.schedule(base + 7, [&log, lap]() { log.push_back(lap * 2); });
        q.schedule(base + kHorizon / 2,
                   [&log, lap]() { log.push_back(lap * 2 + 1); });
    }
    q.run();
    EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventQueueCalendar, RunWithLimitLeavesWindowSaneForLaterNearEvents)
{
    // run(limit) that peeks a far-future event without executing it
    // must leave the queue able to take, and run first, events
    // scheduled afterwards at near ticks; time never runs backwards.
    EventQueue q;
    std::vector<std::pair<int, Tick>> log;

    q.schedule(10 * kHorizon, [&]() { log.push_back({2, q.now()}); });
    EXPECT_EQ(q.run(1000), 0u);  // peeks the far event, runs nothing
    EXPECT_EQ(q.now(), 1000u);

    q.schedule(2000, [&]() { log.push_back({1, q.now()}); });
    q.run();

    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log[0], (std::pair<int, Tick>{1, 2000}));
    EXPECT_EQ(log[1], (std::pair<int, Tick>{2, 10 * kHorizon}));
}

TEST(EventQueueCalendar, PendingOverflowEventsReleasedOnDestruction)
{
    auto &pool = EventPool<PooledTestEvent>::instance();
    std::vector<int> log;
    EventPoolStats before = pool.stats();
    {
        EventQueue q;
        q.schedule(*pool.acquire(&log, 1), 10);            // near
        q.schedule(*pool.acquire(&log, 2), 7 * kHorizon);  // far
    }
    EventPoolStats after = pool.stats();
    EXPECT_EQ(after.acquires - before.acquires, 2u);
    EXPECT_EQ(after.releases - before.releases, 2u);
    EXPECT_TRUE(log.empty());
}

// ---- run-next buffer ------------------------------------------------------

TEST(EventQueueRunNext, HandlerScheduledChainSkipsTheCalendar)
{
    // A ladder of events, each scheduled from the previous one's
    // handler, is served entirely from the run-next buffer: only the
    // seed (scheduled outside run()) touches the heap, so the whole
    // chain costs exactly one insert and one pop.
    EventQueue q;
    int fired = 0;
    std::function<void()> chain = [&]() {
        if (++fired < 6)
            q.scheduleIn(5, chain);
    };
    q.schedule(10, chain);
    const std::uint64_t before = q.calendarOps();
    EXPECT_EQ(before, 1u);  // the seed's insert
    q.run();
    EXPECT_EQ(fired, 6);
    EXPECT_EQ(q.executed(), 6u);
    EXPECT_EQ(q.calendarOps(), before + 1);  // ... and its pop
}

TEST(EventQueueRunNext, ParkedEventsCompeteInExactTickOrder)
{
    // Events parked by a handler interleave with heap events in
    // strict tick order, exactly as if they had been inserted.
    EventQueue q;
    std::vector<int> log;
    q.schedule(30, [&]() { log.push_back(30); });
    q.schedule(10, [&]() {
        q.schedule(40, [&]() { log.push_back(40); });
        q.schedule(20, [&]() { log.push_back(20); });
        log.push_back(10);
    });
    q.run();
    EXPECT_EQ(log, (std::vector<int>{10, 20, 30, 40}));
}

TEST(EventQueueRunNext, OverflowSpillsToCalendarAndKeepsOrder)
{
    // Far more handler-scheduled events than the buffer can seat: the
    // spill path must hand the excess to the heap without perturbing
    // the total order.
    EventQueue q;
    std::vector<int> log;
    q.schedule(5, [&]() {
        // Descending ticks, so every newcomer displaces the back.
        for (int i = 40; i >= 1; --i) {
            q.schedule(static_cast<Tick>(10 * i),
                       [&log, i]() { log.push_back(i); });
        }
    });
    q.run();
    ASSERT_EQ(log.size(), 40u);
    for (int i = 1; i <= 40; ++i)
        EXPECT_EQ(log[static_cast<std::size_t>(i - 1)], i);
}

TEST(EventQueueRunNext, ParkedEventsSurviveRunBoundaries)
{
    // Events parked during one run() stay parked across the window
    // boundary: pending counts, earliest queries, forEachPending, and
    // a later run() all see them as if they sat in the heap.
    EventQueue q;
    std::vector<int> log;
    q.schedule(10, [&]() {
        q.schedule(100, [&]() { log.push_back(100); });
        q.schedule(200, [&]() { log.push_back(200); });
    });
    EXPECT_EQ(q.run(50), 1u);
    EXPECT_EQ(q.pending(), 2u);

    Tick e1 = 0;
    Tick e2 = 0;
    q.earliestTwo(e1, e2);
    EXPECT_EQ(e1, 100u);
    EXPECT_EQ(e2, 200u);

    std::vector<Tick> seen;
    q.forEachPending([&](const Event &, Tick when, std::uint64_t,
                         std::uint16_t) { seen.push_back(when); });
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(seen, (std::vector<Tick>{100, 200}));

    q.run();
    EXPECT_EQ(log, (std::vector<int>{100, 200}));
}

TEST(EventQueueRunNext, DescheduleOfParkedEventRecyclesIt)
{
    // A pooled event cancelled while parked in the run-next buffer is
    // released back to its pool, and the remaining parked events keep
    // their order.
    EventQueue q;
    std::vector<int> log;
    auto &pool = EventPool<PooledTestEvent>::instance();

    PooledTestEvent *cancelled = pool.acquire(&log, 99);
    q.schedule(10, [&]() {
        q.schedule(*pool.acquire(&log, 1), 20);
        q.schedule(*cancelled, 30);
        q.schedule(*pool.acquire(&log, 2), 40);
    });
    EXPECT_EQ(q.run(15), 1u);
    EXPECT_EQ(q.pending(), 3u);

    EventPoolStats before = pool.stats();
    q.deschedule(*cancelled);
    EXPECT_EQ(pool.stats().releases, before.releases + 1);
    EXPECT_EQ(q.pending(), 2u);

    q.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2}));  // 99 never ran
}

TEST(EventQueueRunNext, PendingParkedEventsReleasedOnDestruction)
{
    auto &pool = EventPool<PooledTestEvent>::instance();
    std::vector<int> log;
    EventPoolStats before = pool.stats();
    {
        EventQueue q;
        q.schedule(5, [&q, &pool, &log]() {
            q.schedule(*pool.acquire(&log, 1), 50);  // parks
        });
        q.run(10);
    }
    EventPoolStats after = pool.stats();
    EXPECT_EQ(after.acquires - before.acquires, 1u);
    EXPECT_EQ(after.releases - before.releases, 1u);
    EXPECT_TRUE(log.empty());
}

/**
 * Reference model for the randomized equivalence check: a std::set
 * ordered by (tick, priority, schedule order), the queue's contract
 * stated directly. The harness drives the queue and the model in lock
 * step. Every executed event checks that it is the model's minimum,
 * checks the queue's queries, and may schedule follow-ups from inside
 * its handler -- sometimes more than the run-next buffer has seats --
 * so parking, spilling and buffer-served execution all run at random.
 */
class QueueModelHarness
{
  public:
    /** Pooled event that reports its execution to the harness. */
    struct ModelEvent final : Event {
        ModelEvent(QueueModelHarness *h, int i) : harness(h), id(i) {}

        void process() override { harness->onExecute(id); }

        void
        release() override
        {
            EventPool<ModelEvent>::instance().release(this);
        }

        QueueModelHarness *harness;
        int id;
    };

    /** Handlers that scheduled more follow-ups than the buffer seats. */
    int wideFanouts = 0;

    std::uint64_t executedCount = 0;

    explicit QueueModelHarness(EventQueue &q) : q_(q) {}

    // Pending events point back at the harness.
    QueueModelHarness(const QueueModelHarness &) = delete;
    QueueModelHarness &operator=(const QueueModelHarness &) = delete;

    /**
     * Schedule a fresh event at `when`. `depth` bounds how many
     * generations of follow-ups it may still spawn.
     */
    void
    schedule(Tick when, int depth)
    {
        const auto prio = prios_[pick(prioCount - 1)];
        const int id = static_cast<int>(refs_.size());
        auto *ev = EventPool<ModelEvent>::instance().acquire(this, id);
        q_.schedule(*ev, when, prio);
        refs_.push_back(Ref{when, static_cast<std::uint64_t>(prio),
                            order_++, depth, ev, true});
        model_.insert(keyOf(id));
    }

    /** Deschedule a random quarter of whatever is still pending. */
    void
    cancelSome()
    {
        for (std::size_t id = 0; id < refs_.size(); ++id) {
            Ref &r = refs_[id];
            if (!r.pending || pick(3) != 0)
                continue;
            q_.deschedule(*r.ev);
            model_.erase(keyOf(static_cast<int>(id)));
            r.pending = false;
        }
    }

    /** The kernel-facing queries must match the model exactly. */
    void
    checkQueries() const
    {
        ASSERT_EQ(q_.pending(), model_.size());
        ASSERT_EQ(q_.empty(), model_.empty());

        Tick first = 0;
        Tick second = 0;
        q_.earliestTwo(first, second);
        auto it = model_.begin();
        const Tick want_first =
            it == model_.end() ? maxTick : std::get<0>(*it++);
        const Tick want_second =
            it == model_.end() ? maxTick : std::get<0>(*it);
        EXPECT_EQ(first, want_first);
        EXPECT_EQ(second, want_second);
        EXPECT_EQ(q_.earliestTick(), want_first);

        // (tick, key) multiset: the key packs priority above the
        // queue's insertion sequence, which counts exactly like the
        // model's schedule order on a fresh queue.
        std::vector<std::pair<Tick, std::uint64_t>> seen;
        q_.forEachPending([&](const Event &, Tick when,
                              std::uint64_t key, std::uint16_t) {
            seen.emplace_back(when, key);
        });
        std::vector<std::pair<Tick, std::uint64_t>> want;
        for (const auto &[when, prio, order, id] : model_)
            want.emplace_back(when, (prio << 56) | order);
        std::sort(seen.begin(), seen.end());
        std::sort(want.begin(), want.end());
        EXPECT_EQ(seen, want);
    }

    /** Nothing at or before `limit` may be left pending after run(). */
    bool
    modelDrainedThrough(Tick limit) const
    {
        return model_.empty() || std::get<0>(*model_.begin()) > limit;
    }

  private:
    struct Ref {
        Tick when;
        std::uint64_t prio;
        std::uint64_t order;
        int depth;
        ModelEvent *ev;  ///< valid only while pending
        bool pending;
    };

    using Key = std::tuple<Tick, std::uint64_t, std::uint64_t, int>;

    static constexpr int prioCount = 5;

    Key
    keyOf(int id) const
    {
        const Ref &r = refs_[static_cast<std::size_t>(id)];
        return Key{r.when, r.prio, r.order, id};
    }

    int
    pick(int hi)
    {
        return std::uniform_int_distribution<int>(0, hi)(rng_);
    }

    void
    onExecute(int id)
    {
        const auto it = model_.find(keyOf(id));
        ASSERT_NE(it, model_.end()) << "event " << id << " not pending";
        EXPECT_EQ(it, model_.begin())
            << "event " << id << " ran ahead of the model minimum";
        EXPECT_EQ(q_.now(), std::get<0>(*it));
        model_.erase(it);
        Ref &r = refs_[static_cast<std::size_t>(id)];
        r.pending = false;
        ++executedCount;
        // Mid-run as well: late in a drain the heap runs dry and the
        // buffer holds both minima.
        checkQueries();

        // Follow-ups: same tick (any priority, so some order before
        // their parent's key), near, and now and then far.
        if (r.depth == 0)
            return;
        const int depth = r.depth - 1;
        int n = pick(2);
        if (pick(15) == 0) {
            n = 24;
            ++wideFanouts;
        }
        for (int i = 0; i < n; ++i) {
            Tick delta = 0;
            switch (pick(7)) {
              case 0:
                break;
              case 1:
                delta = kHorizon + static_cast<Tick>(pick(1 << 20));
                break;
              default:
                delta = static_cast<Tick>(pick(2000));
                break;
            }
            schedule(q_.now() + delta, depth);
        }
    }

    const EventPriority prios_[prioCount] = {
        EventPriority::NetworkOrder, EventPriority::Delivery,
        EventPriority::Controller, EventPriority::Cpu,
        EventPriority::Default,
    };

    EventQueue &q_;
    std::mt19937_64 rng_{12345};
    std::vector<Ref> refs_;
    std::uint64_t order_ = 0;
    std::set<Key> model_;
};

/**
 * Randomized equivalence check: the queue must execute exactly the
 * total order of the reference model above. Exercises near and far
 * scheduling from outside run(), handler-scheduled follow-ups that
 * park in and spill from the run-next buffer, partial runs, single
 * steps, and deschedules wherever an event sits; after every partial
 * run the pending count, earliestTwo and forEachPending must agree
 * with the model.
 */
TEST(EventQueueCalendar, RandomizedHeapEquivalence)
{
    EventQueue q;
    QueueModelHarness h(q);
    std::mt19937_64 rng(777);
    std::uniform_int_distribution<Tick> near_d(0, kHorizon / 2);
    std::uniform_int_distribution<Tick> far_d(kHorizon, 4 * kHorizon);
    std::uniform_int_distribution<int> coin(0, 3);

    for (int round = 0; round < 30; ++round) {
        // Schedule a batch: mostly short-horizon, some far beyond it.
        for (int i = 0; i < 60; ++i) {
            Tick when =
                q.now() + (coin(rng) == 0 ? far_d(rng) : near_d(rng));
            h.schedule(when, 2);
        }
        h.cancelSome();
        ASSERT_NO_FATAL_FAILURE(h.checkQueries());

        // Run partway, leaving events parked across the boundary.
        const Tick limit = q.now() + kHorizon / 3 +
                           static_cast<Tick>(round) * 911;
        q.run(limit);
        EXPECT_TRUE(h.modelDrainedThrough(limit)) << "round " << round;
        ASSERT_NO_FATAL_FAILURE(h.checkQueries());

        // Cancel among what the handlers left behind, then (now and
        // then) take one step outside run(), where follow-ups go
        // straight to the heap.
        h.cancelSome();
        if (!q.empty() && coin(rng) == 0)
            q.step();
        ASSERT_NO_FATAL_FAILURE(h.checkQueries());
    }
    q.run();
    ASSERT_NO_FATAL_FAILURE(h.checkQueries());
    EXPECT_TRUE(q.empty());

    // The run-next buffer did real work: it spilled (a handler
    // scheduled more follow-ups than it has seats) and it served a
    // share of the executions without a heap insert and pop.
    EXPECT_GT(h.wideFanouts, 0);
    EXPECT_EQ(q.executed(), h.executedCount);
    EXPECT_LT(q.calendarOps(), 2 * q.executed());
}

TEST(EventQueueIntrusive, DeterministicAcrossIdenticalRunsUnderPool)
{
    auto run_once = []() {
        EventQueue q;
        std::vector<int> order;
        auto &pool = EventPool<PooledTestEvent>::instance();
        for (int i = 0; i < 200; ++i) {
            if (i % 3 == 0) {
                q.schedule(*pool.acquire(&order, i),
                           static_cast<Tick>(i % 11),
                           EventPriority::Delivery);
            } else {
                q.schedule(static_cast<Tick>(i % 11),
                           [&order, i]() { order.push_back(i); },
                           EventPriority::Delivery);
            }
        }
        q.run();
        return order;
    };
    EXPECT_EQ(run_once(), run_once());
}

} // namespace
} // namespace dsp
