#include "sim/event_queue.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace dsp {

namespace {

/** 56 bits of insertion sequence below one byte of priority. */
constexpr std::uint64_t seqBits = 56;
constexpr std::uint64_t seqMask = (std::uint64_t{1} << seqBits) - 1;

} // namespace

EventQueue::~EventQueue()
{
    // Events still pending go back to their pools; member events are
    // simply detached.
    for (HeapEntry &entry : heap_) {
        entry.ev->scheduled_ = false;
        entry.ev->heapIndex_ = Event::invalidHeapIndex;
        entry.ev->release();
    }
    for (std::size_t i = 0; i < runNextLive_; ++i) {
        runNext_[i]->scheduled_ = false;
        runNext_[i]->release();
    }
}

void
EventQueue::assertSchedulable(Tick when) const
{
    dsp_assert(when >= now_,
               "cannot schedule in the past (when=%llu now=%llu)",
               static_cast<unsigned long long>(when),
               static_cast<unsigned long long>(now_));
}

void
EventQueue::schedule(Event &ev, Tick when, EventPriority prio)
{
    assertSchedulable(when);
    dsp_assert(!ev.scheduled_, "event already scheduled (when=%llu)",
               static_cast<unsigned long long>(ev.when_));
    const auto prio_bits = static_cast<std::uint64_t>(prio);
    dsp_assert(prio_bits < 256, "priority %d does not fit the packed "
                                "tiebreak key",
               static_cast<int>(prio));
    dsp_assert(nextSeq_ <= seqMask, "insertion sequence overflow");

    ev.when_ = when;
    ev.key_ = (prio_bits << seqBits) | nextSeq_++;
    ev.scheduled_ = true;
    enqueuePrepared(ev);
}

std::uint64_t
EventQueue::allocKeys(EventPriority prio, std::uint64_t n)
{
    const auto prio_bits = static_cast<std::uint64_t>(prio);
    dsp_assert(prio_bits < 256, "priority %d does not fit the packed "
                                "tiebreak key",
               static_cast<int>(prio));
    dsp_assert(n >= 1 && n - 1 <= seqMask - nextSeq_,
               "insertion sequence overflow");
    const std::uint64_t first = (prio_bits << seqBits) | nextSeq_;
    nextSeq_ += n;
    return first;
}

void
EventQueue::scheduleWithKey(Event &ev, Tick when, std::uint64_t key)
{
    assertSchedulable(when);
    dsp_assert(!ev.scheduled_, "event already scheduled (when=%llu)",
               static_cast<unsigned long long>(ev.when_));

    ev.when_ = when;
    ev.key_ = key;
    ev.scheduled_ = true;
    enqueuePrepared(ev);
}

void
EventQueue::enqueuePrepared(Event &ev)
{
    if (running_) {
        std::size_t n = runNextLive_;
        if (n == runNextCap) {
            // Full: the latest-ordering event loses its seat --
            // either the newcomer goes straight to the heap, or the
            // current back is spilled to make room.
            Event *back = runNext_[n - 1];
            if (ev.when_ > back->when_ ||
                (ev.when_ == back->when_ && ev.key_ > back->key_)) {
                heapPush(ev);
                return;
            }
            heapPush(*back);
            --n;
        }
        // Sorted insert scanned from the back: a freshly scheduled
        // hop usually orders after the hops already parked.
        std::size_t i = n;
        while (i > 0 &&
               (runNext_[i - 1]->when_ > ev.when_ ||
                (runNext_[i - 1]->when_ == ev.when_ &&
                 runNext_[i - 1]->key_ > ev.key_))) {
            runNext_[i] = runNext_[i - 1];
            --i;
        }
        runNext_[i] = &ev;
        runNextLive_ = n + 1;
        return;
    }
    heapPush(ev);
}

bool
EventQueue::chainAdvance(Tick when, std::uint64_t key,
                         std::uint16_t domain)
{
    dsp_assert(when >= now_,
               "chain hop at %llu behind the clock %llu",
               static_cast<unsigned long long>(when),
               static_cast<unsigned long long>(now_));
    // A fused hop may not outrun the window the scheduler planned
    // around: past runLimit_ other shards (or the planner) are
    // entitled to insert earlier work first.
    if (when > runLimit_)
        return false;
    // Nothing already queued may order before the hop, or inlining it
    // would reorder against the queue's total order.
    if (!empty()) {
        const Event *min = peekEarliest();
        if (min->when_ < when ||
            (min->when_ == when && min->key_ < key)) {
            return false;
        }
    }
    now_ = when;
    ++executed_;  // a fused hop is still one executed event
    *domainSink_ = domain;
    return true;
}

void
EventQueue::deschedule(Event &ev)
{
    dsp_assert(ev.scheduled_, "deschedule of unscheduled event");
    for (std::size_t i = 0; i < runNextLive_; ++i) {
        if (runNext_[i] == &ev) {
            for (std::size_t j = i + 1; j < runNextLive_; ++j)
                runNext_[j - 1] = runNext_[j];
            --runNextLive_;
            ev.scheduled_ = false;
            ev.release();
            return;
        }
    }
    // Not parked, so it must sit in this queue's heap; catches an
    // event descheduled on the wrong queue before the removal can
    // corrupt this heap.
    dsp_assert(ev.heapIndex_ < heap_.size() &&
                   heap_[ev.heapIndex_].ev == &ev,
               "event/queue mismatch in deschedule");
    heapRemoveAt(ev.heapIndex_);
    ev.scheduled_ = false;
    ev.release();
}

void
EventQueue::earliestTwo(Tick &first, Tick &second) const
{
    // The two heap minima are the root and the smallest of its (up
    // to four) children.
    first = maxTick;
    second = maxTick;
    if (!heap_.empty()) {
        first = heap_.front().when;
        std::size_t last = std::min(heapArity + 1, heap_.size());
        for (std::size_t c = 1; c < last; ++c)
            second = std::min(second, heap_[c].when);
    }
    // The buffer is sorted, so its first two entries are the only
    // candidates for the global two-smallest multiset.
    for (std::size_t i = 0; i < runNextLive_ && i < 2; ++i) {
        Tick t = runNext_[i]->when_;
        if (t < first) {
            second = first;
            first = t;
        } else if (t < second) {
            second = t;
        }
    }
}

void
EventQueue::advanceTo(Tick t)
{
    if (t <= now_ || t == maxTick)
        return;
    dsp_assert(empty() || peekEarliest()->when_ > t,
               "advanceTo(%llu) would skip a pending event at %llu",
               static_cast<unsigned long long>(t),
               static_cast<unsigned long long>(
                   peekEarliest()->when_));
    now_ = t;
}

Event *
EventQueue::peekEarliest() const
{
    // The heap root and the buffer front compete on (when, key).
    Event *min = heap_.empty() ? nullptr : heap_.front().ev;
    if (runNextLive_ != 0) {
        Event *parked = runNext_[0];
        if (min == nullptr || parked->when_ < min->when_ ||
            (parked->when_ == min->when_ && parked->key_ < min->key_))
            return parked;
    }
    return min;
}

// ---- heap -----------------------------------------------------------------

void
EventQueue::heapPush(Event &ev)
{
    ++inserts_;
    ev.heapIndex_ = heap_.size();
    heap_.push_back(HeapEntry{ev.when_, ev.key_, &ev});
    siftUp(heap_.size() - 1);
}

void
EventQueue::siftUp(std::size_t i)
{
    HeapEntry entry = heap_[i];
    while (i > 0) {
        std::size_t parent = (i - 1) / heapArity;
        if (!earlier(entry, heap_[parent]))
            break;
        place(i, heap_[parent]);
        i = parent;
    }
    place(i, entry);
}

void
EventQueue::siftDown(std::size_t i)
{
    HeapEntry entry = heap_[i];
    const std::size_t n = heap_.size();
    while (true) {
        std::size_t first = heapArity * i + 1;
        if (first >= n)
            break;
        std::size_t last = std::min(first + heapArity, n);
        std::size_t best = first;
        for (std::size_t c = first + 1; c < last; ++c) {
            if (earlier(heap_[c], heap_[best]))
                best = c;
        }
        if (!earlier(heap_[best], entry))
            break;
        place(i, heap_[best]);
        i = best;
    }
    place(i, entry);
}

Event *
EventQueue::heapRemoveAt(std::size_t i)
{
    Event *ev = heap_[i].ev;
    HeapEntry last = heap_.back();
    heap_.pop_back();
    if (i < heap_.size()) {
        place(i, last);
        // The displaced entry may need to move either way; siftUp from
        // wherever siftDown left it is a no-op if it already sank.
        siftDown(i);
        siftUp(last.ev->heapIndex_);
    }
    ev->heapIndex_ = Event::invalidHeapIndex;
    return ev;
}

// ---- execution ------------------------------------------------------------

void
EventQueue::execute(Event *ev)
{
    if (runNextLive_ != 0 && ev == runNext_[0]) {
        // Served straight from the run-next buffer: the heap was never
        // touched, so no pop is counted (its insert was skipped too).
        --runNextLive_;
        for (std::size_t i = 0; i < runNextLive_; ++i)
            runNext_[i] = runNext_[i + 1];
    } else {
        heapRemoveAt(ev->heapIndex_);
        ++pops_;
    }
    ev->scheduled_ = false;
    now_ = ev->when_;
    ++executed_;
    *domainSink_ = ev->domain_;
    ev->process();
    // A process() that rescheduled the event itself (fused chains
    // re-inserting at their next hop) still owns its slot.
    if (!ev->scheduled_)
        ev->release();
}

void
EventQueue::step()
{
    dsp_assert(!empty(), "step() on empty event queue");
    execute(peekEarliest());
}

std::uint64_t
EventQueue::run(Tick limit)
{
    runLimit_ = limit;
    running_ = true;
    std::uint64_t n = 0;
    while (!empty()) {
        Event *ev = peekEarliest();
        if (ev->when_ > limit)
            break;
        execute(ev);
        ++n;
    }
    running_ = false;
    if (now_ < limit && limit != maxTick)
        now_ = limit;
    runLimit_ = maxTick;
    return n;
}

} // namespace dsp
