#include "cpu/detailed_cpu.hh"

#include "sim/logging.hh"

namespace dsp {

DetailedCpu::DetailedCpu(DomainPort queue, Workload &workload,
                         NodeId node, MemoryPort &port,
                         const CpuParams &params)
    : Cpu(queue, workload, node, port, params)
{
    double per_instr_ns = 1.0 / (params.clock_ghz * params.width);
    fetchTick_ = nsToTicks(per_instr_ns);
    retireTick_ = nsToTicks(per_instr_ns);
    if (fetchTick_ == 0)
        fetchTick_ = 1;
    if (retireTick_ == 0)
        retireTick_ = 1;
    l1Tick_ = nsToTicks(params.l1_ns);
    l2Tick_ = nsToTicks(params.l2_ns);
    quantum_ = nsToTicks(params.quantum_ns);

    // Ring capacity: >= rob + 2 in-flight refs (see window_'s doc).
    std::size_t cap = 1;
    while (cap < static_cast<std::size_t>(params.rob) + 2)
        cap <<= 1;
    window_.resize(cap);
    windowMask_ = cap - 1;
}

DetailedCpu::~DetailedCpu()
{
    if (fetchEvent_.scheduled())
        queue_.deschedule(fetchEvent_);
}

void
DetailedCpu::runFor(std::uint64_t instructions,
                    std::function<void()> on_done)
{
    dsp_assert(!onDone_, "cpu %u already has a pending target", node_);
    target_ = retired_ + instructions;
    onDone_ = std::move(on_done);
    if (fetchTime_ < queue_.now())
        fetchTime_ = queue_.now();
    if (!fetchEvent_.scheduled() && !stalledOnMshr_ &&
        stalledOnRetire_ == 0) {
        fetchLoop();
    }
}

Tick
DetailedCpu::backProject(std::uint64_t instr_no) const
{
    std::uint64_t behind = lastRetireInstr_ - instr_no;
    Tick delta = behind * retireTick_;
    return lastRetire_ > delta ? lastRetire_ - delta : 0;
}

void
DetailedCpu::scheduleFetch(Tick when)
{
    if (fetchEvent_.scheduled())
        return;
    if (when < queue_.now())
        when = queue_.now();
    queue_.schedule(fetchEvent_, when, EventPriority::Cpu);
}

void
DetailedCpu::fetchLoop()
{
    Tick horizon = queue_.now() + quantum_;

    while (fetchedInstrs_ < target_) {
        if (outstanding_ >= params_.mshrs) {
            stalledOnMshr_ = true;  // completion wakes us
            return;
        }
        if (!havePending_) {
            pending_ = workload_.next(node_);
            havePending_ = true;
        }
        std::uint64_t instrs = pending_.work + 1;
        std::uint64_t end = fetchedInstrs_ + instrs;

        // ROB constraint: instruction (end - rob) must have retired
        // before this reference can occupy the window. A reference
        // preceded by more work than the window holds can require at
        // most a full drain (everything fetched so far) -- without
        // the clamp it would wait for an instruction that can never
        // exist and wedge the core.
        if (end > params_.rob) {
            std::uint64_t must_retire = end - params_.rob;
            if (must_retire > fetchedInstrs_)
                must_retire = fetchedInstrs_;
            if (must_retire > lastRetireInstr_) {
                stalledOnRetire_ = must_retire;  // retire wakes us
                return;
            }
            Tick rob_ready = backProject(must_retire);
            if (rob_ready > fetchTime_)
                fetchTime_ = rob_ready;
        }

        Tick fetch = fetchTime_ + instrs * fetchTick_;
        if (fetch > horizon) {
            scheduleFetch(fetch);
            return;
        }

        fetchTime_ = fetch;
        fetchedInstrs_ = end;
        havePending_ = false;

        std::uint64_t seq = nextSeq_++;
        dsp_assert(windowCount_ <= windowMask_, "window ring full");
        window_[(windowHead_ + windowCount_) & windowMask_] =
            WindowRef{end, fetch, 0, false};
        ++windowCount_;

        AccessReply reply = port_.access(
            pending_.addr, pending_.pc, pending_.write, fetch,
            MemoryPort::Completion{&accessDoneTrampoline, this, seq});

        switch (reply) {
          case AccessReply::L1Hit:
            onAccessComplete(seq, fetch + l1Tick_);
            break;
          case AccessReply::L2Hit:
            onAccessComplete(seq, fetch + l2Tick_);
            break;
          case AccessReply::Miss: {
            windowAt(seq).isMiss = true;
            ++outstanding_;
            if (outstanding_ > peakOutstanding_)
                peakOutstanding_ = outstanding_;
            break;
          }
        }
    }
}

void
DetailedCpu::onAccessComplete(std::uint64_t seq, Tick tick)
{
    dsp_assert(seq >= windowBaseSeq_, "completion for retired ref");
    dsp_assert(seq - windowBaseSeq_ < windowCount_,
               "completion out of window");

    WindowRef &ref = windowAt(seq);
    if (!ref.done) {
        ref.done = true;
        ref.complete = tick;
        if (ref.isMiss) {
            dsp_assert(outstanding_ > 0, "mshr underflow");
            --outstanding_;
        }
    }
    retireSweep();

    if (stalledOnMshr_ && outstanding_ < params_.mshrs) {
        stalledOnMshr_ = false;
        scheduleFetch(queue_.now());
    }
}

void
DetailedCpu::retireSweep()
{
    while (windowCount_ != 0 && window_[windowHead_].done) {
        WindowRef &head = window_[windowHead_];
        Tick drain =
            (head.instrEnd - lastRetireInstr_) * retireTick_;
        Tick retire = std::max(head.complete, lastRetire_ + drain);
        lastRetire_ = retire;
        lastRetireInstr_ = head.instrEnd;
        retired_ = head.instrEnd;
        windowHead_ = (windowHead_ + 1) & windowMask_;
        --windowCount_;
        ++windowBaseSeq_;

        if (retired_ >= target_ && onDone_)
            reachTarget(retire);
    }

    if (stalledOnRetire_ != 0 &&
        lastRetireInstr_ >= stalledOnRetire_) {
        stalledOnRetire_ = 0;
        scheduleFetch(queue_.now());
    }
}

void
DetailedCpu::ckptSave(ckpt::Writer &w) const
{
    Cpu::ckptSave(w);
    // The whole ring is saved verbatim (stale slots included) so the
    // restored ring is bit-identical, not merely behaviourally equal.
    w.podVec(window_);
    w.u64(windowHead_);
    w.u64(windowCount_);
    w.u64(windowBaseSeq_);
    w.u64(nextSeq_);
    w.u64(fetchedInstrs_);
    w.u64(fetchTime_);
    w.u64(lastRetire_);
    w.u64(lastRetireInstr_);
    w.u32(outstanding_);
    w.u32(peakOutstanding_);
    w.b(stalledOnMshr_);
    w.u64(stalledOnRetire_);
    w.b(havePending_);
    w.pod(pending_);
}

void
DetailedCpu::ckptLoad(ckpt::Reader &r)
{
    Cpu::ckptLoad(r);
    auto ring = r.podVec<WindowRef>();
    dsp_assert(ring.size() == window_.size(),
               "cpu %u window ring size mismatch (rob changed?)",
               node_);
    window_ = std::move(ring);
    windowHead_ = static_cast<std::size_t>(r.u64());
    windowCount_ = static_cast<std::size_t>(r.u64());
    windowBaseSeq_ = r.u64();
    nextSeq_ = r.u64();
    fetchedInstrs_ = r.u64();
    fetchTime_ = r.u64();
    lastRetire_ = r.u64();
    lastRetireInstr_ = r.u64();
    outstanding_ = r.u32();
    peakOutstanding_ = r.u32();
    stalledOnMshr_ = r.b();
    stalledOnRetire_ = r.u64();
    havePending_ = r.b();
    pending_ = r.pod<MemRef>();
}

MemoryPort::Completion
DetailedCpu::ckptCompletion(std::uint64_t token)
{
    return MemoryPort::Completion{&accessDoneTrampoline, this, token};
}

Event &
DetailedCpu::ckptRestoreEvent(ckpt::EventTag tag, ckpt::Reader &)
{
    dsp_assert(tag == ckpt::EventTag::CpuFetch,
               "detailed cpu %u asked to restore event tag %u", node_,
               static_cast<unsigned>(tag));
    return fetchEvent_;
}

} // namespace dsp
