#include "cpu/simple_cpu.hh"

#include "sim/logging.hh"

namespace dsp {

SimpleCpu::SimpleCpu(DomainPort queue, Workload &workload, NodeId node,
                     MemoryPort &port, const CpuParams &params)
    : Cpu(queue, workload, node, port, params)
{
    instrTick_ =
        nsToTicks(1.0 / (params.clock_ghz * params.base_ipc));
    l1Tick_ = nsToTicks(params.l1_ns);
    l2Tick_ = nsToTicks(params.l2_ns);
    quantum_ = nsToTicks(params.quantum_ns);
}

SimpleCpu::~SimpleCpu()
{
    if (resumeEvent_.scheduled())
        queue_.deschedule(resumeEvent_);
}

void
SimpleCpu::runFor(std::uint64_t instructions,
                  std::function<void()> on_done)
{
    dsp_assert(!onDone_, "cpu %u already has a pending target", node_);
    target_ = retired_ + instructions;
    onDone_ = std::move(on_done);
    if (!blocked_)
        execute(std::max(queue_.now(), localTime_));
}

void
SimpleCpu::onMissComplete(Tick tick)
{
    blocked_ = false;
    execute(tick);
}

void
SimpleCpu::execute(Tick local)
{
    Tick horizon = queue_.now() + quantum_;

    while (true) {
        localTime_ = local;
        if (retired_ >= target_) {
            reachTarget(local);
            return;
        }
        if (local > horizon) {
            // Yield so other nodes' events interleave; resume at the
            // accumulated local time.
            resumeEvent_.at = local;
            queue_.schedule(resumeEvent_, local, EventPriority::Cpu);
            return;
        }

        MemRef ref = workload_.next(node_);
        // Non-memory work plus the memory instruction itself issue at
        // the base rate; the L1 hit latency is already covered by it.
        local += (ref.work + 1) * instrTick_;
        retired_ += ref.work + 1;

        AccessReply reply =
            port_.access(ref.addr, ref.pc, ref.write, local, missDone_);

        switch (reply) {
          case AccessReply::L1Hit:
            break;
          case AccessReply::L2Hit:
            local += l2Tick_;
            break;
          case AccessReply::Miss:
            // Blocking model: stall until the miss returns.
            blocked_ = true;
            return;
        }
    }
}

void
SimpleCpu::ckptSave(ckpt::Writer &w) const
{
    Cpu::ckptSave(w);
    w.u64(localTime_);
    w.b(blocked_);
}

void
SimpleCpu::ckptLoad(ckpt::Reader &r)
{
    Cpu::ckptLoad(r);
    localTime_ = r.u64();
    blocked_ = r.b();
}

MemoryPort::Completion
SimpleCpu::ckptCompletion(std::uint64_t /* token */)
{
    return missDone_;
}

Event &
SimpleCpu::ckptRestoreEvent(ckpt::EventTag tag, ckpt::Reader &r)
{
    dsp_assert(tag == ckpt::EventTag::CpuResume,
               "simple cpu %u asked to restore event tag %u", node_,
               static_cast<unsigned>(tag));
    resumeEvent_.at = r.u64();
    return resumeEvent_;
}

} // namespace dsp
