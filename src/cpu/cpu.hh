/**
 * @file
 * Processor model interface for the execution-driven simulator
 * (Section 5.2). Two models are provided, matching the paper:
 *
 *  - SimpleCpu: in-order, blocking, one outstanding miss, 2 IPC at
 *    2 GHz ("four billion instructions per second if the L1 caches
 *    were perfect");
 *  - DetailedCpu: dynamically-scheduled window model (64-entry ROB,
 *    4-wide), overlapping independent misses (memory-level
 *    parallelism), approximating TFsim's aggressive sequential
 *    consistency.
 */

#ifndef DSP_CPU_CPU_HH
#define DSP_CPU_CPU_HH

#include <cstdint>
#include <functional>

#include "checkpoint/checkpoint.hh"
#include "mem/types.hh"
#include "sim/sharded_kernel.hh"
#include "workload/workload.hh"

namespace dsp {

/** What the cache hierarchy answered for one access. */
enum class AccessReply : std::uint8_t {
    L1Hit,
    L2Hit,
    Miss,  ///< completion callback will fire later
};

/**
 * The CPU-facing port of a node's cache controller.
 */
class MemoryPort
{
  public:
    virtual ~MemoryPort() = default;

    /**
     * Miss-completion callback: invoked with the completion tick when
     * the coherence round-trip finishes. Deliberately a POD (function
     * pointer + context + a caller token) rather than std::function:
     * the CPU models issue one of these per access, and the detailed
     * CPU needs a distinct token (its window sequence number) per
     * outstanding miss -- with type erasure that meant constructing a
     * std::function on every single access. A POD costs nothing to
     * build and is trivially copyable into MSHR waiter lists.
     */
    struct Completion {
        using Fn = void (*)(void *ctx, std::uint64_t token, Tick tick);

        Fn fn = nullptr;
        void *ctx = nullptr;
        std::uint64_t token = 0;

        void
        operator()(Tick tick) const
        {
            fn(ctx, token, tick);
        }

        explicit operator bool() const { return fn != nullptr; }
    };

    /**
     * Issue one access. `when` (>= now) is the tick at which the
     * access logically executes; on a miss the coherence request
     * enters the network at that tick. The completion is only copied
     * on a miss.
     */
    virtual AccessReply
    access(Addr addr, Addr pc, bool is_write, Tick when,
           const Completion &on_complete) = 0;
};

/** CPU timing parameters (Table 4). */
struct CpuParams {
    double clock_ghz = 2.0;
    double base_ipc = 2.0;   ///< simple model: sustained non-miss IPC
    double l1_ns = 1.0;      ///< L1 hit (2 cycles)
    double l2_ns = 12.0;     ///< L2 hit
    unsigned rob = 64;       ///< detailed model window
    unsigned width = 4;      ///< detailed model fetch/retire width
    unsigned mshrs = 16;     ///< detailed model outstanding misses
    double quantum_ns = 500; ///< hit-batching quantum
};

/**
 * Abstract processor: pulls its reference stream from the workload
 * and issues accesses through the memory port.
 */
class Cpu
{
  public:
    Cpu(DomainPort queue, Workload &workload, NodeId node,
        MemoryPort &port, const CpuParams &params)
        : queue_(queue),
          workload_(workload),
          node_(node),
          port_(port),
          params_(params)
    {
    }

    virtual ~Cpu() = default;

    Cpu(const Cpu &) = delete;
    Cpu &operator=(const Cpu &) = delete;

    /**
     * Run until `instructions` more have been retired, then invoke
     * on_done (once) and stop issuing. Can be called again afterwards
     * to continue (warmup then measurement).
     */
    virtual void
    runFor(std::uint64_t instructions, std::function<void()> on_done)
        = 0;

    /** Instructions retired since construction. */
    std::uint64_t retired() const { return retired_; }

    /** True once the current phase target has been reached (the
     *  phase-done callback fired); a restore only re-arms CPUs for
     *  which this is false. */
    bool targetReached() const { return retired_ >= target_; }

    /** Tick at which the last target was reached. */
    Tick finishTick() const { return finishTick_; }

    NodeId node() const { return node_; }

    /**
     * Checkpoint architectural + timing state. Whether a member
     * continuation event is scheduled (and when) is captured by the
     * kernel's pending-event enumeration, not here; `onDone_` is
     * re-supplied by the orchestrator via ckptRearm().
     */
    virtual void
    ckptSave(ckpt::Writer &w) const
    {
        w.u64(retired_);
        w.u64(target_);
        w.u64(finishTick_);
    }

    virtual void
    ckptLoad(ckpt::Reader &r)
    {
        retired_ = r.u64();
        target_ = r.u64();
        finishTick_ = r.u64();
    }

    /**
     * Rebuild the POD completion this CPU hands to the memory port
     * from the token an MSHR-resident copy carried at save time.
     */
    virtual MemoryPort::Completion ckptCompletion(std::uint64_t token)
        = 0;

    /**
     * Restore one of this CPU's member continuation events: consume
     * the event's payload from `r` and return the member event for
     * the kernel to re-schedule.
     */
    virtual Event &ckptRestoreEvent(ckpt::EventTag tag,
                                    ckpt::Reader &r) = 0;

    /**
     * Re-arm the end-of-phase callback after a restore. runFor() was
     * called in the original run (its counters were checkpointed);
     * the restored run re-supplies only the callback.
     */
    void
    ckptRearm(std::function<void()> on_done)
    {
        onDone_ = std::move(on_done);
    }

  protected:
    DomainPort queue_;
    Workload &workload_;
    NodeId node_;
    MemoryPort &port_;
    CpuParams params_;

    std::uint64_t retired_ = 0;
    std::uint64_t target_ = 0;
    Tick finishTick_ = 0;
    std::function<void()> onDone_;

    void
    reachTarget(Tick tick)
    {
        finishTick_ = tick;
        if (onDone_) {
            auto done = std::move(onDone_);
            onDone_ = nullptr;
            done();
        }
    }
};

} // namespace dsp

#endif // DSP_CPU_CPU_HH
