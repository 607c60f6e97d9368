#include "sim/logging.hh"
#include "system/system.hh"
#include "verify/oracle.hh"

namespace dsp {

CacheController::CacheController(System &system, NodeId node,
                                 DomainPort port)
    : sys_(system), node_(node), port_(port),
      caches_(system.params().caches)
{
}

struct CacheController::IssueEvent final : Event {
    IssueEvent(CacheController &c, BlockId b, Addr a, Addr p,
               RequestType t, Tick w)
        : ctrl(c), block(b), addr(a), pc(p), type(t), when(w)
    {
    }

    void
    process() override
    {
        ctrl.issueRequest(block, addr, pc, type, when);
    }

    void
    release() override
    {
        EventPool<IssueEvent>::instance().release(this);
    }

    void
    ckptSave(ckpt::Writer &w) const override
    {
        w.u8(static_cast<std::uint8_t>(ckpt::EventTag::CacheIssue));
        w.u16(static_cast<std::uint16_t>(ctrl.node_));
        w.u64(block);
        w.u64(addr);
        w.u64(pc);
        w.u8(static_cast<std::uint8_t>(type));
        w.u64(when);
    }

    CacheController &ctrl;
    BlockId block;
    Addr addr;
    Addr pc;
    RequestType type;
    Tick when;
};

AccessReply
CacheController::access(Addr addr, Addr pc, bool is_write, Tick when,
                        const Completion &on_complete)
{
    BlockId block = blockOf(addr);

    // Secondary access to an in-flight block: coalesce into the MSHR
    // and replay once the primary fill returns. The MSHR file is
    // empty for the vast majority of accesses (L1/L2 hits with no
    // outstanding miss), so skip the hash probe outright then.
    if (!mshrs_.empty()) {
        if (auto it = mshrs_.find(block); it != mshrs_.end()) {
            it->second.queued.push_back(
                Mshr::Queued{addr, pc, is_write, on_complete});
            return AccessReply::Miss;
        }
    }

    // Staged pipeline: the probe classifies (and, for repeats, the L0
    // filter answers without walking L1/L2); the commit applies the
    // LRU/state effects and, on a miss, hands back the FillHandle --
    // no re-fetch through a mutable latch, so a second access can
    // never clobber this miss's walk cursors.
    NodeCaches::StagedAccess staged =
        caches_.probeAccess(addr, is_write);
    caches_.commitAccess(staged);
    if (staged.result.need == CoherenceNeed::None) {
        return staged.result.l1Hit ? AccessReply::L1Hit
                                   : AccessReply::L2Hit;
    }

    RequestType type = staged.result.need == CoherenceNeed::GetExclusive
                           ? RequestType::GetExclusive
                           : RequestType::GetShared;

    Mshr &mshr = mshrs_[block];
    mshr.type = type;
    mshr.handle = staged.fillHandle();
    mshr.waiters.push_back(on_complete);

    if (when < port_.now())
        when = port_.now();
    port_.schedule(
        *EventPool<IssueEvent>::instance().acquire(*this, block, addr,
                                                   pc, type, when),
        when, EventPriority::Controller);
    return AccessReply::Miss;
}

void
CacheController::issueRequest(BlockId block, Addr addr, Addr pc,
                              RequestType type, Tick when)
{
    auto it = mshrs_.find(block);
    dsp_assert(it != mshrs_.end(), "issue without mshr");

    // Node-local id: unique across the system without any shared
    // counter, and identical for every shard count. 16 node bits so
    // ids stay collision-free up to maxNodes (8 overflowed at 256+).
    TxnId id = (nextTxnSeq_++ << 16) | node_;
    it->second.txn = id;

    Message msg;
    msg.kind = MessageKind::Request;
    msg.txn = id;
    msg.addr = addr;
    msg.pc = pc;
    msg.type = type;
    msg.src = node_;
    msg.dests = sys_.destinationsFor(block, addr, pc, type, node_);
    msg.echo.issued = when;
    msg.echo.requester = node_;
    sys_.crossbar_.sendOrdered(std::move(msg));
}

void
CacheController::invalidateLocal(BlockId block)
{
    if (auto it = mshrs_.find(block); it != mshrs_.end()) {
        // The block is in flight; drop it right after the fill so the
        // waiting access still completes (it held permission at its
        // serialization point).
        it->second.invalidateAfterFill = true;
        return;
    }
    // Coherence fan-in: every invalidation reaching this node's
    // caches goes through here, so this is the one l0Invalidate()
    // call site for them (see docs/access_pipeline.md).
    caches_.l0Invalidate(block);
    caches_.invalidate(block);
}

void
CacheController::onSnoop(const Message &msg, Tick tick)
{
    // Only the resolving attempt's deliveries carry snoop duties;
    // earlier (insufficient) attempts are ignored by the caches.
    const TxnEcho &echo = msg.echo;
    if (!echo.resolved || echo.resolvedAttempt != msg.attempt)
        return;

    BlockId block = msg.block();

    if (echo.responder == node_ && echo.responder != echo.requester) {
        // We own the block: supply data after the L2 access -- but no
        // earlier than our own fill's expected arrival, if the
        // ordering point chained this transfer behind it.
        Tick start = std::max(tick, echo.supplyEarliest);
        // Mutation: read the L2 immediately, ignoring the chained
        // bound -- stale bytes go on the wire when the bound was the
        // constraint. Recorded honestly below; the oracle compares
        // the actual start against the transaction's bound.
        if (verify::armed(sys_.oracle()) &&
            sys_.params().verify.mutation ==
                verify::Mutation::StaleDataSupply) {
            start = tick;
        }
        Tick send = start + nsToTicks(sys_.params().latency.l2_ns);

        if (msg.type == RequestType::GetExclusive) {
            invalidateLocal(block);
            if (verify::armed(sys_.oracle())) {
                sys_.oracle()->recordInvalDone(node_, block, msg.txn,
                                               tick);
            }
        } else {
            // Downgrade stales any L0 writable result for the block.
            caches_.l0Invalidate(block);
            caches_.downgrade(block);
        }

        if (verify::armed(sys_.oracle())) {
            sys_.oracle()->recordSupply(node_, node_, block, msg.txn,
                                        start, tick);
        }

        Message data;
        data.kind = MessageKind::Data;
        data.txn = msg.txn;
        data.addr = msg.addr;
        data.pc = msg.pc;
        data.type = msg.type;
        data.src = node_;
        data.dest = echo.requester;
        data.echo = echo;
        sys_.sendLater(std::move(data), send);
        return;
    }

    // A sharer (or stale owner) observing a GETX drops its copy.
    if (msg.type == RequestType::GetExclusive &&
        echo.required.contains(node_)) {
        // Mutation: the invalidation is silently dropped -- this node
        // keeps a readable copy the new owner will write over. The
        // InvalDue witnessed at delivery goes unacknowledged.
        if (verify::armed(sys_.oracle()) &&
            sys_.params().verify.mutation ==
                verify::Mutation::DropInvalidation) {
            return;
        }
        invalidateLocal(block);
        if (verify::armed(sys_.oracle()))
            sys_.oracle()->recordInvalDone(node_, block, msg.txn, tick);
    }
}

void
CacheController::onForward(const Message &msg, Tick tick)
{
    // Directory protocol: we are (were) the owner; supply the data.
    BlockId block = msg.block();
    const TxnEcho &echo = msg.echo;
    Tick start = std::max(tick, echo.supplyEarliest);
    Tick send = start + nsToTicks(sys_.params().latency.l2_ns);

    if (msg.type == RequestType::GetExclusive) {
        invalidateLocal(block);
        if (verify::armed(sys_.oracle()))
            sys_.oracle()->recordInvalDone(node_, block, msg.txn, tick);
    } else {
        // Downgrade stales any L0 writable result for the block.
        caches_.l0Invalidate(block);
        caches_.downgrade(block);
    }

    if (verify::armed(sys_.oracle())) {
        sys_.oracle()->recordSupply(node_, node_, block, msg.txn,
                                    start, tick);
    }

    Message data;
    data.kind = MessageKind::Data;
    data.txn = msg.txn;
    data.addr = msg.addr;
    data.pc = msg.pc;
    data.type = msg.type;
    data.src = node_;
    data.dest = echo.requester;
    data.echo = echo;
    sys_.sendLater(std::move(data), send);
}

void
CacheController::onInvalidate(const Message &msg, Tick tick)
{
    invalidateLocal(msg.block());
    if (verify::armed(sys_.oracle())) {
        sys_.oracle()->recordInvalDone(node_, msg.block(), msg.txn,
                                       tick);
    }
}

void
CacheController::onData(const Message &msg, Tick tick)
{
    complete(msg, tick);
}

void
CacheController::complete(const Message &msg, Tick tick)
{
    BlockId block = msg.block();
    auto it = mshrs_.find(block);
    if (it == mshrs_.end() || it->second.txn != msg.txn)
        return;  // stale or duplicate completion
    Mshr mshr = std::move(it->second);
    mshrs_.erase(it);

    // Install the granted state; reflect any L2 eviction into the
    // global sharing state (one hop away, at the hub) and, for dirty
    // victims, the network. The MSHR's handles make the install
    // walk-free: the set walks happened once, at the access.
    NodeCaches::FillResult fill =
        caches_.fill(msg.addr, msg.echo.granted, &mshr.handle);
    if (verify::armed(sys_.oracle())) {
        sys_.oracle()->recordFill(node_, msg, mshr.invalidateAfterFill,
                                  tick);
    }
    if (fill.evicted) {
        if (isOwnerState(fill.victimState)) {
            sys_.notifyEviction(fill.victim, true, node_, tick);
            Message wb;
            wb.kind = MessageKind::Writeback;
            wb.addr = blockBase(fill.victim);
            wb.src = node_;
            wb.dest = sys_.homeOf_(fill.victim);
            sys_.sendOrLocal(wb);
        } else if (fill.victimState == MosiState::Shared) {
            sys_.notifyEviction(fill.victim, false, node_, tick);
        }
    }

    if (mshr.invalidateAfterFill) {
        // A racing GETX serialized after our miss; honour it now that
        // our access has (logically) completed. The fill above just
        // recorded the block in the L0 -- drop that too.
        caches_.l0Invalidate(block);
        caches_.invalidate(block);
    }

    sys_.trainRequester(msg);
    sys_.recordCompletion(msg, tick);

    for (Completion &waiter : mshr.waiters)
        waiter(tick);

    // Replay coalesced accesses; they may hit now or start new
    // misses. Unlike CPU-initiated accesses (whose hit latency the
    // CPU charges inline), replayed waiters always expect their
    // completion callback.
    for (Mshr::Queued &queued : mshr.queued) {
        AccessReply reply = access(queued.addr, queued.pc,
                                   queued.write, tick, queued.done);
        if (reply == AccessReply::L1Hit) {
            queued.done(tick + nsToTicks(sys_.params().latency.l1_ns));
        } else if (reply == AccessReply::L2Hit) {
            queued.done(tick + nsToTicks(sys_.params().latency.l2_ns));
        }
    }
}

void
CacheController::ckptSave(ckpt::Writer &w) const
{
    caches_.ckptSave(w);
    // Completions are {trampoline, cpu, token} PODs: only the token
    // survives serialization; the fn/ctx pair is rebuilt through the
    // owning CPU at load (host pointers never enter the file).
    mshrs_.ckptSave(w, [](ckpt::Writer &out, const Mshr &m) {
        out.u64(m.txn);
        out.u8(static_cast<std::uint8_t>(m.type));
        out.b(m.invalidateAfterFill);
        out.pod(m.handle);
        out.u64(m.waiters.size());
        for (const Completion &c : m.waiters)
            out.u64(c.token);
        out.u64(m.queued.size());
        for (const Mshr::Queued &q : m.queued) {
            out.u64(q.addr);
            out.u64(q.pc);
            out.b(q.write);
            out.u64(q.done.token);
        }
    });
    w.u64(nextTxnSeq_);
}

void
CacheController::ckptLoad(ckpt::Reader &r)
{
    caches_.ckptLoad(r);
    Cpu &cpu = *sys_.cpus_[node_];
    mshrs_.ckptLoad(r, [&cpu](ckpt::Reader &in, Mshr &m) {
        m.txn = in.u64();
        m.type = static_cast<RequestType>(in.u8());
        m.invalidateAfterFill = in.b();
        m.handle = in.pod<NodeCaches::FillHandle>();
        m.waiters.resize(static_cast<std::size_t>(in.u64()));
        for (Completion &c : m.waiters)
            c = cpu.ckptCompletion(in.u64());
        m.queued.resize(static_cast<std::size_t>(in.u64()));
        for (Mshr::Queued &q : m.queued) {
            q.addr = in.u64();
            q.pc = in.u64();
            q.write = in.b();
            q.done = cpu.ckptCompletion(in.u64());
        }
    });
    nextTxnSeq_ = r.u64();
}

Event &
CacheController::ckptRestoreIssue(ckpt::Reader &r)
{
    BlockId block = r.u64();
    Addr addr = r.u64();
    Addr pc = r.u64();
    auto type = static_cast<RequestType>(r.u8());
    Tick when = r.u64();
    return *EventPool<IssueEvent>::instance().acquire(
        *this, block, addr, pc, type, when);
}

} // namespace dsp
