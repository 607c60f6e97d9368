#include "replay.hh"

#include <algorithm>

#include "coherence/sharing_tracker.hh"
#include "sim/event_queue.hh"

namespace perfbench {

using namespace dsp;

namespace {

/** References buffered per generation chunk, over all CPUs (~16 MB
 *  of MemRefs plus the interleaved stream). */
constexpr std::size_t chunkRefs = std::size_t{1} << 19;

/** Sends per crossbar batch: one pair of clock reads per batch keeps
 *  timer cost out of the ~100 ns send path. */
constexpr std::size_t sendBatch = 16;

struct CpuRef {
    NodeId cpu;
    MemRef ref;
};

/** Per-call span around one SharingTracker call. */
class TrackerSpan
{
  public:
    explicit TrackerSpan(FunctionalReplay &out)
        : out_(out), start_(nowNs())
    {
    }
    ~TrackerSpan()
    {
        out_.trackerNs += static_cast<double>(nowNs() - start_);
        ++out_.trackerCalls;
    }

  private:
    FunctionalReplay &out_;
    std::int64_t start_;
};

} // namespace

FunctionalReplay
replayFunctional(Workload &workload,
                 const std::vector<std::uint64_t> &refs_per_cpu,
                 const CacheParams &params, Spans &spans, int parent)
{
    const NodeId n = workload.numNodes();
    FunctionalReplay out;
    SharingTracker tracker(n);
    std::vector<NodeCaches> nodes;
    nodes.reserve(n);
    for (NodeId p = 0; p < n; ++p)
        nodes.emplace_back(params);

    const std::size_t per_cpu = std::max<std::size_t>(4096, chunkRefs / n);
    std::vector<std::vector<MemRef>> buf(n);
    for (auto &b : buf)
        b.reserve(per_cpu);
    std::vector<std::size_t> pos(n, 0);
    std::vector<std::uint64_t> left = refs_per_cpu;
    std::vector<std::uint64_t> icount(n, 0);
    std::vector<CpuRef> stream;
    stream.reserve(per_cpu * n);
    std::uint64_t chunks = 0;

    for (bool done = false; !done;) {
        ++chunks;
        // Phase: workload generation, topping up every CPU's buffer.
        std::int64_t t0 = nowNs();
        for (NodeId p = 0; p < n; ++p) {
            std::vector<MemRef> &b = buf[p];
            b.erase(b.begin(), b.begin() + static_cast<long>(pos[p]));
            pos[p] = 0;
            while (b.size() < per_cpu && left[p] > 0) {
                b.push_back(workload.next(p));
                --left[p];
            }
        }

        // Interleave as TraceCollector::step does: the least-advanced
        // CPU (by instructions) goes next, lowest id on ties. A CPU
        // whose references are all replayed drops out; one whose
        // buffer ran dry ends the chunk.
        std::int64_t t1 = nowNs();
        stream.clear();
        for (;;) {
            NodeId p = invalidNode;
            for (NodeId q = 0; q < n; ++q) {
                if (pos[q] == buf[q].size() && left[q] == 0)
                    continue;
                if (p == invalidNode || icount[q] < icount[p])
                    p = q;
            }
            if (p == invalidNode) {
                done = true;
                break;
            }
            if (pos[p] == buf[p].size())
                break;
            const MemRef &ref = buf[p][pos[p]++];
            icount[p] += ref.work + 1;
            stream.push_back(CpuRef{p, ref});
        }

        // Phase: the functional loop (TraceCollector::step's access
        // and handleMiss).
        std::int64_t t2 = nowNs();
        for (const CpuRef &next : stream) {
            const NodeId p = next.cpu;
            const MemRef &ref = next.ref;
            NodeCaches::AccessResult result =
                nodes[p].access(ref.addr, ref.write);
            if (result.need == CoherenceNeed::None)
                continue;

            BlockId block = blockOf(ref.addr);
            RequestType type = ref.write ? RequestType::GetExclusive
                                         : RequestType::GetShared;
            SharingTracker::Transaction txn;
            {
                TrackerSpan span(out);
                txn = tracker.apply(block, p, type);
            }
            if (type == RequestType::GetShared) {
                if (txn.cacheToCache) {
                    nodes[txn.responder].l0Invalidate(block);
                    nodes[txn.responder].downgrade(block);
                }
            } else {
                txn.required.forEach([&](NodeId q) {
                    nodes[q].l0Invalidate(block);
                    nodes[q].invalidate(block);
                });
            }
            NodeCaches::FillResult fill =
                nodes[p].fill(ref.addr, txn.grantedState);
            if (fill.evicted) {
                if (isOwnerState(fill.victimState)) {
                    TrackerSpan span(out);
                    tracker.evictOwned(fill.victim, p);
                } else if (fill.victimState == MosiState::Shared) {
                    TrackerSpan span(out);
                    tracker.evictShared(fill.victim, p);
                }
            }

            ++out.misses;
            if (txn.cacheToCache)
                ++out.cacheToCache;
            TraceRecord record;
            record.addr = ref.addr;
            record.pc = ref.pc;
            record.requiredMask = txn.required.mask();
            record.requester = p;
            record.responder = txn.responder == invalidNode
                                   ? TraceRecord::memoryResponder
                                   : txn.responder;
            record.type = static_cast<std::uint8_t>(type);
            out.records.push_back(record);
        }
        std::int64_t t3 = nowNs();

        out.genNs += static_cast<double>(t1 - t0);
        out.pickNs += static_cast<double>(t2 - t1);
        out.loopNs += static_cast<double>(t3 - t2);
        out.refs += stream.size();
    }

    for (const NodeCaches &caches : nodes) {
        out.accesses += caches.accesses();
        out.l0Hits += caches.l0Hits();
        out.l2Misses += caches.l2Misses();
        // Same word attribution as System::cacheCounters().
        out.wordTouches += caches.l1TagWalks() * params.l1.ways +
                           caches.l2TagWalks() * params.l2.ways +
                           (caches.l0Hits() - caches.l0Absorbed());
    }

    spans.aggregate("Workload::next", parent, out.refs, out.genNs);
    spans.aggregate("interleave", parent, chunks, out.pickNs);
    spans.aggregate("functional-loop", parent, out.refs, out.loopNs);
    spans.aggregate("SharingTracker", parent, out.trackerCalls,
                    out.trackerNs);
    return out;
}

namespace {

/** The training a miss gives the predictors, exactly as the system's
 *  functional warmup does it. Returns the number of train calls. */
std::uint64_t
train(std::vector<std::unique_ptr<Predictor>> &preds, const MissInfo &m,
      const DestinationSet &predicted)
{
    std::uint64_t calls = 0;
    Predictor &own = *preds[m.requester];
    if (!predicted.containsAll(m.required)) {
        own.trainRetry(m.addr, m.pc, m.required);
        ++calls;
    }
    if (m.responder != m.requester) {
        own.trainResponse(m.addr, m.pc, m.responder,
                          !m.required.empty());
        ++calls;
    }
    (predicted | m.required).forEach([&](NodeId q) {
        if (q != m.requester) {
            preds[q]->trainExternalRequest(m.addr, m.pc, m.type,
                                           m.requester);
            ++calls;
        }
    });
    return calls;
}

} // namespace

CoreReplay
replayPredictors(const std::vector<TraceRecord> &records, NodeId nodes,
                 PredictorPolicy policy, const PredictorConfig &config,
                 std::vector<DestinationSet> &predicted)
{
    CoreReplay out;
    predicted.resize(records.size());

    auto preds = makePredictorsPerNode(policy, config);
    std::int64_t start = nowNs();
    for (std::size_t i = 0; i < records.size(); ++i) {
        MissInfo m = records[i].toMissInfo(nodes);
        predicted[i] = preds[m.requester]->predict(m.addr, m.pc, m.type,
                                                   m.requester, m.home);
        out.trains += train(preds, m, predicted[i]);
    }
    out.predictAndTrainNs = static_cast<double>(nowNs() - start);

    auto fresh = makePredictorsPerNode(policy, config);
    start = nowNs();
    for (std::size_t i = 0; i < records.size(); ++i)
        train(fresh, records[i].toMissInfo(nodes), predicted[i]);
    out.trainOnlyNs = static_cast<double>(nowNs() - start);

    out.predicts = records.size();
    for (std::size_t i = 0; i < records.size(); ++i) {
        out.setSizeSum += predicted[i].count();
        if (predicted[i].containsAll(records[i].required()))
            ++out.sufficient;
    }
    return out;
}

NetReplay
replayCrossbar(std::span<const TraceRecord> records, NodeId nodes,
               const CrossbarParams &params,
               std::span<const DestinationSet> predicted)
{
    NetReplay out;
    EventQueue queue;
    OrderedCrossbar crossbar(queue, nodes, params);
    crossbar.setOrderHandler([](const MessageRef &, Tick) {});
    crossbar.setDeliverHandler(
        [&out](const Message &, NodeId, Tick) { ++out.deliveries; });

    const DestinationSet everyone = DestinationSet::all(nodes);
    for (std::size_t base = 0; base < records.size(); base += sendBatch) {
        std::size_t end = std::min(records.size(), base + sendBatch);
        std::int64_t t0 = nowNs();
        for (std::size_t i = base; i < end; ++i) {
            const TraceRecord &r = records[i];
            Message msg;
            msg.kind = MessageKind::Request;
            msg.txn = i;
            msg.addr = r.addr;
            msg.pc = r.pc;
            msg.type = r.requestType();
            msg.src = static_cast<NodeId>(r.requester);
            msg.dests = predicted.empty() ? everyone : predicted[i];
            msg.echo.requester = msg.src;
            crossbar.sendOrdered(msg);
            ++out.sends;
            if (predicted.empty() ||
                predicted[i].containsAll(r.required()))
                continue;
            // The home re-issues an insufficient request to the set
            // the ordering point found it needed.
            msg.kind = MessageKind::Retry;
            msg.attempt = 1;
            msg.src = homeOf(blockOf(r.addr), nodes);
            msg.dests = predicted[i] | r.required();
            crossbar.sendOrdered(msg);
            ++out.sends;
        }
        std::int64_t t1 = nowNs();
        while (!queue.empty())
            queue.step();
        std::int64_t t2 = nowNs();
        out.sendNs += static_cast<double>(t1 - t0);
        out.drainNs += static_cast<double>(t2 - t1);
    }
    out.misses = records.size();
    out.events = queue.executed();
    return out;
}

} // namespace perfbench
