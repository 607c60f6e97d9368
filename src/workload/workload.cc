#include "workload/workload.hh"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstring>

#include "sim/logging.hh"

namespace dsp {

Workload::Workload(std::string name, NodeId num_nodes, double mean_work,
                   std::uint64_t seed, double episode_len)
    : name_(std::move(name)),
      numNodes_(num_nodes),
      meanWork_(mean_work),
      episodeLen_(episode_len),
      workGeo_(mean_work + 1.0),
      episodeGeo_(episode_len)
{
    dsp_assert(num_nodes > 0 && num_nodes <= maxNodes,
               "bad node count %u", num_nodes);
    dsp_assert(mean_work >= 0.0, "mean work must be non-negative");
    dsp_assert(episode_len >= 1.0, "episode length must be >= 1");
    lanes_.reset(new Lane[num_nodes]);
    slots_.reset(new MemRef[std::size_t{num_nodes} * ringSize]);
    for (NodeId p = 0; p < num_nodes; ++p) {
        lanes_[p].slots = &slots_[std::size_t{p} * ringSize];
        lanes_[p].rng = Rng(seed, /* stream */ p + 1);
    }
}

Workload::~Workload()
{
    stopProducer();
}

void
Workload::addRegion(std::unique_ptr<Region> region, double weight)
{
    dsp_assert(weight > 0.0, "region weight must be positive");
    dsp_assert(!running_.load(std::memory_order_relaxed),
               "region added to workload '%s' after its first reference",
               name_.c_str());
    double prev = cumWeights_.empty() ? 0.0 : cumWeights_.back();
    regions_.push_back(std::move(region));
    cumWeights_.push_back(prev + weight);
}

std::size_t
Workload::pickRegion(Rng &rng) const
{
    dsp_assert(!regions_.empty(), "workload '%s' has no regions",
               name_.c_str());
    double u = rng.uniformReal() * cumWeights_.back();
    // Linear scan: region counts are single digit.
    for (std::size_t i = 0; i < cumWeights_.size(); ++i)
        if (u < cumWeights_[i])
            return i;
    return cumWeights_.size() - 1;
}

void
Workload::generate(Lane &lane, std::uint32_t n)
{
    // The per-ref overheads are hoisted out of the inner loop: the RNG
    // state lives in a local for the whole call, and refs are
    // generated an *episode chunk* at a time so the region dispatch
    // happens once per chunk, not once per ref. Every draw happens in
    // exactly the order a one-ref-at-a-time generator makes it --
    // chunk boundaries coincide with the episode draws -- so the
    // stream does not depend on n (pinned by the stream tests in
    // test_workload.cc).
    Rng rng = lane.rng;
    const bool draw_work = meanWork_ != 0.0;
    const NodeId proc = static_cast<NodeId>(&lane - lanes_.get());
    std::uint64_t at = lane.produced;
    const std::uint64_t end = at + n;
    while (at < end) {
        if (lane.episodeLeft == 0) {
            lane.region = pickRegion(rng);
            lane.episodeLeft = episodeGeo_.sample(rng);
        }
        Region &region = *regions_[lane.region];
        std::uint64_t run = std::min(end - at, lane.episodeLeft);
        lane.episodeLeft -= run;
        for (const std::uint64_t stop = at + run; at < stop; ++at) {
            RegionRef ref = region.gen(proc, rng);
            MemRef &out = lane.slots[at & ringMask];
            out.work = draw_work
                           ? static_cast<std::uint32_t>(
                                 workGeo_.sample(rng) - 1)
                           : 0;
            out.addr = ref.addr;
            out.pc = ref.pc;
            out.write = ref.write;
        }
    }
    lane.rng = rng;
    lane.produced = end;
    lane.head.store(static_cast<std::uint32_t>(end),
                    std::memory_order_release);
}

// The ring protocol. Positions are counted in references; the atomics
// carry their low 32 bits, and differences are taken modulo 2^32 (a
// ring holds far fewer). head publishes filled slots (release/acquire),
// tail returns drained ones. One store-then-load handshake is seq_cst
// on both sides, so that of the two threads at least one sees the
// other's store: the producer stores asleep_ and then rereads every
// tail before it sleeps; a consumer stores its tail and then reads
// asleep_.
//
// A lane's generator (produced, rng, region, episodeLeft, the slots
// past head) belongs to whoever holds lane.gen: the producer, chunk by
// chunk, or a consumer whose ring ran dry. A dry ring therefore costs
// one inline chunk, never a wait for the producer to be scheduled.

void
Workload::take(Lane &lane)
{
    if (!running_.load(std::memory_order_acquire))
        startProducer();
    const auto pos = static_cast<std::uint32_t>(lane.pos);
    lane.tail.store(pos, std::memory_order_seq_cst);
    std::uint32_t head = lane.head.load(std::memory_order_acquire);
    if (head - pos < ringSize / 2 &&
        asleep_.load(std::memory_order_seq_cst)) {
        wakeProducer();
    }
    if (head == pos) {
        lane.stalls.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(lane.gen);
        if (static_cast<std::uint32_t>(lane.produced) == pos) {
            if (failed_.load(std::memory_order_acquire))
                std::rethrow_exception(error_);
            generate(lane, ringStep);
        }
        head = static_cast<std::uint32_t>(lane.produced);
    }
    lane.limit = lane.pos + std::min(head - pos, ringStep);
}

void
Workload::wakeProducer()
{
    wakeSeq_.fetch_add(1, std::memory_order_release);
    wakeSeq_.notify_one();
}

void
Workload::startProducer()
{
    std::lock_guard<std::mutex> lock(startMutex_);
    if (running_.load(std::memory_order_relaxed))
        return;
    // Checked here, on the consumer's thread, rather than by the
    // first draw on the producer's.
    dsp_assert(!regions_.empty(), "workload '%s' has no regions",
               name_.c_str());
    running_.store(1, std::memory_order_release);
    // With one core to run on, a producer could only take turns with
    // its consumers; leave every chunk to them instead.
    cpu_set_t cpus;
    if (sched_getaffinity(0, sizeof cpus, &cpus) == 0 &&
        CPU_COUNT(&cpus) < 2) {
        return;
    }
    producer_ = std::thread([this] {
        // Run only on otherwise idle cores: where the simulation keeps
        // every core busy (a run pinned to one core, or as many shard
        // threads as cores), the consumers generate inline instead of
        // losing their cores to the producer. Best effort.
        sched_param param{};
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
        produce();
    });
}

void
Workload::stopProducer()
{
    if (!running_.load(std::memory_order_acquire))
        return;
    stop_.store(1, std::memory_order_relaxed);
    wakeProducer();
    if (producer_.joinable())
        producer_.join();
    stop_.store(0, std::memory_order_relaxed);
    asleep_.store(0, std::memory_order_relaxed);
    running_.store(0, std::memory_order_release);
}

bool
Workload::anyBelowHalf() const
{
    for (NodeId p = 0; p < numNodes_; ++p) {
        const Lane &lane = lanes_[p];
        if (lane.head.load(std::memory_order_acquire) -
                lane.tail.load(std::memory_order_seq_cst) <
            ringSize / 2) {
            return true;
        }
    }
    return false;
}

bool
Workload::topUp()
{
    // Round robin, one chunk per lane per pass, so the rings fill
    // evenly. A lane whose consumer is generating is skipped.
    for (bool filled = true; filled;) {
        filled = false;
        for (NodeId p = 0; p < numNodes_; ++p) {
            Lane &lane = lanes_[p];
            std::unique_lock<std::mutex> lock(lane.gen, std::try_to_lock);
            if (!lock)
                continue;
            std::uint32_t used =
                static_cast<std::uint32_t>(lane.produced) -
                lane.tail.load(std::memory_order_acquire);
            if (used == ringSize)
                continue;
            generate(lane, std::min(ringSize - used, ringStep));
            filled = true;
            if (stop_.load(std::memory_order_relaxed))
                return false;
        }
    }
    return true;
}

void
Workload::produce()
{
    try {
        while (topUp()) {
            std::uint32_t seq = wakeSeq_.load(std::memory_order_acquire);
            asleep_.store(1, std::memory_order_seq_cst);
            if (stop_.load(std::memory_order_relaxed))
                return;
            if (!anyBelowHalf()) {
                wakeSeq_.wait(seq, std::memory_order_acquire);
                if (stop_.load(std::memory_order_relaxed))
                    return;
                wakes_.fetch_add(1, std::memory_order_relaxed);
            }
            asleep_.store(0, std::memory_order_relaxed);
        }
    } catch (...) {
        // A panic under PanicGuard (tests) throws. Keep it for the
        // consumers, which rethrow it when their rings run dry.
        error_ = std::current_exception();
        failed_.store(1, std::memory_order_release);
    }
}

Workload::PipelineStats
Workload::pipelineStats() const
{
    PipelineStats stats;
    for (NodeId p = 0; p < numNodes_; ++p)
        stats.stalls += lanes_[p].stalls.load(std::memory_order_relaxed);
    stats.wakes = wakes_.load(std::memory_order_relaxed);
    return stats;
}

void
Workload::ckptSave(ckpt::Writer &w)
{
    stopProducer();
    w.section(0x574b4c44u);  // "WKLD"
    w.u64(numNodes_);
    for (NodeId p = 0; p < numNodes_; ++p) {
        // Filling to pos + ringSize reuses slots the consumer has read
        // but not yet returned; return them, so the restarted producer
        // finds the ring exactly full.
        Lane &lane = lanes_[p];
        generate(lane, ringSize -
                           static_cast<std::uint32_t>(lane.produced -
                                                      lane.pos));
        lane.tail.store(static_cast<std::uint32_t>(lane.pos),
                        std::memory_order_relaxed);
        for (std::uint64_t v : lane.rng.ckptState())
            w.u64(v);
        w.u64(lane.region);
        w.u64(lane.episodeLeft);
        // The buffer in podVec layout, each MemRef written field by
        // field with zero padding: the padding of a MemRef in memory
        // is whatever its last copy left there.
        w.u64(ringSize);
        for (std::uint32_t i = 0; i < ringSize; ++i) {
            const MemRef &ref = lane.slots[(lane.pos + i) & ringMask];
            unsigned char bytes[sizeof(MemRef)] = {};
            std::memcpy(bytes + offsetof(MemRef, work), &ref.work,
                        sizeof ref.work);
            std::memcpy(bytes + offsetof(MemRef, addr), &ref.addr,
                        sizeof ref.addr);
            std::memcpy(bytes + offsetof(MemRef, pc), &ref.pc,
                        sizeof ref.pc);
            std::memcpy(bytes + offsetof(MemRef, write), &ref.write,
                        sizeof ref.write);
            w.bytes(bytes, sizeof bytes);
        }
        w.u64(0);  // bufPos: the pending refs start the buffer
        w.u64(lane.pos);
    }
    w.u64(regions_.size());
    for (const auto &region : regions_)
        region->ckptSave(w);
}

void
Workload::ckptLoad(ckpt::Reader &r)
{
    stopProducer();
    r.section(0x574b4c44u);
    dsp_assert(r.u64() == numNodes_,
               "checkpoint workload processor count mismatch");
    for (NodeId p = 0; p < numNodes_; ++p) {
        Lane &lane = lanes_[p];
        std::array<std::uint64_t, 4> s;
        for (std::uint64_t &v : s)
            v = r.u64();
        lane.rng.ckptRestore(s);
        std::uint64_t region = r.u64();
        if (region >= regions_.size()) {
            dsp_fatal("checkpoint workload: processor %u is in region "
                      "%llu of %zu",
                      p, static_cast<unsigned long long>(region),
                      regions_.size());
        }
        lane.region = static_cast<std::size_t>(region);
        lane.episodeLeft = r.u64();
        std::vector<MemRef> buf = r.podVec<MemRef>();
        std::uint64_t buf_pos = r.u64();
        if (buf_pos > buf.size()) {
            dsp_fatal("checkpoint workload: processor %u buffer position "
                      "%llu is past its %zu reference(s)",
                      p, static_cast<unsigned long long>(buf_pos),
                      buf.size());
        }
        if (buf.size() - buf_pos > ringSize) {
            dsp_fatal("checkpoint workload: processor %u holds %llu "
                      "pending reference(s), more than a ring's %u",
                      p,
                      static_cast<unsigned long long>(buf.size() -
                                                      buf_pos),
                      ringSize);
        }
        lane.pos = lane.limit = r.u64();
        lane.produced = lane.pos;
        for (std::size_t i = static_cast<std::size_t>(buf_pos);
             i < buf.size(); ++i) {
            lane.slots[lane.produced++ & ringMask] = buf[i];
        }
        lane.tail.store(static_cast<std::uint32_t>(lane.pos),
                        std::memory_order_relaxed);
        lane.head.store(static_cast<std::uint32_t>(lane.produced),
                        std::memory_order_relaxed);
    }
    dsp_assert(r.u64() == regions_.size(),
               "checkpoint workload region count mismatch");
    for (auto &region : regions_)
        region->ckptLoad(r);
}

Addr
Workload::totalFootprint() const
{
    Addr total = 0;
    for (const auto &region : regions_)
        total += region->bytes();
    return total;
}

} // namespace dsp
