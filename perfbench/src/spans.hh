/**
 * @file
 * Host clocks and the traced run's in-memory span recorder.
 *
 * A span is (name, parent, start, end) around one call into a layer.
 * Calls too short and too many to record one by one (a tracker apply
 * per miss, one refill chunk of the replay) are kept as aggregates:
 * (name, parent, count, total time). Everything stays in memory until
 * the run ends and write() dumps it as JSON; nothing is recorded when
 * the benchmark runs untraced.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <time.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic host time in nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** CPU time consumed by the whole process (all threads), in ns. */
inline std::int64_t
cpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 +
           ts.tv_nsec;
}

/**
 * Host cost of one nowNs() call, measured. Each per-call span makes
 * two reads; about one read's cost lands inside the span and one in
 * its parent, so self times are corrected by one read per span.
 */
inline double
clockReadNs()
{
    constexpr int reads = 1 << 20;
    volatile std::int64_t sink = 0;
    std::int64_t start = nowNs();
    for (int i = 0; i < reads; ++i)
        sink = nowNs();
    std::int64_t end = nowNs();
    (void)sink;
    return static_cast<double>(end - start) / reads;
}

class Spans
{
  public:
    static constexpr int none = -1;

    /** Open a span now; returns its id. */
    int
    open(const std::string &name, int parent = none)
    {
        spans_.push_back(Span{name, parent, nowNs(), 0});
        return static_cast<int>(spans_.size()) - 1;
    }

    void close(int id) { spans_[id].end = nowNs(); }

    /** Record `count` calls of `name` under `parent` that took `ns`
     *  nanoseconds in total. */
    void
    aggregate(const std::string &name, int parent, std::uint64_t count,
              double ns)
    {
        aggregates_.push_back(Aggregate{name, parent, count, ns});
    }

    /** Dump all spans and aggregates as JSON; false on I/O error. */
    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        std::int64_t base = spans_.empty() ? 0 : spans_[0].start;
        std::fprintf(f, "{\"spans\": [");
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "%s\n  {\"id\": %zu, \"name\": \"%s\", "
                         "\"parent\": %d, \"start_ns\": %lld, "
                         "\"end_ns\": %lld}",
                         i ? "," : "", i, s.name.c_str(), s.parent,
                         static_cast<long long>(s.start - base),
                         static_cast<long long>(s.end - base));
        }
        std::fprintf(f, "\n], \"aggregates\": [");
        for (std::size_t i = 0; i < aggregates_.size(); ++i) {
            const Aggregate &a = aggregates_[i];
            std::fprintf(f,
                         "%s\n  {\"name\": \"%s\", \"parent\": %d, "
                         "\"count\": %llu, \"total_ns\": %.0f}",
                         i ? "," : "", a.name.c_str(), a.parent,
                         static_cast<unsigned long long>(a.count),
                         a.ns);
        }
        std::fprintf(f, "\n]}\n");
        return std::fclose(f) == 0;
    }

  private:
    struct Span {
        std::string name;
        int parent;
        std::int64_t start;
        std::int64_t end;
    };
    struct Aggregate {
        std::string name;
        int parent;
        std::uint64_t count;
        double ns;
    };
    std::vector<Span> spans_;
    std::vector<Aggregate> aggregates_;
};

/** RAII span; a null recorder records nothing (untraced runs). */
class ScopedSpan
{
  public:
    ScopedSpan(Spans *spans, const std::string &name,
               int parent = Spans::none)
        : spans_(spans),
          id_(spans ? spans->open(name, parent) : Spans::none)
    {
    }
    ~ScopedSpan()
    {
        if (spans_ != nullptr)
            spans_->close(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

  private:
    Spans *spans_;
    int id_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
