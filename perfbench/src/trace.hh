/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * Spans are recorded from the benchmark's own code around the calls it
 * makes into each layer's public functions (no in-program tracing).
 * A span is (name, start, end, parent); a layer's self time is its
 * span's duration minus the durations of its direct children, which on
 * one thread never overlap. Each worker thread owns one Tracer, so
 * recording takes no lock; the benchmark merges them when the run ends
 * and writes every span out once, after all timing is done.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Seconds on the steady clock since a process-wide epoch. */
inline double
nowSeconds()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch)
        .count();
}

class Tracer
{
  public:
    struct Span
    {
        /** Static string: span names are literals at the call sites. */
        const char *name = "";
        double start = 0.0;
        double end = 0.0;
        /** Index of the parent span in this tracer, -1 for a root. */
        int parent = -1;
    };

    /** Open a span as a child of the innermost open span. */
    int
    begin(const char *name)
    {
        const int id = static_cast<int>(spans_.size());
        spans_.push_back({name, nowSeconds(), 0.0, open_});
        open_ = id;
        return id;
    }

    /** Close span @p id, which must be the innermost open span. */
    void
    end(int id)
    {
        Span &span = spans_[static_cast<std::size_t>(id)];
        span.end = nowSeconds();
        open_ = span.parent;
    }

    /**
     * Record a child of @p parent whose duration the program measured
     * itself (e.g. RunResult::checkSeconds). It is placed at the end of
     * its parent; only its duration is a measurement.
     */
    void
    addMeasuredChild(int parent, const char *name, double seconds)
    {
        const Span &p = spans_[static_cast<std::size_t>(parent)];
        spans_.push_back({name, p.end - seconds, p.end, parent});
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Summed self time and duration of the spans of one name. */
    struct Times
    {
        double self = 0.0;
        double total = 0.0;
    };

    /** Accumulate this tracer's per-name times into @p out. */
    void
    addTimes(std::map<std::string, Times> &out) const
    {
        std::vector<double> child(spans_.size(), 0.0);
        for (const Span &s : spans_) {
            if (s.parent >= 0)
                child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
        }
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const double duration = spans_[i].end - spans_[i].start;
            Times &t = out[spans_[i].name];
            t.self += duration - child[i];
            t.total += duration;
        }
    }

  private:
    std::vector<Span> spans_;
    int open_ = -1;
};

/** Open a span on @p tracer if it is non-null; close it at scope exit. */
class Scope
{
  public:
    Scope(Tracer *tracer, const char *name)
        : tracer_(tracer), id_(tracer != nullptr ? tracer->begin(name) : -1)
    {
    }
    ~Scope()
    {
        if (tracer_ != nullptr)
            tracer_->end(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    int id() const { return id_; }

  private:
    Tracer *tracer_;
    int id_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
