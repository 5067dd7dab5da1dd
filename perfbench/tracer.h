/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * A span wraps one call the benchmark makes into a layer: its name,
 * start and end (steady-clock nanoseconds), the enclosing span, and the
 * op it belongs to (or the set-up repetition it ran in). Spans stay in
 * memory until the run ends; a disabled tracer records nothing and a
 * SpanScope on it costs one branch.
 */

#ifndef NSE_PERFBENCH_TRACER_H
#define NSE_PERFBENCH_TRACER_H

#include <chrono>
#include <cstdint>
#include <ostream>
#include <vector>

namespace perfbench
{

inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Span
{
    const char *name = "";
    /** Workload index the call concerns; -1 = none. */
    int item = -1;
    int64_t start = 0;
    int64_t end = 0;
    int32_t parent = -1;
    /** Timed op id; -1 during set-up. */
    int64_t op = -1;
    /** Set-up repetition; -1 during the timed phase. */
    int setup = -1;
};

class Tracer
{
  public:
    bool on = false;

    void
    inSetup(int rep)
    {
        setup_ = rep;
        op_ = -1;
    }

    void
    inOp(int64_t op)
    {
        setup_ = -1;
        op_ = op;
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Duration of each span minus the time its children cover. */
    std::vector<int64_t>
    selfTimes() const
    {
        std::vector<int64_t> self(spans_.size());
        for (size_t i = 0; i < spans_.size(); ++i)
            self[i] = spans_[i].end - spans_[i].start;
        for (const Span &s : spans_)
            if (s.parent >= 0)
                self[static_cast<size_t>(s.parent)] -= s.end - s.start;
        return self;
    }

    /** One JSON object per line. */
    void
    write(std::ostream &os) const
    {
        for (const Span &s : spans_) {
            os << "{\"name\":\"" << s.name << "\",\"item\":" << s.item
               << ",\"start_ns\":" << s.start << ",\"end_ns\":" << s.end
               << ",\"parent\":" << s.parent << ",\"op\":" << s.op
               << ",\"setup\":" << s.setup << "}\n";
        }
    }

  private:
    friend class SpanScope;

    std::vector<Span> spans_;
    int32_t current_ = -1;
    int64_t op_ = -1;
    int setup_ = -1;
};

/** Records one span for its lifetime when the tracer is on. */
class SpanScope
{
  public:
    SpanScope(Tracer &t, const char *name, int item = -1) : t_(t)
    {
        if (!t_.on)
            return;
        idx_ = static_cast<int32_t>(t_.spans_.size());
        t_.spans_.push_back(
            {name, item, nowNs(), 0, t_.current_, t_.op_, t_.setup_});
        prev_ = t_.current_;
        t_.current_ = idx_;
    }

    ~SpanScope()
    {
        if (idx_ < 0)
            return;
        t_.spans_[static_cast<size_t>(idx_)].end = nowNs();
        t_.current_ = prev_;
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Tracer &t_;
    int32_t idx_ = -1;
    int32_t prev_ = -1;
};

} // namespace perfbench

#endif // NSE_PERFBENCH_TRACER_H
