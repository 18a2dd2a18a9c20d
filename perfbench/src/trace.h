/**
 * @file
 * The benchmark's own span recorder.
 *
 * Spans are opened and closed by the benchmark around each call into a
 * Manta layer; nothing inside the library is instrumented. A span has
 * a name, a start, an end and the span that was open when it started
 * (its parent). Spans live in memory and are written out as Chrome
 * trace-event JSON when the run ends.
 *
 * All spans are recorded from the benchmark's single driving thread;
 * the library's own worker threads never touch the recorder.
 */
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Trace
{
  public:
    struct Span
    {
        const char *name = "";   ///< A string literal.
        int parent = -1;         ///< Index of the enclosing span, -1 = root.
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;

        double seconds() const { return (endNs - startNs) * 1e-9; }
    };

    /** A disabled trace records nothing and costs one branch per span. */
    explicit Trace(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Turn recording on or off between spans (never inside one). */
    void setEnabled(bool on) { enabled_ = on; }

    /**
     * Open a span under the innermost open one; returns its index.
     * `name` must outlive the trace (spans use string literals).
     */
    int open(const char *name);

    /** Close the innermost open span, which must be `index`. */
    void close(int index);

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Self time per span name: each span's duration minus the part of
     * it that its direct children cover, summed over all spans of that
     * name.
     */
    std::map<std::string, double> selfSeconds() const;

    /** Total (inclusive) time per span name. */
    std::map<std::string, double> totalSeconds() const;

    /** Chrome trace-event JSON ("X" complete events, microseconds). */
    std::string chromeJson() const;

  private:
    static std::int64_t nowNs();

    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span; a no-op when the trace is disabled. */
class Scope
{
  public:
    Scope(Trace &trace, const char *name)
        : trace_(trace), index_(trace.enabled() ? trace.open(name) : -1)
    {}
    ~Scope()
    {
        if (index_ >= 0)
            trace_.close(index_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Trace &trace_;
    int index_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
