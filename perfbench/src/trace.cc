#include "trace.h"

#include <cstdio>

namespace perfbench {

std::int64_t
Trace::nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

int
Trace::open(const char *name)
{
    const int index = static_cast<int>(spans_.size());
    spans_.push_back({name, stack_.empty() ? -1 : stack_.back(), 0, 0});
    stack_.push_back(index);
    spans_.back().startNs = nowNs();
    return index;
}

void
Trace::close(int index)
{
    const std::int64_t now = nowNs();
    spans_[static_cast<std::size_t>(index)].endNs = now;
    if (!stack_.empty() && stack_.back() == index)
        stack_.pop_back();
}

std::map<std::string, double>
Trace::selfSeconds() const
{
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].seconds();
    for (const Span &span : spans_) {
        if (span.parent >= 0)
            self[static_cast<std::size_t>(span.parent)] -= span.seconds();
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        out[spans_[i].name] += self[i];
    return out;
}

std::map<std::string, double>
Trace::totalSeconds() const
{
    std::map<std::string, double> out;
    for (const Span &span : spans_)
        out[span.name] += span.seconds();
    return out;
}

std::string
Trace::chromeJson() const
{
    const std::int64_t base = spans_.empty() ? 0 : spans_.front().startNs;
    std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    char buf[512];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        const std::string name = span.name;
        std::snprintf(buf, sizeof buf,
                      "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                      "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                      "\"args\": {\"id\": %zu, \"parent\": %d}}",
                      i == 0 ? "" : ",\n", span.name,
                      name.substr(0, name.find('.')).c_str(),
                      (span.startNs - base) * 1e-3,
                      (span.endNs - span.startNs) * 1e-3, i, span.parent);
        out += buf;
    }
    out += "\n]}\n";
    return out;
}

} // namespace perfbench
