#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>

#include "support/timer.h"

namespace perfbench {

using namespace manta;

void
Report::add(const std::string &name, double value, const std::string &unit)
{
    metrics.push_back({name, value, unit});
}

bool
Report::check(bool ok, const std::string &why)
{
    ++attempted;
    if (!ok) {
        ++failed;
        correct = false;
        std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
    }
    return ok;
}

double
cpuSeconds()
{
    struct rusage usage {};
    ::getrusage(RUSAGE_SELF, &usage);
    auto secs = [](const struct timeval &tv) {
        return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double
peakRssMib()
{
    struct rusage usage {};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return NAN;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
    const std::size_t index =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values[std::min(index, values.size() - 1)];
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return NAN;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void
saltBugs(GenConfig &config)
{
    config.realBugRate = 0.05;
    config.decoyRate = 0.05;
    config.benignCopyRate = 0.03;
    config.benignSystemRate = 0.03;
    config.leakRate = 0.05;
    config.leakDecoyRate = 0.05;
}

ProjectProfile
warmupProfile()
{
    ProjectProfile profile = coreutilsBatch(1).front();
    profile.name = "warmup";
    profile.config.numFunctions = 60;
    saltBugs(profile.config);
    return profile;
}

double
warmupSeconds(const Input &warmup, Report &report)
{
    Trace off(false);
    std::vector<double> samples;
    for (int rep = 0; rep < 15; ++rep) {
        PathResult pass;
        std::string error;
        Timer timer;
        const bool ok = runCliPath(warmup.text, warmup.name + ".mir", off,
                                   pass, error);
        samples.push_back(timer.seconds());
        report.check(ok, "warm-up: " + error);
    }
    return median(samples);
}

void
addQualityMetrics(Report &report, const Quality &q)
{
    report.add("type_precision", q.types.precision(), "ratio");
    report.add("type_recall", q.types.recall(), "ratio");
    report.add("types_incorrect", static_cast<double>(q.types.incorrect),
               "count");
    // Nothing injected leaves nothing to miss.
    report.add("bug_recall",
               q.realBugsInjected == 0
                   ? 1.0
                   : static_cast<double>(q.realBugsFound) /
                         static_cast<double>(q.realBugsInjected),
               "ratio");
    report.add("bug_fp_share",
               q.bugReports == 0 ? 0.0
                                 : static_cast<double>(q.bugFalsePositives) /
                                       static_cast<double>(q.bugReports),
               "ratio");
}

void
addLayerMetrics(Report &report, const Trace &trace,
                const std::vector<PathStats> &passes)
{
    const double n = static_cast<double>(std::max<std::size_t>(passes.size(), 1));
    double insts = 0;
    for (const PathStats &s : passes)
        insts += static_cast<double>(s.insts);
    insts = std::max(insts, 1.0);
    const std::map<std::string, double> spans = trace.totalSeconds();
    auto spanTotal = [&](const std::string &name) {
        const auto it = spans.find(name);
        return it == spans.end() ? 0.0 : it->second;
    };
    auto timed = [&](const std::string &name, double total_seconds) {
        report.add(name + "_s", total_seconds / n, "s");
        report.add(name + "_ns_per_inst", total_seconds / insts * 1e9,
                   "ns/inst");
    };
    auto sum = [&](auto field) {
        double total = 0;
        for (const PathStats &s : passes)
            total += static_cast<double>(field(s));
        return total;
    };
    auto mean = [&](auto field) { return sum(field) / n; };
    auto share = [](double part, double whole) {
        return whole == 0 ? 0.0 : part / whole;
    };

    timed("mir.parse", spanTotal("mir.parse"));
    report.add("mir.parse_insts_per_s", insts / spanTotal("mir.parse"),
               "1/s");

    timed("analysis.acyclic", spanTotal("analysis.acyclic"));
    timed("analysis.substrate", spanTotal("analysis.substrate"));
    timed("analysis.pts", sum([](const PathStats &s) { return s.ptsSeconds; }));
    report.add("analysis.pts_pops",
               mean([](const PathStats &s) { return s.ptsPops; }), "count");
    report.add("analysis.substrate_heap_mib",
               mean([](const PathStats &s) { return s.substrateHeapMib; }),
               "MiB");

    timed("core.infer", spanTotal("core.infer"));
    timed("core.fi", sum([](const PathStats &s) { return s.profile.fiSeconds; }));
    timed("core.cs", sum([](const PathStats &s) { return s.profile.csSeconds; }));
    timed("core.fs", sum([](const PathStats &s) { return s.profile.fsSeconds; }));
    timed("core.summary",
          sum([](const PathStats &s) { return s.profile.summarySeconds; }));
    const double fs_queries =
        sum([](const PathStats &s) { return s.profile.fsWalk.queries; });
    report.add("core.cs_queries",
               mean([](const PathStats &s) { return s.profile.csWalk.queries; }),
               "count");
    report.add("core.fs_queries", fs_queries / n, "count");
    report.add("core.fs_steps",
               mean([](const PathStats &s) { return s.profile.fsWalk.steps; }),
               "count");
    report.add("core.fs_truncated_share",
               share(sum([](const PathStats &s) {
                         return s.profile.fsWalk.truncated;
                     }),
                     fs_queries),
               "ratio");
    report.add("core.fs_memo_hit_share",
               share(sum([](const PathStats &s) {
                         return s.profile.fsWalk.memoHits;
                     }),
                     fs_queries),
               "ratio");
    report.add("core.fs_resolved",
               mean([](const PathStats &s) { return s.profile.fsResolved; }),
               "count");
    report.add("core.infer_heap_mib",
               mean([](const PathStats &s) { return s.inferHeapMib; }), "MiB");

    timed("lint.run", spanTotal("lint.run"));
    std::map<std::string, double> checkers;
    for (const PathStats &s : passes) {
        for (const auto &[id, seconds] : s.checkerSeconds)
            checkers[id] += seconds;
    }
    for (const auto &[id, seconds] : checkers)
        timed("lint." + id, seconds);
    report.add("lint.diagnostics",
               mean([](const PathStats &s) { return s.diagnostics; }),
               "count");

    timed("taint.run", spanTotal("taint.run"));
    report.add("taint.flows",
               mean([](const PathStats &s) { return s.taintFlows; }), "count");
    report.add("taint.suppressed",
               mean([](const PathStats &s) { return s.taintSuppressed; }),
               "count");

    timed("clients.icall", spanTotal("clients.icall"));
    timed("clients.render", spanTotal("clients.render"));
}

void
reportTrace(const Trace &trace, const std::string &path)
{
    double roots = 0;
    for (const Trace::Span &span : trace.spans()) {
        if (span.parent < 0)
            roots += span.seconds();
    }
    std::map<std::string, double> by_layer;
    const std::map<std::string, double> self = trace.selfSeconds();
    double accounted = 0;
    std::printf("\nself time by span (span minus its children):\n");
    for (const auto &[name, seconds] : self) {
        std::printf("  %-28s %10.4f s  %5.1f%%\n", name.c_str(), seconds,
                    roots > 0 ? 100.0 * seconds / roots : 0.0);
        by_layer[name.substr(0, name.find('.'))] += seconds;
        accounted += seconds;
    }
    std::printf("self time by layer:\n");
    for (const auto &[layer, seconds] : by_layer)
        std::printf("  %-28s %10.4f s  %5.1f%%\n", layer.c_str(), seconds,
                    roots > 0 ? 100.0 * seconds / roots : 0.0);
    std::printf("traced end-to-end %.4f s, accounted by self times %.4f s "
                "(bench = benchmark-owned)\n",
                roots, accounted);
    if (!path.empty()) {
        std::ofstream out(path, std::ios::binary);
        out << trace.chromeJson();
        std::printf("trace: %zu spans written to %s\n", trace.spans().size(),
                    out ? path.c_str() : "(write failed)");
    }
}

void
reportOverhead(const std::vector<double> &traced_ms,
               const std::vector<double> &untraced_ms)
{
    const double traced = median(traced_ms), untraced = median(untraced_ms);
    std::printf("tracing overhead: traced %.3f ms - untraced %.3f ms = "
                "%+.3f ms per operation (%zu traced, %zu untraced)\n",
                traced, untraced, traced - untraced, traced_ms.size(),
                untraced_ms.size());
}

} // namespace perfbench
