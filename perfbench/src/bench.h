/**
 * @file
 * Shared plumbing of the three workloads: options, the result record,
 * resource probes, order statistics and per-layer metric extraction.
 */
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.h"
#include "pipeline.h"
#include "trace.h"

namespace perfbench {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;        ///< Self-test scale: small inputs.
    std::string workDir = ".";  ///< Snapshot files go here.
    std::string traceOut;     ///< Chrome trace path ("" = none).
};

/** One metric as the benchmark prints it. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Outcome of one workload run. */
struct Report
{
    bool correct = true;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<Metric> metrics;

    void add(const std::string &name, double value, const std::string &unit);

    /** Count one failed operation (and print why to stderr). */
    void fail(const std::string &why);

    /** Count one attempted operation; false == failure (see fail()). */
    bool check(bool ok, const std::string &why);
};

/// @name Process resource probes.
/// @{
double cpuSeconds();   ///< User + system CPU of this process.
double peakRssMib();   ///< Peak resident set size of this process.
/// @}

/// @name Order statistics (nearest rank on a sorted copy).
/// @{
double median(std::vector<double> values);
double percentile(std::vector<double> values, double p);
/// @}

/** The bug-salting the lint campaign uses, applied to a profile. */
void saltBugs(manta::GenConfig &config);

/**
 * The small salted binary of the warm-up set-up pass. It is the same
 * for every seed, so set-up time follows the program, not the input.
 */
manta::ProjectProfile warmupProfile();

/**
 * Set-up of the CLI-path workloads: the full path over the warm-up
 * binary, 15 times; returns the median seconds.
 */
double warmupSeconds(const Input &warmup, Report &report);

/** Table 3 / Table 5 metrics of an accumulated Quality. */
void addQualityMetrics(Report &report, const Quality &quality);

/**
 * Per-layer metrics of the traced passes: span totals from `trace`
 * divided over the passes, `_ns_per_inst` companions, and the API
 * counters collected in `passes`.
 */
void addLayerMetrics(Report &report, const Trace &trace,
                     const std::vector<PathStats> &passes);

/**
 * Print the self-time table of a trace (span minus its children,
 * grouped by layer) and check that it accounts for the traced root
 * spans; writes the Chrome trace when `path` is set.
 */
void reportTrace(const Trace &trace, const std::string &path);

/** Traced minus untraced median operation time, printed. */
void reportOverhead(const std::vector<double> &traced_ms,
                    const std::vector<double> &untraced_ms);

int runAudit(const Options &options, Report &report);
int runFleet(const Options &options, Report &report);
int runServe(const Options &options, Report &report);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
