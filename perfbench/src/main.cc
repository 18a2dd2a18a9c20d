/**
 * @file
 * manta_perfbench: the end-to-end benchmark executable.
 *
 *   manta_perfbench --workload audit-xl|fleet-batch|serve-edit
 *                   --seed N --seconds S [--trace 0|1] [--tiny]
 *                   [--work-dir DIR] [--trace-out FILE]
 *
 * Generates the workload's inputs, prints them to MIR text, then
 * measures for S seconds. Human-readable lines go first;
 * the last line of standard output is one JSON record with every
 * metric this run measured (name, value, unit) plus the operation
 * counts. perfbench/run.py builds this binary and turns that record
 * into the benchmark's result line.
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.h"
#include "support/task_pool.h"

namespace {

using namespace perfbench;

int
usage()
{
    std::fprintf(stderr,
                 "usage: manta_perfbench --workload "
                 "audit-xl|fleet-batch|serve-edit --seed N --seconds S "
                 "[--trace 0|1] [--tiny] [--work-dir DIR] "
                 "[--trace-out FILE]\n");
    return 2;
}

std::string
number(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

void
printRecord(const Options &o, const Report &r, std::size_t jobs)
{
    std::string out = "{\"workload\": \"" + o.workload + "\", \"seed\": " +
                      std::to_string(o.seed) + ", \"trace\": " +
                      (o.trace ? "1" : "0") + ", \"jobs\": " +
                      std::to_string(jobs) + ", \"correct\": " +
                      (r.correct ? "true" : "false") + ", \"attempted\": " +
                      std::to_string(r.attempted) + ", \"failed\": " +
                      std::to_string(r.failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric &m = r.metrics[i];
        out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
               number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--tiny") {
            o.tiny = true;
        } else if (!has_value) {
            return usage();
        } else if (arg == "--workload") {
            o.workload = argv[++i];
        } else if (arg == "--seed") {
            o.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds") {
            o.seconds = std::atof(argv[++i]);
        } else if (arg == "--trace") {
            o.trace = std::strcmp(argv[++i], "0") != 0;
        } else if (arg == "--work-dir") {
            o.workDir = argv[++i];
        } else if (arg == "--trace-out") {
            o.traceOut = argv[++i];
        } else {
            return usage();
        }
    }
    if (!(o.seconds > 0))
        return usage();

    Report report;
    int status = 0;
    try {
        if (o.workload == "audit-xl")
            status = runAudit(o, report);
        else if (o.workload == "fleet-batch")
            status = runFleet(o, report);
        else if (o.workload == "serve-edit")
            status = runServe(o, report);
        else
            return usage();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: exception: %s\n", e.what());
        return 1;
    }
    if (status != 0)
        return status;
    report.add("peak_rss_mib", peakRssMib(), "MiB");
    report.add("error_rate",
               report.attempted == 0
                   ? 1.0
                   : static_cast<double>(report.failed) /
                         static_cast<double>(report.attempted),
               "ratio");
    std::fflush(stdout);
    printRecord(o, report, manta::sharedPool().jobs());
    return 0;
}
