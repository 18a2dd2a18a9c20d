/**
 * @file
 * The full CLI path over one binary, driven only through the library's
 * public entry points: MIR text -> parseModule -> makeAcyclic ->
 * MantaAnalyzer (substrates) -> infer (FI/CS/FS) -> lint::runLint (all
 * checkers) -> taint::runTaint -> IcallAnalysis::run -> rendered
 * artifacts (annotated types, SARIF, taint flows, icall targets).
 *
 * Every call is wrapped in a benchmark-owned span named after the
 * src/ module it enters; the counters the public API already exposes
 * are copied into a PathStats afterwards.
 */
#ifndef PERFBENCH_PIPELINE_H
#define PERFBENCH_PIPELINE_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "core/pipeline.h"
#include "lint/run.h"
#include "mir/mir.h"
#include "trace.h"

namespace perfbench {

/** FNV-1a digests of the four rendered artifacts. */
struct Digests
{
    std::uint64_t types = 0;
    std::uint64_t sarif = 0;
    std::uint64_t taint = 0;
    std::uint64_t icall = 0;

    bool
    operator==(const Digests &o) const
    {
        return types == o.types && sarif == o.sarif && taint == o.taint &&
               icall == o.icall;
    }
};

/** Work counters and API-reported timers of one pass. */
struct PathStats
{
    std::size_t insts = 0;          ///< After makeAcyclic.
    double ptsSeconds = 0.0;        ///< PointsTo::Stats::seconds.
    std::size_t ptsPops = 0;
    double substrateHeapMib = 0.0;  ///< Live-heap growth in the ctor.
    double inferHeapMib = 0.0;      ///< Live-heap growth in infer().
    manta::InferenceProfile profile;
    std::map<std::string, double> checkerSeconds;  ///< By checker id.
    std::size_t diagnostics = 0;
    std::size_t taintFlows = 0;
    std::size_t taintSuppressed = 0;
};

/** Everything one pass leaves behind (kept alive for scoring). */
struct PathResult
{
    std::unique_ptr<manta::Module> module;
    std::unique_ptr<manta::MantaAnalyzer> analyzer;
    std::unique_ptr<manta::InferenceResult> inference;
    manta::lint::LintResult lint;
    Digests digests;
    PathStats stats;
};

/**
 * Run the full path over `text`. Returns false (with `error` set) on a
 * parse failure or an exception escaping the library.
 */
bool runCliPath(const std::string &text, const std::string &artifact,
                Trace &trace, PathResult &out, std::string &error);

/** Bytes currently allocated through malloc (arena + mmapped). */
double liveHeapMib();

} // namespace perfbench

#endif // PERFBENCH_PIPELINE_H
