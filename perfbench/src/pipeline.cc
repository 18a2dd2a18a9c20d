#include "pipeline.h"

#include <malloc.h>

#include <exception>

#include "analysis/acyclic.h"
#include "clients/annotate.h"
#include "clients/icall.h"
#include "mir/parser.h"
#include "support/binio.h"
#include "taint/taint.h"

namespace perfbench {

using namespace manta;

double
liveHeapMib()
{
    const struct mallinfo2 info = ::mallinfo2();
    return static_cast<double>(info.uordblks + info.hblkhd) /
           (1024.0 * 1024.0);
}

namespace {

std::string
renderIcall(const Module &module, const IcallResult &icall)
{
    std::string out = std::to_string(icall.numSites()) +
                      " indirect call site(s)\n";
    for (const auto &[site, targets] : icall.targets) {
        out += "inst" + std::to_string(site.raw()) + " ->";
        for (const FuncId t : targets) {
            out += " @";
            out += module.str(module.func(t).name);
        }
        out += '\n';
    }
    return out;
}

bool
runPath(const std::string &text, const std::string &artifact, Trace &trace,
        PathResult &out, std::string &error)
{
    out.module = std::make_unique<Module>();
    {
        Scope span(trace, "mir.parse");
        if (!parseModule(text, *out.module, error))
            return false;
    }
    {
        Scope span(trace, "analysis.acyclic");
        makeAcyclic(*out.module);
    }
    out.stats.insts = out.module->numInsts();
    {
        const double heap0 = liveHeapMib();
        Scope span(trace, "analysis.substrate");
        out.analyzer =
            std::make_unique<MantaAnalyzer>(*out.module, HybridConfig::full());
        out.stats.substrateHeapMib = liveHeapMib() - heap0;
    }
    {
        const double heap0 = liveHeapMib();
        Scope span(trace, "core.infer");
        out.inference =
            std::make_unique<InferenceResult>(out.analyzer->infer());
        out.stats.inferHeapMib = liveHeapMib() - heap0;
    }
    {
        Scope span(trace, "lint.run");
        out.lint = lint::runLint(*out.analyzer, out.inference.get(), nullptr,
                                 lint::LintOptions{});
    }
    taint::TaintResult flows;
    {
        Scope span(trace, "taint.run");
        flows = taint::runTaint(*out.analyzer, out.inference.get(),
                                taint::TaintOptions{});
    }
    IcallResult icall;
    {
        Scope span(trace, "clients.icall");
        icall = IcallAnalysis(*out.module, out.inference.get())
                    .run(IcallDiscipline::FullTypes);
    }
    std::string types, sarif, taint_text, icall_text;
    {
        Scope span(trace, "clients.render");
        types = annotateModule(*out.module, *out.inference);
        sarif = lint::sarifLog({{artifact, out.lint.diagnostics}},
                               out.lint.rules);
        taint_text = flows.canonicalText(*out.module);
        icall_text = renderIcall(*out.module, icall);
    }
    out.digests = {Fnv64::of(types), Fnv64::of(sarif), Fnv64::of(taint_text),
                   Fnv64::of(icall_text)};

    PathStats &s = out.stats;
    s.ptsSeconds = out.analyzer->pts().stats().seconds;
    s.ptsPops = out.analyzer->pts().stats().pops;
    s.profile = out.inference->profile();
    for (const lint::CheckerStats &checker : out.lint.perChecker)
        s.checkerSeconds[checker.id] = checker.seconds;
    s.diagnostics = out.lint.diagnostics.size();
    s.taintFlows = flows.stats.flows;
    s.taintSuppressed = flows.stats.suppressed;
    return true;
}

} // namespace

bool
runCliPath(const std::string &text, const std::string &artifact,
           Trace &trace, PathResult &out, std::string &error)
{
    try {
        return runPath(text, artifact, trace, out, error);
    } catch (const std::exception &e) {
        error = std::string("exception: ") + e.what();
        return false;
    }
}

} // namespace perfbench
