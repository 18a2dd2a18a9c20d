/**
 * @file
 * The three workloads.
 *
 *  - audit-xl:    one xl-chromium-100k binary through the full CLI path,
 *                 repeated.
 *  - fleet-batch: the coreutils-like batch of small binaries through the
 *                 same path, one after another, in passes.
 *  - serve-edit:  one resident mid-size project in serve::Service; a
 *                 closed loop of one client sends analyze + lint per
 *                 random one-function edit, with periodic
 *                 snapshot_save / snapshot_load into a second session.
 */
#include <unistd.h>

#include <cstdio>
#include <memory>

#include "bench.h"
#include "mir/printer.h"
#include "serve/json.h"
#include "serve/service.h"
#include "support/rng.h"
#include "support/timer.h"

namespace perfbench {

using namespace manta;

namespace {

/**
 * Audit and fleet share one loop: passes over `inputs` until the timed
 * region has lasted `seconds` (at least one pass, two when tracing).
 * Every operation is one input through the full path; its artifact
 * digests must match the first pass. The first pass also scores each
 * result against ground truth, with that time taken out of the timed
 * region.
 */
int
runCliWorkload(const Options &o, const std::vector<Input> &inputs,
               const Input &warmup, Report &r, bool audit)
{
    const double setup = warmupSeconds(warmup, r);
    std::size_t total_insts = 0;
    for (const Input &in : inputs)
        total_insts += in.ops.size();

    Trace trace(false);
    std::vector<Digests> first(inputs.size());
    std::vector<double> op_ms, traced_ms, untraced_ms;
    std::vector<PathStats> traced_stats;
    Quality quality;
    double excluded_wall = 0, excluded_cpu = 0;

    const double cpu0 = cpuSeconds();
    Timer wall;
    for (std::size_t pass = 0;
         pass < (o.trace ? 2u : 1u) || wall.seconds() - excluded_wall < o.seconds;
         ++pass) {
        const bool traced = o.trace && pass % 2 == 1;
        trace.setEnabled(traced);
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            const Input &in = inputs[i];
            PathResult result;
            std::string error;
            Timer timer;
            bool ok = false;
            {
                Scope root(trace, "bench.op");
                ok = runCliPath(in.text, in.name + ".mir", trace, result,
                                error);
            }
            const double ms = timer.milliseconds();
            op_ms.push_back(ms);
            (traced ? traced_ms : untraced_ms).push_back(ms);
            if (ok && pass == 0)
                first[i] = result.digests;
            else if (ok && !(result.digests == first[i])) {
                ok = false;
                error = "artifact digests differ from the first pass";
            }
            if (!r.check(ok, in.name + ": " + error))
                continue;
            if (traced)
                traced_stats.push_back(result.stats);
            if (pass == 0) {
                const double cpu = cpuSeconds();
                Timer scoring;
                Quality q;
                if (r.check(scoreQuality(in, result, q, error),
                            "scoring: " + error))
                    quality.add(q);
                excluded_wall += scoring.seconds();
                excluded_cpu += cpuSeconds() - cpu;
            }
        }
    }
    const double timed_wall = wall.seconds() - excluded_wall;
    const double cpu = cpuSeconds() - cpu0 - excluded_cpu;
    const double ops = static_cast<double>(op_ms.size());

    std::printf("%zu input(s), %zu instructions after makeAcyclic, "
                "%.0f operations in %.2f s\n",
                inputs.size(), total_insts, ops, timed_wall);
    r.add("op_p50_ms", median(op_ms), "ms");
    r.add("ops_per_s", ops / timed_wall, "1/s");
    r.add("cpu_ms_per_op", 1e3 * cpu / ops, "ms");
    r.add("cpu_s", cpu, "s");
    r.add("setup_s", setup, "s");
    if (audit)
        r.add("analyze_s", median(op_ms) / 1e3, "s");
    else
        r.add("binaries_per_s", ops / timed_wall, "1/s");
    addQualityMetrics(r, quality);
    if (o.trace) {
        addLayerMetrics(r, trace, traced_stats);
        reportTrace(trace, o.traceOut);
        reportOverhead(traced_ms, untraced_ms);
    }
    return 0;
}

const ProjectProfile *
findProject(const std::vector<ProjectProfile> &corpus, const char *name)
{
    for (const ProjectProfile &p : corpus) {
        if (p.name == name)
            return &p;
    }
    return nullptr;
}

/** A request line for serve::Service::handleLine. */
std::string
request(const char *method, const std::string &params)
{
    return std::string("{\"id\":1,\"method\":\"") + method +
           "\",\"params\":{" + params + "}}";
}

std::string
binaryParam(const std::string &binary)
{
    return "\"binary\":" + serve::quoteJson(binary);
}

/** Parse a response; null result on failure (with `error` set). */
const serve::Json *
resultOf(const std::string &response, serve::Json &holder,
         std::string &error)
{
    if (!serve::parseJson(response, holder, error))
        return nullptr;
    const serve::Json *ok = holder.get("ok");
    if (ok == nullptr || !ok->isBool() || !ok->asBool()) {
        error = "response not ok: " + response.substr(0, 200);
        return nullptr;
    }
    return holder.get("result");
}

std::int64_t
intField(const serve::Json *result, const char *key)
{
    const serve::Json *v = result ? result->get(key) : nullptr;
    return v && v->isNumber() ? v->asInt() : 0;
}

/** The four rendered artifacts of one session, via the wire protocol. */
bool
renders(serve::Service &service, const std::string &binary,
        std::vector<std::string> &out, std::string &error)
{
    out.clear();
    for (const char *method : {"types", "lint", "icall", "taint"}) {
        serve::Json holder;
        const serve::Json *result = resultOf(
            service.handleLine(request(method, binaryParam(binary))), holder,
            error);
        const serve::Json *text = result ? result->get("text") : nullptr;
        if (text == nullptr || !text->isString())
            return false;
        out.push_back(text->asString());
    }
    return true;
}

/** Cold populate of a fresh service: analyze + lint of `text`. */
bool
populate(serve::Service &service, const std::string &binary,
         const std::string &text, std::string &error)
{
    serve::Json a, b;
    return resultOf(service.handleLine(request(
                        "analyze", binaryParam(binary) +
                                       ",\"text\":" + serve::quoteJson(text))),
                    a, error) &&
           resultOf(service.handleLine(request("lint", binaryParam(binary))),
                    b, error);
}

/** One pre-generated edit: function `func` gets printed text `text`. */
struct Edit
{
    std::size_t func = 0;
    std::string text;
};

/**
 * Random one-function edits, applied cumulatively: each bumps a
 * constant used by exactly one instruction of a random function, so
 * exactly that function's text changes.
 */
std::vector<Edit>
makeEdits(Module &module, std::uint64_t seed, std::size_t count)
{
    std::vector<int> uses(module.numValues());
    std::vector<std::vector<ValueId>> candidates(module.numFuncs());
    for (int round = 0; round < 2; ++round) {
        for (std::size_t f = 0; f < module.numFuncs(); ++f) {
            const Function &fn =
                module.func(FuncId(static_cast<FuncId::RawType>(f)));
            for (const BlockId b : fn.blocks) {
                for (const InstId i : module.block(b).insts) {
                    for (const ValueId v : module.operands(module.inst(i))) {
                        if (module.value(v).kind != ValueKind::Constant)
                            continue;
                        if (round == 0)
                            ++uses[v.index()];
                        else if (uses[v.index()] == 1)
                            candidates[f].push_back(v);
                    }
                }
            }
        }
    }
    std::vector<std::size_t> editable;
    for (std::size_t f = 0; f < candidates.size(); ++f) {
        if (!candidates[f].empty())
            editable.push_back(f);
    }
    Rng rng(seed);
    std::vector<Edit> edits;
    for (std::size_t k = 0; k < count && !editable.empty(); ++k) {
        const std::size_t f = editable[rng.below(editable.size())];
        const std::vector<ValueId> &vs = candidates[f];
        module.value(vs[rng.below(vs.size())]).constValue +=
            1 + static_cast<std::int64_t>(rng.below(7));
        edits.push_back(
            {f, printFunction(module, FuncId(static_cast<FuncId::RawType>(f))) +
                    "\n"});
    }
    return edits;
}

} // namespace

int
runAudit(const Options &o, Report &r)
{
    // The binary keeps its profile's own seed: between generator seeds
    // its analysis time swings by +-15% (lint's cost follows program
    // shape), which would drown any usable regression bound.
    ProjectProfile profile = scaleCorpus(100000).front();
    if (o.tiny)
        profile.config.numFunctions = 40;
    saltBugs(profile.config);
    std::vector<Input> inputs;
    inputs.push_back(makeInput(profile));
    const Input warmup = makeInput(warmupProfile());
    std::printf("audit-xl: %s, seed %llu\n", profile.name.c_str(),
                static_cast<unsigned long long>(profile.config.seed));
    return runCliWorkload(o, inputs, warmup, r, true);
}

int
runFleet(const Options &o, Report &r)
{
    std::vector<Input> inputs;
    int index = 0;
    for (ProjectProfile &profile : coreutilsBatch(o.tiny ? 6 : 104)) {
        profile.config.seed = mixSeed(o.seed, 1000 + index++);
        saltBugs(profile.config);
        inputs.push_back(makeInput(profile));
    }
    const Input warmup = makeInput(warmupProfile());
    std::printf("fleet-batch: %zu binaries\n", inputs.size());
    return runCliWorkload(o, inputs, warmup, r, false);
}

int
runServe(const Options &o, Report &r)
{
    const std::vector<ProjectProfile> corpus = standardCorpus();
    const ProjectProfile *found =
        findProject(corpus, o.tiny ? "vsftpd" : "libicu");
    if (found == nullptr) {
        std::fprintf(stderr, "perfbench: serve project missing\n");
        return 2;
    }
    // The project keeps its profile's own seed (its size, and with it the
    // edit cost, varies by +-10% between generator seeds); --seed drives
    // the edit stream.
    ProjectProfile profile = *found;
    saltBugs(profile.config);
    const Input base = makeInput(profile);

    // Edits: split the printed module into a header plus one text per
    // function, then pre-generate the edit stream.
    GeneratedProgram prog = buildProject(profile);
    Module &module = *prog.module;
    std::vector<std::string> funcs;
    std::string joined;
    for (std::size_t f = 0; f < module.numFuncs(); ++f) {
        funcs.push_back(
            printFunction(module, FuncId(static_cast<FuncId::RawType>(f))) +
            "\n");
        joined += funcs.back();
    }
    if (base.text.size() < joined.size() ||
        base.text.compare(base.text.size() - joined.size(), joined.size(),
                          joined) != 0) {
        std::fprintf(stderr, "perfbench: module text does not split by "
                             "function\n");
        return 2;
    }
    const std::string header =
        base.text.substr(0, base.text.size() - joined.size());
    const std::size_t edit_pool =
        200 + static_cast<std::size_t>(o.seconds * 60);
    const std::vector<Edit> edits =
        makeEdits(module, mixSeed(o.seed, 3), edit_pool);
    if (edits.empty()) {
        std::fprintf(stderr, "perfbench: no editable function\n");
        return 2;
    }
    prog.module.reset();
    std::printf("serve-edit: %s, %zu instructions, %zu functions, "
                "%zu pre-generated edits\n",
                profile.name.c_str(), base.ops.size(), funcs.size(),
                edits.size());

    // Set-up: the cold populate, three times in fresh services; the
    // last one stays resident.
    std::unique_ptr<serve::Service> service;
    std::vector<double> setups;
    for (int rep = 0; rep < 3; ++rep) {
        service = std::make_unique<serve::Service>();
        std::string error;
        Timer timer;
        const bool ok = populate(*service, "edit", base.text, error);
        setups.push_back(timer.seconds());
        r.check(ok, "cold populate: " + error);
    }

    // Quality of the resident project (and, traced, its layer costs):
    // the CLI path over the base text, outside the timed region.
    Trace trace(false);
    std::vector<PathStats> traced_stats;
    Quality quality;
    for (int rep = 0; rep < (o.trace ? 3 : 1); ++rep) {
        trace.setEnabled(o.trace);
        PathResult pass;
        std::string error;
        bool ok = false;
        {
            Scope root(trace, "bench.op");
            ok = runCliPath(base.text, base.name + ".mir", trace, pass, error);
        }
        trace.setEnabled(false);
        if (!r.check(ok, "base text: " + error))
            continue;
        traced_stats.push_back(pass.stats);
        if (rep == 0)
            r.check(scoreQuality(base, pass, quality, error),
                    "scoring: " + error);
    }

    const std::string snapshot =
        o.workDir + "/serve-" + std::to_string(::getpid()) + ".msnp";
    const std::string save_req = request(
        "snapshot_save",
        binaryParam("edit") + ",\"path\":" + serve::quoteJson(snapshot));
    const std::string load_req = request(
        "snapshot_load",
        binaryParam("restore") + ",\"path\":" + serve::quoteJson(snapshot));
    const std::string lint_req = request("lint", binaryParam("edit"));

    std::vector<double> edit_ms, traced_ms, untraced_ms, analyze_ms, lint_ms,
        save_ms, load_ms;
    double cs_reused = 0, fs_reused = 0, closure = 0, snapshot_bytes = 0;
    std::string text;
    const std::size_t min_edits = 100;

    const double cpu0 = cpuSeconds();
    Timer wall;
    for (std::size_t k = 0; k < min_edits || wall.seconds() < o.seconds;
         ++k) {
        const Edit &edit = edits[k % edits.size()];
        funcs[edit.func] = edit.text;
        text = header;
        for (const std::string &f : funcs)
            text += f;
        const std::string analyze_req =
            request("analyze", binaryParam("edit") +
                                   ",\"text\":" + serve::quoteJson(text));

        const bool traced = o.trace && k % 2 == 1;
        trace.setEnabled(traced);
        std::string analyze_resp, lint_resp;
        double a_ms = 0;
        Timer timer;
        {
            Scope root(trace, "bench.edit");
            {
                Scope span(trace, "serve.analyze");
                analyze_resp = service->handleLine(analyze_req);
            }
            a_ms = timer.milliseconds();
            {
                Scope span(trace, "serve.lint");
                lint_resp = service->handleLine(lint_req);
            }
        }
        const double ms = timer.milliseconds();
        edit_ms.push_back(ms);
        (traced ? traced_ms : untraced_ms).push_back(ms);
        analyze_ms.push_back(a_ms);
        lint_ms.push_back(ms - a_ms);

        serve::Json holder;
        std::string error;
        const serve::Json *result = resultOf(analyze_resp, holder, error);
        if (r.check(result != nullptr, "analyze: " + error)) {
            cs_reused += static_cast<double>(intField(result, "csReused"));
            fs_reused += static_cast<double>(intField(result, "fsReused"));
            const serve::Json *c = result->get("closure");
            closure += c && c->isArray()
                           ? static_cast<double>(c->items().size())
                           : 0.0;
        }
        serve::Json lint_holder;
        r.check(resultOf(lint_resp, lint_holder, error) != nullptr,
                "lint: " + error);

        if ((k + 1) % 10 == 0) {
            Scope root(trace, "bench.snapshot");
            serve::Json save_holder, load_holder;
            Timer save_timer;
            std::string save_resp;
            {
                Scope span(trace, "serve.snapshot_save");
                save_resp = service->handleLine(save_req);
            }
            save_ms.push_back(save_timer.milliseconds());
            Timer load_timer;
            std::string load_resp;
            {
                Scope span(trace, "serve.snapshot_load");
                load_resp = service->handleLine(load_req);
            }
            load_ms.push_back(load_timer.milliseconds());
            const serve::Json *saved = resultOf(save_resp, save_holder, error);
            if (r.check(saved != nullptr, "snapshot_save: " + error))
                snapshot_bytes += static_cast<double>(intField(saved, "bytes"));
            r.check(resultOf(load_resp, load_holder, error) != nullptr,
                    "snapshot_load: " + error);
        }
    }
    const double timed_wall = wall.seconds();
    const double cpu = cpuSeconds() - cpu0;
    trace.setEnabled(false);
    ::unlink(snapshot.c_str());

    // Warm artifacts of the last edit against a cold session given the
    // same text.
    {
        std::vector<std::string> warm, cold;
        std::string error;
        serve::Service fresh;
        const bool ok = renders(*service, "edit", warm, error) &&
                        populate(fresh, "cold", text, error) &&
                        renders(fresh, "cold", cold, error);
        r.check(ok, "warm/cold renders: " + error);
        r.check(!ok || warm == cold,
                "warm artifacts differ from a cold session's");
    }

    const double n = static_cast<double>(edit_ms.size());
    const double snaps = static_cast<double>(std::max<std::size_t>(save_ms.size(), 1));
    std::printf("%.0f edits in %.2f s, %zu snapshot round trips\n", n,
                timed_wall, load_ms.size());
    r.add("op_p50_ms", median(edit_ms), "ms");
    r.add("ops_per_s", n / timed_wall, "1/s");
    r.add("cpu_ms_per_op", 1e3 * cpu / n, "ms");
    r.add("cpu_s", cpu, "s");
    r.add("setup_s", median(setups), "s");
    r.add("edit_p50_ms", median(edit_ms), "ms");
    r.add("edit_p90_ms", percentile(edit_ms, 90), "ms");
    r.add("restore_ms", median(load_ms), "ms");
    addQualityMetrics(r, quality);
    r.add("serve.analyze_ms", median(analyze_ms), "ms");
    r.add("serve.lint_ms", median(lint_ms), "ms");
    r.add("serve.cs_reused", cs_reused / n, "count");
    r.add("serve.fs_reused", fs_reused / n, "count");
    r.add("serve.closure_funcs", closure / n, "count");
    r.add("serve.snapshot_save_ms", median(save_ms), "ms");
    r.add("serve.snapshot_load_ms", median(load_ms), "ms");
    r.add("serve.snapshot_bytes", snapshot_bytes / snaps, "bytes");
    if (o.trace) {
        addLayerMetrics(r, trace, traced_stats);
        reportTrace(trace, o.traceOut);
        reportOverhead(traced_ms, untraced_ms);
    }
    return 0;
}

} // namespace perfbench
