#include "inputs.h"

#include <set>

#include "analysis/acyclic.h"
#include "mir/printer.h"
#include "types/typeio.h"

namespace perfbench {

using namespace manta;

namespace {

/** Lint checkers whose findings are scored against injected seeds. */
const std::set<std::string> kBugFamily = {
    "npd", "rsa", "uaf", "cmi", "bof",
    "addr-leak", "taint-deref", "format-string",
};

} // namespace

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    // splitmix64 over (seed, salt): distinct salts give unrelated seeds.
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

Input
makeInput(const ProjectProfile &profile)
{
    GeneratedProgram prog = buildProject(profile);
    Module &module = *prog.module;

    Input input;
    input.name = profile.name;
    input.text = printModule(module);
    for (const auto &[vid, type] : prog.truth.valueTypes) {
        const Value &v = module.value(vid);
        Input::TruthValue tv;
        if (v.kind == ValueKind::Argument) {
            tv.isArg = true;
            tv.owner = v.argFunc.raw();
            tv.index = v.argIndex;
        } else if (v.kind == ValueKind::InstResult) {
            tv.owner = v.inst.raw();
        } else {
            continue;
        }
        tv.type = transferType(module.types(), type, input.truthTypes);
        input.truthValues.push_back(tv);
    }
    input.seeds.seeds = prog.truth.seeds;
    input.seeds.taintSeeds = prog.truth.taintSeeds;

    // The text pipeline runs makeAcyclic too; clone ids line up.
    makeAcyclic(module);
    input.tags.resize(module.numInsts());
    input.ops.resize(module.numInsts());
    for (std::size_t i = 0; i < module.numInsts(); ++i) {
        const Instruction &inst =
            module.inst(InstId(static_cast<InstId::RawType>(i)));
        input.tags[i] = inst.srcTag;
        input.ops[i] = static_cast<std::uint8_t>(inst.op);
    }
    return input;
}

void
Quality::add(const Quality &o)
{
    types.total += o.types.total;
    types.preciseCorrect += o.types.preciseCorrect;
    types.captured += o.types.captured;
    types.unknown += o.types.unknown;
    types.incorrect += o.types.incorrect;
    bugReports += o.bugReports;
    bugFalsePositives += o.bugFalsePositives;
    realBugsFound += o.realBugsFound;
    realBugsInjected += o.realBugsInjected;
}

bool
scoreQuality(const Input &input, PathResult &pass, Quality &out,
             std::string &error)
{
    Module &module = *pass.module;
    if (module.numInsts() != input.ops.size()) {
        error = input.name + ": parsed module has " +
                std::to_string(module.numInsts()) + " instructions, the "
                "generated one " + std::to_string(input.ops.size());
        return false;
    }
    for (std::size_t i = 0; i < input.ops.size(); ++i) {
        const InstId id(static_cast<InstId::RawType>(i));
        if (static_cast<std::uint8_t>(module.inst(id).op) != input.ops[i]) {
            error = input.name + ": opcode mismatch at inst" +
                    std::to_string(i);
            return false;
        }
    }

    GroundTruth truth = input.seeds;
    for (const Input::TruthValue &tv : input.truthValues) {
        ValueId vid;
        if (tv.isArg) {
            const Function &fn =
                module.func(FuncId(static_cast<FuncId::RawType>(tv.owner)));
            if (tv.index >= fn.params.size()) {
                error = input.name + ": parameter slot out of range";
                return false;
            }
            vid = fn.params[tv.index];
        } else {
            vid = module.inst(InstId(static_cast<InstId::RawType>(tv.owner)))
                      .result;
        }
        truth.valueTypes[vid] =
            transferType(input.truthTypes, tv.type, module.types());
    }
    out.types = evalInference(module, truth, *pass.inference);

    std::set<std::uint32_t> real;
    for (const BugSeed &seed : truth.seeds) {
        if (seed.real)
            real.insert(seed.tag);
    }
    for (const TaintSeed &seed : truth.taintSeeds) {
        if (seed.real)
            real.insert(seed.tag);
    }
    std::set<std::uint32_t> found;
    for (const lint::Diagnostic &d : pass.lint.diagnostics) {
        if (!kBugFamily.count(d.checker))
            continue;
        ++out.bugReports;
        const std::uint32_t tag =
            d.primary.inst.valid() ? input.tags[d.primary.inst.index()] : 0;
        if (real.count(tag))
            found.insert(tag);
        else
            ++out.bugFalsePositives;
    }
    out.realBugsFound = found.size();
    out.realBugsInjected = real.size();
    return true;
}

} // namespace perfbench
