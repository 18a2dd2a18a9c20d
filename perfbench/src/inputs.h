/**
 * @file
 * Seeded inputs and their scoring.
 *
 * Every input is generated from a corpus profile whose seed is
 * replaced by one derived from the benchmark's --seed, printed to MIR
 * text, and stripped: the program under test only ever sees the text.
 * What the generator knew (ground-truth types, injected bug tags) is
 * kept beside the text, keyed by instruction id, so the results of the
 * text pipeline can be scored after the timed region without keeping
 * the generated module alive.
 */
#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include <cstdint>
#include <string>
#include <vector>

#include "eval/metrics.h"
#include "frontend/corpus.h"
#include "pipeline.h"

namespace perfbench {

/** One generated binary, printed to MIR text. */
struct Input
{
    std::string name;
    std::string text;

    /** Ground-truth type of one parameter or local, located by its
     *  function parameter slot or defining instruction. */
    struct TruthValue
    {
        bool isArg = false;
        std::uint32_t owner = 0;  ///< FuncId (argument) or InstId.
        std::uint32_t index = 0;  ///< Parameter position (argument).
        manta::TypeRef type;      ///< In `truthTypes`.
    };
    manta::TypeTable truthTypes;
    std::vector<TruthValue> truthValues;
    manta::GroundTruth seeds;          ///< seeds and taintSeeds only.
    std::vector<std::uint32_t> tags;   ///< srcTag by InstId (acyclic).
    std::vector<std::uint8_t> ops;     ///< Opcode by InstId (acyclic).
};

/** Generate `profile` and print it (outside any timed region). */
Input makeInput(const manta::ProjectProfile &profile);

/** Table 3 and Table 5 accounting of one analyzed input. */
struct Quality
{
    manta::TypeEval types;
    std::size_t bugReports = 0;      ///< Bug-family diagnostics.
    std::size_t bugFalsePositives = 0;
    std::size_t realBugsFound = 0;
    std::size_t realBugsInjected = 0;

    void add(const Quality &other);
};

/**
 * Score one pass against the input's ground truth. Fails when the
 * parsed module does not line up instruction-for-instruction with the
 * generated one (the mapping the scoring relies on).
 */
bool scoreQuality(const Input &input, PathResult &pass, Quality &out,
                  std::string &error);

/** Derive a generator seed from the benchmark seed and a salt. */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_H
