/**
 * @file
 * Basic-block control-flow graphs over verified method bodies.
 *
 * The static first-use estimator (paper §4.1) walks a per-method CFG
 * with interprocedural call edges. Blocks are maximal straight-line
 * instruction runs; edges carry whether they are back edges (loops),
 * which the estimator's heuristics prioritise.
 */

#ifndef NSE_ANALYSIS_CFG_H
#define NSE_ANALYSIS_CFG_H

#include <cstdint>
#include <vector>

#include "bytecode/instruction.h"
#include "program/program.h"

namespace nse
{

/** One basic block: instruction index range [first, last]. */
struct BasicBlock
{
    uint32_t first = 0; ///< index of the first instruction
    uint32_t last = 0;  ///< index of the last instruction (inclusive)
    std::vector<uint32_t> succs;
    std::vector<uint32_t> preds;
    /** Call targets of INVOKE* instructions inside this block, along
     *  with whether the call is virtual (resolved conservatively). */
    std::vector<std::pair<MethodId, bool>> calls;
    /** Total encoded bytes of the block's instructions. */
    uint32_t byteSize = 0;
};

/** CFG of one method. Block 0 is the entry. */
struct Cfg
{
    MethodId method;
    std::vector<Instruction> insts;
    std::vector<BasicBlock> blocks;
    /** instruction index -> owning block. */
    std::vector<uint32_t> blockOfInst;
    /** Edges (from-block, to-block) that are loop back edges. */
    std::vector<std::pair<uint32_t, uint32_t>> backEdges;
    /** Per-block loop-nesting depth (0 = not in a loop). */
    std::vector<uint32_t> loopDepth;
    /** Header block of the innermost loop containing each block;
     *  UINT32_MAX when the block is in no loop. */
    std::vector<uint32_t> innerHeader;
    /** Number of static loops (back edges) reachable from each block,
     *  including loops in transitively called methods' entry counts
     *  when computed by the estimator. */
    std::vector<uint32_t> loopsBelow;

    bool
    isBackEdge(uint32_t from, uint32_t to) const
    {
        for (auto &[f, t] : backEdges)
            if (f == from && t == to)
                return true;
        return false;
    }
};

/**
 * Build the CFG of one (non-native) method. Virtual call targets are
 * resolved from the static receiver class (the estimator's
 * approximation — the profile-guided path measures the truth).
 */
Cfg buildCfg(const Program &prog, MethodId id);

} // namespace nse

#endif // NSE_ANALYSIS_CFG_H
