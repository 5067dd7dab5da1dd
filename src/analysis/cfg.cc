#include "analysis/cfg.h"

#include <algorithm>
#include <set>

#include "support/error.h"
#include "vm/verifier.h"

namespace nse
{

namespace
{

/** Mark DFS back edges (edge into a node on the current DFS stack). */
void
findBackEdges(Cfg &cfg)
{
    enum class Color : uint8_t { White, Grey, Black };
    std::vector<Color> color(cfg.blocks.size(), Color::White);
    // Iterative DFS: stack of (block, next-successor-index).
    std::vector<std::pair<uint32_t, size_t>> stack;
    stack.emplace_back(0, 0);
    color[0] = Color::Grey;
    while (!stack.empty()) {
        auto &[blk, next] = stack.back();
        if (next < cfg.blocks[blk].succs.size()) {
            uint32_t succ = cfg.blocks[blk].succs[next++];
            if (color[succ] == Color::White) {
                color[succ] = Color::Grey;
                stack.emplace_back(succ, 0);
            } else if (color[succ] == Color::Grey) {
                cfg.backEdges.emplace_back(blk, succ);
            }
        } else {
            color[blk] = Color::Black;
            stack.pop_back();
        }
    }
}

/** Natural-loop membership for each back edge -> loop depths. */
void
computeLoopDepths(Cfg &cfg)
{
    cfg.loopDepth.assign(cfg.blocks.size(), 0);
    cfg.innerHeader.assign(cfg.blocks.size(), UINT32_MAX);
    std::vector<size_t> inner_size(cfg.blocks.size(), SIZE_MAX);
    for (auto &[tail, header] : cfg.backEdges) {
        // Loop body: header plus blocks that reach tail without
        // passing through header (reverse reachability from tail).
        std::set<uint32_t> body{header, tail};
        std::vector<uint32_t> work{tail};
        while (!work.empty()) {
            uint32_t blk = work.back();
            work.pop_back();
            if (blk == header)
                continue;
            for (uint32_t pred : cfg.blocks[blk].preds) {
                if (body.insert(pred).second)
                    work.push_back(pred);
            }
        }
        for (uint32_t blk : body) {
            ++cfg.loopDepth[blk];
            // The smallest containing loop is the innermost one.
            if (body.size() < inner_size[blk]) {
                inner_size[blk] = body.size();
                cfg.innerHeader[blk] = header;
            }
        }
    }
}

/** loopsBelow[b] = back edges reachable following forward edges. */
void
computeLoopsBelow(Cfg &cfg)
{
    size_t n = cfg.blocks.size();
    cfg.loopsBelow.assign(n, 0);
    for (uint32_t start = 0; start < n; ++start) {
        std::vector<bool> seen(n, false);
        std::vector<uint32_t> work{start};
        seen[start] = true;
        uint32_t count = 0;
        while (!work.empty()) {
            uint32_t blk = work.back();
            work.pop_back();
            for (uint32_t succ : cfg.blocks[blk].succs) {
                if (cfg.isBackEdge(blk, succ))
                    ++count;
                if (!seen[succ]) {
                    seen[succ] = true;
                    work.push_back(succ);
                }
            }
        }
        cfg.loopsBelow[start] = count;
    }
}

/** The CFG over `insts`, the instructions of `vm` (moved out of it
 *  or copied; `vm` still maps branch offsets to indices). */
Cfg
buildFrom(const Program &prog, MethodId id,
          std::vector<Instruction> insts, const VerifiedMethod &vm)
{
    Cfg cfg;
    cfg.method = id;
    cfg.insts = std::move(insts);
    size_t n = cfg.insts.size();

    // Leaders: entry, branch targets, instruction after a branch/return.
    std::vector<bool> leader(n, false);
    leader[0] = true;
    for (size_t i = 0; i < n; ++i) {
        const Instruction &inst = cfg.insts[i];
        if (isBranch(inst.op)) {
            size_t t = vm.indexOf(static_cast<uint32_t>(inst.operand));
            leader[t] = true;
            if (i + 1 < n)
                leader[i + 1] = true;
        } else if (isReturn(inst.op)) {
            if (i + 1 < n)
                leader[i + 1] = true;
        }
    }

    // Carve blocks.
    cfg.blockOfInst.assign(n, 0);
    for (size_t i = 0; i < n; ++i) {
        if (leader[i]) {
            BasicBlock blk;
            blk.first = static_cast<uint32_t>(i);
            cfg.blocks.push_back(blk);
        }
        uint32_t bidx = static_cast<uint32_t>(cfg.blocks.size() - 1);
        cfg.blockOfInst[i] = bidx;
        cfg.blocks[bidx].last = static_cast<uint32_t>(i);
        cfg.blocks[bidx].byteSize +=
            static_cast<uint32_t>(cfg.insts[i].size());
    }

    // Edges and call sites.
    for (auto &blk : cfg.blocks) {
        const Instruction &term = cfg.insts[blk.last];
        auto link = [&](size_t target_inst) {
            uint32_t to = cfg.blockOfInst[target_inst];
            blk.succs.push_back(to);
        };
        if (isBranch(term.op)) {
            link(vm.indexOf(static_cast<uint32_t>(term.operand)));
            if (isConditionalBranch(term.op) && blk.last + 1 < n)
                link(blk.last + 1);
        } else if (!isReturn(term.op) && blk.last + 1 < n) {
            link(blk.last + 1);
        }

        const ClassFile &cf = prog.classAt(id.classIdx);
        for (uint32_t i = blk.first; i <= blk.last; ++i) {
            const Instruction &inst = cfg.insts[i];
            if (!isInvoke(inst.op))
                continue;
            auto ref = cf.cpool.memberRef(
                static_cast<uint16_t>(inst.operand));
            bool is_virtual = inst.op == Opcode::INVOKEVIRTUAL;
            MethodId target =
                is_virtual ? prog.resolveVirtual(ref.className, ref.name,
                                                 ref.descriptor)
                           : prog.resolveStatic(ref.className, ref.name,
                                                ref.descriptor);
            blk.calls.emplace_back(target, is_virtual);
        }
    }
    for (uint32_t b = 0; b < cfg.blocks.size(); ++b)
        for (uint32_t succ : cfg.blocks[b].succs)
            cfg.blocks[succ].preds.push_back(b);

    findBackEdges(cfg);
    computeLoopDepths(cfg);
    computeLoopsBelow(cfg);
    return cfg;
}

void
checkNotNative(const Program &prog, MethodId id)
{
    NSE_CHECK(!prog.method(id).isNative(),
              "cannot build a CFG for native method ",
              prog.methodLabel(id));
}

} // namespace

Cfg
buildCfg(const Program &prog, MethodId id)
{
    checkNotNative(prog, id);
    VerifiedMethod vm = Verifier(prog).verifyMethod(id);
    return buildFrom(prog, id, std::move(vm.insts), vm);
}

Cfg
buildCfg(const Program &prog, MethodId id, const VerifiedMethod &vm)
{
    checkNotNative(prog, id);
    return buildFrom(prog, id, vm.insts, vm);
}

} // namespace nse
