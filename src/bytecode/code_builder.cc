#include "bytecode/code_builder.h"

#include "support/error.h"

namespace nse
{

Cond
negate(Cond c)
{
    switch (c) {
      case Cond::Eq: return Cond::Ne;
      case Cond::Ne: return Cond::Eq;
      case Cond::Lt: return Cond::Ge;
      case Cond::Ge: return Cond::Lt;
      case Cond::Gt: return Cond::Le;
      case Cond::Le: return Cond::Gt;
    }
    panic("unreachable cond");
}

Opcode
icmpOpcode(Cond c)
{
    switch (c) {
      case Cond::Eq: return Opcode::IF_ICMPEQ;
      case Cond::Ne: return Opcode::IF_ICMPNE;
      case Cond::Lt: return Opcode::IF_ICMPLT;
      case Cond::Ge: return Opcode::IF_ICMPGE;
      case Cond::Gt: return Opcode::IF_ICMPGT;
      case Cond::Le: return Opcode::IF_ICMPLE;
    }
    panic("unreachable cond");
}

CodeBuilder::Label
CodeBuilder::newLabel()
{
    labelTargets_.push_back(kUnbound);
    return static_cast<Label>(labelTargets_.size() - 1);
}

void
CodeBuilder::bind(Label label)
{
    NSE_ASSERT(label < labelTargets_.size(), "unknown label ", label);
    NSE_ASSERT(labelTargets_[label] == kUnbound,
               "label bound twice: ", label);
    labelTargets_[label] = static_cast<uint32_t>(insts_.size());
}

void
CodeBuilder::emit(Opcode op)
{
    NSE_ASSERT(opcodeInfo(op).operand == OperandKind::None,
               opcodeInfo(op).name, " requires an operand");
    insts_.push_back({op, 0, 0});
    branchLabels_.push_back(kUnbound);
}

void
CodeBuilder::emit(Opcode op, int32_t operand)
{
    auto kind = opcodeInfo(op).operand;
    NSE_ASSERT(kind != OperandKind::None && kind != OperandKind::Branch,
               opcodeInfo(op).name, " takes no direct operand here");
    insts_.push_back({op, operand, 0});
    branchLabels_.push_back(kUnbound);
}

void
CodeBuilder::branch(Opcode op, Label target)
{
    NSE_ASSERT(isBranch(op), opcodeInfo(op).name, " is not a branch");
    NSE_ASSERT(target < labelTargets_.size(), "unknown label ", target);
    insts_.push_back({op, 0, 0});
    branchLabels_.push_back(target);
}

void
CodeBuilder::pushInt(int32_t v)
{
    if (v >= INT8_MIN && v <= INT8_MAX)
        emit(Opcode::PUSH_I8, v);
    else
        emit(Opcode::PUSH_I32, v);
}

void
CodeBuilder::iinc(uint16_t slot, int32_t delta)
{
    iload(slot);
    pushInt(delta);
    emit(Opcode::IADD);
    istore(slot);
}

void
CodeBuilder::ifNZ(const Block &then)
{
    Label skip = newLabel();
    branch(Opcode::IFEQ, skip);
    then();
    bind(skip);
}

void
CodeBuilder::ifNZElse(const Block &then, const Block &other)
{
    Label else_lbl = newLabel();
    Label done = newLabel();
    branch(Opcode::IFEQ, else_lbl);
    then();
    branch(Opcode::GOTO, done);
    bind(else_lbl);
    other();
    bind(done);
}

void
CodeBuilder::ifICmp(Cond c, const Block &then)
{
    Label skip = newLabel();
    branch(icmpOpcode(negate(c)), skip);
    then();
    bind(skip);
}

void
CodeBuilder::ifICmpElse(Cond c, const Block &then, const Block &other)
{
    Label else_lbl = newLabel();
    Label done = newLabel();
    branch(icmpOpcode(negate(c)), else_lbl);
    then();
    branch(Opcode::GOTO, done);
    bind(else_lbl);
    other();
    bind(done);
}

void
CodeBuilder::loopWhile(const Block &cond, const Block &body)
{
    Label head = newLabel();
    Label exit = newLabel();
    bind(head);
    cond();
    branch(Opcode::IFEQ, exit);
    body();
    branch(Opcode::GOTO, head);
    bind(exit);
}

void
CodeBuilder::forRange(uint16_t slot, int32_t from, const Block &to,
                      const Block &body)
{
    pushInt(from);
    istore(slot);
    loopWhile(
        [&] {
            iload(slot);
            to();
            // leave (slot < bound) as 0/1 via a small branch diamond
            Label yes = newLabel();
            Label done = newLabel();
            branch(Opcode::IF_ICMPLT, yes);
            pushInt(0);
            branch(Opcode::GOTO, done);
            bind(yes);
            pushInt(1);
            bind(done);
        },
        [&] {
            body();
            iinc(slot, 1);
        });
}

void
CodeBuilder::forRange(uint16_t slot, int32_t from, int32_t to,
                      const Block &body)
{
    forRange(slot, from, [&] { pushInt(to); }, body);
}

std::vector<Instruction>
CodeBuilder::finish()
{
    // First pass: assign byte offsets.
    std::vector<uint32_t> offsets(insts_.size());
    uint32_t pc = 0;
    for (size_t i = 0; i < insts_.size(); ++i) {
        offsets[i] = pc;
        insts_[i].offset = pc;
        pc += static_cast<uint32_t>(insts_[i].size());
    }

    // Second pass: resolve branch labels to absolute offsets. A label
    // bound past the last instruction would fall off the method; the
    // verifier rejects that, so refuse it here with a clear message.
    for (size_t i = 0; i < insts_.size(); ++i) {
        uint32_t label = branchLabels_[i];
        if (label == kUnbound)
            continue;
        uint32_t target_idx = labelTargets_[label];
        if (target_idx == kUnbound)
            fatal("branch to unbound label ", label);
        if (target_idx >= insts_.size())
            fatal("branch label ", label, " bound past method end");
        insts_[i].operand = static_cast<int32_t>(offsets[target_idx]);
    }

    branchLabels_.clear();
    labelTargets_.clear();
    return std::move(insts_);
}

} // namespace nse
