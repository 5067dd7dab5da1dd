/**
 * @file
 * Structured bytecode authoring API.
 *
 * CodeBuilder is how workloads and tests write methods: it provides raw
 * emission with label patching plus structured control-flow combinators
 * (if/else, while, counted for) so that workload sources read like an
 * AST construction rather than a flat assembly listing.
 *
 * Branch operands are symbolic labels while building; finish() resolves
 * them to absolute byte offsets.
 */

#ifndef NSE_BYTECODE_CODE_BUILDER_H
#define NSE_BYTECODE_CODE_BUILDER_H

#include <cstdint>
#include <functional>
#include <vector>

#include "bytecode/instruction.h"

namespace nse
{

/** Integer comparison conditions for structured branches. */
enum class Cond : uint8_t
{
    Eq,
    Ne,
    Lt,
    Ge,
    Gt,
    Le,
};

/** The condition that is true exactly when `c` is false. */
Cond negate(Cond c);

/** Map a condition onto the two-operand IF_ICMPxx branch opcode. */
Opcode icmpOpcode(Cond c);

/**
 * Builds one method's instruction sequence.
 *
 * The emit* methods append instructions; block(...) combinators take
 * callables that emit their bodies. finish() validates that all labels
 * were bound and returns the instruction list with offsets assigned.
 */
class CodeBuilder
{
  public:
    using Label = uint32_t;
    using Block = std::function<void()>;

    CodeBuilder() = default;

    /** Allocate a fresh unbound label. */
    Label newLabel();

    /** Bind a label to the current position. Each label binds once. */
    void bind(Label label);

    /** Append an operand-less instruction. */
    void emit(Opcode op);

    /** Append an instruction with an immediate/local/cp operand. */
    void emit(Opcode op, int32_t operand);

    /** Append a branch whose target is a (possibly unbound) label. */
    void branch(Opcode op, Label target);

    // --- Common shorthands -------------------------------------------

    /** Push an int constant, choosing the smallest encoding. */
    void pushInt(int32_t v);

    void iload(uint16_t slot) { emit(Opcode::ILOAD, slot); }
    void istore(uint16_t slot) { emit(Opcode::ISTORE, slot); }
    void aload(uint16_t slot) { emit(Opcode::ALOAD, slot); }
    void astore(uint16_t slot) { emit(Opcode::ASTORE, slot); }

    /** slot += delta (no stack traffic). */
    void iinc(uint16_t slot, int32_t delta);

    // --- Structured control flow -------------------------------------

    /** Consume top int; run `then` when it is non-zero. */
    void ifNZ(const Block &then);

    /** Consume top int; run `then` when non-zero, else `other`. */
    void ifNZElse(const Block &then, const Block &other);

    /** Consume two ints a,b (pushed in that order); run when a?b holds. */
    void ifICmp(Cond c, const Block &then);

    /** Two-armed variant of ifICmp. */
    void ifICmpElse(Cond c, const Block &then, const Block &other);

    /**
     * while (cond) body. `cond` must leave one int on the stack;
     * the loop exits when it is zero.
     */
    void loopWhile(const Block &cond, const Block &body);

    /**
     * for (slot = from; slot < to_fn(); ++slot) body.
     * `to` emits the bound onto the stack each iteration.
     */
    void forRange(uint16_t slot, int32_t from, const Block &to,
                  const Block &body);

    /** Counted loop with a constant bound. */
    void forRange(uint16_t slot, int32_t from, int32_t to,
                  const Block &body);

    /**
     * Resolve labels to byte offsets and return the finished sequence.
     * fatal()s when a referenced label was never bound.
     */
    std::vector<Instruction> finish();

  private:
    std::vector<Instruction> insts_;
    /** For each instruction, the label it branches to (or kNoLabel). */
    std::vector<uint32_t> branchLabels_;
    /** Instruction index each label is bound to; kUnbound until bound. */
    std::vector<uint32_t> labelTargets_;

    static constexpr uint32_t kUnbound = UINT32_MAX;
};

} // namespace nse

#endif // NSE_BYTECODE_CODE_BUILDER_H
