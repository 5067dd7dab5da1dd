/**
 * @file
 * Decoded instruction representation plus the binary instruction codec.
 *
 * A method's code attribute stores the encoded stream; analyses and the
 * interpreter work on the decoded form. Branch operands are absolute
 * bytecode offsets within the method (the decoder validates that they
 * land on instruction boundaries; see Verifier).
 */

#ifndef NSE_BYTECODE_INSTRUCTION_H
#define NSE_BYTECODE_INSTRUCTION_H

#include <cstdint>
#include <vector>

#include "bytecode/opcode.h"
#include "support/bytebuffer.h"

namespace nse
{

/** One decoded bytecode instruction. */
struct Instruction
{
    Opcode op = Opcode::NOP;
    /** Immediate / local slot / constant-pool index / branch target. */
    int32_t operand = 0;
    /** Byte offset of this instruction within the method's code. */
    uint32_t offset = 0;

    /** Encoded size of this instruction in bytes. */
    size_t size() const { return encodedSize(op); }
};

/** Encode a decoded instruction sequence into a bytecode stream. */
std::vector<uint8_t> encodeCode(const std::vector<Instruction> &insts);

/**
 * Decode a full bytecode stream. Offsets are filled in; operand ranges
 * (locals, constant-pool, branch targets) are validated later by the
 * verifier. fatal()s on truncated or unknown encodings.
 */
std::vector<Instruction> decodeCode(const std::vector<uint8_t> &code);

} // namespace nse

#endif // NSE_BYTECODE_INSTRUCTION_H
