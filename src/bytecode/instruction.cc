#include "bytecode/instruction.h"

#include "support/error.h"

namespace nse
{

std::vector<uint8_t>
encodeCode(const std::vector<Instruction> &insts)
{
    ByteWriter w;
    for (const auto &inst : insts) {
        w.putU8(static_cast<uint8_t>(inst.op));
        switch (opcodeInfo(inst.op).operand) {
          case OperandKind::None:
            break;
          case OperandKind::ImmI8:
            NSE_ASSERT(inst.operand >= INT8_MIN && inst.operand <= INT8_MAX,
                       "imm8 out of range: ", inst.operand);
            w.putI8(static_cast<int8_t>(inst.operand));
            break;
          case OperandKind::ImmI32:
            w.putI32(inst.operand);
            break;
          case OperandKind::Local:
          case OperandKind::CpIdx:
          case OperandKind::Branch:
            NSE_ASSERT(inst.operand >= 0 && inst.operand <= UINT16_MAX,
                       "u16 operand out of range: ", inst.operand);
            w.putU16(static_cast<uint16_t>(inst.operand));
            break;
        }
    }
    return w.take();
}

std::vector<Instruction>
decodeCode(const std::vector<uint8_t> &code)
{
    std::vector<Instruction> out;
    ByteReader r(code);
    while (!r.atEnd()) {
        Instruction inst;
        inst.offset = static_cast<uint32_t>(r.pos());
        uint8_t raw = r.getU8();
        if (!isValidOpcode(raw))
            fatal("unknown opcode byte ", int{raw}, " at offset ",
                  inst.offset);
        inst.op = static_cast<Opcode>(raw);
        switch (opcodeInfo(inst.op).operand) {
          case OperandKind::None:
            break;
          case OperandKind::ImmI8:
            inst.operand = r.getI8();
            break;
          case OperandKind::ImmI32:
            inst.operand = r.getI32();
            break;
          case OperandKind::Local:
          case OperandKind::CpIdx:
          case OperandKind::Branch:
            inst.operand = r.getU16();
            break;
        }
        out.push_back(inst);
    }
    return out;
}

} // namespace nse
