/**
 * @file
 * Unit tests for the bytecode layer: opcode metadata, the instruction
 * codec, the structured CodeBuilder, and the disassembler.
 */

#include <gtest/gtest.h>

#include "bytecode/code_builder.h"
#include "bytecode/disassembler.h"
#include "bytecode/instruction.h"
#include "support/error.h"

namespace nse
{
namespace
{

TEST(Opcode, MetadataIsConsistent)
{
    for (size_t i = 0; i < kNumOpcodes; ++i) {
        auto op = static_cast<Opcode>(i);
        const OpcodeInfo &info = opcodeInfo(op);
        EXPECT_FALSE(info.name.empty());
        EXPECT_GT(info.cycleCost, 0u);
        EXPECT_GE(encodedSize(op), 1u);
        EXPECT_LE(encodedSize(op), 5u);
    }
}

TEST(Opcode, Classifiers)
{
    EXPECT_TRUE(isBranch(Opcode::GOTO));
    EXPECT_TRUE(isBranch(Opcode::IFEQ));
    EXPECT_FALSE(isConditionalBranch(Opcode::GOTO));
    EXPECT_TRUE(isConditionalBranch(Opcode::IF_ICMPLT));
    EXPECT_TRUE(isReturn(Opcode::RETURN));
    EXPECT_TRUE(isReturn(Opcode::IRETURN));
    EXPECT_TRUE(isReturn(Opcode::ARETURN));
    EXPECT_FALSE(isReturn(Opcode::GOTO));
    EXPECT_TRUE(isInvoke(Opcode::INVOKESTATIC));
    EXPECT_TRUE(isInvoke(Opcode::INVOKEVIRTUAL));
    EXPECT_FALSE(isInvoke(Opcode::NEW));
    EXPECT_FALSE(isValidOpcode(255));
    EXPECT_TRUE(isValidOpcode(0));
}

/** Parameterized round trip: every opcode encodes and decodes. */
class CodecRoundTrip : public ::testing::TestWithParam<size_t>
{
};

TEST_P(CodecRoundTrip, EncodeDecode)
{
    auto op = static_cast<Opcode>(GetParam());
    Instruction inst;
    inst.op = op;
    switch (opcodeInfo(op).operand) {
      case OperandKind::None:
        inst.operand = 0;
        break;
      case OperandKind::ImmI8:
        inst.operand = -5;
        break;
      case OperandKind::ImmI32:
        inst.operand = -123456789;
        break;
      default:
        inst.operand = 777;
        break;
    }
    auto bytes = encodeCode({inst});
    EXPECT_EQ(bytes.size(), encodedSize(op));
    auto decoded = decodeCode(bytes);
    ASSERT_EQ(decoded.size(), 1u);
    EXPECT_EQ(decoded[0].op, op);
    EXPECT_EQ(decoded[0].operand, inst.operand);
    EXPECT_EQ(decoded[0].offset, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllOpcodes, CodecRoundTrip,
                         ::testing::Range<size_t>(0, kNumOpcodes));

TEST(Codec, OffsetsAccumulate)
{
    std::vector<Instruction> prog{
        {Opcode::PUSH_I8, 1, 0},
        {Opcode::PUSH_I32, 100000, 0},
        {Opcode::IADD, 0, 0},
        {Opcode::IRETURN, 0, 0},
    };
    auto decoded = decodeCode(encodeCode(prog));
    ASSERT_EQ(decoded.size(), 4u);
    EXPECT_EQ(decoded[0].offset, 0u);
    EXPECT_EQ(decoded[1].offset, 2u);
    EXPECT_EQ(decoded[2].offset, 7u);
    EXPECT_EQ(decoded[3].offset, 8u);
}

TEST(Codec, RejectsUnknownOpcode)
{
    std::vector<uint8_t> junk{0xff};
    EXPECT_THROW(decodeCode(junk), FatalError);
}

TEST(Codec, RejectsTruncatedOperand)
{
    std::vector<uint8_t> truncated{
        static_cast<uint8_t>(Opcode::PUSH_I32), 0, 0};
    EXPECT_THROW(decodeCode(truncated), FatalError);
}

TEST(Cond, NegationIsInvolutive)
{
    for (Cond c : {Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge, Cond::Gt,
                   Cond::Le}) {
        EXPECT_EQ(negate(negate(c)), c);
        EXPECT_NE(icmpOpcode(c), icmpOpcode(negate(c)));
    }
}

TEST(CodeBuilder, BranchResolution)
{
    CodeBuilder b;
    auto skip = b.newLabel();
    b.pushInt(1);
    b.branch(Opcode::IFNE, skip);
    b.pushInt(99); // skipped
    b.bind(skip);
    b.emit(Opcode::RETURN);
    auto insts = b.finish();
    ASSERT_EQ(insts.size(), 4u);
    // The branch targets the RETURN's byte offset.
    EXPECT_EQ(insts[1].operand,
              static_cast<int32_t>(insts[3].offset));
}

TEST(CodeBuilder, UnboundLabelIsAnError)
{
    CodeBuilder b;
    auto lbl = b.newLabel();
    b.branch(Opcode::GOTO, lbl);
    EXPECT_THROW(b.finish(), FatalError);
}

TEST(CodeBuilder, LabelPastEndIsAnError)
{
    CodeBuilder b;
    auto lbl = b.newLabel();
    b.branch(Opcode::GOTO, lbl);
    b.bind(lbl); // bound after the last instruction
    EXPECT_THROW(b.finish(), FatalError);
}

TEST(CodeBuilder, PushIntPicksEncoding)
{
    CodeBuilder b;
    b.pushInt(100);
    b.pushInt(1000);
    b.emit(Opcode::RETURN);
    auto insts = b.finish();
    EXPECT_EQ(insts[0].op, Opcode::PUSH_I8);
    EXPECT_EQ(insts[1].op, Opcode::PUSH_I32);
}

TEST(CodeBuilder, StructuredIfElseShapes)
{
    CodeBuilder b;
    b.pushInt(1);
    b.ifNZElse([&] { b.pushInt(10); }, [&] { b.pushInt(20); });
    b.emit(Opcode::IRETURN);
    auto insts = b.finish();
    // pushInt, IFEQ, pushInt, GOTO, pushInt, IRETURN
    ASSERT_EQ(insts.size(), 6u);
    EXPECT_EQ(insts[1].op, Opcode::IFEQ);
    EXPECT_EQ(insts[3].op, Opcode::GOTO);
    // else target = instruction 4, done target = instruction 5
    EXPECT_EQ(insts[1].operand, static_cast<int32_t>(insts[4].offset));
    EXPECT_EQ(insts[3].operand, static_cast<int32_t>(insts[5].offset));
}

TEST(CodeBuilder, LoopShape)
{
    CodeBuilder b;
    b.loopWhile([&] { b.pushInt(0); }, [&] { b.emit(Opcode::NOP); });
    b.emit(Opcode::RETURN);
    auto insts = b.finish();
    // pushInt(cond), IFEQ exit, NOP, GOTO head, RETURN
    ASSERT_EQ(insts.size(), 5u);
    EXPECT_EQ(insts[3].op, Opcode::GOTO);
    EXPECT_EQ(insts[3].operand, static_cast<int32_t>(insts[0].offset));
    EXPECT_EQ(insts[1].operand, static_cast<int32_t>(insts[4].offset));
}

TEST(Disassembler, RendersOperands)
{
    Instruction inst{Opcode::ILOAD, 3, 10};
    std::string text = disassemble(inst);
    EXPECT_NE(text.find("ILOAD"), std::string::npos);
    EXPECT_NE(text.find("slot=3"), std::string::npos);

    Instruction branch{Opcode::GOTO, 42, 0};
    EXPECT_NE(disassemble(branch).find("-> 42"), std::string::npos);
}

TEST(Disassembler, WholeStream)
{
    CodeBuilder b;
    b.pushInt(5);
    b.emit(Opcode::IRETURN);
    std::string text = disassembleCode(encodeCode(b.finish()));
    EXPECT_NE(text.find("PUSH_I8"), std::string::npos);
    EXPECT_NE(text.find("IRETURN"), std::string::npos);
}

} // namespace
} // namespace nse
