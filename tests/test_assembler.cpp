// Tests for the two-pass assembler: syntax coverage, label resolution,
// directives, and diagnostics.
#include "asm/assembler.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "isa/isa.hpp"

namespace simt::assembler {
namespace {

using isa::Format;
using isa::Guard;
using isa::Opcode;

/// Expect assembly failure whose message contains `needle`.
void expect_error(const std::string& src, const std::string& needle) {
  try {
    assemble(src);
    FAIL() << "expected assembly of \"" << src << "\" to fail";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "got: " << e.what();
  }
}

TEST(Assembler, EmptyAndCommentOnlySource) {
  EXPECT_TRUE(assemble("").empty());
  EXPECT_TRUE(assemble("// nothing\n; semicolons too\n# hashes\n").empty());
}

TEST(Assembler, BasicThreeOperandForm) {
  const auto p = assemble("add %r3, %r1, %r2\n");
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p.at(0).op, Opcode::ADD);
  EXPECT_EQ(p.at(0).rd, 3);
  EXPECT_EQ(p.at(0).ra, 1);
  EXPECT_EQ(p.at(0).rb, 2);
}

TEST(Assembler, ImmediateForms) {
  const auto p = assemble(
      "movi %r1, 42\n"
      "movi %r2, -7\n"
      "movi %r3, 0xDEAD\n"
      "addi %r4, %r1, 100\n"
      "subi %r5, %r1, -100\n");
  EXPECT_EQ(p.at(0).imm, 42);
  EXPECT_EQ(p.at(1).imm, -7);
  EXPECT_EQ(p.at(2).imm, 0xDEAD);
  EXPECT_EQ(p.at(3).imm, 100);
  EXPECT_EQ(p.at(4).imm, -100);
}

TEST(Assembler, FullWidthImmediates) {
  const auto p = assemble("movi %r0, 0x7FFFFFFF\nmovi %r1, -2147483648\n");
  EXPECT_EQ(p.at(0).imm, 0x7FFFFFFF);
  EXPECT_EQ(p.at(1).imm, INT32_MIN);
}

TEST(Assembler, GuardPrefixes) {
  const auto p = assemble(
      "@p0 add %r1, %r1, %r2\n"
      "@!p3 sub %r1, %r1, %r2\n"
      "@p2 lds %r1, [%r2 + 4]\n");
  EXPECT_EQ(p.at(0).guard, Guard::IfTrue);
  EXPECT_EQ(p.at(0).gpred, 0);
  EXPECT_EQ(p.at(1).guard, Guard::IfFalse);
  EXPECT_EQ(p.at(1).gpred, 3);
  EXPECT_EQ(p.at(2).guard, Guard::IfTrue);
  EXPECT_EQ(p.at(2).gpred, 2);
}

TEST(Assembler, GuardRejectedOnControlFlow) {
  expect_error("@p0 bra somewhere\nsomewhere: exit\n",
               "guards are only allowed");
  expect_error("@p1 exit\n", "guards are only allowed");
}

TEST(Assembler, MemoryOperands) {
  const auto p = assemble(
      "lds %r1, [%r2 + 16]\n"
      "lds %r1, [%r2 - 4]\n"
      "lds %r1, [%r2]\n"
      "sts [%r3 + 8], %r4\n"
      "sts [%r3], %r4\n");
  EXPECT_EQ(p.at(0).imm, 16);
  EXPECT_EQ(p.at(1).imm, -4);
  EXPECT_EQ(p.at(2).imm, 0);
  EXPECT_EQ(p.at(3).op, Opcode::STS);
  EXPECT_EQ(p.at(3).rd, 4);  // store data register
  EXPECT_EQ(p.at(3).ra, 3);  // address base
  EXPECT_EQ(p.at(3).imm, 8);
  EXPECT_EQ(p.at(4).imm, 0);
}

TEST(Assembler, LabelsForwardAndBackward) {
  const auto p = assemble(
      "start:\n"
      "  movi %r0, 1\n"
      "  bra done\n"
      "  movi %r0, 2\n"
      "done:\n"
      "  bra start\n");
  EXPECT_EQ(p.at(1).imm, 3);  // forward reference to 'done'
  EXPECT_EQ(p.at(3).imm, 0);  // backward reference to 'start'
  EXPECT_EQ(p.labels().at("start"), 0u);
  EXPECT_EQ(p.labels().at("done"), 3u);
}

TEST(Assembler, LabelOnSameLineAsInstruction) {
  const auto p = assemble("loop: addi %r1, %r1, 1\nbra loop\n");
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p.at(1).imm, 0);
}

TEST(Assembler, PredicateInstructions) {
  const auto p = assemble(
      "setp.lt %p0, %r1, %r2\n"
      "setp.geu %p3, %r4, %r5\n"
      "pand %p0, %p1, %p2\n"
      "pnot %p1, %p0\n"
      "selp %r1, %r2, %r3, %p0\n"
      "brp %p0, target\n"
      "target: brn %p2, target\n");
  EXPECT_EQ(p.at(0).op, Opcode::SETP_LT);
  EXPECT_EQ(p.at(0).pd, 0);
  EXPECT_EQ(p.at(1).op, Opcode::SETP_GEU);
  EXPECT_EQ(p.at(1).pd, 3);
  EXPECT_EQ(p.at(2).pa, 1);
  EXPECT_EQ(p.at(2).pb, 2);
  EXPECT_EQ(p.at(4).op, Opcode::SELP);
  EXPECT_EQ(p.at(4).pa, 0);
  EXPECT_EQ(p.at(5).op, Opcode::BRP);
  EXPECT_EQ(p.at(5).imm, 6);
}

TEST(Assembler, LoopInstructions) {
  const auto p = assemble(
      "loopi 10, body_end\n"
      "  addi %r1, %r1, 1\n"
      "body_end:\n"
      "  loop %r7, reg_end\n"
      "  addi %r2, %r2, 1\n"
      "reg_end:\n"
      "  exit\n");
  EXPECT_EQ(p.at(0).op, Opcode::LOOPI);
  EXPECT_EQ((p.at(0).imm >> 16) & 0xffff, 10);
  EXPECT_EQ(p.at(0).imm & 0xffff, 2);
  EXPECT_EQ(p.at(2).op, Opcode::LOOP);
  EXPECT_EQ(p.at(2).ra, 7);
  EXPECT_EQ(p.at(2).imm, 4);
}

TEST(Assembler, SpecialRegisters) {
  const auto p = assemble(
      "movsr %r0, %tid\n"
      "movsr %r1, %ntid\n"
      "movsr %r2, %nsp\n"
      "movsr %r3, %lane\n"
      "movsr %r4, %row\n"
      "movsr %r5, %smid\n");
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(p.at(static_cast<std::size_t>(i)).imm, i);
  }
}

TEST(Assembler, ThreadScaling) {
  const auto p = assemble("sett %r9\nsetti 256\n");
  EXPECT_EQ(p.at(0).op, Opcode::SETT);
  EXPECT_EQ(p.at(0).ra, 9);
  EXPECT_EQ(p.at(1).op, Opcode::SETTI);
  EXPECT_EQ(p.at(1).imm, 256);
}

TEST(Assembler, EquDirective) {
  const auto p = assemble(
      ".equ N 64\n"
      ".equ BASE 0x100\n"
      ".equ ALIAS N\n"
      "movi %r1, N\n"
      "lds %r2, [%r3 + BASE]\n"
      "setti ALIAS\n");
  EXPECT_EQ(p.at(0).imm, 64);
  EXPECT_EQ(p.at(1).imm, 0x100);
  EXPECT_EQ(p.at(2).imm, 64);
}

TEST(Assembler, DiagnosticsCarryLineNumbers) {
  expect_error("add %r1, %r2\n", "line 1");
  expect_error("nop\nbogus %r1, %r2, %r3\n", "line 2");
}

TEST(Assembler, DiagnosticKinds) {
  expect_error("bogus %r1, %r2, %r3\n", "unknown mnemonic");
  expect_error("bra nowhere\n", "undefined label");
  expect_error("x: nop\nx: nop\n", "duplicate label");
  expect_error("add %r1, %r2, 5\n", "expected a register");
  expect_error("movi %r999, 1\n", "register index out of range");
  expect_error("setp.lt %p9, %r0, %r1\n", "predicate index out of range");
  expect_error("@p9 add %r0, %r0, %r0\n", "guard predicate out of range");
  expect_error("movi %r1, 99999999999999\n", "does not fit in 32 bits");
  expect_error("setti 0\n", "thread count");
  expect_error("setti 5000\n", "thread count");
  expect_error("loopi 70000, x\nx: nop\n", "loop count");
  expect_error(".bogus 1\n", "unknown directive");
  expect_error(".equ A 1\n.equ A 2\n", "duplicate .equ");
  expect_error("movi %r1, UNDEF_CONST\n", "unknown constant");
  expect_error("add %r1, %r2, %r3 garbage\n", "trailing junk");
  expect_error("lds %r1, [%r2 + ]\n", "malformed number");
  expect_error("movsr %r1, %bogus\n", "unknown register token");
}

TEST(Assembler, RoundTripThroughEncoding) {
  const std::string src =
      "movsr %r0, %tid\n"
      "movi %r1, 10\n"
      "setp.lt %p0, %r0, %r1\n"
      "@p0 add %r2, %r0, %r1\n"
      "lds %r3, [%r2 + 32]\n"
      "sts [%r2], %r3\n"
      "exit\n";
  const auto p = assemble(src);
  const auto image = p.encode();
  const auto back = core::Program::decode(image);
  ASSERT_EQ(back.size(), p.size());
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_EQ(back.at(i), p.at(i)) << "pc " << i;
  }
}

TEST(Assembler, ListingShowsLabelsAndDisassembly) {
  const auto p = assemble("entry:\n  movi %r1, 5\n  exit\n");
  const std::string listing = p.listing();
  EXPECT_NE(listing.find("entry:"), std::string::npos);
  EXPECT_NE(listing.find("movi %r1, 5"), std::string::npos);
  EXPECT_NE(listing.find("exit"), std::string::npos);
}

// ---- kernel ABI metadata directives ----------------------------------------

TEST(AssemblerAbi, KernelDirectiveDefinesEntryAndLabel) {
  const auto p = assemble(
      "movi %r1, 1\n"
      "exit\n"
      ".kernel k2\n"
      "movi %r1, 2\n"
      "exit\n");
  ASSERT_EQ(p.kernels().size(), 1u);
  EXPECT_EQ(p.kernels()[0].name, "k2");
  EXPECT_EQ(p.kernels()[0].entry, 2u);
  EXPECT_EQ(p.labels().at("k2"), 2u);  // the name is a label too
  EXPECT_EQ(p.find_kernel("k2"), &p.kernels()[0]);
  EXPECT_EQ(p.kernel_at_entry(2), &p.kernels()[0]);
  EXPECT_EQ(p.find_kernel("missing"), nullptr);
}

TEST(AssemblerAbi, ParamRefsRecordRelocationsWithAddends) {
  const auto p = assemble(
      ".kernel k\n"
      ".param a buffer\n"
      ".param n scalar\n"
      "movsr %r0, %tid\n"
      "lds %r1, [%r0 + $a]\n"
      "lds %r2, [%r0 + $a + 3]\n"
      "movi %r3, $n\n"
      "addi %r4, %r4, $n\n"
      "exit\n");
  const auto& k = p.kernels().at(0);
  ASSERT_EQ(k.params.size(), 2u);
  EXPECT_EQ(k.params[0].kind, core::KernelParam::Kind::Buffer);
  EXPECT_EQ(k.params[1].kind, core::KernelParam::Kind::Scalar);
  ASSERT_EQ(k.refs.size(), 4u);
  EXPECT_EQ(k.refs[0], (core::ParamRef{1, 0, 0}));
  EXPECT_EQ(k.refs[1], (core::ParamRef{2, 0, 3}));
  EXPECT_EQ(k.refs[2], (core::ParamRef{3, 1, 0}));
  EXPECT_EQ(k.refs[3], (core::ParamRef{4, 1, 0}));
  // Unpatched instructions carry only the constant addend.
  EXPECT_EQ(p.at(1).imm, 0);
  EXPECT_EQ(p.at(2).imm, 3);
}

TEST(AssemblerAbi, FootprintsParseWholeAndExtent) {
  const auto p = assemble(
      ".equ HALF 32\n"
      ".kernel k\n"
      ".param in buffer\n"
      ".param out buffer\n"
      ".reads in\n"
      ".reads in+HALF\n"
      ".writes out+8\n"
      "exit\n");
  const auto& k = p.kernels().at(0);
  ASSERT_EQ(k.reads.size(), 2u);
  EXPECT_EQ(k.reads[0], (core::Footprint{0, 0}));   // whole bound buffer
  EXPECT_EQ(k.reads[1], (core::Footprint{0, 32}));  // .equ-resolved extent
  ASSERT_EQ(k.writes.size(), 1u);
  EXPECT_EQ(k.writes[0], (core::Footprint{1, 8}));
}

TEST(AssemblerAbi, PerThreadFootprintsParseWindowAndDefault) {
  const auto p = assemble(
      ".kernel k\n"
      ".param x buffer\n"
      ".param y buffer\n"
      ".reads x@tid+16\n"   // FIR-style tap window
      ".writes y@tid\n"     // elementwise, default 1-word window
      "exit\n");
  const auto& k = p.kernels().at(0);
  ASSERT_EQ(k.reads.size(), 1u);
  EXPECT_EQ(k.reads[0], (core::Footprint{0, 16, true}));
  ASSERT_EQ(k.writes.size(), 1u);
  EXPECT_EQ(k.writes[0], (core::Footprint{1, 1, true}));
}

TEST(AssemblerAbi, PerThreadFootprintDiagnostics) {
  expect_error(".kernel k\n.param a buffer\n.reads a@warp\nexit\n",
               "must be @tid");
  expect_error(".kernel k\n.param n scalar\n.reads n@tid\nexit\n",
               "is a scalar");
  expect_error(".kernel k\n.param a buffer\n.reads a@tid+0\nexit\n",
               "positive word count");
}

TEST(AssemblerAbi, StridedPerThreadFootprintsParse) {
  const auto p = assemble(
      ".equ CHUNK 4\n"
      ".kernel k\n"
      ".param in buffer\n"
      ".param out buffer\n"
      ".reads in@tid*CHUNK+4\n"  // chunked [t*4, (t+1)*4)
      ".reads in@tid*8\n"        // stride 8, default 1-word window
      ".writes out@tid\n"        // stride defaults to 1
      "exit\n");
  const auto& k = p.kernels().at(0);
  ASSERT_EQ(k.reads.size(), 2u);
  EXPECT_EQ(k.reads[0], (core::Footprint{0, 4, true, 4}));
  EXPECT_EQ(k.reads[1], (core::Footprint{0, 1, true, 8}));
  ASSERT_EQ(k.writes.size(), 1u);
  EXPECT_EQ(k.writes[0], (core::Footprint{1, 1, true, 1}));
}

TEST(AssemblerAbi, StridedFootprintDiagnostics) {
  expect_error(".kernel k\n.param a buffer\n.reads a@tid*0\nexit\n",
               "positive word count");
  expect_error(".kernel k\n.param a buffer\n.reads a*4\nexit\n",
               "stride needs the @tid modifier");
}

TEST(AssemblerAbi, DirectiveDiagnostics) {
  expect_error(".param a buffer\nexit\n", "before any .kernel");
  expect_error(".reads a\nexit\n", "before any .kernel");
  expect_error(".kernel k\n.param a buffer\n.param a buffer\nexit\n",
               "duplicate .param");
  expect_error(".kernel k\nexit\n.kernel k\nexit\n", "duplicate .kernel");
  expect_error(".kernel k\n.param a widget\nexit\n", "buffer or scalar");
  expect_error(".kernel k\n.reads a\nexit\n", "undeclared parameter");
  expect_error(".kernel k\n.param n scalar\n.reads n\nexit\n",
               "is a scalar");
  expect_error(".kernel k\n.param a buffer\n.reads a+0\nexit\n",
               "positive word count");
  expect_error("lds %r1, [%r0 + $a]\n", "outside a .kernel");
  expect_error(".kernel k\nlds %r1, [%r0 + $a]\n", "undeclared parameter");
  expect_error(
      ".kernel k\n.param a buffer\n.param b buffer\n"
      "lds %r1, [%r0 + $a + $b]\n",
      "at most one $parameter");
  expect_error(".kernel k\n.param a buffer\nmovi %r1, -$a\n",
               "'-$param' is not supported");
  // Immediate terms must be explicitly signed -- juxtaposition stays an
  // error, as it was before $param expressions existed.
  expect_error("movi %r1, 1 2\n", "expected '+' or '-'");
  expect_error(".kernel k\n.param a buffer\nlds %r1, [%r0 + $a 3]\n",
               "expected '+' or '-'");
}

TEST(AssemblerAbi, ParametersBindOnlyAsImmediates) {
  // Relocation patching is the one binding mechanism: there is no loader
  // directive, and a $parameter never stands in for a register.
  expect_error(".kernel k\n.param a buffer\n.prologue %r8\nexit\n",
               "unknown directive: .prologue");
  expect_error(".kernel k\n.param a buffer\nadd %r1, %r0, $a\nexit\n",
               "expected a register, got parameter '$a'");
  expect_error(".kernel k\n.param a buffer\nlds %r1, [$a]\nexit\n",
               "expected a register, got parameter '$a'");
}

}  // namespace
}  // namespace simt::assembler
