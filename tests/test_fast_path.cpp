// Differential tests for the predecoded fast-path execution engine.
//
// The functional fast path (CoreConfig::bit_accurate = false: DecodedImage
// per-opcode thunks, specialized lane loops) must be bit-identical to both
// the bit-accurate structural engine (Mul33 / shifter / LogicUnit walked
// per lane) and the independent ReferenceInterpreter -- registers,
// predicates, shared memory, AND perf counters (timing is computed apart
// from lane evaluation, so the cycle model may not shift by engine).
// The fast path tries the SIMD batched lane engine first and falls back to
// its scalar per-lane bodies on divergent guards, unbatchable formats and
// out-of-bounds lanes, so the batch thunks, the guard-uniformity prescan,
// and the scalar fallback all face the same exhaustive opcode x guard
// matrix.
//
// Coverage: an exhaustive opcode x guard sweep over every guardable
// (operation/load/store class) instruction, a control-flow program covering
// the sequencer opcodes, randomized whole-program differentials, every
// batch thunk against the structural ALU at every row length, and a
// runtime-level engines-x-backends check on the FIR+scale+reduce mix.
#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "asm/assembler.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/decoded_image.hpp"
#include "core/gpgpu.hpp"
#include "core/ref_interp.hpp"
#include "hw/alu.hpp"
#include "kernels/kernels.hpp"
#include "runtime/buffer.hpp"
#include "runtime/device.hpp"
#include "runtime/module.hpp"
#include "system/multicore.hpp"

namespace simt::core {
namespace {

using isa::Format;
using isa::Guard;
using isa::Instr;
using isa::Opcode;
using isa::TimingClass;

constexpr unsigned kThreads = 64;
constexpr unsigned kRegs = 16;
constexpr unsigned kSharedWords = 1024;

CoreConfig engine_cfg(bool bit_accurate) {
  CoreConfig cfg;
  cfg.num_sps = 16;
  cfg.max_threads = kThreads;
  cfg.regs_per_thread = kRegs;
  cfg.shared_mem_words = kSharedWords;
  cfg.predicates_enabled = true;
  cfg.bit_accurate = bit_accurate;
  return cfg;
}

void expect_perf_eq(const PerfCounters& a, const PerfCounters& b,
                    const std::string& what) {
  EXPECT_EQ(a.cycles, b.cycles) << what;
  EXPECT_EQ(a.issue_cycles, b.issue_cycles) << what;
  EXPECT_EQ(a.flush_cycles, b.flush_cycles) << what;
  EXPECT_EQ(a.stall_cycles, b.stall_cycles) << what;
  EXPECT_EQ(a.fill_cycles, b.fill_cycles) << what;
  EXPECT_EQ(a.instructions, b.instructions) << what;
  EXPECT_EQ(a.operation_instrs, b.operation_instrs) << what;
  EXPECT_EQ(a.load_instrs, b.load_instrs) << what;
  EXPECT_EQ(a.store_instrs, b.store_instrs) << what;
  EXPECT_EQ(a.single_instrs, b.single_instrs) << what;
  EXPECT_EQ(a.thread_rows, b.thread_rows) << what;
  EXPECT_EQ(a.thread_ops, b.thread_ops) << what;
  EXPECT_EQ(a.operation_thread_ops, b.operation_thread_ops) << what;
  EXPECT_EQ(a.load_thread_ops, b.load_thread_ops) << what;
  EXPECT_EQ(a.store_thread_ops, b.store_thread_ops) << what;
  EXPECT_EQ(a.shm_reads, b.shm_reads) << what;
  EXPECT_EQ(a.shm_writes, b.shm_writes) << what;
  EXPECT_EQ(a.per_opcode, b.per_opcode) << what;
}

/// Run one program on the batched fast engine, the bit-accurate engine, and
/// the reference interpreter from identical random initial state; all
/// architectural state must match, and the two Gpgpu engines must agree on
/// every perf counter.
void run_differential(const Program& prog, std::uint64_t seed,
                      const std::string& what) {
  Gpgpu fast(engine_cfg(false));
  Gpgpu accurate(engine_cfg(true));
  ReferenceInterpreter ref(engine_cfg(false));
  fast.load_program(prog);
  accurate.load_program(prog);
  ref.load_program(prog);
  fast.set_thread_count(kThreads);
  accurate.set_thread_count(kThreads);
  ref.set_thread_count(kThreads);

  // Identical random registers and shared memory everywhere; predicates
  // start zero (the reference interpreter has no predicate poke) and gain
  // thread-varying state through the programs' SETP instructions.
  Xoshiro256 init(seed ^ 0xfeedULL);
  for (unsigned t = 0; t < kThreads; ++t) {
    for (unsigned r = 0; r < kRegs; ++r) {
      const auto v = init.next_u32();
      fast.write_reg(t, r, v);
      accurate.write_reg(t, r, v);
      ref.write_reg(t, r, v);
    }
  }
  for (unsigned a = 0; a < kSharedWords; ++a) {
    const auto v = init.next_u32();
    fast.write_shared(a, v);
    accurate.write_shared(a, v);
    ref.write_shared(a, v);
  }

  const auto rf = fast.run();
  const auto ra = accurate.run();
  ref.run();
  ASSERT_TRUE(rf.exited) << what;
  ASSERT_TRUE(ra.exited) << what;
  expect_perf_eq(rf.perf, ra.perf, what);

  for (unsigned t = 0; t < kThreads; ++t) {
    for (unsigned r = 0; r < kRegs; ++r) {
      ASSERT_EQ(fast.read_reg(t, r), accurate.read_reg(t, r))
          << what << " (vs bit-accurate) thread " << t << " reg " << r
          << "\n" << prog.listing();
      ASSERT_EQ(fast.read_reg(t, r), ref.read_reg(t, r))
          << what << " (vs reference) thread " << t << " reg " << r << "\n"
          << prog.listing();
    }
    for (unsigned p = 0; p < 4; ++p) {
      ASSERT_EQ(fast.read_pred(t, p), accurate.read_pred(t, p))
          << what << " thread " << t << " pred " << p;
      ASSERT_EQ(fast.read_pred(t, p), ref.read_pred(t, p))
          << what << " (vs reference) thread " << t << " pred " << p;
    }
  }
  for (unsigned a = 0; a < kSharedWords; ++a) {
    ASSERT_EQ(fast.read_shared(a), accurate.read_shared(a))
        << what << " addr " << a;
    ASSERT_EQ(fast.read_shared(a), ref.read_shared(a))
        << what << " (vs reference) addr " << a;
  }
}

// ---- exhaustive opcode x guard matrix --------------------------------------

/// Build a program exercising `op` under `guard`: a prologue computes a
/// thread-varying predicate mask, memory ops get their address register
/// masked in range, then the instruction itself runs, then EXIT.
Program guarded_program(Opcode op, Guard guard, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const auto reg = [&] {
    return static_cast<std::uint8_t>(rng.next_below(kRegs));
  };
  std::vector<Instr> prog;

  // Thread-varying predicates: p0..p3 from compares of random registers.
  for (std::uint8_t p = 0; p < 4; ++p) {
    Instr setp;
    setp.op = Opcode::SETP_LTU;
    setp.pd = p;
    setp.ra = reg();
    setp.rb = reg();
    prog.push_back(setp);
  }

  Instr in;
  in.op = op;
  in.guard = guard;
  in.gpred = static_cast<std::uint8_t>(rng.next_below(4));
  const auto& info = isa::op_info(op);
  switch (info.format) {
    case Format::RRR:
      in.rd = reg();
      in.ra = reg();
      in.rb = reg();
      break;
    case Format::RRI:
      in.rd = reg();
      in.ra = reg();
      in.imm = static_cast<std::int32_t>(rng.next_u32());
      break;
    case Format::RR:
      in.rd = reg();
      in.ra = reg();
      break;
    case Format::RI:
      in.rd = reg();
      in.imm = static_cast<std::int32_t>(rng.next_u32());
      break;
    case Format::RS:
      in.rd = reg();
      in.imm = static_cast<std::int32_t>(
          rng.next_below(isa::kSpecialRegCount));
      break;
    case Format::PRR:
      in.pd = static_cast<std::uint8_t>(rng.next_below(4));
      in.ra = reg();
      in.rb = reg();
      break;
    case Format::PPP:
      in.pd = static_cast<std::uint8_t>(rng.next_below(4));
      in.pa = static_cast<std::uint8_t>(rng.next_below(4));
      in.pb = static_cast<std::uint8_t>(rng.next_below(4));
      break;
    case Format::PP:
      in.pd = static_cast<std::uint8_t>(rng.next_below(4));
      in.pa = static_cast<std::uint8_t>(rng.next_below(4));
      break;
    case Format::SELP:
      in.rd = reg();
      in.ra = reg();
      in.rb = reg();
      in.pa = static_cast<std::uint8_t>(rng.next_below(4));
      break;
    case Format::MEM: {
      Instr mask;
      mask.op = Opcode::ANDI;
      mask.rd = reg();
      mask.ra = reg();
      mask.imm = kSharedWords - 1;
      prog.push_back(mask);
      in.rd = reg();
      in.ra = mask.rd;
      in.imm = 0;
      break;
    }
    default:
      ADD_FAILURE() << "guarded_program only covers guardable formats";
      break;
  }
  prog.push_back(in);

  Instr exit;
  exit.op = Opcode::EXIT;
  prog.push_back(exit);
  return Program(std::move(prog));
}

TEST(FastPathMatrix, EveryGuardableOpcodeUnderEveryGuardClass) {
  unsigned covered = 0;
  for (int o = 0; o < isa::kOpcodeCount; ++o) {
    const auto op = static_cast<Opcode>(o);
    const auto& info = isa::op_info(op);
    if (info.timing != TimingClass::Operation &&
        info.timing != TimingClass::Load &&
        info.timing != TimingClass::Store) {
      continue;  // sequencer opcodes take no guard; covered below
    }
    for (const Guard guard :
         {Guard::None, Guard::IfTrue, Guard::IfFalse}) {
      const auto seed =
          static_cast<std::uint64_t>(o) * 31 +
          static_cast<std::uint64_t>(guard) + 1;
      const std::string what =
          std::string(info.mnemonic) + " guard " +
          std::to_string(static_cast<int>(guard));
      run_differential(guarded_program(op, guard, seed), seed, what);
      ++covered;
    }
  }
  // 61 opcodes minus the 12 sequencer ones (control flow, loops, thread
  // scaling), each under 3 guard classes.
  EXPECT_EQ(covered, 3u * (61u - 12u));
}

TEST(FastPathMatrix, SequencerOpcodesAgreeAcrossEngines) {
  // BRA/BRP/BRN/CALL/RET/LOOP/LOOPI/SETT/SETTI/NOP/BAR in one structured
  // program (EXIT ends it); both engines and the cycle model must agree.
  const auto prog = assembler::assemble(
      "movsr %r0, %tid\n"
      "movi %r1, 32\n"
      "setp.lt %p0, %r0, %r1\n"
      "setp.geu %p1, %r0, %r1\n"
      "brp %p0, taken\n"
      "addi %r2, %r2, 100\n"
      "taken:\n"
      "brn %p3, none_set\n"
      "addi %r2, %r2, 200\n"
      "none_set:\n"
      "bra fwd\n"
      "addi %r2, %r2, 400\n"
      "fwd:\n"
      "call fn\n"
      "movi %r3, 5\n"
      "loop %r3, loopr_end\n"
      "addi %r4, %r4, 1\n"
      "loopr_end:\n"
      "loopi 3, loopi_end\n"
      "addi %r5, %r5, 1\n"
      "loopi_end:\n"
      "sett %r3\n"
      "setti 16\n"
      "nop\n"
      "bar\n"
      "exit\n"
      "fn:\n"
      "addi %r6, %r6, 1\n"
      "ret\n");
  run_differential(prog, 0x5eed, "sequencer program");
}

// ---- randomized whole programs ---------------------------------------------

Program random_program(std::uint64_t seed, int length) {
  Xoshiro256 rng(seed);
  std::vector<Instr> prog;

  const auto reg = [&] {
    return static_cast<std::uint8_t>(rng.next_below(kRegs));
  };
  const auto pred = [&] {
    return static_cast<std::uint8_t>(rng.next_below(4));
  };
  const auto maybe_guard = [&](Instr& in) {
    const auto r = rng.next_below(8);
    if (r == 0) {
      in.guard = Guard::IfTrue;
      in.gpred = pred();
    } else if (r == 1) {
      in.guard = Guard::IfFalse;
      in.gpred = pred();
    }
  };

  const Opcode rrr_ops[] = {Opcode::ADD,   Opcode::SUB,    Opcode::MULLO,
                            Opcode::MULHI, Opcode::MULHIU, Opcode::MIN,
                            Opcode::MAX,   Opcode::MINU,   Opcode::MAXU,
                            Opcode::AND,   Opcode::OR,     Opcode::XOR,
                            Opcode::CNOT,  Opcode::SHL,    Opcode::SHR,
                            Opcode::SAR};
  const Opcode rr_ops[] = {Opcode::ABS,  Opcode::NEG, Opcode::NOT,
                           Opcode::POPC, Opcode::CLZ, Opcode::BREV,
                           Opcode::MOV};
  const Opcode rri_ops[] = {Opcode::ADDI, Opcode::SUBI, Opcode::MULI,
                            Opcode::ANDI, Opcode::ORI,  Opcode::XORI,
                            Opcode::SHLI, Opcode::SHRI, Opcode::SARI};
  const Opcode setp_ops[] = {Opcode::SETP_EQ,  Opcode::SETP_NE,
                             Opcode::SETP_LT,  Opcode::SETP_LE,
                             Opcode::SETP_GT,  Opcode::SETP_GE,
                             Opcode::SETP_LTU, Opcode::SETP_GEU};

  for (int i = 0; i < length; ++i) {
    Instr in;
    switch (rng.next_below(12)) {
      case 0:
      case 1:
      case 2:
        in.op = rrr_ops[rng.next_below(std::size(rrr_ops))];
        in.rd = reg();
        in.ra = reg();
        in.rb = reg();
        maybe_guard(in);
        break;
      case 3:
        in.op = rr_ops[rng.next_below(std::size(rr_ops))];
        in.rd = reg();
        in.ra = reg();
        maybe_guard(in);
        break;
      case 4:
        in.op = rri_ops[rng.next_below(std::size(rri_ops))];
        in.rd = reg();
        in.ra = reg();
        in.imm = static_cast<std::int32_t>(rng.next_u32());
        maybe_guard(in);
        break;
      case 5:
        in.op = rng.chance(0.5) ? Opcode::MOVI : Opcode::MOVSR;
        in.rd = reg();
        in.imm = in.op == Opcode::MOVI
                     ? static_cast<std::int32_t>(rng.next_u32())
                     : static_cast<std::int32_t>(
                           rng.next_below(isa::kSpecialRegCount));
        break;
      case 6:
        in.op = setp_ops[rng.next_below(std::size(setp_ops))];
        in.pd = pred();
        in.ra = reg();
        in.rb = reg();
        maybe_guard(in);
        break;
      case 7:
        switch (rng.next_below(4)) {
          case 0: in.op = Opcode::PAND; break;
          case 1: in.op = Opcode::POR; break;
          case 2: in.op = Opcode::PXOR; break;
          default: in.op = Opcode::PNOT; break;
        }
        in.pd = pred();
        in.pa = pred();
        in.pb = pred();
        maybe_guard(in);
        break;
      case 8:
        in.op = Opcode::SELP;
        in.rd = reg();
        in.ra = reg();
        in.rb = reg();
        in.pa = pred();
        maybe_guard(in);
        break;
      case 9:
      case 10: {
        Instr mask;
        mask.op = Opcode::ANDI;
        mask.rd = reg();
        mask.ra = reg();
        mask.imm = kSharedWords - 1;
        prog.push_back(mask);
        in.op = rng.chance(0.5) ? Opcode::LDS : Opcode::STS;
        in.rd = reg();
        in.ra = mask.rd;
        in.imm = 0;
        maybe_guard(in);
        break;
      }
      default:
        in.op = Opcode::SETTI;
        in.imm =
            static_cast<std::int32_t>(16 + rng.next_below(kThreads - 15));
        break;
    }
    prog.push_back(in);
  }

  if (rng.chance(0.3)) {
    Instr loop;
    loop.op = Opcode::LOOPI;
    const auto end = static_cast<std::int32_t>(prog.size() + 1);
    loop.imm = (static_cast<std::int32_t>(2 + rng.next_below(3)) << 16) | end;
    prog.insert(prog.begin(), loop);
  }

  Instr exit;
  exit.op = Opcode::EXIT;
  prog.push_back(exit);
  return Program(std::move(prog));
}

class FastPathRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FastPathRandom, EnginesMatchOnRandomPrograms) {
  const std::uint64_t seed = GetParam();
  run_differential(random_program(seed, 60), seed,
                   "random seed " + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastPathRandom,
                         ::testing::Range<std::uint64_t>(1, 17));

// ---- batch thunks vs the structural ALU -------------------------------------
//
// Each batched thunk runs over every row length 1..67 -- past four 16-lane
// vectors, so every vector body and every scalar tail the compiler emits
// is hit -- in the plain shape and the aliased d == a / d == b shapes the
// register file produces, against the structural hw::Alu element by
// element (the independent oracle, not the golden ref:: body the thunks
// inline). Lanes past the row must come back untouched.

constexpr std::uint64_t kThunkSeed = 0x7b4e18;
constexpr unsigned kMaxRow = 67;
constexpr std::uint32_t kEdgeOperands[] = {
    0u, 1u, 31u, 32u, 33u, 0x7fffffffu, 0x80000000u, 0xffffffffu};
constexpr unsigned kEdges = std::size(kEdgeOperands);

/// Operand rows. Edge rows pair every edge value with every other in the
/// first kEdges^2 positions (a cycles fastest) and draw the rest; random
/// rows draw every position. Every third random b is biased into shift
/// range.
void fill_operands(Xoshiro256& rng, bool edges, std::vector<std::uint32_t>& a,
                   std::vector<std::uint32_t>& b) {
  a.resize(kMaxRow);
  b.resize(kMaxRow);
  for (unsigned i = 0; i < kMaxRow; ++i) {
    if (edges && i < kEdges * kEdges) {
      a[i] = kEdgeOperands[i % kEdges];
      b[i] = kEdgeOperands[i / kEdges];
    } else {
      a[i] = rng.next_u32();
      b[i] = i % 3 == 0 ? static_cast<std::uint32_t>(rng.next_below(40))
                        : rng.next_u32();
    }
  }
}

std::string thunk_case(Opcode op, unsigned n, const char* shape,
                       unsigned i, std::uint32_t a, std::uint32_t b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "seed %#llx: %s n=%u shape=%s lane %u a=%#x b=%#x",
                static_cast<unsigned long long>(kThunkSeed),
                std::string(isa::op_info(op).mnemonic).c_str(), n, shape, i,
                a, b);
  return buf;
}

enum class Alias { None, DA, DB };
constexpr Alias kAliases[] = {Alias::None, Alias::DA, Alias::DB};
const char* alias_name(Alias s) {
  return s == Alias::None ? "d,a,b" : s == Alias::DA ? "d==a" : "d==b";
}

TEST(BatchThunks, MatchStructuralAluAtEveryRowLengthAndAlias) {
  const hw::Alu alu;
  Xoshiro256 rng(kThunkSeed);
  unsigned checked_ops = 0;
  for (int o = 0; o < isa::kOpcodeCount; ++o) {
    const auto op = static_cast<Opcode>(o);
    const AluBatchRRFn rr = functional_alu_batch_rr(op);
    const AluBatchRIFn ri = functional_alu_batch_ri(op);
    const CmpBatchFn cmp = functional_cmp_batch(op);
    if (rr == nullptr && ri == nullptr && cmp == nullptr) {
      continue;
    }
    ++checked_ops;
    std::vector<std::uint32_t> a, b;
    // Two passes per row length: an edge row, then a random row.
    for (unsigned pass = 0; pass < 2 * kMaxRow; ++pass) {
      const unsigned n = pass / 2 + 1;
      fill_operands(rng, pass % 2 == 0, a, b);
      if (rr != nullptr) {
        for (const Alias shape : kAliases) {
          std::vector<std::uint32_t> ra = a, rb = b, rd(kMaxRow, 0xdeadbeef);
          std::vector<std::uint32_t>& dst = shape == Alias::DA   ? ra
                                            : shape == Alias::DB ? rb
                                                                 : rd;
          const auto untouched = dst;
          rr(dst.data(), ra.data(), rb.data(), n);
          for (unsigned i = 0; i < kMaxRow; ++i) {
            ASSERT_EQ(dst[i], i < n ? alu.execute(op, a[i], b[i])
                                    : untouched[i])
                << thunk_case(op, n, alias_name(shape), i, a[i], b[i]);
          }
        }
      }
      if (ri != nullptr) {
        for (unsigned j = 0; j < kEdges + 2; ++j) {
          const std::uint32_t imm =
              j < kEdges ? kEdgeOperands[j] : rng.next_u32();
          for (const Alias shape : {Alias::None, Alias::DA}) {
            std::vector<std::uint32_t> ra = a, rd(kMaxRow, 0xdeadbeef);
            std::vector<std::uint32_t>& dst = shape == Alias::DA ? ra : rd;
            const auto untouched = dst;
            ri(dst.data(), ra.data(), imm, n);
            for (unsigned i = 0; i < kMaxRow; ++i) {
              ASSERT_EQ(dst[i],
                        i < n ? alu.execute(op, a[i], imm) : untouched[i])
                  << thunk_case(op, n, alias_name(shape), i, a[i], imm);
            }
          }
        }
      }
      if (cmp != nullptr) {
        // Random predicate bytes: the thunk must rewrite only its own bit.
        std::vector<std::uint8_t> preds(kMaxRow);
        for (auto& p : preds) {
          p = static_cast<std::uint8_t>(rng.next_below(16));
        }
        const auto before = preds;
        const std::uint8_t bit = static_cast<std::uint8_t>(1u << (n % 4));
        cmp(preds.data(), bit, a.data(), b.data(), n);
        for (unsigned i = 0; i < kMaxRow; ++i) {
          const bool lane = i < n && alu.compare(op, a[i], b[i]);
          const auto want = static_cast<std::uint8_t>(
              i < n ? (before[i] & ~bit) | (lane ? bit : 0) : before[i]);
          ASSERT_EQ(preds[i], want)
              << thunk_case(op, n, "preds", i, a[i], b[i]);
        }
      }
    }
  }
  // 16 RRR + 17 RRI/RR ALU opcodes (CNOT has both thunks), 8 SETP.
  EXPECT_EQ(checked_ops, 40u);
}

// ---- decoded image mechanics -----------------------------------------------

TEST(DecodedImage, MultiCoreSharesOneImageAcrossCores) {
  system::SystemConfig cfg;
  cfg.num_cores = 3;
  cfg.core = engine_cfg(false);
  system::MultiCoreSystem sys(cfg);
  sys.load_kernel_all("movsr %r0, %tid\nexit\n");
  ASSERT_NE(sys.core(0).image(), nullptr);
  EXPECT_EQ(sys.core(0).image().get(), sys.core(1).image().get());
  EXPECT_EQ(sys.core(0).image().get(), sys.core(2).image().get());
}

TEST(DecodedImage, PatchedRewritesOnlyImmediates) {
  const auto prog = assembler::assemble("movi %r1, 7\nexit\n");
  const auto base = DecodedImage::build(prog, engine_cfg(false));
  const std::vector<std::pair<std::uint32_t, std::int32_t>> patches = {
      {0, 42}};
  const auto bound = DecodedImage::patched(*base, patches);
  EXPECT_EQ(base->at(0).instr.imm, 7);
  EXPECT_EQ(bound->at(0).instr.imm, 42);
  EXPECT_EQ(bound->words()[0], isa::encode(bound->at(0).instr));
  EXPECT_EQ(bound->at(0).info, base->at(0).info);
  // A patched image still loads (validation carried over).
  Gpgpu gpu(engine_cfg(false));
  gpu.load_image(bound);
  gpu.set_thread_count(16);
  ASSERT_TRUE(gpu.run().exited);
  EXPECT_EQ(gpu.read_reg(0, 1), 42u);
}

TEST(DecodedImage, PatchingControlFlowImmediatesThrows) {
  const auto prog = assembler::assemble("bra done\ndone:\nexit\n");
  const auto base = DecodedImage::build(prog, engine_cfg(false));
  const std::vector<std::pair<std::uint32_t, std::int32_t>> patches = {
      {0, 1}};
  EXPECT_THROW(DecodedImage::patched(*base, patches), Error);
}

TEST(DecodedImage, WideStoreWidthFactorsSurviveCaching) {
  // ceil(num_sps / write_ports) can exceed a byte: a 256-SP, one-write-
  // port config prices a store at 256 clocks per row, and the cached
  // width factor must carry that without truncation.
  CoreConfig cfg;
  cfg.num_sps = 256;
  cfg.max_threads = 256;
  cfg.regs_per_thread = 16;
  cfg.shared_mem_words = 1024;
  cfg.predicates_enabled = true;
  const auto prog =
      assembler::assemble("movsr %r0, %tid\nsts [%r0], %r0\nexit\n");
  const auto image = DecodedImage::build(prog, cfg);
  EXPECT_EQ(image->at(1).width, 256u);
  Gpgpu gpu(cfg);
  gpu.load_image(image);
  gpu.set_thread_count(256);
  const auto res = gpu.run();
  ASSERT_TRUE(res.exited);
  EXPECT_GE(res.perf.issue_cycles, 256u);
}

TEST(DecodedImage, MismatchedConfigurationRejected) {
  const auto prog = assembler::assemble("exit\n");
  const auto image = DecodedImage::build(prog, engine_cfg(false));
  CoreConfig other = engine_cfg(false);
  other.regs_per_thread = 32;
  Gpgpu gpu(other);
  EXPECT_THROW(gpu.load_image(image), Error);
  // Functional (unvalidated) images are rejected by the cycle-accurate
  // core outright.
  EXPECT_THROW(gpu.load_image(DecodedImage::build(prog)), Error);
}

}  // namespace
}  // namespace simt::core

// ---- runtime-level: engines x backends -------------------------------------

namespace simt::runtime {
namespace {

TEST(FastPathRuntime, EnginesAndBackendsAgreeOnTheServingMix) {
  constexpr unsigned kN = 128;
  constexpr unsigned kTaps = 4;
  constexpr unsigned kChunk = 4;
  constexpr unsigned kParts = kN / kChunk;

  const auto run_mix = [&](const DeviceDescriptor& desc) {
    Device dev(desc);
    auto x = dev.alloc<std::uint32_t>(kN + kTaps);
    auto coef = dev.alloc<std::uint32_t>(kTaps);
    auto y = dev.alloc<std::uint32_t>(kN);
    auto z = dev.alloc<std::uint32_t>(kN);
    auto parts = dev.alloc<std::uint32_t>(kParts);
    auto fir = dev.load_module(kernels::fir_abi(kTaps, 2)).kernel("fir");
    auto scale = dev.load_module(kernels::scale_abi()).kernel("scale");
    auto reduce =
        dev.load_module(kernels::reduce_abi(kChunk)).kernel("reduce");
    std::vector<std::uint32_t> xin(kN + kTaps), c(kTaps);
    for (unsigned i = 0; i < xin.size(); ++i) {
      xin[i] = (i * 37 + 11) % 251;
    }
    for (unsigned k = 0; k < kTaps; ++k) {
      c[k] = k + 2;
    }
    x.write(std::span<const std::uint32_t>(xin));
    coef.write(std::span<const std::uint32_t>(c));
    dev.launch_sync(fir, kN, KernelArgs().arg(x).arg(coef).arg(y));
    dev.launch_sync(scale, kN,
                    KernelArgs().arg(y).arg(z).scalar(5).scalar(3));
    dev.launch_sync(reduce, kParts, KernelArgs().arg(z).arg(parts));
    return parts.read();
  };

  core::CoreConfig fast;
  fast.max_threads = 64;
  fast.shared_mem_words = 2048;
  fast.bit_accurate = false;
  core::CoreConfig acc = fast;
  acc.bit_accurate = true;

  const auto golden = run_mix(DeviceDescriptor::simt_core(fast));
  EXPECT_EQ(run_mix(DeviceDescriptor::simt_core(acc)), golden);
  EXPECT_EQ(run_mix(DeviceDescriptor::multi_core(3, fast)), golden);
  EXPECT_EQ(run_mix(DeviceDescriptor::multi_core(3, acc)), golden);
  baseline::ScalarCpuConfig scfg;
  scfg.shared_mem_words = 2048;
  EXPECT_EQ(run_mix(DeviceDescriptor::scalar_cpu(scfg)), golden);
}

TEST(FastPathRuntime, DecodeCacheBuildsOncePerModule) {
  core::CoreConfig cfg;
  cfg.max_threads = 64;
  cfg.shared_mem_words = 1024;
  cfg.bit_accurate = false;  // engine_name check below
  Device dev(DeviceDescriptor::simt_core(cfg));
  auto a = dev.alloc<std::uint32_t>(64);
  auto b = dev.alloc<std::uint32_t>(64);
  auto c = dev.alloc<std::uint32_t>(64);
  auto d = dev.alloc<std::uint32_t>(64);
  Module& mod = dev.load_module(kernels::vecadd_abi());
  EXPECT_EQ(dev.decode_cache_misses(), 0u);

  // Alternating bindings force a repatch + reload every launch, but the
  // module decodes exactly once; every later load is a cache hit.
  const KernelArgs ab = KernelArgs().arg(a).arg(b).arg(c);
  const KernelArgs ba = KernelArgs().arg(b).arg(a).arg(d);
  for (unsigned i = 0; i < 3; ++i) {
    dev.launch_sync(mod.kernel("vecadd"), 64, i % 2 == 0 ? ab : ba);
  }
  EXPECT_EQ(dev.decode_cache_misses(), 1u);
  EXPECT_EQ(dev.decode_cache_hits(), 2u);

  // A second module decodes once more.
  Module& mod2 = dev.load_module(kernels::scale_abi());
  dev.launch_sync(mod2.kernel("scale"), 64,
                  KernelArgs().arg(a).arg(b).scalar(2).scalar(0));
  EXPECT_EQ(dev.decode_cache_misses(), 2u);
  EXPECT_EQ(dev.engine_name(), "fast");
}

}  // namespace
}  // namespace simt::runtime
