// Processor configuration (Section 2: "parameterized thread and register
// spaces. Up to 4096 threads and 64K registers can be specified by the
// user", plus the configuration options called out across the paper:
// optional predicates, shifter implementation, dynamic thread scaling).
#pragma once

#include <cstdint>

#include "hw/alu.hpp"

namespace simt::core {

struct CoreConfig {
  // ---- architecture size ----
  unsigned num_sps = 16;          ///< scalar processors (paper: fixed at 16)
  unsigned max_threads = 512;     ///< thread space (<= 4096)
  unsigned regs_per_thread = 16;  ///< architectural registers per thread
  unsigned shared_mem_words = 4096;  ///< 32-bit words (4096 = 16 KB)
  unsigned imem_depth = 512;      ///< instructions (I-MEM is reloadable)

  // ---- configuration options ----
  bool predicates_enabled = true;  ///< Section 2: optional, ~+50% logic
  bool dynamic_thread_scaling = true;
  hw::ShifterImpl shifter = hw::ShifterImpl::Integrated;

  /// Host-simulation engine choice. False (the default) evaluates lanes
  /// with the functional fast path: direct C++ arithmetic through the
  /// per-opcode thunks a DecodedImage caches. True walks the bit-accurate
  /// structural datapaths (Mul33 / shifter / LogicUnit) instead. The two
  /// engines are differentially enforced bit-identical (tests/
  /// test_fast_path.cpp); cycle accounting is independent of the choice,
  /// so perf counters and the runtime timeline model never change.
  /// Building with -DSIMT_BIT_ACCURATE_DEFAULT (the CI sanitizer job)
  /// flips the default so the whole suite exercises the structural engine.
#ifdef SIMT_BIT_ACCURATE_DEFAULT
  bool bit_accurate = true;
#else
  bool bit_accurate = false;
#endif

  // ---- shared memory porting (Section 2: multi-port, 4R-1W) ----
  unsigned shared_read_ports = 4;
  unsigned shared_write_ports = 1;

  // ---- pipeline geometry ----
  /// Decode pipeline depth: a taken branch zeroes this many already-decoded
  /// instructions (Fig. 2), so it is also the branch-taken bubble.
  unsigned decode_depth = 6;
  /// Register-to-register ALU latency: operand read + depth-matched datapath
  /// (3 DSP stages + 2 adder stages) + writeback.
  unsigned alu_latency = 8;
  /// Shared-memory load-to-use latency.
  unsigned mem_latency = 6;

  // ---- hardware stacks ----
  unsigned call_stack_depth = 8;  ///< branch-return stack (Fig. 2)
  unsigned loop_stack_depth = 4;  ///< zero-overhead loop nesting

  /// Total register file capacity in 32-bit entries.
  unsigned total_registers() const { return max_threads * regs_per_thread; }

  /// Thread-block depth for `threads` active threads: the number of rows a
  /// lockstep instruction issues (Section 3.1: 512 threads / 16 SPs = 32).
  unsigned rows_for(unsigned threads) const {
    return (threads + num_sps - 1) / num_sps;
  }

  /// Validate the architectural limits (paper Section 2).
  /// Throws simt::Error on violation.
  void validate() const;

  /// The flagship instance evaluated in Section 5 / Table 1: 16 SPs,
  /// 16K registers, 16 KB shared memory.
  static CoreConfig table1_flagship();
};

}  // namespace simt::core
