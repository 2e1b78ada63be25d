// The complete integer ALU of one scalar processor (Section 4, Fig. 4):
// the DSP-based multiplier/shifter datapath plus the depth-matched soft-logic
// unit, dispatched by opcode. This is the execution stage the SP model calls
// once per thread.
#pragma once

#include <cstdint>

#include "hw/logic_unit.hpp"
#include "hw/mul33.hpp"
#include "hw/shifter.hpp"
#include "isa/isa.hpp"

namespace simt::hw {

/// Which shifter implementation the ALU uses. `Integrated` is the paper's
/// design; `LogicBarrel` exists for the Section 4 ablation (and produces
/// bit-identical results -- only the fabric timing differs).
enum class ShifterImpl : std::uint8_t { Integrated, LogicBarrel };

class Alu {
 public:
  explicit Alu(ShifterImpl shifter = ShifterImpl::Integrated);

  /// Evaluate a register-file-level ALU operation. `op` must be an
  /// Operation-class opcode that computes a general-register result from
  /// (a, b). Immediate forms pass the immediate through `b`.
  std::uint32_t execute(isa::Opcode op, std::uint32_t a, std::uint32_t b) const;

  /// Evaluate a compare (SETP_*) producing a predicate bit.
  bool compare(isa::Opcode op, std::uint32_t a, std::uint32_t b) const;

  /// Uniform datapath latency in clocks (soft logic is depth-matched to the
  /// DSP pipeline, Section 4).
  static constexpr int kLatency = Mul33::kPipelineDepth;

  const Mul33& multiplier() const { return mul_; }

 private:
  std::uint32_t shift(std::uint32_t value, std::uint32_t amount,
                      ShiftKind kind) const;

  Mul33 mul_;
  IntegratedShifter integrated_shifter_;
  ShifterImpl shifter_impl_;
};

}  // namespace simt::hw
