// Instruction memory (Fig. 2): externally re-loadable, M20K-backed, holding
// 64-bit instruction words. Together with the branch-return stack/history it
// accounts for the Inst row's 3 M20K blocks in Table 1 (two 512x40 blocks
// for the 64-bit word, one for the stack and address history).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "core/program.hpp"
#include "hw/m20k.hpp"

namespace simt::core {

class InstructionMemory {
 public:
  explicit InstructionMemory(unsigned depth) : depth_(depth) {
    SIMT_CHECK(depth_ > 0);
    words_.assign(depth_, 0);
  }

  /// External reload (the host interface). Throws if the program is too big.
  void load(const Program& program) { load(program.encode()); }

  /// Reload from an already-encoded image (the predecoded-image path:
  /// DecodedImage encodes once and every core load reuses the words).
  void load(std::span<const std::uint64_t> image) {
    if (image.size() > depth_) {
      throw Error("program does not fit in I-MEM (" +
                  std::to_string(image.size()) + " > " +
                  std::to_string(depth_) + " words)");
    }
    words_.assign(depth_, 0);
    std::copy(image.begin(), image.end(), words_.begin());
  }

  std::uint64_t fetch(unsigned pc) const {
    SIMT_CHECK(pc < depth_);
    return words_[pc];
  }

  unsigned depth() const { return depth_; }

  /// M20K blocks: 64-bit word needs two 40-bit-wide block columns.
  unsigned m20k_blocks() const { return hw::m20k_blocks_for(depth_, 64); }

 private:
  unsigned depth_;
  std::vector<std::uint64_t> words_;
};

}  // namespace simt::core
