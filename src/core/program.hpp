// A program: the decoded instruction stream plus symbol metadata produced by
// the assembler. Programs are loaded into the (externally re-loadable) I-MEM.
//
// Alongside labels, a program carries the kernel ABI metadata the assembler
// collects from `.kernel` / `.param` / `.reads` / `.writes` / `.lockstep`
// directives: the per-kernel parameter list, the relocation sites where
// `$param` references appear in instruction immediates, the declared
// read/write footprints, and the lockstep flag.
// The runtime binds argument values into the relocations at launch time (a
// loader patch, not a re-assembly), so one assembled program serves any
// number of argument sets.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "isa/isa.hpp"

namespace simt::core {

/// One declared kernel parameter (ordinal position = binding order).
struct KernelParam {
  enum class Kind : std::uint8_t { Buffer, Scalar };
  std::string name;
  Kind kind = Kind::Buffer;

  friend bool operator==(const KernelParam&, const KernelParam&) = default;
};

/// A `$param` reference site: instruction `pc`'s immediate field holds only
/// the constant addend until the loader patches in `bound value + addend`.
struct ParamRef {
  std::uint32_t pc = 0;
  std::uint32_t param = 0;  ///< index into KernelInfo::params
  std::int32_t addend = 0;

  friend bool operator==(const ParamRef&, const ParamRef&) = default;
};

/// Declared data footprint over one buffer parameter.
///
/// Whole-launch form (`per_thread` false): the kernel touches words
/// [base, base + extent) of the bound buffer (extent 0 = the whole bound
/// buffer), independent of which threads run.
///
/// Per-thread form (`per_thread` true, the `@tid` directive suffix): thread
/// t touches words [base + t*stride, base + t*stride + extent). Here
/// `extent` is the per-thread window (>= 1) and `stride` the per-thread
/// step (>= 1; 1 is the plain elementwise `@tid[+window]` shape, the FIR
/// tap window is `x@tid+taps`, and a chunked kernel reading
/// [t*P, (t+1)*P) declares `in@tid*P+P`). The runtime scales these by each
/// round's thread slice, so a multi-round or multi-core launch stages only
/// the slice a core actually covers instead of the whole-launch range.
struct Footprint {
  std::uint32_t param = 0;
  std::uint32_t extent = 0;
  bool per_thread = false;
  std::uint32_t stride = 1;

  friend bool operator==(const Footprint&, const Footprint&) = default;
};

/// Module-level metadata for one `.kernel` region.
struct KernelInfo {
  std::string name;
  std::uint32_t entry = 0;  ///< I-MEM address of the kernel's first instruction
  std::vector<KernelParam> params;
  std::vector<ParamRef> refs;
  std::vector<Footprint> reads;
  std::vector<Footprint> writes;
  /// `.lockstep`: the kernel's threads coordinate inside one launch
  /// (dynamic thread scaling, or loads of a step completing before its
  /// stores), so one SimtCore must run every thread in one round. The
  /// runtime rejects any other launch instead of sharding it.
  bool lockstep = false;

  /// Did the kernel declare any read/write footprints? (If not, staging
  /// falls back to the conservative restage-everything-stale path.)
  bool has_footprints() const { return !reads.empty() || !writes.empty(); }

  /// Parameter index by name; -1 when undeclared.
  int param_index(std::string_view name) const;

  friend bool operator==(const KernelInfo&, const KernelInfo&) = default;
};

class Program {
 public:
  Program() = default;
  explicit Program(std::vector<isa::Instr> instrs)
      : instrs_(std::move(instrs)) {}

  const std::vector<isa::Instr>& instructions() const { return instrs_; }
  std::size_t size() const { return instrs_.size(); }
  bool empty() const { return instrs_.empty(); }
  const isa::Instr& at(std::size_t pc) const { return instrs_.at(pc); }

  void push_back(const isa::Instr& instr) { instrs_.push_back(instr); }

  /// Patch one instruction's immediate field in place -- the loader's
  /// argument-binding primitive (see runtime::Device::launch_sync).
  void set_imm(std::size_t pc, std::int32_t imm) { instrs_.at(pc).imm = imm; }

  /// Label table (name -> pc), kept for disassembly and diagnostics.
  void set_labels(std::map<std::string, std::uint32_t> labels) {
    labels_ = std::move(labels);
  }
  const std::map<std::string, std::uint32_t>& labels() const { return labels_; }

  /// Kernel ABI metadata table (one entry per `.kernel` directive).
  void set_kernels(std::vector<KernelInfo> kernels) {
    kernels_ = std::move(kernels);
  }
  const std::vector<KernelInfo>& kernels() const { return kernels_; }
  const KernelInfo* find_kernel(std::string_view name) const;
  const KernelInfo* kernel_at_entry(std::uint32_t entry) const;
  /// The kernel whose region [entry, next kernel's entry) contains `pc` --
  /// so an interior label of a kernel region still resolves with the ABI
  /// metadata attached. Null for code before the first `.kernel`.
  const KernelInfo* kernel_containing(std::uint32_t pc) const;

  /// Encode to the 64-bit I-MEM image.
  std::vector<std::uint64_t> encode() const;

  /// Decode an I-MEM image back into a program. Throws simt::Error on
  /// malformed words.
  static Program decode(const std::vector<std::uint64_t>& words);

  /// Full listing with addresses and labels.
  std::string listing() const;

 private:
  std::vector<isa::Instr> instrs_;
  std::map<std::string, std::uint32_t> labels_;
  std::vector<KernelInfo> kernels_;
};

/// Sidecar text form of the kernel table, emitted by simt-as as `#`-prefixed
/// comment lines in front of a hex image (the image words themselves cannot
/// carry metadata). One directive-shaped line per fact, e.g.:
///
///   # .kernel vecadd @0
///   # .lockstep                (only when declared)
///   # .param a buffer
///   # .reads a
///   # .writes c+64
///   # .ref @1 a+0
std::string kernel_metadata_text(const Program& program);

/// Parse the sidecar form back into a kernel table (lines may keep their
/// leading '#'; unrelated lines are an error). Inverse of
/// kernel_metadata_text -- simt-dis uses it to print the metadata of a hex
/// image. Throws simt::Error on malformed lines.
std::vector<KernelInfo> parse_kernel_metadata(
    const std::vector<std::string>& lines);

}  // namespace simt::core
