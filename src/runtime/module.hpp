// Module/Kernel objects: a Module is an assembled program plus its source
// hash (the Device caches modules by that hash so a kernel is assembled
// exactly once); a Kernel is a lightweight launchable handle -- a module
// plus an entry point resolved from the assembler's label table.
//
// This mirrors the CUDA driver API's cuModuleLoadData / cuModuleGetFunction
// split: the expensive step (assembly) happens once per source, and launches
// reference the cached artifact.
// Kernels declared with the `.kernel` metadata directives additionally
// carry their ABI record (core::KernelInfo): the positional parameter list,
// the `$param` relocation sites the loader patches at launch, and the
// declared read/write footprints the multicore staging path uses. Kernels
// without metadata keep the legacy contract (no arguments, addresses baked
// into the source).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/program.hpp"
#include "runtime/args.hpp"

namespace simt::runtime {

class Module;

/// A launchable entry point inside a module. Plain value type; valid as
/// long as the owning Module (and therefore its Device) is alive.
struct Kernel {
  const Module* module = nullptr;
  std::uint32_t entry = 0;  ///< I-MEM address to start execution at
  /// ABI metadata when the entry is a `.kernel` (null for legacy labels).
  const core::KernelInfo* info = nullptr;

  bool valid() const { return module != nullptr; }
};

/// Check an argument set against a kernel's declared parameter list: count
/// and positional kinds must match (a kernel without metadata accepts only
/// an empty set). Throws simt::Error with the mismatch spelled out.
void validate_kernel_args(const Kernel& kernel, const KernelArgs& args);

/// FNV-1a hash of assembly source; the module-cache key.
std::uint64_t hash_source(std::string_view source);

class Module {
 public:
  Module(std::string source, core::Program program)
      : source_(std::move(source)), program_(std::move(program)) {}

  const core::Program& program() const { return program_; }
  const std::string& source() const { return source_; }

  /// Entry-point handle. With no label, execution starts at address 0;
  /// otherwise the label is resolved from the assembler's symbol table
  /// (`.kernel` names are labels too, and resolve with their ABI metadata
  /// attached). Throws simt::Error on an unknown label.
  Kernel kernel(std::string_view entry_label = {}) const;

  /// The module's `.kernel` metadata table.
  const std::vector<core::KernelInfo>& kernels() const {
    return program_.kernels();
  }

 private:
  std::string source_;
  core::Program program_;
};

}  // namespace simt::runtime
