// KernelArgs: the launch-time argument set of the kernel ABI.
//
// A kernel declared with `.kernel` / `.param` directives names its
// parameters positionally; the host binds concrete values -- buffer handles
// (word base + size) and scalar immediates -- in declaration order at launch
// time, the cuLaunchKernel parameter model. The runtime loader patches the
// bound values into the module's `$param` relocation sites (no re-assembly,
// so the module cache hits across argument sets) and feeds the declared
// footprints into the multicore staging shard maps.
#pragma once

#include <cstdint>
#include <vector>

#include "core/program.hpp"

namespace simt::runtime {

class KernelArgs {
 public:
  struct Value {
    core::KernelParam::Kind kind = core::KernelParam::Kind::Buffer;
    std::uint32_t value = 0;  ///< buffer word base, or the scalar immediate
    std::uint32_t size = 0;   ///< buffer size in words (0 for scalars)
  };

  /// Bind a buffer by raw word base + size (positional).
  KernelArgs& buffer(std::uint32_t base, std::uint32_t size_words) {
    values_.push_back({core::KernelParam::Kind::Buffer, base, size_words});
    return *this;
  }

  /// Bind a Buffer<T> handle (anything with word_base()/size()). Handles
  /// that track their allocation generation (runtime::Buffer) are checked
  /// here, so binding a buffer from before Device::mem_reset() throws at
  /// argument-build time instead of silently aliasing reclaimed words.
  template <typename B>
  KernelArgs& arg(const B& buf) {
    if constexpr (requires { buf.ensure_current(); }) {
      buf.ensure_current();
    }
    return buffer(buf.word_base(), static_cast<std::uint32_t>(buf.size()));
  }

  /// Bind a 32-bit scalar immediate.
  KernelArgs& scalar(std::uint32_t value) {
    values_.push_back({core::KernelParam::Kind::Scalar, value, 0});
    return *this;
  }

  bool empty() const { return values_.empty(); }
  std::size_t size() const { return values_.size(); }
  const std::vector<Value>& values() const { return values_; }

  /// Order-sensitive FNV-1a hash of the bound values; together with the
  /// entry point it keys the device's resident-binding check (same module +
  /// same binding = no reload, no repatch).
  std::uint64_t signature() const {
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 0x100000001b3ull;
    };
    for (const auto& v : values_) {
      mix(static_cast<std::uint64_t>(v.kind));
      mix(v.value);
      mix(v.size);
    }
    return h;
  }

 private:
  std::vector<Value> values_;
};

}  // namespace simt::runtime
