// Configuration-equivalence properties: architectural results must be
// invariant under implementation options that only change the fabric
// mapping (shifter implementation), and consistent across thread-space
// reconfigurations of the same kernel.
#include <gtest/gtest.h>

#include <numeric>

#include "asm/assembler.hpp"
#include "common/rng.hpp"
#include "core/gpgpu.hpp"
#include "kernels/kernels.hpp"
#include "runtime/buffer.hpp"
#include "runtime/device.hpp"

namespace simt::core {
namespace {

CoreConfig base_cfg(hw::ShifterImpl shifter) {
  CoreConfig cfg;
  cfg.max_threads = 256;
  cfg.shared_mem_words = 2048;
  cfg.predicates_enabled = true;
  cfg.shifter = shifter;
  // The shifter choice only matters on the structural engine; pin it so
  // the equivalence stays meaningful under any build default.
  cfg.bit_accurate = true;
  return cfg;
}

TEST(ConfigEquivalence, ShifterImplementationIsArchitecturallyInvisible) {
  // The integrated shifter replaces the barrel shifter for fabric timing
  // reasons only (Section 4.2); programs must see identical results.
  const std::string src =
      "movsr %r0, %tid\n"
      "movi %r1, 0x9E3779B9\n"
      "mul.lo %r2, %r0, %r1\n"
      "and %r3, %r0, %r1\n"
      "andi %r3, %r3, 63\n"     // shift amounts 0..63
      "shl %r4, %r2, %r3\n"
      "shr %r5, %r2, %r3\n"
      "sar %r6, %r2, %r3\n"
      "sari %r7, %r2, 7\n"
      "sts [%r0], %r4\n"
      "sts [%r0 + 256], %r5\n"
      "sts [%r0 + 512], %r6\n"
      "sts [%r0 + 768], %r7\n"
      "exit\n";
  Gpgpu a(base_cfg(hw::ShifterImpl::Integrated));
  Gpgpu b(base_cfg(hw::ShifterImpl::LogicBarrel));
  for (Gpgpu* g : {&a, &b}) {
    g->load_program(assembler::assemble(src));
    g->set_thread_count(256);
    const auto res = g->run();
    ASSERT_TRUE(res.exited);
  }
  for (unsigned addr = 0; addr < 1024; ++addr) {
    ASSERT_EQ(a.read_shared(addr), b.read_shared(addr)) << addr;
  }
}

TEST(ConfigEquivalence, CycleCountsAreShifterInvariantToo) {
  // Both shifters are depth-matched into the same pipeline; the sequencer
  // timing must not change either.
  std::uint64_t cycles[2];
  int i = 0;
  for (const auto impl :
       {hw::ShifterImpl::Integrated, hw::ShifterImpl::LogicBarrel}) {
    runtime::Device dev(runtime::DeviceDescriptor::simt_core(base_cfg(impl)));
    const auto a = dev.alloc<std::uint32_t>(256);
    const auto b = dev.alloc<std::uint32_t>(256);
    const auto c = dev.alloc<std::uint32_t>(256);
    const auto& mod = dev.load_module(kernels::vecadd_abi());
    cycles[i++] = dev.launch_sync(mod.kernel(), 256,
                                  runtime::KernelArgs().arg(a).arg(b).arg(c))
                      .perf.cycles;
  }
  EXPECT_EQ(cycles[0], cycles[1]);
}

TEST(ConfigEquivalence, SameKernelAcrossThreadSpaces) {
  // A data-parallel kernel gives identical per-element results whether the
  // machine is configured with a larger or smaller maximum thread space.
  Xoshiro256 rng(5);
  std::vector<std::uint32_t> input(128);
  for (auto& v : input) {
    v = rng.next_u32();
  }
  std::vector<std::uint32_t> results[2];
  int i = 0;
  for (const unsigned max_threads : {128u, 1024u}) {
    CoreConfig cfg;
    cfg.max_threads = max_threads;
    cfg.shared_mem_words = 2048;
    Gpgpu gpu(cfg);
    gpu.load_program(assembler::assemble(
        "movsr %r0, %tid\n"
        "lds %r1, [%r0]\n"
        "mul.hiu %r2, %r1, %r1\n"
        "sts [%r0 + 1024], %r2\n"
        "exit\n"));
    gpu.set_thread_count(128);
    for (unsigned a = 0; a < input.size(); ++a) {
      gpu.write_shared(a, input[a]);
    }
    gpu.run();
    auto& out = results[i++];
    out.resize(128);
    for (unsigned a = 0; a < 128; ++a) {
      out[a] = gpu.read_shared(1024 + a);
    }
  }
  EXPECT_EQ(results[0], results[1]);
}

TEST(ConfigEquivalence, RelaunchIsDeterministic) {
  // Back-to-back launches of the same kernel on the same state produce the
  // same cycle counts (the whole machine is deterministic).
  runtime::Device dev(runtime::DeviceDescriptor::simt_core(
      base_cfg(hw::ShifterImpl::Integrated)));
  auto data = dev.alloc<std::uint32_t>(256);
  std::vector<std::uint32_t> init(256);
  std::iota(init.begin(), init.end(), 0u);
  const auto kernel = dev.load_module(kernels::tree_reduce_abi(256)).kernel();
  const auto args = runtime::KernelArgs().arg(data);
  data.write(init);
  const auto first = dev.launch_sync(kernel, 256, args);
  // The reduction is destructive; reset and rerun.
  data.write(init);
  const auto second = dev.launch_sync(kernel, 256, args);
  EXPECT_EQ(first.perf.cycles, second.perf.cycles);
  EXPECT_EQ(first.perf.stall_cycles, second.perf.stall_cycles);
  EXPECT_EQ(data.at(0), 255u * 256u / 2u);
}

}  // namespace
}  // namespace simt::core
