// Tests for the unified device runtime: buffer allocation over the bump
// pool, module caching by source hash, stream command ordering, grid
// sharding across rounds and cores, and a differential check that the same
// kernels produce identical results on every backend.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "kernels/kernels.hpp"
#include "runtime/buffer.hpp"
#include "runtime/device.hpp"
#include "runtime/module.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/stream.hpp"

namespace simt::runtime {
namespace {

core::CoreConfig small_cfg(unsigned threads = 256,
                           unsigned mem_words = 1024) {
  core::CoreConfig c;
  c.max_threads = threads;
  c.shared_mem_words = mem_words;
  c.predicates_enabled = true;
  return c;
}

// ---- buffers ---------------------------------------------------------------

TEST(Buffer, AllocationIsSequential) {
  Device dev(DeviceDescriptor::simt_core(small_cfg()));
  auto a = dev.alloc<std::uint32_t>(100);
  auto b = dev.alloc<std::int32_t>(28);
  auto c = dev.alloc<std::uint32_t>(1);
  EXPECT_EQ(a.word_base(), 0u);
  EXPECT_EQ(b.word_base(), 100u);
  EXPECT_EQ(c.word_base(), 128u);
  EXPECT_EQ(dev.mem().used(), 129u);
  EXPECT_EQ(dev.mem().available(), 1024u - 129u);
}

TEST(Buffer, ExhaustionThrows) {
  Device dev(DeviceDescriptor::simt_core(small_cfg()));
  dev.alloc<std::uint32_t>(1000);
  EXPECT_THROW(dev.alloc<std::uint32_t>(25), Error);
  // A fitting allocation still succeeds, and reset reclaims everything.
  auto ok = dev.alloc<std::uint32_t>(24);
  EXPECT_EQ(ok.word_base(), 1000u);
  dev.mem_reset();
  EXPECT_EQ(dev.alloc<std::uint32_t>(1024).word_base(), 0u);
  EXPECT_THROW(dev.alloc<std::uint32_t>(1), Error);
}

TEST(Buffer, ZeroWordAllocationThrows) {
  Device dev(DeviceDescriptor::simt_core(small_cfg()));
  EXPECT_THROW(dev.alloc<std::uint32_t>(0), Error);
}

TEST(Buffer, RoundTripsTypedData) {
  Device dev(DeviceDescriptor::simt_core(small_cfg()));
  auto buf = dev.alloc<std::int32_t>(4);
  const std::vector<std::int32_t> data = {-5, 0, 7, -100};
  buf.write(data);
  EXPECT_EQ(buf.read(), data);
  EXPECT_EQ(buf.at(3), -100);
  std::vector<std::int32_t> partial(2);
  buf.read_into(partial);
  EXPECT_EQ(partial, (std::vector<std::int32_t>{-5, 0}));
}

TEST(Buffer, OversizeAccessThrows) {
  Device dev(DeviceDescriptor::simt_core(small_cfg()));
  auto buf = dev.alloc<std::uint32_t>(4);
  const std::vector<std::uint32_t> five(5, 1);
  EXPECT_THROW(buf.write(five), Error);
  EXPECT_THROW(Buffer<std::uint32_t>().read(), Error);
}

// ---- modules ---------------------------------------------------------------

TEST(Module, CachesBySourceHash) {
  Device dev(DeviceDescriptor::simt_core(small_cfg()));
  const std::string src = "movi %r1, 1\nexit\n";
  Module& first = dev.load_module(src);
  Module& second = dev.load_module(src);
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(dev.module_cache_size(), 1u);
  EXPECT_EQ(dev.module_cache_misses(), 1u);
  EXPECT_EQ(dev.module_cache_hits(), 1u);
  dev.load_module("movi %r1, 2\nexit\n");
  EXPECT_EQ(dev.module_cache_size(), 2u);
  EXPECT_EQ(dev.module_cache_misses(), 2u);
}

TEST(Module, KernelEntryLabels) {
  Device dev(DeviceDescriptor::simt_core(small_cfg()));
  Module& mod = dev.load_module(
      "movi %r1, 1\n"
      "exit\n"
      "other:\n"
      "movi %r1, 2\n"
      "exit\n");
  EXPECT_EQ(mod.kernel().entry, 0u);
  EXPECT_EQ(mod.kernel("other").entry, 2u);
  EXPECT_THROW(mod.kernel("missing"), Error);

  // Launch at the label and observe its side effect.
  dev.launch_sync(mod.kernel("other"), 16);
  auto* backend = dev.backend_as<SimtCoreBackend>();
  ASSERT_NE(backend, nullptr);
  EXPECT_EQ(backend->gpu().read_reg(0, 1), 2u);
}

// ---- streams ---------------------------------------------------------------

TEST(StreamQueue, CommandsRunInOrderAtSynchronize) {
  Device dev(DeviceDescriptor::simt_core(small_cfg()));
  auto in = dev.alloc<std::uint32_t>(64);
  auto out = dev.alloc<std::uint32_t>(64);
  Module& mod = dev.load_module(kernels::vecadd_abi());

  std::vector<std::uint32_t> host(64);
  std::iota(host.begin(), host.end(), 0u);
  std::vector<std::uint32_t> result(64, 0xdeadbeef);

  // Hold the scheduler so the queued-but-unexecuted state is observable
  // deterministically (a poll such as pending() or done() would otherwise
  // run the queued commands).
  dev.scheduler().pause();
  auto& stream = dev.stream();
  stream.copy_in(in, std::span<const std::uint32_t>(host));
  Event event = stream.launch(mod.kernel(), 64,
                              KernelArgs().arg(in).arg(in).arg(out));
  stream.copy_out(out, std::span<std::uint32_t>(result));

  // Nothing has executed yet: the queue is pending, the event incomplete,
  // and the caller's output storage untouched.
  EXPECT_EQ(stream.pending(), 3u);
  EXPECT_FALSE(event.done());
  EXPECT_THROW(event.stats(), Error);
  EXPECT_EQ(result[0], 0xdeadbeefu);

  dev.scheduler().resume();
  stream.synchronize();
  EXPECT_EQ(stream.pending(), 0u);
  ASSERT_TRUE(event.done());
  EXPECT_TRUE(event.stats().exited);
  EXPECT_GT(event.stats().perf.cycles, 0u);
  EXPECT_GT(event.wall_us(), 0.0);
  for (unsigned i = 0; i < 64; ++i) {
    EXPECT_EQ(result[i], 2 * i) << i;
  }
}

TEST(StreamQueue, SnapshotsCopyInPayload) {
  Device dev(DeviceDescriptor::simt_core(small_cfg()));
  auto buf = dev.alloc<std::uint32_t>(4);
  std::vector<std::uint32_t> host = {1, 2, 3, 4};
  dev.stream().copy_in(buf, std::span<const std::uint32_t>(host));
  host.assign(4, 0);  // mutate after enqueue; the snapshot must win
  dev.stream().synchronize();
  EXPECT_EQ(buf.read(), (std::vector<std::uint32_t>{1, 2, 3, 4}));
}

// ---- grid sharding ---------------------------------------------------------

TEST(Launch, SplitsOversizedGridsIntoRounds) {
  // 64-thread core covering a 256-thread grid: 4 rounds via %tid base.
  Device dev(DeviceDescriptor::simt_core(small_cfg(64, 1024)));
  auto out = dev.alloc<std::uint32_t>(256);
  Module& mod = dev.load_module(
      "movsr %r0, %tid\n"
      "muli %r1, %r0, 3\n"
      "sts [%r0 + " + std::to_string(out.word_base()) + "], %r1\n"
      "exit\n");
  const auto stats = dev.launch_sync(mod.kernel(), 256);
  EXPECT_EQ(stats.rounds, 4u);
  EXPECT_TRUE(stats.exited);
  const auto result = out.read();
  for (unsigned i = 0; i < 256; ++i) {
    EXPECT_EQ(result[i], 3 * i) << i;
  }
}

TEST(Launch, ShardsAcrossCores) {
  // 2 cores x 128 threads covering a 256-thread grid in one round.
  Device dev(DeviceDescriptor::multi_core(2, small_cfg(128, 1024)));
  EXPECT_EQ(dev.max_concurrent_threads(), 256u);
  auto out = dev.alloc<std::uint32_t>(256);
  Module& mod = dev.load_module(
      "movsr %r0, %tid\n"
      "muli %r1, %r0, 7\n"
      "sts [%r0 + " + std::to_string(out.word_base()) + "], %r1\n"
      "exit\n");
  const auto stats = dev.launch_sync(mod.kernel(), 256);
  EXPECT_EQ(stats.rounds, 1u);
  const auto result = out.read();
  for (unsigned i = 0; i < 256; ++i) {
    EXPECT_EQ(result[i], 7 * i) << i;
  }
}

TEST(Launch, NtidReportsTheLogicalGridOnEveryBackend) {
  // A kernel that stores %ntid must see the full grid size even when the
  // launch is split into rounds or sharded across cores -- and the same
  // value the scalar sweep reports.
  const auto run = [](DeviceDescriptor desc, unsigned n) {
    Device dev(desc);
    auto out = dev.alloc<std::uint32_t>(n);
    Module& mod = dev.load_module(
        "movsr %r0, %tid\n"
        "movsr %r1, %ntid\n"
        "sts [%r0 + " + std::to_string(out.word_base()) + "], %r1\n"
        "exit\n");
    dev.launch_sync(mod.kernel(), n);
    return out.read();
  };
  constexpr unsigned kN = 256;
  // 64-thread core: 4 rounds. 2x64 cores: 2 rounds of 2 shards.
  const auto split = run(DeviceDescriptor::simt_core(small_cfg(64, 1024)),
                         kN);
  const auto multi = run(DeviceDescriptor::multi_core(2, small_cfg(64, 1024)),
                         kN);
  baseline::ScalarCpuConfig scfg;
  scfg.shared_mem_words = 1024;
  const auto scalar = run(DeviceDescriptor::scalar_cpu(scfg), kN);
  for (unsigned i = 0; i < kN; ++i) {
    ASSERT_EQ(split[i], kN) << i;
    ASSERT_EQ(multi[i], kN) << i;
    ASSERT_EQ(scalar[i], kN) << i;
  }
}

TEST(Launch, SettiRestoresDynamicNtidSemantics) {
  // Once a program rescales the thread space, %ntid tracks the dynamic
  // count again (Section 2 semantics), not the grid override.
  Device dev(DeviceDescriptor::simt_core(small_cfg(64, 1024)));
  auto out = dev.alloc<std::uint32_t>(16);
  Module& mod = dev.load_module(
      "movsr %r0, %tid\n"
      "setti 16\n"
      "movsr %r1, %ntid\n"
      "sts [%r0 + " + std::to_string(out.word_base()) + "], %r1\n"
      "exit\n");
  dev.launch_sync(mod.kernel(), 64);
  EXPECT_EQ(out.at(0), 16u);
}

TEST(Launch, ZeroThreadsThrows) {
  Device dev(DeviceDescriptor::simt_core(small_cfg()));
  Module& mod = dev.load_module("exit\n");
  EXPECT_THROW(dev.launch_sync(mod.kernel(), 0), Error);
}

TEST(Launch, RawAddressKernelRoundTripsSignedWords) {
  // No kernel ABI: the program addresses device memory by raw word address
  // and the host stages through Device::write_words / read_words.
  Device dev(DeviceDescriptor::simt_core(small_cfg()));
  EXPECT_EQ(dev.module_cache_size(), 0u);
  Module& mod = dev.load_module(
      "movsr %r0, %tid\n"
      "lds %r1, [%r0]\n"
      "neg %r1, %r1\n"
      "sts [%r0 + 16], %r1\n"
      "exit\n");
  EXPECT_EQ(dev.module_cache_size(), 1u);
  const std::vector<std::int32_t> input = {-5, 0, 7, -100};
  const std::vector<std::uint32_t> words(input.begin(), input.end());
  dev.write_words(0, words);
  EXPECT_TRUE(dev.launch_sync(mod.kernel(), 4).exited);
  std::vector<std::uint32_t> out(4);
  dev.read_words(16, out);
  EXPECT_EQ(std::vector<std::int32_t>(out.begin(), out.end()),
            (std::vector<std::int32_t>{5, 0, -7, 100}));
}

TEST(Launch, LoadingAnotherModuleReplacesTheResidentProgram) {
  // The I-MEM is externally re-loadable (Section 3): launching a kernel of
  // a different module swaps the resident program, in both directions.
  Device dev(DeviceDescriptor::simt_core(small_cfg()));
  auto* backend = dev.backend_as<SimtCoreBackend>();
  ASSERT_NE(backend, nullptr);
  Module& one = dev.load_module("movi %r1, 1\nexit\n");
  Module& two = dev.load_module("movi %r1, 2\nexit\n");
  dev.launch_sync(one.kernel(), 16);
  EXPECT_EQ(backend->gpu().read_reg(0, 1), 1u);
  dev.launch_sync(two.kernel(), 16);
  EXPECT_EQ(backend->gpu().read_reg(0, 1), 2u);
  dev.launch_sync(one.kernel(), 16);
  EXPECT_EQ(backend->gpu().read_reg(0, 1), 1u);
}

// ---- clocks and stats ------------------------------------------------------

TEST(DeviceClocks, DefaultsFollowThePaperAndOverrideWins) {
  Device core(DeviceDescriptor::simt_core(small_cfg()));
  EXPECT_DOUBLE_EQ(core.fmax_mhz(), 950.0);

  Device multi(DeviceDescriptor::multi_core(3, small_cfg()));
  EXPECT_DOUBLE_EQ(multi.fmax_mhz(), 854.0);
  Device single(DeviceDescriptor::multi_core(1, small_cfg()));
  EXPECT_DOUBLE_EQ(single.fmax_mhz(), 927.0);

  Device scalar(DeviceDescriptor::scalar_cpu());
  EXPECT_DOUBLE_EQ(scalar.fmax_mhz(), 300.0);

  auto desc = DeviceDescriptor::simt_core(small_cfg());
  desc.fmax_mhz = 475.0;  // e.g. a fitter-realized clock
  Device derated(desc);
  EXPECT_DOUBLE_EQ(derated.fmax_mhz(), 475.0);
}

TEST(DeviceClocks, WallClockScalesWithFmax) {
  auto desc = DeviceDescriptor::simt_core(small_cfg());
  desc.fmax_mhz = 100.0;
  Device dev(desc);
  Module& mod = dev.load_module("movi %r1, 1\nexit\n");
  const auto stats = dev.launch_sync(mod.kernel(), 16);
  EXPECT_DOUBLE_EQ(stats.wall_us,
                   static_cast<double>(stats.perf.cycles) / 100.0);
}

}  // namespace
}  // namespace simt::runtime
