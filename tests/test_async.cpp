// Tests for the asynchronous execution engine: the device scheduler and its
// modeled copy/exec timeline, multi-stream execution with cross-stream
// event waits, Event hardening, the multicore shard-map staging path,
// grid-split edge cases on every backend, and MemoryPool alignment.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
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

core::CoreConfig small_cfg(unsigned threads = 64, unsigned mem_words = 2048) {
  core::CoreConfig c;
  c.max_threads = threads;
  c.shared_mem_words = mem_words;
  c.predicates_enabled = true;
  return c;
}

/// out[tid] = 3 * in[tid] + 7 -- elementwise over %tid.
std::string affine_kernel(std::uint32_t in_base, std::uint32_t out_base) {
  return "movsr %r0, %tid\n"
         "lds %r1, [%r0 + " + std::to_string(in_base) + "]\n"
         "muli %r2, %r1, 3\n"
         "addi %r2, %r2, 7\n"
         "sts [%r0 + " + std::to_string(out_base) + "], %r2\n"
         "exit\n";
}

// ---- scheduler basics ------------------------------------------------------

TEST(Scheduler, CommandsExecuteInBackgroundAndSynchronizeJoins) {
  Device dev(DeviceDescriptor::simt_core(small_cfg()));
  auto in = dev.alloc<std::uint32_t>(64);
  auto out = dev.alloc<std::uint32_t>(64);
  Module& mod = dev.load_module(affine_kernel(in.word_base(),
                                              out.word_base()));
  std::vector<std::uint32_t> host(64);
  std::iota(host.begin(), host.end(), 0u);
  std::vector<std::uint32_t> result(64, 0);

  auto& stream = dev.stream();
  stream.copy_in(in, std::span<const std::uint32_t>(host));
  Event event = stream.launch(mod.kernel(), 64);
  stream.copy_out(out, std::span<std::uint32_t>(result));

  // The event resolves without synchronize(): wait() joins just it.
  event.wait();
  EXPECT_TRUE(event.done());
  stream.synchronize();
  EXPECT_EQ(stream.pending(), 0u);
  for (unsigned i = 0; i < 64; ++i) {
    EXPECT_EQ(result[i], 3 * i + 7) << i;
  }
}

TEST(Scheduler, PauseHoldsTheQueueAndResumeDrainsIt) {
  Device dev(DeviceDescriptor::simt_core(small_cfg()));
  auto buf = dev.alloc<std::uint32_t>(16);
  const std::vector<std::uint32_t> host(16, 42);

  dev.scheduler().pause();
  dev.stream().copy_in(buf, std::span<const std::uint32_t>(host));
  EXPECT_EQ(dev.stream().pending(), 1u);
  dev.scheduler().resume();
  dev.stream().synchronize();
  EXPECT_EQ(dev.stream().pending(), 0u);
  EXPECT_EQ(buf.at(7), 42u);
}

TEST(Scheduler, TimelineSerialBoundsOverlap) {
  Device dev(DeviceDescriptor::simt_core(small_cfg()));
  auto in = dev.alloc<std::uint32_t>(64);
  auto out = dev.alloc<std::uint32_t>(64);
  Module& mod = dev.load_module(affine_kernel(in.word_base(),
                                              out.word_base()));
  std::vector<std::uint32_t> host(64, 1);
  std::vector<std::uint32_t> result(64);
  auto& stream = dev.stream();
  for (int i = 0; i < 4; ++i) {
    stream.copy_in(in, std::span<const std::uint32_t>(host));
    stream.launch(mod.kernel(), 64);
    stream.copy_out(out, std::span<std::uint32_t>(result));
  }
  stream.synchronize();

  const auto t = dev.scheduler().timeline();
  EXPECT_EQ(t.commands, 12u);
  EXPECT_EQ(t.copied_words, 8u * 64u);
  EXPECT_GT(t.exec_cycles, 0u);
  EXPECT_GT(t.overlap_us, 0.0);
  // A single in-order stream cannot overlap, and overlap never exceeds
  // serial.
  EXPECT_LE(t.overlap_us, t.serial_us + 1e-9);
  EXPECT_GE(t.overlap_speedup(), 1.0);
}

// ---- event hardening -------------------------------------------------------

TEST(Event, AccessorsThrowWhileInFlightAndResolveAfter) {
  Device dev(DeviceDescriptor::simt_core(small_cfg()));
  Module& mod = dev.load_module("movi %r1, 1\nexit\n");

  dev.scheduler().pause();
  Event event = dev.stream().launch(mod.kernel(), 16);
  EXPECT_FALSE(event.done());
  EXPECT_FALSE(event.complete());
  EXPECT_THROW(event.stats(), Error);
  EXPECT_THROW(event.wall_us(), Error);
  EXPECT_THROW(event.elapsed_us(), Error);
  dev.scheduler().resume();
  event.wait();

  EXPECT_TRUE(event.done());
  EXPECT_TRUE(event.stats().exited);
  EXPECT_GT(event.wall_us(), 0.0);
  EXPECT_GE(event.elapsed_us(), 0.0);

  // A default-constructed event never resolves and throws on access.
  Event empty;
  EXPECT_FALSE(empty.done());
  EXPECT_THROW(empty.stats(), Error);
  empty.wait();  // no-op, not a crash
}

TEST(Event, OutlivingItsDeviceIsSafe) {
  // Events are value handles; one kept past its device's lifetime must
  // still answer polls and wait() without touching the dead scheduler.
  Event event;
  {
    Device dev(DeviceDescriptor::simt_core(small_cfg()));
    Module& mod = dev.load_module("movi %r1, 1\nexit\n");
    event = dev.stream().launch(mod.kernel(), 16);
    dev.stream().synchronize();
  }
  EXPECT_TRUE(event.done());
  event.wait();  // degrades to a completion check, not a dangling deref
  EXPECT_TRUE(event.stats().exited);
}

TEST(Event, InvalidLaunchesThrowAtEnqueue) {
  Device dev(DeviceDescriptor::simt_core(small_cfg()));
  Module& mod = dev.load_module("exit\n");
  EXPECT_THROW(dev.stream().launch(Kernel{}, 16), Error);
  EXPECT_THROW(dev.stream().launch(mod.kernel(), 0), Error);
}

TEST(Event, AsyncKernelFaultSurfacesAtSynchronize) {
  Device dev(DeviceDescriptor::simt_core(small_cfg(64, 256)));
  // Store far out of the 256-word memory: faults on the scheduler thread.
  Module& mod = dev.load_module(
      "movi %r0, 9999\n"
      "sts [%r0], %r0\n"
      "exit\n");
  Event event = dev.stream().launch(mod.kernel(), 16);
  EXPECT_THROW(dev.stream().synchronize(), Error);
  // The event is permanently failed: it never completes, and every
  // wait()/stats() rethrows the fault.
  EXPECT_FALSE(event.done());
  EXPECT_TRUE(event.failed());
  EXPECT_THROW(event.wait(), Error);
  EXPECT_THROW(event.wait(), Error);
  EXPECT_THROW(event.stats(), Error);

  // The device stays usable: the sticky stream error was consumed.
  Module& ok = dev.load_module("movi %r1, 5\nexit\n");
  Event event2 = dev.stream().launch(ok.kernel(), 16);
  dev.stream().synchronize();
  EXPECT_TRUE(event2.done());
}

TEST(Event, FaultsStayAttributedToTheirStream) {
  Device dev(DeviceDescriptor::simt_core(small_cfg(64, 256)));
  Module& bad = dev.load_module(
      "movi %r0, 9999\n"
      "sts [%r0], %r0\n"
      "exit\n");
  Module& ok = dev.load_module("movi %r1, 5\nexit\n");

  auto& sa = dev.stream();
  auto& sb = dev.create_stream();
  Event failed = sa.launch(bad.kernel(), 16);
  Event fine = sb.launch(ok.kernel(), 16);

  // Stream B synchronizes first: it must NOT steal stream A's fault.
  sb.synchronize();
  EXPECT_TRUE(fine.done());
  EXPECT_THROW(sa.synchronize(), Error);
  EXPECT_TRUE(failed.failed());
}

// ---- multiple streams ------------------------------------------------------

TEST(MultiStream, TwoStreamsMatchSingleStreamResults) {
  const unsigned n = 96;
  std::vector<std::uint32_t> ha(n), hb(n);
  for (unsigned i = 0; i < n; ++i) {
    ha[i] = 5 * i + 3;
    hb[i] = 1000 - i;
  }

  // Single-stream reference on a 2-core device.
  const auto run_single = [&] {
    Device dev(DeviceDescriptor::multi_core(2, small_cfg(32, 2048)));
    auto a_in = dev.alloc<std::uint32_t>(n);
    auto a_out = dev.alloc<std::uint32_t>(n);
    auto b_in = dev.alloc<std::uint32_t>(n);
    auto b_out = dev.alloc<std::uint32_t>(n);
    Module& ma = dev.load_module(affine_kernel(a_in.word_base(),
                                               a_out.word_base()));
    Module& mb = dev.load_module(affine_kernel(b_in.word_base(),
                                               b_out.word_base()));
    std::vector<std::uint32_t> ra(n), rb(n);
    auto& s = dev.stream();
    s.copy_in(a_in, std::span<const std::uint32_t>(ha));
    s.launch(ma.kernel(), n);
    s.copy_out(a_out, std::span<std::uint32_t>(ra));
    s.copy_in(b_in, std::span<const std::uint32_t>(hb));
    s.launch(mb.kernel(), n);
    s.copy_out(b_out, std::span<std::uint32_t>(rb));
    s.synchronize();
    return std::make_pair(ra, rb);
  };

  // The same work ping-ponged over two independent streams with disjoint
  // buffers must produce bit-identical results.
  const auto run_dual = [&] {
    Device dev(DeviceDescriptor::multi_core(2, small_cfg(32, 2048)));
    auto a_in = dev.alloc<std::uint32_t>(n);
    auto a_out = dev.alloc<std::uint32_t>(n);
    auto b_in = dev.alloc<std::uint32_t>(n);
    auto b_out = dev.alloc<std::uint32_t>(n);
    Module& ma = dev.load_module(affine_kernel(a_in.word_base(),
                                               a_out.word_base()));
    Module& mb = dev.load_module(affine_kernel(b_in.word_base(),
                                               b_out.word_base()));
    std::vector<std::uint32_t> ra(n), rb(n);
    auto& sa = dev.stream();
    auto& sb = dev.create_stream();
    EXPECT_EQ(dev.stream_count(), 2u);
    sa.copy_in(a_in, std::span<const std::uint32_t>(ha));
    sb.copy_in(b_in, std::span<const std::uint32_t>(hb));
    sa.launch(ma.kernel(), n);
    sb.launch(mb.kernel(), n);
    sa.copy_out(a_out, std::span<std::uint32_t>(ra));
    sb.copy_out(b_out, std::span<std::uint32_t>(rb));
    sa.synchronize();
    sb.synchronize();
    return std::make_pair(ra, rb);
  };

  const auto single = run_single();
  const auto dual = run_dual();
  EXPECT_EQ(dual.first, single.first);
  EXPECT_EQ(dual.second, single.second);
  for (unsigned i = 0; i < n; ++i) {
    ASSERT_EQ(single.first[i], 3 * ha[i] + 7) << i;
    ASSERT_EQ(single.second[i], 3 * hb[i] + 7) << i;
  }
}

TEST(MultiStream, WaitOrdersAcrossStreams) {
  Device dev(DeviceDescriptor::simt_core(small_cfg()));
  auto a = dev.alloc<std::uint32_t>(64);
  auto b = dev.alloc<std::uint32_t>(64);
  auto c = dev.alloc<std::uint32_t>(64);
  // Producer: b[tid] = 3*a[tid] + 7. Consumer: c[tid] = 3*b[tid] + 7.
  Module& producer = dev.load_module(affine_kernel(a.word_base(),
                                                   b.word_base()));
  Module& consumer = dev.load_module(affine_kernel(b.word_base(),
                                                   c.word_base()));
  std::vector<std::uint32_t> host(64);
  std::iota(host.begin(), host.end(), 0u);
  std::vector<std::uint32_t> result(64);

  auto& sa = dev.stream();
  auto& sb = dev.create_stream();
  sa.copy_in(a, std::span<const std::uint32_t>(host));
  Event produced = sa.launch(producer.kernel(), 64);
  sb.wait(produced);
  sb.launch(consumer.kernel(), 64);
  sb.copy_out(c, std::span<std::uint32_t>(result));
  sb.synchronize();

  for (unsigned i = 0; i < 64; ++i) {
    EXPECT_EQ(result[i], 3 * (3 * i + 7) + 7) << i;
  }

  // Waiting on a foreign or empty event is an error.
  Device other(DeviceDescriptor::simt_core(small_cfg()));
  Event foreign = other.stream().launch(
      other.load_module("exit\n").kernel(), 16);
  EXPECT_THROW(sa.wait(Event{}), Error);
  EXPECT_THROW(sa.wait(foreign), Error);
  other.stream().synchronize();
}

// ---- multicore shard-map staging -------------------------------------------

TEST(ShardMap, SecondLaunchStagesOnlyIncrements) {
  Device dev(DeviceDescriptor::multi_core(4, small_cfg(32, 2048)));
  auto in = dev.alloc<std::uint32_t>(256);
  auto out = dev.alloc<std::uint32_t>(256);
  Module& mod = dev.load_module(affine_kernel(in.word_base(),
                                              out.word_base()));
  std::vector<std::uint32_t> host(256, 11);
  in.write(host);

  const auto first = dev.launch_sync(mod.kernel(), 256);
  // Every core had to see the host-written input at least.
  EXPECT_GT(first.staged_words, 0u);
  EXPECT_GT(first.merged_words, 0u);
  EXPECT_EQ(first.per_core.size(), 4u);

  // Relaunch with untouched inputs: cores only restage each other's merged
  // output shards, never the full image again.
  const auto second = dev.launch_sync(mod.kernel(), 256);
  EXPECT_LT(second.staged_words, first.staged_words);

  const auto result = out.read();
  for (unsigned i = 0; i < 256; ++i) {
    ASSERT_EQ(result[i], 3u * 11u + 7u) << i;
  }
}

TEST(ShardMap, LaunchStatsCarryOccupancyAndOverlapModel) {
  Device dev(DeviceDescriptor::multi_core(4, small_cfg(32, 2048)));
  auto in = dev.alloc<std::uint32_t>(256);
  auto out = dev.alloc<std::uint32_t>(256);
  Module& mod = dev.load_module(affine_kernel(in.word_base(),
                                              out.word_base()));
  std::vector<std::uint32_t> host(256, 1);
  in.write(host);

  const auto stats = dev.launch_sync(mod.kernel(), 256);  // 2 rounds
  EXPECT_EQ(stats.rounds, 2u);
  ASSERT_EQ(stats.per_core.size(), 4u);
  for (const auto& c : stats.per_core) {
    EXPECT_GT(c.exec_cycles, 0u);
    EXPECT_EQ(c.rounds, 2u);
    EXPECT_GT(c.occupancy, 0.0);
    EXPECT_LE(c.occupancy, 1.0);
  }
  EXPECT_GT(stats.occupancy(), 0.0);
  // The overlap model never beats pure exec or loses to fully serial
  // staging.
  EXPECT_GE(stats.overlap_cycles, stats.perf.cycles);
  EXPECT_LE(stats.overlap_cycles, stats.serial_cycles);
  EXPECT_GT(stats.serial_wall_us, 0.0);
  EXPECT_GE(stats.serial_wall_us, stats.overlap_wall_us);
}

// ---- grid-split edge cases across backends ---------------------------------

std::vector<std::uint32_t> run_grid(DeviceDescriptor desc, unsigned threads) {
  Device dev(desc);
  auto out = dev.alloc<std::uint32_t>(threads);
  Module& mod = dev.load_module(
      "movsr %r0, %tid\n"
      "muli %r1, %r0, 13\n"
      "addi %r1, %r1, 5\n"
      "sts [%r0 + " + std::to_string(out.word_base()) + "], %r1\n"
      "exit\n");
  const auto stats = dev.launch_sync(mod.kernel(), threads);
  EXPECT_TRUE(stats.exited);
  return out.read();
}

TEST(GridSplit, EdgeSizesAgreeOnEveryBackend) {
  // 3 x 32-thread cores: capacity 96. Probe threads not divisible by the
  // core count, exactly at capacity, and one beyond (forcing a second
  // round with a 1-thread shard).
  baseline::ScalarCpuConfig scfg;
  scfg.shared_mem_words = 2048;
  for (const unsigned threads : {1u, 31u, 95u, 96u, 97u, 100u}) {
    const auto core =
        run_grid(DeviceDescriptor::simt_core(small_cfg(32, 2048)), threads);
    const auto multi = run_grid(
        DeviceDescriptor::multi_core(3, small_cfg(32, 2048)), threads);
    const auto scalar =
        run_grid(DeviceDescriptor::scalar_cpu(scfg), threads);
    ASSERT_EQ(core.size(), threads);
    EXPECT_EQ(multi, core) << threads << " threads";
    EXPECT_EQ(scalar, core) << threads << " threads";
    for (unsigned i = 0; i < threads; ++i) {
      ASSERT_EQ(core[i], 13 * i + 5) << threads << ":" << i;
    }
  }
}

TEST(GridSplit, RoundAccountingAtCapacityBoundaries) {
  Device dev(DeviceDescriptor::multi_core(3, small_cfg(32, 2048)));
  ASSERT_EQ(dev.max_concurrent_threads(), 96u);
  Module& mod = dev.load_module("movi %r1, 1\nexit\n");
  EXPECT_EQ(dev.launch_sync(mod.kernel(), 96).rounds, 1u);
  EXPECT_EQ(dev.launch_sync(mod.kernel(), 97).rounds, 2u);
}

TEST(GridSplit, ZeroThreadsThrowsOnEveryBackend) {
  baseline::ScalarCpuConfig scfg;
  scfg.shared_mem_words = 2048;
  const DeviceDescriptor descs[] = {
      DeviceDescriptor::simt_core(small_cfg(32, 2048)),
      DeviceDescriptor::multi_core(3, small_cfg(32, 2048)),
      DeviceDescriptor::scalar_cpu(scfg)};
  for (const auto& desc : descs) {
    Device dev(desc);
    Module& mod = dev.load_module("exit\n");
    EXPECT_THROW(dev.launch_sync(mod.kernel(), 0), Error);
    EXPECT_THROW(dev.stream().launch(mod.kernel(), 0), Error);
  }
}

// ---- memory pool alignment -------------------------------------------------

TEST(MemoryPoolAlign, AlignedAllocationsRoundUp) {
  Device dev(DeviceDescriptor::simt_core(small_cfg(64, 1024)));
  auto a = dev.alloc<std::uint32_t>(3);
  EXPECT_EQ(a.word_base(), 0u);
  auto b = dev.alloc<std::uint32_t>(10, 16);
  EXPECT_EQ(b.word_base(), 16u);  // bumped from 3 to the next 16 boundary
  auto c = dev.alloc<std::uint32_t>(1);
  EXPECT_EQ(c.word_base(), 26u);  // unaligned packs right behind
  auto d = dev.alloc<std::uint32_t>(1, 64);
  EXPECT_EQ(d.word_base(), 64u);
}

TEST(MemoryPoolAlign, RejectsBadRequests) {
  Device dev(DeviceDescriptor::simt_core(small_cfg(64, 1024)));
  EXPECT_THROW(dev.alloc<std::uint32_t>(0), Error);
  EXPECT_THROW(dev.alloc<std::uint32_t>(0, 16), Error);
  EXPECT_THROW(dev.alloc<std::uint32_t>(4, 3), Error);   // not a power of 2
  EXPECT_THROW(dev.alloc<std::uint32_t>(4, 0), Error);
  // Alignment padding counts against the arena.
  dev.alloc<std::uint32_t>(1000);
  EXPECT_THROW(dev.alloc<std::uint32_t>(8, 1024), Error);
  EXPECT_NO_THROW(dev.alloc<std::uint32_t>(8, 8));
}

}  // namespace
}  // namespace simt::runtime
