// Tests for the asynchronous execution engine: the device scheduler and its
// modeled copy/exec timeline, commands that run on the thread that waits
// or polls for them, multi-stream execution with cross-stream event waits,
// Event hardening, the multicore shard-map staging path, grid-split edge
// cases on every backend, and MemoryPool alignment.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "kernels/kernels.hpp"
#include "runtime/buffer.hpp"
#include "runtime/device.hpp"
#include "runtime/module.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/stream.hpp"

namespace simt::runtime {

/// White-box peer: submits a prebuilt scheduler command with a stream's
/// ordering and error slot, so a test can see which thread runs a
/// stream's commands.
class StreamTestPeer {
 public:
  static Ticket submit(Stream& s, Scheduler::Command cmd) {
    return s.submit(std::move(cmd));
  }
};

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

TEST(Scheduler, EventWaitRunsUpToItsTicketAndSynchronizeRunsTheRest) {
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

  // Submission only queues: nothing has run yet.
  EXPECT_EQ(dev.scheduler().retired(), 0u);
  // The event resolves without synchronize(): wait() runs the copy-in and
  // the launch, and leaves the copy-out queued behind its ticket.
  event.wait();
  EXPECT_TRUE(event.done());
  EXPECT_EQ(dev.scheduler().retired(), 2u);
  EXPECT_EQ(result[0], 0u);
  stream.synchronize();
  EXPECT_EQ(dev.scheduler().retired(), 3u);
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

// ---- waiters execute their own commands ------------------------------------

/// Which thread ran each traced command, in execution order.
struct ExecTrace {
  std::mutex mutex;
  std::vector<unsigned> order;
  std::vector<std::thread::id> who;
};

/// A scheduler command that records its index and executing thread and
/// prices like a copy (even i, alternating channels) or a launch (odd i).
Scheduler::Command traced_command(ExecTrace& trace, unsigned i) {
  Scheduler::Command cmd;
  cmd.engine = i % 2 == 0 ? EngineKind::Copy : EngineKind::Exec;
  cmd.channel = (i / 2) % 2;
  cmd.words = i % 2 == 0 ? 16 + i : 0;
  cmd.prep_us = 0.01 * i;
  cmd.run = [&trace, i] {
    std::lock_guard<std::mutex> lock(trace.mutex);
    trace.order.push_back(i);
    trace.who.push_back(std::this_thread::get_id());
    return std::uint64_t{100 + 37 * i};
  };
  return cmd;
}

/// Submit `n` traced commands; every third one also depends on the one
/// two tickets back, so the timeline's dependency lookups get exercised.
Ticket submit_traced(Scheduler& sched, ExecTrace& trace, unsigned n) {
  std::vector<Ticket> tickets;
  for (unsigned i = 0; i < n; ++i) {
    std::vector<Ticket> deps;
    if (i % 3 == 2) {
      deps.push_back(tickets[i - 2]);
    }
    tickets.push_back(sched.submit(traced_command(trace, i), deps));
  }
  return tickets.back();
}

void expect_timeline_eq(const TimelineStats& a, const TimelineStats& b) {
  EXPECT_EQ(a.serial_us, b.serial_us);
  EXPECT_EQ(a.overlap_us, b.overlap_us);
  EXPECT_EQ(a.dispatch_us, b.dispatch_us);
  EXPECT_EQ(a.copied_words, b.copied_words);
  EXPECT_EQ(a.exec_cycles, b.exec_cycles);
  EXPECT_EQ(a.commands, b.commands);
  EXPECT_EQ(a.graph_replays, b.graph_replays);
}

TEST(WaiterExecution, PausedSchedulerHoldsABlockedWaiter) {
  Device dev(DeviceDescriptor::simt_core(small_cfg()));
  auto in = dev.alloc<std::uint32_t>(64);
  auto out = dev.alloc<std::uint32_t>(64);
  Module& mod = dev.load_module(affine_kernel(in.word_base(),
                                              out.word_base()));
  std::vector<std::uint32_t> host(64);
  std::iota(host.begin(), host.end(), 0u);

  auto& stream = dev.stream();
  dev.scheduler().pause();
  stream.copy_in(in, std::span<const std::uint32_t>(host));
  Event event = stream.launch(mod.kernel(), 64);
  std::atomic<bool> returned{false};
  std::thread waiter([&] {
    event.wait();
    returned = true;
  });
  // The waiter blocks: a pause holds it even though it would run the
  // commands itself.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(returned.load());
  EXPECT_FALSE(event.done());
  EXPECT_EQ(dev.scheduler().timeline().commands, 0u);
  EXPECT_EQ(dev.scheduler().retired(), 0u);

  dev.scheduler().resume();
  waiter.join();
  EXPECT_TRUE(returned.load());
  EXPECT_TRUE(event.done());
  for (unsigned i = 0; i < 64; ++i) {
    EXPECT_EQ(out.at(i), 3 * i + 7) << i;
  }
}

/// The trace's execution order must be 0..n-1.
void expect_ticket_order(const ExecTrace& trace, unsigned n) {
  std::vector<unsigned> want(n);
  std::iota(want.begin(), want.end(), 0u);
  EXPECT_EQ(trace.order, want);
}

/// Every traced command must have run on thread `id`.
void expect_all_ran_on(const ExecTrace& trace, std::thread::id id) {
  for (std::size_t i = 0; i < trace.who.size(); ++i) {
    EXPECT_EQ(trace.who[i], id) << "command " << trace.order[i];
  }
}

TEST(WaiterExecution, WaiterRunsCommandsInTicketOrderWithTheSameTimeline) {
  constexpr unsigned kCommands = 48;
  // Reference: a non-blocking poll on an idle, unpaused scheduler runs the
  // whole sequence on this thread.
  TimelineStats reference;
  {
    Device dev(DeviceDescriptor::simt_core(small_cfg()));
    ExecTrace trace;
    const Ticket last = submit_traced(dev.scheduler(), trace, kCommands);
    EXPECT_EQ(dev.scheduler().retired(), 0u) << "submit() only queues";
    dev.scheduler().poll(last);
    EXPECT_EQ(dev.scheduler().retired(), last);
    reference = dev.scheduler().timeline();
    expect_ticket_order(trace, kCommands);
    expect_all_ran_on(trace, std::this_thread::get_id());
  }

  // The same sequence queued on a paused scheduler: a poll runs nothing,
  // and a wait after resume() runs every command on the waiting thread,
  // in ticket order, pricing the identical timeline.
  Device dev(DeviceDescriptor::simt_core(small_cfg()));
  ExecTrace trace;
  dev.scheduler().pause();
  const Ticket last = submit_traced(dev.scheduler(), trace, kCommands);
  dev.scheduler().poll(last);
  EXPECT_EQ(dev.scheduler().retired(), 0u) << "a poll ran a paused command";
  dev.scheduler().resume();
  std::thread::id waiter_id;
  std::thread waiter([&] {
    waiter_id = std::this_thread::get_id();
    dev.scheduler().wait(last);
  });
  waiter.join();
  expect_ticket_order(trace, kCommands);
  expect_all_ran_on(trace, waiter_id);
  expect_timeline_eq(dev.scheduler().timeline(), reference);
}

TEST(WaiterExecution, FaultRunByAWaiterSurfacesAndTheDeviceStaysUsable) {
  Device dev(DeviceDescriptor::simt_core(small_cfg(64, 256)));
  Module& bad = dev.load_module(
      "movi %r0, 9999\n"
      "sts [%r0], %r0\n"
      "exit\n");
  Module& ok = dev.load_module("movi %r1, 5\nexit\n");

  // A traced command queued just ahead of the faulting launch: the waiter
  // runs both, since nothing else ever runs a queued command.
  ExecTrace trace;
  dev.scheduler().submit(traced_command(trace, 1));
  Event failed = dev.stream().launch(bad.kernel(), 16);
  EXPECT_THROW(failed.wait(), Error);
  expect_all_ran_on(trace, std::this_thread::get_id());
  EXPECT_EQ(trace.who.size(), 1u);

  // The fault landed on the event and on the stream's error slot.
  EXPECT_TRUE(failed.failed());
  EXPECT_FALSE(failed.done());
  EXPECT_THROW(dev.stream().synchronize(), Error);
  // The device stays usable: the sticky error was consumed.
  Event fine = dev.stream().launch(ok.kernel(), 16);
  fine.wait();
  EXPECT_TRUE(fine.done());
  EXPECT_NO_THROW(dev.stream().synchronize());
}

// ---- commands run on the thread that needs them ----------------------------

TEST(CommandThread, SynchronizeRunsCommandsAnotherThreadLaunched) {
  constexpr unsigned kCommands = 8;
  const auto launch_all = [](Device& dev, ExecTrace& trace) {
    for (unsigned i = 0; i < kCommands; ++i) {
      StreamTestPeer::submit(dev.stream(), traced_command(trace, i));
    }
  };

  // Reference: one thread launches and synchronizes.
  Device ref(DeviceDescriptor::simt_core(small_cfg()));
  ExecTrace ref_trace;
  launch_all(ref, ref_trace);
  ref.stream().synchronize();
  expect_ticket_order(ref_trace, kCommands);

  // A launcher thread that never waits leaves all 8 queued; a second
  // thread's synchronize() runs every one of them.
  Device dev(DeviceDescriptor::simt_core(small_cfg()));
  ExecTrace trace;
  std::thread launcher([&] { launch_all(dev, trace); });
  launcher.join();
  EXPECT_EQ(dev.scheduler().retired(), 0u);
  EXPECT_TRUE(trace.who.empty());
  std::thread::id syncer_id;
  std::thread syncer([&] {
    syncer_id = std::this_thread::get_id();
    dev.stream().synchronize();
  });
  syncer.join();
  ASSERT_EQ(trace.who.size(), kCommands);
  expect_ticket_order(trace, kCommands);
  expect_all_ran_on(trace, syncer_id);
  expect_timeline_eq(dev.scheduler().timeline(), ref.scheduler().timeline());
}

TEST(CommandThread, FirstDonePollRunsTheLaunch) {
  Device dev(DeviceDescriptor::simt_core(small_cfg()));
  Module& mod = dev.load_module("movi %r1, 1\nexit\n");
  Event event = dev.stream().launch(mod.kernel(), 16);
  ASSERT_TRUE(event.done());
  EXPECT_TRUE(event.stats().exited);
  EXPECT_GT(event.stats().perf.cycles, 0u);
  EXPECT_EQ(dev.stream().pending(), 0u);
}

TEST(CommandThread, DestroyingAPausedDeviceRunsItsQueue) {
  std::vector<std::uint32_t> result(64, 0);
  Event first, marker;
  {
    Device dev(DeviceDescriptor::simt_core(small_cfg()));
    auto in = dev.alloc<std::uint32_t>(64);
    auto out = dev.alloc<std::uint32_t>(64);
    Module& mod = dev.load_module(affine_kernel(in.word_base(),
                                                out.word_base()));
    std::vector<std::uint32_t> host(64);
    std::iota(host.begin(), host.end(), 0u);

    dev.scheduler().pause();
    auto& stream = dev.stream();
    stream.copy_in(in, std::span<const std::uint32_t>(host));
    first = stream.launch(mod.kernel(), 64);
    stream.copy_out(out, std::span<std::uint32_t>(result));
    marker = stream.record();
    EXPECT_FALSE(first.done());
    EXPECT_EQ(result[0], 0u);
  }  // no waiter: the destructor runs the queue, pause or not
  EXPECT_TRUE(first.done());
  EXPECT_TRUE(marker.done());
  EXPECT_TRUE(first.stats().exited);
  for (unsigned i = 0; i < 64; ++i) {
    EXPECT_EQ(result[i], 3 * i + 7) << i;
  }
}

TEST(CommandThread, SynchronizedCopyOutMayBeFreedBeforeTheDevice) {
  // The host vector is declared after the device, so it is freed first.
  // Once the stream is synchronized the destructor has nothing left to
  // write into it (a late write shows up under AddressSanitizer).
  Device dev(DeviceDescriptor::simt_core(small_cfg()));
  auto in = dev.alloc<std::uint32_t>(64);
  auto out = dev.alloc<std::uint32_t>(64);
  Module& mod = dev.load_module(affine_kernel(in.word_base(),
                                              out.word_base()));
  {
    std::vector<std::uint32_t> host(64);
    std::iota(host.begin(), host.end(), 0u);
    std::vector<std::uint32_t> result(64, 0);
    auto& stream = dev.stream();
    stream.copy_in(in, std::span<const std::uint32_t>(host));
    stream.launch(mod.kernel(), 64);
    stream.copy_out(out, std::span<std::uint32_t>(result));
    stream.synchronize();
    for (unsigned i = 0; i < 64; ++i) {
      EXPECT_EQ(result[i], 3 * i + 7) << i;
    }
  }
  EXPECT_EQ(dev.stream().pending(), 0u);
}

TEST(CommandThread, PollWhileAnotherThreadIsMidCommandDoesNotBlock) {
  Device dev(DeviceDescriptor::simt_core(small_cfg()));
  Module& mod = dev.load_module("movi %r1, 1\nexit\n");

  // A command that holds its thread until released.
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  Scheduler::Command hold;
  hold.run = [&] {
    started = true;
    while (!release.load()) {
      std::this_thread::yield();
    }
    return std::uint64_t{1};
  };
  const Ticket held = dev.scheduler().submit(std::move(hold));
  std::thread runner([&] { dev.scheduler().wait(held); });
  while (!started.load()) {
    std::this_thread::yield();
  }

  // The launch queues behind the held command. Had the polls blocked,
  // this thread would never reach the release below.
  Event event = dev.stream().launch(mod.kernel(), 16);
  EXPECT_FALSE(event.done());
  EXPECT_FALSE(event.resolved());
  EXPECT_EQ(dev.stream().pending(), 1u);
  release = true;
  runner.join();
  EXPECT_TRUE(event.done());
  EXPECT_EQ(dev.stream().pending(), 0u);
}

// ---- event hardening -------------------------------------------------------

TEST(Event, AccessorsThrowWhileInFlightAndResolveAfter) {
  Device dev(DeviceDescriptor::simt_core(small_cfg()));
  Module& mod = dev.load_module("movi %r1, 1\nexit\n");

  dev.scheduler().pause();
  Event event = dev.stream().launch(mod.kernel(), 16);
  EXPECT_FALSE(event.done());
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
