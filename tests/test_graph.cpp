// Tests for execution graphs: stream capture, instantiate-time validation,
// graph replay (one scheduler command per replay), per-replay argument
// and payload rebinding, capture-mode error cases, and the buffer
// use-after-reset hardening the graph refactor rides along with.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/faults.hpp"
#include "kernels/kernels.hpp"
#include "runtime/buffer.hpp"
#include "runtime/device.hpp"
#include "runtime/graph.hpp"
#include "runtime/module.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/stream.hpp"

namespace simt::runtime {

/// White-box peer: corrupts a captured DAG's edges to exercise the
/// defensive cycle check in Graph::instantiate(). The public capture API
/// records dependencies in capture order, so it can never produce the
/// forward edge this plants.
class GraphTestPeer {
 public:
  static void add_dep(Graph& g, std::size_t node, std::size_t dep) {
    g.nodes_[node].deps.push_back(dep);
  }
};

/// White-box peer: reads a stream's unretired-ticket bookkeeping, which
/// must stay bounded on a stream that is never synchronized.
class StreamTestPeer {
 public:
  static std::size_t live_tickets(const Stream& s) {
    std::lock_guard<std::mutex> lock(s.submit_mutex_);
    return s.live_.size();
  }
};

namespace {

core::CoreConfig small_cfg(unsigned threads = 64,
                           unsigned mem_words = 2048) {
  core::CoreConfig c;
  c.max_threads = threads;
  c.shared_mem_words = mem_words;
  c.predicates_enabled = true;
  return c;
}

baseline::ScalarCpuConfig scalar_cfg(unsigned mem_words = 2048) {
  baseline::ScalarCpuConfig c;
  c.shared_mem_words = mem_words;
  return c;
}

// ---- capture ----------------------------------------------------------------

TEST(GraphCapture, RecordsWithoutExecuting) {
  constexpr unsigned kN = 32;
  Device dev(DeviceDescriptor::simt_core(small_cfg()));
  auto in = dev.alloc<std::uint32_t>(kN);
  auto out = dev.alloc<std::uint32_t>(kN);
  const auto scale = dev.load_module(kernels::scale_abi()).kernel("scale");
  auto& stream = dev.stream();

  std::vector<std::uint32_t> host(kN, 7), result(kN, 99);
  Graph graph;
  stream.begin_capture(graph);
  EXPECT_TRUE(stream.capturing());
  stream.copy_in(in, std::span<const std::uint32_t>(host));
  Event captured = stream.launch(
      scale, kN, KernelArgs().arg(in).arg(out).scalar(2).scalar(1));
  stream.copy_out(out, std::span<std::uint32_t>(result));
  stream.end_capture();
  EXPECT_FALSE(stream.capturing());

  // Nothing executed: device memory untouched, the host result area
  // untouched, and the launch's event is a graph-node handle.
  EXPECT_EQ(graph.size(), 3u);
  EXPECT_EQ(graph.launch_count(), 1u);
  EXPECT_EQ(graph.copy_in_count(), 1u);
  EXPECT_EQ(in.at(0), 0u);
  EXPECT_EQ(result[0], 99u);
  EXPECT_TRUE(captured.captured());
  EXPECT_FALSE(captured.done());

  // The stream itself stays usable for eager work after end_capture.
  stream.copy_in(in, std::span<const std::uint32_t>(host));
  stream.synchronize();
  EXPECT_EQ(in.at(0), 7u);
}

TEST(GraphCapture, ErrorCases) {
  Device dev(DeviceDescriptor::simt_core(small_cfg()));
  auto in = dev.alloc<std::uint32_t>(16);
  const auto scale = dev.load_module(kernels::scale_abi()).kernel("scale");
  auto& stream = dev.stream();
  auto& other = dev.create_stream();

  Graph graph;
  EXPECT_THROW(graph.instantiate(), Error);  // empty graph

  std::vector<std::uint32_t> host(16, 1);
  Event live = stream.launch(
      scale, 16, KernelArgs().arg(in).arg(in).scalar(1).scalar(0));
  stream.synchronize();

  stream.begin_capture(graph);
  EXPECT_THROW(stream.begin_capture(graph), Error);  // already capturing
  Graph second;
  EXPECT_THROW(stream.begin_capture(second), Error);
  // A stream of ANOTHER device cannot join this capture.
  Device foreign_dev(DeviceDescriptor::simt_core(small_cfg()));
  EXPECT_THROW(foreign_dev.stream().begin_capture(graph), Error);
  EXPECT_THROW(stream.synchronize(), Error);         // join during capture
  EXPECT_THROW(stream.wait(live), Error);            // live dependency
  EXPECT_THROW(graph.instantiate(), Error);          // still recording
  Event captured = stream.record();
  stream.wait(captured);  // same-lane event: ordering no-op
  EXPECT_THROW(captured.wait(), Error);              // never resolves
  EXPECT_THROW(captured.stats(), Error);
  // A same-device stream JOINS the open capture as a second lane; the
  // graph stays uninstantiable until every joined stream has ended.
  other.begin_capture(graph);
  EXPECT_TRUE(other.capturing());
  stream.end_capture();
  EXPECT_THROW(graph.instantiate(), Error);          // other still recording
  other.end_capture();
  EXPECT_EQ(graph.lane_count(), 2u);
  EXPECT_THROW(stream.end_capture(), Error);         // not capturing
  EXPECT_THROW(stream.wait(captured), Error);        // captured, eager mode
  EXPECT_THROW(stream.begin_capture(graph), Error);  // non-empty graph

  graph.clear();
  stream.begin_capture(graph);  // clear() makes it capturable again
  stream.end_capture();
}

// ---- replay correctness -----------------------------------------------------

/// Run copy-in + vecadd + scale + copy-out on `dev`, eagerly or as a
/// captured graph replayed `iters` times with rebinding, returning the
/// final outputs.
std::vector<std::uint32_t> run_pipeline(Device& dev, unsigned iters,
                                        bool graphed) {
  constexpr unsigned kN = 48;
  auto a = dev.alloc<std::uint32_t>(kN);
  auto b = dev.alloc<std::uint32_t>(kN);
  auto c = dev.alloc<std::uint32_t>(kN);
  auto out = dev.alloc<std::uint32_t>(kN);
  const auto vecadd = dev.load_module(kernels::vecadd_abi()).kernel("vecadd");
  const auto scale = dev.load_module(kernels::scale_abi()).kernel("scale");
  auto& stream = dev.stream();

  std::vector<std::uint32_t> hb(kN);
  std::iota(hb.begin(), hb.end(), 100u);
  stream.copy_in(b, std::span<const std::uint32_t>(hb));
  stream.synchronize();

  const auto input = [kN](unsigned iter) {
    std::vector<std::uint32_t> h(kN);
    for (unsigned i = 0; i < kN; ++i) {
      h[i] = iter * 17 + i;
    }
    return h;
  };
  const auto scale_args = [&](unsigned iter) {
    return KernelArgs().arg(c).arg(out).scalar(3).scalar(iter);
  };

  std::vector<std::uint32_t> result(kN);
  if (!graphed) {
    for (unsigned iter = 0; iter < iters; ++iter) {
      const auto h = input(iter);
      stream.copy_in(a, std::span<const std::uint32_t>(h));
      stream.launch(vecadd, kN, KernelArgs().arg(a).arg(b).arg(c));
      stream.launch(scale, kN, scale_args(iter));
      stream.copy_out(out, std::span<std::uint32_t>(result));
      stream.synchronize();
    }
    return result;
  }

  Graph graph;
  stream.begin_capture(graph);
  stream.copy_in(a, std::span<const std::uint32_t>(input(0)));
  stream.launch(vecadd, kN, KernelArgs().arg(a).arg(b).arg(c));
  stream.launch(scale, kN, scale_args(0));
  stream.copy_out(out, std::span<std::uint32_t>(result));
  stream.end_capture();
  auto exec = graph.instantiate();
  EXPECT_EQ(exec.node_count(), 4u);
  EXPECT_EQ(exec.launch_count(), 2u);

  Event last;
  for (unsigned iter = 0; iter < iters; ++iter) {
    last = exec.launch(stream, GraphUpdates()
                                   .copy_in(0, input(iter))
                                   .args(1, scale_args(iter)));
  }
  last.wait();
  EXPECT_TRUE(last.stats().exited);
  EXPECT_GT(last.stats().perf.cycles, 0u);
  return result;
}

TEST(GraphReplay, MatchesEagerOnEveryBackend) {
  constexpr unsigned kIters = 3;
  const auto golden = [](unsigned iter) {
    std::vector<std::uint32_t> want(48);
    for (unsigned i = 0; i < 48; ++i) {
      want[i] = 3 * ((iter * 17 + i) + (100 + i)) + iter;
    }
    return want;
  }(kIters - 1);

  const auto run_both = [&](DeviceDescriptor desc) {
    Device eager_dev(desc);
    Device graph_dev(std::move(desc));
    const auto eager = run_pipeline(eager_dev, kIters, false);
    const auto graphed = run_pipeline(graph_dev, kIters, true);
    EXPECT_EQ(eager, golden);
    EXPECT_EQ(graphed, eager);
  };
  run_both(DeviceDescriptor::simt_core(small_cfg()));
  // 2 cores x 16 threads against a 48-thread grid: the captured launches
  // split into rounds and shard across cores inside the replay.
  run_both(DeviceDescriptor::multi_core(2, small_cfg(16, 2048)));
  run_both(DeviceDescriptor::scalar_cpu(scalar_cfg()));
}

TEST(GraphReplay, RebindSkipsNothingSemantically) {
  // Replaying with unchanged args, then rebound args, then the original
  // again: the resident-binding skip must never change results.
  constexpr unsigned kN = 16;
  Device dev(DeviceDescriptor::simt_core(small_cfg()));
  auto in = dev.alloc<std::uint32_t>(kN);
  auto out = dev.alloc<std::uint32_t>(kN);
  const auto scale = dev.load_module(kernels::scale_abi()).kernel("scale");
  auto& stream = dev.stream();

  std::vector<std::uint32_t> host(kN);
  std::iota(host.begin(), host.end(), 1u);
  std::vector<std::uint32_t> result(kN);
  Graph graph;
  stream.begin_capture(graph);
  stream.copy_in(in, std::span<const std::uint32_t>(host));
  stream.launch(scale, kN,
                KernelArgs().arg(in).arg(out).scalar(2).scalar(0));
  stream.copy_out(out, std::span<std::uint32_t>(result));
  stream.end_capture();
  auto exec = graph.instantiate();
  const std::uint64_t sig0 = exec.plan(0).sig;

  exec.launch(stream).wait();
  for (unsigned i = 0; i < kN; ++i) {
    ASSERT_EQ(result[i], 2 * host[i]);
  }
  exec.launch(stream, GraphUpdates().args(
                          0, KernelArgs().arg(in).arg(out)
                                 .scalar(5).scalar(7)))
      .wait();
  for (unsigned i = 0; i < kN; ++i) {
    ASSERT_EQ(result[i], 5 * host[i] + 7);
  }
  EXPECT_NE(exec.plan(0).sig, sig0);  // the rebind re-derived the signature
  exec.launch(stream, GraphUpdates().args(
                          0, KernelArgs().arg(in).arg(out)
                                 .scalar(2).scalar(0)))
      .wait();
  for (unsigned i = 0; i < kN; ++i) {
    ASSERT_EQ(result[i], 2 * host[i]);
  }
  EXPECT_EQ(exec.plan(0).sig, sig0);
}

TEST(GraphReplay, UpdateValidationThrowsAtSubmit) {
  constexpr unsigned kN = 16;
  Device dev(DeviceDescriptor::simt_core(small_cfg()));
  auto in = dev.alloc<std::uint32_t>(kN);
  auto out = dev.alloc<std::uint32_t>(kN);
  const auto scale = dev.load_module(kernels::scale_abi()).kernel("scale");
  auto& stream = dev.stream();

  std::vector<std::uint32_t> host(kN, 3), result(kN);
  Graph graph;
  stream.begin_capture(graph);
  stream.copy_in(in, std::span<const std::uint32_t>(host));
  stream.launch(scale, kN,
                KernelArgs().arg(in).arg(out).scalar(1).scalar(0));
  stream.copy_out(out, std::span<std::uint32_t>(result));
  stream.end_capture();
  auto exec = graph.instantiate();

  // Out-of-range ordinals, a mismatched argument set, and a payload of
  // the wrong size all throw on the submitting thread.
  EXPECT_THROW(exec.launch(stream, GraphUpdates().args(1, KernelArgs())),
               Error);
  EXPECT_THROW(
      exec.launch(stream, GraphUpdates().args(0, KernelArgs().arg(in))),
      Error);
  EXPECT_THROW(exec.launch(stream, GraphUpdates().copy_in(
                               0, std::vector<std::uint32_t>(kN + 1))),
               Error);
  EXPECT_THROW(exec.launch(stream, GraphUpdates().copy_in(
                               1, std::vector<std::uint32_t>(kN))),
               Error);

  // A replay on another device's stream is refused.
  Device other(DeviceDescriptor::simt_core(small_cfg()));
  EXPECT_THROW(exec.launch(other.stream()), Error);

  // The failed submissions must not have poisoned the stream.
  exec.launch(stream).wait();
  EXPECT_EQ(result[0], 3u);
}

// ---- scheduler integration --------------------------------------------------

TEST(GraphReplay, ReplaysAsOneSchedulerCommand) {
  constexpr unsigned kN = 16;
  constexpr unsigned kIters = 4;
  Device dev(DeviceDescriptor::simt_core(small_cfg()));
  auto in = dev.alloc<std::uint32_t>(kN);
  auto out = dev.alloc<std::uint32_t>(kN);
  const auto scale = dev.load_module(kernels::scale_abi()).kernel("scale");
  auto& stream = dev.stream();

  std::vector<std::uint32_t> host(kN, 1), result(kN);
  Graph graph;
  stream.begin_capture(graph);
  stream.copy_in(in, std::span<const std::uint32_t>(host));
  stream.launch(scale, kN,
                KernelArgs().arg(in).arg(out).scalar(2).scalar(0));
  stream.copy_out(out, std::span<std::uint32_t>(result));
  stream.end_capture();
  auto exec = graph.instantiate();

  const auto before = dev.scheduler().timeline();
  for (unsigned i = 0; i < kIters; ++i) {
    exec.launch(stream);
  }
  stream.synchronize();
  const auto after = dev.scheduler().timeline();

  // One scheduler command and one submit-cost per replay -- versus three
  // commands each for the eager expansion -- but the device engines see
  // the same traffic (copies + exec) as eager submission would price.
  EXPECT_EQ(after.commands - before.commands, kIters);
  EXPECT_EQ(after.graph_replays - before.graph_replays, kIters);
  EXPECT_EQ(after.copied_words - before.copied_words, 2u * kN * kIters);
  EXPECT_GT(after.exec_cycles, before.exec_cycles);

  // Dispatch cost per replay must undercut the eager pipeline's.
  const double replay_us =
      (after.dispatch_us - before.dispatch_us) / kIters;
  const double eager_us = 3 * HostCost::kSubmitUs +
                          2 * HostCost::kCopyPrepUs +
                          launch_prep_us(4, 4, 2);
  EXPECT_LT(replay_us, eager_us);
}

// ---- DAG capture ------------------------------------------------------------

TEST(GraphDag, CrossStreamCaptureRoundTrip) {
  constexpr unsigned kN = 32;
  Device dev(DeviceDescriptor::simt_core(small_cfg()));
  auto x = dev.alloc<std::uint32_t>(kN);
  auto y = dev.alloc<std::uint32_t>(kN);
  auto z = dev.alloc<std::uint32_t>(kN);
  const auto scale = dev.load_module(kernels::scale_abi()).kernel("scale");
  auto& s0 = dev.stream();
  auto& s1 = dev.create_stream();

  std::vector<std::uint32_t> host(kN);
  std::iota(host.begin(), host.end(), 1u);
  std::vector<std::uint32_t> ry(kN), rz(kN);

  Graph graph;
  s0.begin_capture(graph);
  s1.begin_capture(graph);  // same device: joins as lane 1
  s0.copy_in(x, std::span<const std::uint32_t>(host));        // node 0
  Event staged = s0.record();                                 // node 1
  s1.wait(staged);  // cross-lane edge carried by lane 1's next node
  s1.launch(scale, kN,
            KernelArgs().arg(x).arg(z).scalar(3).scalar(0));  // node 2
  s0.launch(scale, kN,
            KernelArgs().arg(x).arg(y).scalar(2).scalar(0));  // node 3
  s1.copy_out(z, std::span<std::uint32_t>(rz));               // node 4
  s0.copy_out(y, std::span<std::uint32_t>(ry));               // node 5
  s1.end_capture();
  s0.end_capture();

  EXPECT_EQ(graph.lane_count(), 2u);
  EXPECT_EQ(graph.size(), 6u);
  EXPECT_EQ(graph.node_lane(0), 0u);
  EXPECT_EQ(graph.node_lane(2), 1u);
  EXPECT_EQ(graph.node_lane(3), 0u);
  EXPECT_EQ(graph.node_lane(4), 1u);
  const auto& deps2 = graph.node_deps(2);
  EXPECT_NE(std::find(deps2.begin(), deps2.end(), std::size_t{1}),
            deps2.end());  // the wait(staged) edge

  auto exec = graph.instantiate();
  Event replay = exec.launch(s0);
  replay.wait();
  for (unsigned i = 0; i < kN; ++i) {
    ASSERT_EQ(ry[i], 2 * host[i]) << i;
    ASSERT_EQ(rz[i], 3 * host[i]) << i;
  }
  // The lanes' copies are priced on independent modeled DMA channels and
  // the launches on the shared compute array: the DAG-overlapped span of
  // the replay undercuts its linearized pricing.
  EXPECT_GT(replay.replay_serial_us(), 0.0);
  EXPECT_LT(replay.replay_overlap_us(), replay.replay_serial_us());
}

/// Diamond dependency across two streams: copy x, branch into two scale
/// launches (one per stream), join into a vecadd, copy the join out.
/// Eager and captured-DAG execution must agree bit for bit.
std::vector<std::uint32_t> run_diamond(Device& dev, bool graphed) {
  constexpr unsigned kN = 48;
  auto x = dev.alloc<std::uint32_t>(kN);
  auto y = dev.alloc<std::uint32_t>(kN);
  auto z = dev.alloc<std::uint32_t>(kN);
  auto w = dev.alloc<std::uint32_t>(kN);
  const auto vecadd = dev.load_module(kernels::vecadd_abi()).kernel("vecadd");
  const auto scale = dev.load_module(kernels::scale_abi()).kernel("scale");
  auto& s0 = dev.stream();
  auto& s1 = dev.create_stream();

  std::vector<std::uint32_t> host(kN);
  std::iota(host.begin(), host.end(), 5u);
  std::vector<std::uint32_t> result(kN);

  const auto record_ops = [&] {
    s0.copy_in(x, std::span<const std::uint32_t>(host));  // diamond top
    Event staged = s0.record();
    s1.wait(staged);
    Event right = s1.launch(
        scale, kN, KernelArgs().arg(x).arg(z).scalar(3).scalar(1));
    s0.launch(scale, kN, KernelArgs().arg(x).arg(y).scalar(2).scalar(0));
    s0.wait(right);  // join
    s0.launch(vecadd, kN, KernelArgs().arg(y).arg(z).arg(w));
    s0.copy_out(w, std::span<std::uint32_t>(result));
  };

  if (!graphed) {
    record_ops();
    s0.synchronize();
    s1.synchronize();
    return result;
  }
  Graph graph;
  s0.begin_capture(graph);
  s1.begin_capture(graph);
  record_ops();
  s1.end_capture();
  s0.end_capture();
  auto exec = graph.instantiate();
  exec.launch(s0).wait();
  return result;
}

TEST(GraphDag, DiamondMatchesEagerOnEveryBackend) {
  std::vector<std::uint32_t> golden(48);
  for (unsigned i = 0; i < 48; ++i) {
    golden[i] = 2 * (i + 5) + (3 * (i + 5) + 1);
  }
  const auto run_both = [&](DeviceDescriptor desc) {
    Device eager_dev(desc);
    Device graph_dev(std::move(desc));
    const auto eager = run_diamond(eager_dev, false);
    const auto graphed = run_diamond(graph_dev, true);
    EXPECT_EQ(eager, golden);
    EXPECT_EQ(graphed, eager);
  };
  run_both(DeviceDescriptor::simt_core(small_cfg()));
  run_both(DeviceDescriptor::multi_core(2, small_cfg(16, 2048)));
  run_both(DeviceDescriptor::scalar_cpu(scalar_cfg()));
}

TEST(GraphDag, FusionMergesContiguousCopyIns) {
  constexpr unsigned kN = 24;
  Device dev(DeviceDescriptor::simt_core(small_cfg()));
  // The bump allocator hands out adjacent ranges: a and b are exactly
  // contiguous, c sits one buffer further on.
  auto a = dev.alloc<std::uint32_t>(kN);
  auto b = dev.alloc<std::uint32_t>(kN);
  auto c = dev.alloc<std::uint32_t>(kN);
  const auto vecadd = dev.load_module(kernels::vecadd_abi()).kernel("vecadd");
  auto& stream = dev.stream();

  std::vector<std::uint32_t> ha(kN), hb(kN);
  std::iota(ha.begin(), ha.end(), 10u);
  std::iota(hb.begin(), hb.end(), 500u);
  std::vector<std::uint32_t> result(kN);

  Graph graph;
  stream.begin_capture(graph);
  stream.copy_in(a, std::span<const std::uint32_t>(ha));
  stream.copy_in(b, std::span<const std::uint32_t>(hb));
  stream.launch(vecadd, kN, KernelArgs().arg(a).arg(b).arg(c));
  stream.copy_out(c, std::span<std::uint32_t>(result));
  stream.end_capture();
  EXPECT_EQ(graph.copy_in_count(), 2u);

  auto exec = graph.instantiate();
  EXPECT_EQ(exec.copy_in_count(), 2u);   // captured ordinals survive fusion
  EXPECT_EQ(exec.copy_in_bursts(), 1u);  // one modeled DMA burst
  EXPECT_EQ(exec.node_count(), 3u);      // burst + launch + copy-out

  exec.launch(stream).wait();
  for (unsigned i = 0; i < kN; ++i) {
    ASSERT_EQ(result[i], ha[i] + hb[i]) << i;
  }

  // Rebinds address the CAPTURED transfers: ordinal 1 splices into the
  // back half of the fused burst, ordinal 0 into the front.
  std::vector<std::uint32_t> na(kN, 7), nb(kN);
  std::iota(nb.begin(), nb.end(), 4000u);
  exec.launch(stream, GraphUpdates().copy_in(1, nb)).wait();
  for (unsigned i = 0; i < kN; ++i) {
    ASSERT_EQ(result[i], ha[i] + nb[i]) << i;
  }
  exec.launch(stream, GraphUpdates().copy_in(0, na).copy_in(1, hb)).wait();
  for (unsigned i = 0; i < kN; ++i) {
    ASSERT_EQ(result[i], na[i] + hb[i]) << i;
  }

  // Non-adjacent destinations (a then c, with b's range between) do not
  // fuse.
  Graph gapped;
  stream.begin_capture(gapped);
  stream.copy_in(a, std::span<const std::uint32_t>(ha));
  stream.copy_in(c, std::span<const std::uint32_t>(hb));
  stream.end_capture();
  EXPECT_EQ(gapped.instantiate().copy_in_bursts(), 2u);
}

TEST(GraphDag, DescendingAdjacentCopyInsDoNotFuse) {
  constexpr unsigned kN = 24;
  Device dev(DeviceDescriptor::simt_core(small_cfg()));
  auto a = dev.alloc<std::uint32_t>(kN);  // adjacent: a sits just below b
  auto b = dev.alloc<std::uint32_t>(kN);
  auto c = dev.alloc<std::uint32_t>(kN);
  const auto vecadd = dev.load_module(kernels::vecadd_abi()).kernel("vecadd");
  auto& stream = dev.stream();

  std::vector<std::uint32_t> ha(kN), hb(kN);
  std::iota(ha.begin(), ha.end(), 10u);
  std::iota(hb.begin(), hb.end(), 500u);
  std::vector<std::uint32_t> result(kN);

  // Capture writes the HIGHER range first, then the lower-adjacent one.
  // The destinations union into one gapless range, but a fused burst
  // keeps the earlier node's base, so fusing here would replay the
  // concatenated payload at b's base and corrupt both buffers. Fusion
  // is directional: this capture must stay two bursts.
  Graph graph;
  stream.begin_capture(graph);
  stream.copy_in(b, std::span<const std::uint32_t>(hb));
  stream.copy_in(a, std::span<const std::uint32_t>(ha));
  stream.launch(vecadd, kN, KernelArgs().arg(a).arg(b).arg(c));
  stream.copy_out(c, std::span<std::uint32_t>(result));
  stream.end_capture();

  auto exec = graph.instantiate();
  EXPECT_EQ(exec.copy_in_count(), 2u);
  EXPECT_EQ(exec.copy_in_bursts(), 2u);  // lower-adjacent: no fusion
  exec.launch(stream).wait();
  for (unsigned i = 0; i < kN; ++i) {
    ASSERT_EQ(result[i], ha[i] + hb[i]) << i;
  }

  // Rebinds still address each transfer independently.
  std::vector<std::uint32_t> na(kN, 7);
  exec.launch(stream, GraphUpdates().copy_in(1, na)).wait();
  for (unsigned i = 0; i < kN; ++i) {
    ASSERT_EQ(result[i], na[i] + hb[i]) << i;
  }
}

TEST(GraphDag, CorruptedForwardEdgeRejected) {
  Device dev(DeviceDescriptor::simt_core(small_cfg()));
  auto& stream = dev.stream();
  Graph graph;
  stream.begin_capture(graph);
  stream.record();
  stream.record();
  stream.end_capture();
  EXPECT_NO_THROW(graph.instantiate());
  // Plant 0 -> 1 on top of the captured 1 -> 0: a cycle.
  GraphTestPeer::add_dep(graph, 0, 1);
  EXPECT_THROW(graph.instantiate(), Error);
}

TEST(GraphDag, MidCaptureErrorLeavesCaptureUsable) {
  constexpr unsigned kN = 16;
  Device dev(DeviceDescriptor::simt_core(small_cfg()));
  auto in = dev.alloc<std::uint32_t>(kN);
  auto out = dev.alloc<std::uint32_t>(kN);
  const auto scale = dev.load_module(kernels::scale_abi()).kernel("scale");
  auto& stream = dev.stream();

  std::vector<std::uint32_t> host(kN, 3), result(kN);
  Graph graph;
  stream.begin_capture(graph);
  stream.copy_in(in, std::span<const std::uint32_t>(host));
  // Enqueue-time validation still fires during capture; the failed
  // launches record nothing and the capture stays open and usable.
  EXPECT_THROW(stream.launch(scale, kN, KernelArgs().arg(in)), Error);
  EXPECT_THROW(
      stream.launch(
          scale, 0, KernelArgs().arg(in).arg(out).scalar(2).scalar(0)),
      Error);
  EXPECT_TRUE(stream.capturing());
  stream.launch(scale, kN,
                KernelArgs().arg(in).arg(out).scalar(2).scalar(1));
  stream.copy_out(out, std::span<std::uint32_t>(result));
  stream.end_capture();
  EXPECT_EQ(graph.size(), 3u);

  graph.instantiate().launch(stream).wait();
  for (unsigned i = 0; i < kN; ++i) {
    ASSERT_EQ(result[i], 2u * 3u + 1u) << i;
  }
}

TEST(GraphDag, InstantiateAfterDeviceDestroyedThrows) {
  Graph graph;
  {
    auto dev = std::make_unique<Device>(
        DeviceDescriptor::simt_core(small_cfg()));
    auto in = dev->alloc<std::uint32_t>(16);
    std::vector<std::uint32_t> host(16, 1);
    auto& stream = dev->stream();
    stream.begin_capture(graph);
    stream.copy_in(in, std::span<const std::uint32_t>(host));
    stream.end_capture();
    EXPECT_NO_THROW(graph.instantiate());
  }
  try {
    graph.instantiate();
    FAIL() << "instantiate() against a destroyed device must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("destroyed"), std::string::npos)
        << e.what();
  }
}

TEST(GraphDag, InstantiateAfterMemResetThrows) {
  Device dev(DeviceDescriptor::simt_core(small_cfg()));
  auto in = dev.alloc<std::uint32_t>(16);
  std::vector<std::uint32_t> host(16, 1);
  auto& stream = dev.stream();
  Graph graph;
  stream.begin_capture(graph);
  stream.copy_in(in, std::span<const std::uint32_t>(host));
  stream.end_capture();
  EXPECT_NO_THROW(graph.instantiate());

  dev.mem_reset();
  try {
    graph.instantiate();
    FAIL() << "instantiate() across mem_reset() must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("mem_reset"), std::string::npos)
        << e.what();
  }
}

TEST(GraphDag, ConcurrentReplaySubmissionIsSafe) {
  // Two host threads replay ONE instantiated graph on separate streams,
  // each rebinding per replay -- the serving shape the TSan job runs.
  constexpr unsigned kN = 16;
  constexpr unsigned kIters = 24;
  Device dev(DeviceDescriptor::simt_core(small_cfg()));
  auto in = dev.alloc<std::uint32_t>(kN);
  auto out = dev.alloc<std::uint32_t>(kN);
  const auto scale = dev.load_module(kernels::scale_abi()).kernel("scale");
  auto& s0 = dev.stream();
  auto& s1 = dev.create_stream();

  std::vector<std::uint32_t> host(kN, 1), result(kN);
  Graph graph;
  s0.begin_capture(graph);
  s0.copy_in(in, std::span<const std::uint32_t>(host));
  s0.launch(scale, kN, KernelArgs().arg(in).arg(out).scalar(2).scalar(0));
  s0.copy_out(out, std::span<std::uint32_t>(result));
  s0.end_capture();
  auto exec = graph.instantiate();

  const auto before = dev.scheduler().timeline();
  std::thread t0([&] {
    for (unsigned i = 0; i < kIters; ++i) {
      exec.launch(s0, GraphUpdates().copy_in(
                          0, std::vector<std::uint32_t>(kN, i + 1)));
    }
  });
  std::thread t1([&] {
    for (unsigned i = 0; i < kIters; ++i) {
      exec.launch(s1, GraphUpdates().args(
                          0, KernelArgs().arg(in).arg(out)
                                 .scalar(2).scalar(i)));
    }
  });
  t0.join();
  t1.join();
  s0.synchronize();
  s1.synchronize();
  const auto after = dev.scheduler().timeline();
  EXPECT_EQ(after.graph_replays - before.graph_replays, 2u * kIters);
}

// ---- synchronous replay (GraphExec::run) ------------------------------------

/// The canonical single-lane serving pipeline, captured on the device's
/// default stream: copy-in -> scale(mul, add) -> copy-out.
struct ScalePipeline {
  Buffer<std::uint32_t> in;
  Buffer<std::uint32_t> out;
  std::vector<std::uint32_t> host;    ///< captured payload
  std::vector<std::uint32_t> result;  ///< frozen copy-out destination
  GraphExec exec;
};

std::unique_ptr<ScalePipeline> capture_scale(Device& dev, unsigned n,
                                             std::uint32_t mul,
                                             std::uint32_t add) {
  auto p = std::make_unique<ScalePipeline>();
  p->in = dev.alloc<std::uint32_t>(n);
  p->out = dev.alloc<std::uint32_t>(n);
  p->host.assign(n, 1);
  p->result.assign(n, 0);
  const auto scale = dev.load_module(kernels::scale_abi()).kernel("scale");
  auto& stream = dev.stream();
  Graph graph;
  stream.begin_capture(graph);
  stream.copy_in(p->in, std::span<const std::uint32_t>(p->host));
  stream.launch(scale, n,
                KernelArgs().arg(p->in).arg(p->out).scalar(mul).scalar(add));
  stream.copy_out(p->out, std::span<std::uint32_t>(p->result));
  stream.end_capture();
  p->exec = graph.instantiate();
  return p;
}

TEST(GraphRun, PricesExactlyLikeLaunch) {
  // Two identical devices see the same traffic: eager copies queued on
  // the default stream, each followed by a replay -- launched and then
  // waited on one device, run() on the other. Outputs, per-replay
  // modeled spans, and the whole modeled timeline must match exactly.
  constexpr unsigned kN = 16;
  constexpr unsigned kIters = 8;
  Device a(DeviceDescriptor::simt_core(small_cfg()));
  Device b(DeviceDescriptor::simt_core(small_cfg()));
  auto pa = capture_scale(a, kN, 3, 5);
  auto pb = capture_scale(b, kN, 3, 5);
  auto& sa = a.create_stream();
  auto& sb = b.create_stream();
  for (unsigned i = 0; i < kIters; ++i) {
    const std::vector<std::uint32_t> payload(kN, i + 1);
    a.stream().copy_in(pa->in, std::span<const std::uint32_t>(payload));
    b.stream().copy_in(pb->in, std::span<const std::uint32_t>(payload));
    const Event ea = pa->exec.launch(sa, GraphUpdates().copy_in(0, payload));
    ea.wait();
    const Event eb = pb->exec.run(sb, GraphUpdates().copy_in(0, payload));
    ASSERT_TRUE(eb.done()) << "run() returns a resolved event";
    EXPECT_EQ(pa->result, pb->result) << "replay " << i;
    EXPECT_EQ(pb->result[0], 3 * (i + 1) + 5);
    EXPECT_EQ(ea.wall_us(), eb.wall_us());
    EXPECT_EQ(ea.replay_serial_us(), eb.replay_serial_us());
    EXPECT_EQ(ea.replay_overlap_us(), eb.replay_overlap_us());
  }
  a.stream().synchronize();
  b.stream().synchronize();
  const auto ta = a.scheduler().timeline();
  const auto tb = b.scheduler().timeline();
  EXPECT_EQ(ta.serial_us, tb.serial_us);
  EXPECT_EQ(ta.overlap_us, tb.overlap_us);
  EXPECT_EQ(ta.dispatch_us, tb.dispatch_us);
  EXPECT_EQ(ta.copied_words, tb.copied_words);
  EXPECT_EQ(ta.exec_cycles, tb.exec_cycles);
  EXPECT_EQ(ta.commands, tb.commands);
  EXPECT_EQ(ta.graph_replays, tb.graph_replays);
}

TEST(GraphRun, OrdersBehindQueuedWork) {
  // A replay (launch -> copy-out, no copy-in of its own) run on one stream
  // while an eager copy-in into its input sits queued on another stream of
  // the same device: run() must execute the copy first, not overtake it.
  constexpr unsigned kN = 16;
  Device dev(DeviceDescriptor::simt_core(small_cfg()));
  auto in = dev.alloc<std::uint32_t>(kN);
  auto out = dev.alloc<std::uint32_t>(kN);
  const auto scale = dev.load_module(kernels::scale_abi()).kernel("scale");
  std::vector<std::uint32_t> result(kN, 0);
  Graph graph;
  dev.stream().begin_capture(graph);
  dev.stream().launch(scale, kN,
                      KernelArgs().arg(in).arg(out).scalar(2).scalar(0));
  dev.stream().copy_out(out, std::span<std::uint32_t>(result));
  dev.stream().end_capture();
  auto exec = graph.instantiate();
  auto& replay_stream = dev.create_stream();

  const std::vector<std::uint32_t> sevens(kN, 7);
  dev.stream().copy_in(in, std::span<const std::uint32_t>(sevens));
  EXPECT_EQ(dev.scheduler().retired(), 0u) << "the copy-in is queued";
  const Event replay = exec.run(replay_stream);
  EXPECT_TRUE(replay.done());
  EXPECT_EQ(dev.scheduler().retired(), 2u);
  for (unsigned i = 0; i < kN; ++i) {
    EXPECT_EQ(result[i], 14u) << "word " << i;
  }
  EXPECT_EQ(replay_stream.pending(), 0u);
  EXPECT_EQ(dev.stream().pending(), 0u);
}

TEST(GraphRun, FaultLandsOnTheEventAndTheStream) {
  // A Replay-site fault never throws out of run(): like launch(), it fails
  // the returned event and parks on the stream's sticky error slot.
  constexpr unsigned kN = 8;
  DeviceDescriptor desc = DeviceDescriptor::simt_core(small_cfg());
  desc.faults =
      faults::FaultInjector::from_spec("replay:transient:limit=1", 7);
  Device dev(std::move(desc));
  auto p = capture_scale(dev, kN, 2, 1);
  auto& stream = dev.create_stream();

  Event first;
  EXPECT_NO_THROW(first = p->exec.run(stream));
  EXPECT_TRUE(first.failed());
  EXPECT_THROW(first.wait(), faults::TransientFault);
  EXPECT_THROW(stream.synchronize(), faults::TransientFault);

  const Event second = p->exec.run(stream);
  EXPECT_TRUE(second.done());
  EXPECT_NO_THROW(stream.synchronize());
  for (unsigned i = 0; i < kN; ++i) {
    EXPECT_EQ(p->result[i], 3u);
  }
  EXPECT_EQ(dev.fault_injector()->triggers(faults::FaultSite::Replay), 2u);
}

TEST(GraphRun, InterleavesSafelyWithLaunchedReplays) {
  // One host thread runs replays while another only launches them, both
  // on one device: the running thread also executes the launched replays
  // queued ahead of its own -- the TSan job's view of the serving worker
  // sharing a device with eager traffic.
  constexpr unsigned kN = 16;
  constexpr unsigned kIters = 48;
  Device dev(DeviceDescriptor::simt_core(small_cfg()));
  auto p = capture_scale(dev, kN, 2, 0);
  auto& s0 = dev.create_stream();
  auto& s1 = dev.create_stream();
  const auto before = dev.scheduler().timeline();
  std::thread launcher([&] {
    for (unsigned i = 0; i < kIters; ++i) {
      p->exec.launch(s0, GraphUpdates().copy_in(
                             0, std::vector<std::uint32_t>(kN, i + 1)));
    }
  });
  std::thread runner([&] {
    for (unsigned i = 0; i < kIters; ++i) {
      p->exec.run(s1, GraphUpdates().copy_in(
                          0, std::vector<std::uint32_t>(kN, i + 1)))
          .wait();
    }
  });
  launcher.join();
  runner.join();
  s0.synchronize();
  s1.synchronize();
  const auto after = dev.scheduler().timeline();
  EXPECT_EQ(after.graph_replays - before.graph_replays, 2u * kIters);
  EXPECT_EQ(after.commands - before.commands, 2u * kIters);
}

TEST(StreamTickets, LiveTicketsStayBoundedWithoutSynchronize) {
  // A serving stream replays forever and never synchronizes: its ticket
  // bookkeeping must not grow with the number of requests served.
  constexpr unsigned kReplays = 10000;
  Device dev(DeviceDescriptor::simt_core(small_cfg()));
  auto p = capture_scale(dev, 16, 2, 0);
  auto& stream = dev.create_stream();
  std::size_t most = 0;
  for (unsigned i = 0; i < kReplays; ++i) {
    p->exec.launch(stream).wait();
    most = std::max(most, StreamTestPeer::live_tickets(stream));
  }
  EXPECT_LE(most, 1u) << "after " << kReplays << " completed replays";
  EXPECT_EQ(p->result[0], 2u);
}

// ---- buffer use-after-reset hardening ---------------------------------------

TEST(BufferGeneration, UseAfterResetThrows) {
  Device dev(DeviceDescriptor::simt_core(small_cfg()));
  auto buf = dev.alloc<std::uint32_t>(16);
  std::vector<std::uint32_t> host(16, 5);
  buf.write(host);
  EXPECT_EQ(buf.at(0), 5u);

  dev.mem_reset();
  EXPECT_EQ(dev.allocation_generation(), 1u);
  // The stale handle would now alias whatever the arena hands out next;
  // every access path throws instead.
  EXPECT_THROW(buf.write(host), Error);
  EXPECT_THROW(buf.read(), Error);
  EXPECT_THROW(buf.at(0), Error);
  EXPECT_THROW(
      dev.stream().copy_in(buf, std::span<const std::uint32_t>(host)),
      Error);
  std::vector<std::uint32_t> out(16);
  EXPECT_THROW(dev.stream().copy_out(buf, std::span<std::uint32_t>(out)),
               Error);

  // Binding the stale handle into an argument set throws too.
  EXPECT_THROW(KernelArgs().arg(buf), Error);

  // A fresh handle from the new generation works.
  auto fresh = dev.alloc<std::uint32_t>(16);
  fresh.write(host);
  EXPECT_EQ(fresh.at(3), 5u);
}

TEST(BufferGeneration, FrozenGraphReplayAfterResetThrows) {
  // A graph holds buffer bases frozen in its launch plans; replaying it
  // after mem_reset() must fault instead of aliasing the new arena.
  constexpr unsigned kN = 16;
  Device dev(DeviceDescriptor::simt_core(small_cfg()));
  auto in = dev.alloc<std::uint32_t>(kN);
  auto out = dev.alloc<std::uint32_t>(kN);
  const auto scale = dev.load_module(kernels::scale_abi()).kernel("scale");
  auto& stream = dev.stream();

  std::vector<std::uint32_t> host(kN, 2), result(kN);
  Graph graph;
  stream.begin_capture(graph);
  stream.copy_in(in, std::span<const std::uint32_t>(host));
  stream.launch(scale, kN,
                KernelArgs().arg(in).arg(out).scalar(3).scalar(0));
  stream.copy_out(out, std::span<std::uint32_t>(result));
  stream.end_capture();
  auto exec = graph.instantiate();
  exec.launch(stream).wait();
  EXPECT_EQ(result[0], 6u);

  dev.mem_reset();
  dev.alloc<std::uint32_t>(2 * kN);  // someone else owns the words now
  Event stale_replay = exec.launch(stream);
  EXPECT_THROW(stale_replay.wait(), Error);  // execute_plan refused
  EXPECT_THROW(stream.synchronize(), Error);  // sticky stream error too
  // The faulted replay surfaces on its non-blocking handles as well: it
  // has resolved, reads failed() and never done(), and rethrow_if_failed()
  // throws the fault instead of waiting.
  EXPECT_TRUE(stale_replay.resolved());
  EXPECT_TRUE(stale_replay.failed());
  EXPECT_FALSE(stale_replay.done());
  EXPECT_THROW(stale_replay.rethrow_if_failed(), Error);
}

}  // namespace
}  // namespace simt::runtime
