// Execution-graph replay: modeled host-dispatch overhead of a serving loop.
//
// The eGPU papers' serving regime -- many iterations of a short fixed
// pipeline -- pays the host dispatch path (enqueue, validate, bind, patch
// plan, footprint intersection) per command per iteration, even though
// every iteration is the same pipeline with different numbers in it. This
// bench runs N iterations of FIR + scale + reduce on a 4-core device two
// ways:
//
//   eager: every iteration re-submits copy-in, three launches, and a
//          copy-out through the stream (the PR-2/PR-3 path);
//   graph: the pipeline is captured once, instantiated once (validation +
//          patch plans + footprints frozen), and each iteration is ONE
//          GraphExec::launch with the copy-in payload and the scale
//          kernel's scalar rebound.
//
// Results must be bit-identical. Acceptance: the graph path must model
// >= 1.5x lower host/dispatch overhead (TimelineStats::dispatch_us) than
// eager re-submission. The bench exits nonzero on either failure so CI
// runs it as a smoke test (--quick shrinks the iteration count).
//
// A third section exercises the DAG capture path: TWO request lanes of the
// same pipeline, captured once linearized (one stream) and once as a
// two-stream DAG. Both replay as one submit each with bit-identical
// outputs, but the DAG replay prices the lanes' copies on independent
// modeled DMA channels, so its overlapped span must undercut the
// linearized replay's by >= 1.3x (dag_overlap_ratio). Each lane's
// signal + coefficient copy-ins land in adjacent buffer ranges and fuse
// into one DMA burst at instantiate() time (fused_dma_ops).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/bench_json.hpp"
#include "common/table.hpp"
#include "kernels/kernels.hpp"
#include "runtime/buffer.hpp"
#include "runtime/device.hpp"
#include "runtime/graph.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/stream.hpp"

namespace {

using namespace simt;

constexpr unsigned kSamples = 512;
constexpr unsigned kTaps = 8;
constexpr unsigned kQ = 4;
constexpr unsigned kMul = 3;
constexpr unsigned kChunk = 4;  // reduce partial-sum chunk per thread
constexpr unsigned kPartials = kSamples / kChunk;

runtime::DeviceDescriptor device_desc() {
  core::CoreConfig cfg;
  cfg.max_threads = 256;
  cfg.shared_mem_words = 4096;
  return runtime::DeviceDescriptor::multi_core(4, cfg);
}

std::vector<std::uint32_t> signal(unsigned iter) {
  std::vector<std::uint32_t> x(kSamples + kTaps);
  for (unsigned i = 0; i < x.size(); ++i) {
    x[i] = (iter * 131 + i * 37) % 251;
  }
  return x;
}

std::vector<std::uint32_t> golden(const std::vector<std::uint32_t>& x,
                                  const std::vector<std::uint32_t>& coef,
                                  unsigned iter) {
  std::vector<std::uint32_t> partials(kPartials, 0);
  for (unsigned t = 0; t < kSamples; ++t) {
    std::uint64_t acc = 0;
    for (unsigned k = 0; k < kTaps; ++k) {
      acc += static_cast<std::uint64_t>(coef[k]) * x[t + k];
    }
    const std::uint32_t y = static_cast<std::uint32_t>(acc >> kQ);
    partials[t / kChunk] += kMul * y + iter;
  }
  return partials;
}

/// The serving pipeline's per-iteration state on one device.
struct Pipeline {
  runtime::Device dev{device_desc()};
  runtime::Buffer<std::uint32_t> x = dev.alloc<std::uint32_t>(kSamples +
                                                              kTaps);
  runtime::Buffer<std::uint32_t> coef = dev.alloc<std::uint32_t>(kTaps);
  runtime::Buffer<std::uint32_t> y = dev.alloc<std::uint32_t>(kSamples);
  runtime::Buffer<std::uint32_t> z = dev.alloc<std::uint32_t>(kSamples);
  runtime::Buffer<std::uint32_t> partials =
      dev.alloc<std::uint32_t>(kPartials);
  runtime::Kernel fir;
  runtime::Kernel scale;
  runtime::Kernel reduce;

  Pipeline() {
    fir = dev.load_module(kernels::fir_abi(kTaps, kQ)).kernel("fir");
    scale = dev.load_module(kernels::scale_abi()).kernel("scale");
    reduce = dev.load_module(kernels::reduce_abi(kChunk)).kernel("reduce");
    std::vector<std::uint32_t> c(kTaps);
    for (unsigned k = 0; k < kTaps; ++k) {
      c[k] = k + 1;
    }
    dev.stream().copy_in(coef, std::span<const std::uint32_t>(c));
    dev.stream().synchronize();
  }

  runtime::KernelArgs fir_args() {
    return runtime::KernelArgs().arg(x).arg(coef).arg(y);
  }
  runtime::KernelArgs scale_args(unsigned iter) {
    return runtime::KernelArgs().arg(y).arg(z).scalar(kMul).scalar(iter);
  }
  runtime::KernelArgs reduce_args() {
    return runtime::KernelArgs().arg(z).arg(partials);
  }
};

bool check(const std::vector<std::uint32_t>& got,
           const std::vector<std::uint32_t>& want, unsigned iter,
           const char* path) {
  for (unsigned i = 0; i < kPartials; ++i) {
    if (got[i] != want[i]) {
      std::printf("MISMATCH (%s) iter %u partial %u: %u != %u\n", path, iter,
                  i, got[i], want[i]);
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  unsigned iters = 32;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--quick")) {
      iters = 8;
    }
  }

  std::printf("== Graph replay: %u-iteration FIR + scale + reduce serving "
              "loop, 4 cores ==\n\n", iters);

  std::vector<std::uint32_t> coef(kTaps);
  for (unsigned k = 0; k < kTaps; ++k) {
    coef[k] = k + 1;
  }

  // ---- eager path: re-submit the pipeline every iteration -----------------
  Pipeline eager;
  double eager_dispatch = 0.0;
  {
    auto& stream = eager.dev.stream();
    const double setup = eager.dev.scheduler().timeline().dispatch_us;
    std::vector<std::uint32_t> out(kPartials);
    for (unsigned iter = 0; iter < iters; ++iter) {
      const auto x = signal(iter);
      stream.copy_in(eager.x, std::span<const std::uint32_t>(x));
      stream.launch(eager.fir, kSamples, eager.fir_args());
      stream.launch(eager.scale, kSamples, eager.scale_args(iter));
      stream.launch(eager.reduce, kPartials, eager.reduce_args());
      stream.copy_out(eager.partials, std::span<std::uint32_t>(out));
      stream.synchronize();
      if (!check(out, golden(x, coef, iter), iter, "eager")) {
        return 1;
      }
    }
    eager_dispatch = eager.dev.scheduler().timeline().dispatch_us - setup;
  }

  // ---- graph path: capture once, replay with rebinding ---------------------
  Pipeline graphed;
  double graph_dispatch = 0.0;
  runtime::TimelineStats graph_timeline;
  {
    auto& stream = graphed.dev.stream();
    runtime::Graph graph;
    std::vector<std::uint32_t> out(kPartials);
    // Capture the pipeline by running its ordinary stream code once; the
    // placeholder payload and iteration scalar are rebound per replay.
    stream.begin_capture(graph);
    stream.copy_in(graphed.x, std::span<const std::uint32_t>(signal(0)));
    stream.launch(graphed.fir, kSamples, graphed.fir_args());
    stream.launch(graphed.scale, kSamples, graphed.scale_args(0));
    stream.launch(graphed.reduce, kPartials, graphed.reduce_args());
    stream.copy_out(graphed.partials, std::span<std::uint32_t>(out));
    stream.end_capture();
    auto exec = graph.instantiate();  // validate + plan exactly once

    const double setup = graphed.dev.scheduler().timeline().dispatch_us;
    for (unsigned iter = 0; iter < iters; ++iter) {
      const auto x = signal(iter);
      auto replay = exec.launch(
          stream, runtime::GraphUpdates()
                      .copy_in(0, x)
                      .args(1, graphed.scale_args(iter)));
      replay.wait();
      if (!check(out, golden(x, coef, iter), iter, "graph")) {
        return 1;
      }
    }
    stream.synchronize();
    graph_timeline = graphed.dev.scheduler().timeline();
    graph_dispatch = graph_timeline.dispatch_us - setup;
  }

  // ---- DAG path: two request lanes, linearized vs cross-stream capture -----
  // A narrower modeled host bridge (an eighth of a word per cycle -- a
  // 4-bit serial bridge at the core clock) makes the serving pipeline
  // copy-bound, the regime the DAG overlap targets: each lane's DMA hides
  // behind the other lane's compute.
  runtime::DeviceDescriptor dag_desc = device_desc();
  dag_desc.staging_words_per_cycle = 0.125;
  runtime::Device dag_dev(dag_desc);
  const auto dag_fir =
      dag_dev.load_module(kernels::fir_abi(kTaps, kQ)).kernel("fir");
  const auto dag_scale =
      dag_dev.load_module(kernels::scale_abi()).kernel("scale");
  const auto dag_reduce =
      dag_dev.load_module(kernels::reduce_abi(kChunk)).kernel("reduce");
  struct DagLane {
    runtime::Buffer<std::uint32_t> x, coef, y, z, partials;
    std::vector<std::uint32_t> out;
  };
  const auto make_lane = [&] {
    DagLane l;
    // x then coef: the bump allocator makes the ranges exactly adjacent,
    // so the lane's two captured copy-ins fuse into one DMA burst.
    l.x = dag_dev.alloc<std::uint32_t>(kSamples + kTaps);
    l.coef = dag_dev.alloc<std::uint32_t>(kTaps);
    l.y = dag_dev.alloc<std::uint32_t>(kSamples);
    l.z = dag_dev.alloc<std::uint32_t>(kSamples);
    l.partials = dag_dev.alloc<std::uint32_t>(kPartials);
    l.out.assign(kPartials, 0);
    return l;
  };
  DagLane lane_a = make_lane();
  DagLane lane_b = make_lane();
  const auto record_lane = [&](runtime::Stream& s, DagLane& l) {
    const auto x0 = signal(0);
    s.copy_in(l.x, std::span<const std::uint32_t>(x0));
    s.copy_in(l.coef, std::span<const std::uint32_t>(coef));
    s.launch(dag_fir, kSamples,
             runtime::KernelArgs().arg(l.x).arg(l.coef).arg(l.y));
    s.launch(dag_scale, kSamples,
             runtime::KernelArgs().arg(l.y).arg(l.z).scalar(kMul).scalar(0));
    s.launch(dag_reduce, kPartials,
             runtime::KernelArgs().arg(l.z).arg(l.partials));
    s.copy_out(l.partials, std::span<std::uint32_t>(l.out));
  };

  auto& dag_s0 = dag_dev.stream();
  auto& dag_s1 = dag_dev.create_stream();

  runtime::Graph linear_graph;
  dag_s0.begin_capture(linear_graph);
  record_lane(dag_s0, lane_a);
  record_lane(dag_s0, lane_b);
  dag_s0.end_capture();
  auto linear_exec = linear_graph.instantiate();

  runtime::Graph dag_graph;
  dag_s0.begin_capture(dag_graph);
  dag_s1.begin_capture(dag_graph);  // joins: lane_b records on its own lane
  record_lane(dag_s0, lane_a);
  record_lane(dag_s1, lane_b);
  dag_s1.end_capture();
  dag_s0.end_capture();
  auto dag_exec = dag_graph.instantiate();

  const std::uint64_t captured_copy_ins = dag_graph.copy_in_count();
  const std::uint64_t fused_dma_ops = dag_exec.copy_in_bursts();

  double linear_overlap = 0.0, dag_overlap = 0.0, dag_serial = 0.0;
  for (unsigned iter = 0; iter < iters; ++iter) {
    const auto xa = signal(iter);
    const auto xb = signal(iter + 7);
    const auto rebinds = [&] {
      return runtime::GraphUpdates()
          .copy_in(0, xa)  // lane A signal (fused with its coef burst)
          .copy_in(2, xb)  // lane B signal
          .args(1, runtime::KernelArgs()
                       .arg(lane_a.y).arg(lane_a.z)
                       .scalar(kMul).scalar(iter))
          .args(4, runtime::KernelArgs()
                       .arg(lane_b.y).arg(lane_b.z)
                       .scalar(kMul).scalar(iter));
    };
    auto lr = linear_exec.launch(dag_s0, rebinds());
    lr.wait();
    if (!check(lane_a.out, golden(xa, coef, iter), iter, "linear laneA") ||
        !check(lane_b.out, golden(xb, coef, iter), iter, "linear laneB")) {
      return 1;
    }
    linear_overlap += lr.replay_overlap_us();
    auto dr = dag_exec.launch(dag_s0, rebinds());
    dr.wait();
    if (!check(lane_a.out, golden(xa, coef, iter), iter, "dag laneA") ||
        !check(lane_b.out, golden(xb, coef, iter), iter, "dag laneB")) {
      return 1;
    }
    dag_overlap += dr.replay_overlap_us();
    dag_serial += dr.replay_serial_us();
  }
  const double dag_overlap_ratio = linear_overlap / dag_overlap;

  Table t({"Path", "dispatch us", "us/iter", "overhead vs graph"});
  const auto row = [&](const char* name, double us) {
    t.add_row({name, std::to_string(us).substr(0, 8),
               std::to_string(us / iters).substr(0, 6),
               fmt_ratio(us / graph_dispatch)});
  };
  row("eager re-submission", eager_dispatch);
  row("graph replay", graph_dispatch);
  t.print();

  std::printf("\n%u replays as %u scheduler commands "
              "(eager: %u commands/iter)\n",
              iters, graph_timeline.graph_replays, 5u);

  const double ratio = eager_dispatch / graph_dispatch;
  std::printf("\nmodeled host/dispatch overhead: eager / graph = %.2fx "
              "(threshold 1.50x)\n", ratio);
  std::printf("two-lane replay span: linearized %.2f us, DAG %.2f us "
              "(serialized pricing %.2f us) -> overlap ratio %.2fx "
              "(threshold 1.30x)\n",
              linear_overlap / iters, dag_overlap / iters,
              dag_serial / iters, dag_overlap_ratio);
  std::printf("staging fusion: %llu captured copy-ins replay as %llu DMA "
              "bursts\n",
              static_cast<unsigned long long>(captured_copy_ins),
              static_cast<unsigned long long>(fused_dma_ops));
  if (!BenchReport("graph_replay")
           .metric("iters", iters)
           .metric("eager_dispatch_us", eager_dispatch)
           .metric("graph_dispatch_us", graph_dispatch)
           .metric("dispatch_overhead_ratio", ratio)
           .metric("graph_replays", graph_timeline.graph_replays)
           .metric("threshold", 1.5)
           .metric("dag_overlap_ratio", dag_overlap_ratio)
           .metric("dag_linear_us_per_iter", linear_overlap / iters)
           .metric("dag_overlap_us_per_iter", dag_overlap / iters)
           .metric("captured_copy_ins", captured_copy_ins)
           .metric("fused_dma_ops", fused_dma_ops)
           .metric("dag_threshold", 1.3)
           .write()) {
    return 1;
  }
  if (graph_timeline.graph_replays != iters) {
    std::puts("FAIL: every iteration must replay as one scheduler command");
    return 1;
  }
  if (ratio < 1.5) {
    std::puts("FAIL: graph replay overhead reduction below threshold");
    return 1;
  }
  if (dag_overlap_ratio < 1.3) {
    std::puts("FAIL: DAG replay overlap gain below threshold");
    return 1;
  }
  if (fused_dma_ops >= captured_copy_ins) {
    std::puts("FAIL: staging fusion merged no copy-in bursts");
    return 1;
  }
  std::puts("PASS");
  return 0;
}
