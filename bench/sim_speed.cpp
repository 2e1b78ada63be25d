// Host simulation speed: how fast the simulator itself runs, in simulated
// instructions (and lane operations) per host second.
//
// Every runtime layer built in PRs 1-4 ultimately bottoms out in the
// interpreter loops, so host MIPS -- not the modeled 950 MHz -- caps how
// much traffic this reproduction can serve. This bench runs the FIR +
// scale + reduce serving mix through the unified runtime on all three
// backends and, on the cycle-accurate engines, under both engines:
//
//   fast:         the predecoded functional path with the SIMD-batched lane
//                 engine;
//   bit-accurate: the structural Mul33/shifter/LogicUnit datapaths.
//
// Results must be bit-identical across engines and backends. Acceptance:
// the fast path must deliver >= 3x the bit-accurate host throughput on the
// 4-core serving mix. The bench exits nonzero on any failure and emits
// BENCH_sim_speed.json so CI accumulates a perf trajectory, including a
// per-opcode-class lane-Mops breakdown and the measured staging wall time.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/bench_json.hpp"
#include "common/table.hpp"
#include "kernels/kernels.hpp"
#include "runtime/buffer.hpp"
#include "runtime/device.hpp"
#include "runtime/stream.hpp"

namespace {

using namespace simt;

constexpr unsigned kSamples = 2048;
constexpr unsigned kTaps = 8;
constexpr unsigned kQ = 4;
constexpr unsigned kMul = 3;
constexpr unsigned kChunk = 4;
constexpr unsigned kPartials = kSamples / kChunk;
constexpr double kThreshold = 3.0;

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
    const auto y = static_cast<std::uint32_t>(acc >> kQ);
    partials[t / kChunk] += kMul * y + iter;
  }
  return partials;
}

struct MixResult {
  double wall_s = 0.0;
  std::uint64_t instructions = 0;  ///< sequencer-level dynamic instructions
  std::uint64_t thread_ops = 0;    ///< per-lane operations evaluated
  // Per-opcode-class lane work (Operation / Load / Store issue classes;
  // Single-class instructions issue no lanes).
  std::uint64_t op_thread_ops = 0;
  std::uint64_t ld_thread_ops = 0;
  std::uint64_t st_thread_ops = 0;
  double stage_wall_s = 0.0;  ///< measured host staging wall, all launches
  std::vector<std::uint32_t> partials;  ///< final-iteration output

  double mips() const { return instructions / wall_s / 1e6; }
  double lane_mops() const { return thread_ops / wall_s / 1e6; }
  double class_mops(std::uint64_t ops) const { return ops / wall_s / 1e6; }
};

/// Run `iters` iterations of the serving mix and time the host.
MixResult run_mix(const runtime::DeviceDescriptor& desc, unsigned iters) {
  runtime::Device dev(desc);
  auto x = dev.alloc<std::uint32_t>(kSamples + kTaps);
  auto coef = dev.alloc<std::uint32_t>(kTaps);
  auto y = dev.alloc<std::uint32_t>(kSamples);
  auto z = dev.alloc<std::uint32_t>(kSamples);
  auto partials = dev.alloc<std::uint32_t>(kPartials);

  auto fir = dev.load_module(kernels::fir_abi(kTaps, kQ)).kernel("fir");
  auto scale = dev.load_module(kernels::scale_abi()).kernel("scale");
  auto reduce = dev.load_module(kernels::reduce_abi(kChunk)).kernel("reduce");

  std::vector<std::uint32_t> c(kTaps);
  for (unsigned k = 0; k < kTaps; ++k) {
    c[k] = k + 1;
  }
  coef.write(c);

  MixResult res;
  res.partials.resize(kPartials);
  // Warm-up iteration: module assembly, decode-cache fill, staging maps.
  x.write(signal(0));
  dev.launch_sync(fir, kSamples,
                  runtime::KernelArgs().arg(x).arg(coef).arg(y));

  const auto t0 = std::chrono::steady_clock::now();
  for (unsigned iter = 0; iter < iters; ++iter) {
    const auto xin = signal(iter);
    x.write(xin);
    const auto s1 = dev.launch_sync(
        fir, kSamples, runtime::KernelArgs().arg(x).arg(coef).arg(y));
    const auto s2 = dev.launch_sync(
        scale, kSamples,
        runtime::KernelArgs().arg(y).arg(z).scalar(kMul).scalar(iter));
    const auto s3 = dev.launch_sync(
        reduce, kPartials, runtime::KernelArgs().arg(z).arg(partials));
    for (const auto* s : {&s1, &s2, &s3}) {
      res.instructions += s->perf.instructions;
      res.thread_ops += s->perf.thread_ops;
      res.op_thread_ops += s->perf.operation_thread_ops;
      res.ld_thread_ops += s->perf.load_thread_ops;
      res.st_thread_ops += s->perf.store_thread_ops;
      res.stage_wall_s += s->host_stage_us * 1e-6;
    }
    partials.read_into(res.partials);
    const auto want = golden(xin, c, iter);
    for (unsigned i = 0; i < kPartials; ++i) {
      if (res.partials[i] != want[i]) {
        std::printf("MISMATCH on %s/%s iter %u partial %u: %u != %u\n",
                    std::string(dev.backend_name()).c_str(),
                    std::string(dev.engine_name()).c_str(), iter, i,
                    res.partials[i], want[i]);
        std::exit(1);
      }
    }
  }
  res.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  unsigned iters = 48;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--quick")) {
      iters = 8;
    }
  }
  std::printf("== Host simulation speed: %u-iteration FIR + scale + reduce "
              "serving mix ==\n\n", iters);

  core::CoreConfig cfg;
  cfg.max_threads = 256;
  cfg.shared_mem_words = 8192;

  struct Row {
    const char* backend;
    const char* engine;
    runtime::DeviceDescriptor desc;
    MixResult r;
  };
  std::vector<Row> rows;
  {
    auto fast = cfg;
    fast.bit_accurate = false;
    auto acc = cfg;
    acc.bit_accurate = true;
    rows.push_back({"core", "fast",
                    runtime::DeviceDescriptor::simt_core(fast), {}});
    rows.push_back({"core", "bit-accurate",
                    runtime::DeviceDescriptor::simt_core(acc), {}});
    rows.push_back({"multicore4", "fast",
                    runtime::DeviceDescriptor::multi_core(4, fast), {}});
    rows.push_back({"multicore4", "bit-accurate",
                    runtime::DeviceDescriptor::multi_core(4, acc), {}});
    baseline::ScalarCpuConfig scfg;
    scfg.shared_mem_words = 8192;
    rows.push_back({"scalar", "fast",
                    runtime::DeviceDescriptor::scalar_cpu(scfg), {}});
  }
  for (auto& row : rows) {
    row.r = run_mix(row.desc, iters);
  }

  Table t({"Backend", "engine", "host ms", "instrs", "host MIPS",
           "lane Mops/s"});
  for (const auto& row : rows) {
    t.add_row({row.backend, row.engine,
               std::to_string(row.r.wall_s * 1e3).substr(0, 7),
               fmt_int(static_cast<long long>(row.r.instructions)),
               std::to_string(row.r.mips()).substr(0, 7),
               std::to_string(row.r.lane_mops()).substr(0, 7)});
  }
  t.print();

  // Bit-identical across every backend/engine combination (they all ran
  // the same final iteration).
  for (const auto& row : rows) {
    for (unsigned i = 0; i < kPartials; ++i) {
      if (row.r.partials[i] != rows[0].r.partials[i]) {
        std::printf("\nFAIL: %s/%s diverges from %s/%s at partial %u\n",
                    row.backend, row.engine, rows[0].backend,
                    rows[0].engine, i);
        return 1;
      }
    }
  }

  const auto find_row = [&](const char* backend,
                            const char* engine) -> const MixResult& {
    for (const auto& row : rows) {
      if (!std::strcmp(row.backend, backend) &&
          !std::strcmp(row.engine, engine)) {
        return row.r;
      }
    }
    std::printf("FAIL: missing row %s/%s\n", backend, engine);
    std::exit(1);
  };
  const MixResult& mc_fast = find_row("multicore4", "fast");
  const MixResult& mc_acc = find_row("multicore4", "bit-accurate");
  const double speedup = mc_acc.wall_s / mc_fast.wall_s;
  std::printf("\nhost speedup, fast vs bit-accurate on the 4-core mix: "
              "%.2fx (threshold %.2fx), bit-identical buffers\n",
              speedup, kThreshold);
  std::printf("lane Mops/s by opcode class (multicore4 fast): "
              "op %.1f, load %.1f, store %.1f\n",
              mc_fast.class_mops(mc_fast.op_thread_ops),
              mc_fast.class_mops(mc_fast.ld_thread_ops),
              mc_fast.class_mops(mc_fast.st_thread_ops));
  std::printf("measured staging wall (multicore4 fast): %.3f ms of %.3f ms "
              "total\n", mc_fast.stage_wall_s * 1e3, mc_fast.wall_s * 1e3);

  BenchReport report("sim_speed");
  report.note("mix", "fir8 + scale + reduce, " +
                         std::to_string(kSamples) + " samples, " +
                         std::to_string(iters) + " iterations");
  for (const auto& row : rows) {
    const std::string key = std::string(row.backend) + "_" +
                            (!std::strcmp(row.engine, "fast") ? "fast"
                                                               : "bitacc");
    report.metric(key + "_wall_s", row.r.wall_s);
    report.metric(key + "_instructions", row.r.instructions);
    report.metric(key + "_thread_ops", row.r.thread_ops);
    report.metric(key + "_mips", row.r.mips());
    report.metric(key + "_lane_mops", row.r.lane_mops());
  }
  // Per-opcode-class lane throughput and the measured staging wall for the
  // default engine (the *_wall_s suffix keeps the host-timed staging figure
  // out of the exact-compare perf gate).
  report.metric("multicore4_fast_op_lane_mops",
                mc_fast.class_mops(mc_fast.op_thread_ops));
  report.metric("multicore4_fast_ld_lane_mops",
                mc_fast.class_mops(mc_fast.ld_thread_ops));
  report.metric("multicore4_fast_st_lane_mops",
                mc_fast.class_mops(mc_fast.st_thread_ops));
  report.metric("multicore4_fast_op_thread_ops", mc_fast.op_thread_ops);
  report.metric("multicore4_fast_ld_thread_ops", mc_fast.ld_thread_ops);
  report.metric("multicore4_fast_st_thread_ops", mc_fast.st_thread_ops);
  report.metric("multicore4_fast_stage_wall_s", mc_fast.stage_wall_s);
  report.metric("fast_vs_bitacc_speedup_multicore4", speedup);
  report.metric("threshold", kThreshold);
  if (!report.write()) {
    return 1;
  }

  if (speedup < kThreshold) {
    std::puts("FAIL: fast-path host speedup below threshold");
    return 1;
  }
  std::puts("PASS");
  return 0;
}
