// The kernels workload: large seeded kernels launched eagerly on one
// 1024-thread simt_core device, Stream::launch -> Event::wait per op.
//
//   fir     fir_abi(32, 4) over 1024 threads: uniform guards, ALU and load
//           heavy (~400 us of host time per launch).
//   gate    the benchmark-local guarded kernel: a data-dependent setp/@p
//           guard whose passing-lane share the seed sets, so the batched
//           and the divergent scalar lane paths both run.
//   saxpy   saxpy_abi(8) over 1024 threads: memory heavy and short.
//
// Core functional execution and the timing model dominate; the cluster and
// multicore layers are bypassed. The traced run adds the core rung: the
// same bound images, thread counts and inputs run directly on a Gpgpu.
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "common/rng.hpp"
#include "kernels/kernels.hpp"
#include "runtime/buffer.hpp"
#include "runtime/device.hpp"
#include "runtime/stream.hpp"
#include "workloads.hpp"

namespace bench {

namespace {

using simt::Xoshiro256;
namespace runtime = simt::runtime;

constexpr unsigned kThreads = 1024;
constexpr unsigned kTaps = 32;
constexpr unsigned kFirQ = 4;
constexpr unsigned kSaxpyQ = 8;
constexpr unsigned kVariants = 2;  ///< input sets per kernel
constexpr unsigned kPerKind = 64;  ///< deck: launches per kernel
constexpr unsigned kKinds = 3;

const char* const kKernelName[kKinds] = {"fir", "gate", "saxpy"};

simt::core::CoreConfig core_cfg() {
  simt::core::CoreConfig cfg;
  cfg.max_threads = kThreads;
  cfg.shared_mem_words = 16384;
  return cfg;
}

/// One input set of one kernel.
struct Variant {
  std::vector<Words> inputs;  ///< positional buffer inputs
  Words golden;
};

struct Inputs {
  std::string sources[kKinds];
  Words coef;
  std::uint32_t threshold = 0;
  std::uint32_t alpha = 0;
  double pass_share = 0.0;
  Variant variants[kKinds][kVariants];
  std::vector<unsigned> deck;  ///< kind per op
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ULL + 2);
  in.sources[0] = simt::kernels::fir_abi(kTaps, kFirQ);
  in.sources[1] = gate_source();
  in.sources[2] = simt::kernels::saxpy_abi(kSaxpyQ);
  for (unsigned k = 0; k < kTaps; ++k) {
    in.coef.push_back(static_cast<std::uint32_t>(rng.next_in(-64, 64)));
  }
  // The seed sets the passing share within [0.4, 0.6]: every seed keeps
  // the guard divergent and the guarded path busy, and the host cost of
  // the scalar lane loop (which grows with the share) stays comparable.
  in.pass_share = 0.4 + 0.2 * rng.next_double();
  in.threshold = static_cast<std::uint32_t>(in.pass_share * 65536.0);
  in.alpha = static_cast<std::uint32_t>(rng.next_in(1, 16383));
  const auto words = [&rng](std::size_t n, std::int64_t lo, std::int64_t hi) {
    Words w(n);
    for (auto& x : w) {
      x = static_cast<std::uint32_t>(rng.next_in(lo, hi));
    }
    return w;
  };
  for (unsigned v = 0; v < kVariants; ++v) {
    auto& fir = in.variants[0][v];
    fir.inputs = {words(kThreads + kTaps, -2048, 2047)};
    fir.golden = golden_fir(fir.inputs[0], in.coef, kThreads, kFirQ);
    auto& gate = in.variants[1][v];
    gate.inputs = {words(kThreads, 0, 65535)};
    gate.golden = golden_gate(gate.inputs[0], in.threshold);
    auto& saxpy = in.variants[2][v];
    saxpy.inputs = {words(kThreads, 0, 65535), words(kThreads, 0, 1 << 30)};
    saxpy.golden =
        golden_saxpy(saxpy.inputs[0], saxpy.inputs[1], in.alpha, kSaxpyQ);
  }
  in.deck = seeded_deck(rng.next(), kKinds, kPerKind);
  return in;
}

/// One deck op, resolved against the device's buffers.
struct Op {
  unsigned kind = 0;
  unsigned variant = 0;
  runtime::Kernel kernel;
  runtime::KernelArgs args;
  Words values;  ///< the same binding as raw values (for the core rung)
  std::vector<std::pair<std::uint32_t, Words>> inputs;  ///< (base, words)
  std::uint32_t out_base = 0;
  const Words* golden = nullptr;
};

struct Rig {
  std::unique_ptr<runtime::Device> dev;
  std::vector<Op> ops;  ///< one per deck entry
  double load_module_us = 0.0;
};

Rig open_rig(const Inputs& in) {
  Rig rig;
  rig.dev = std::make_unique<runtime::Device>(
      runtime::DeviceDescriptor::simt_core(core_cfg()));
  auto& dev = *rig.dev;
  auto& stream = dev.stream();
  runtime::Kernel kernels[kKinds];
  const double t0 = now_us();
  for (unsigned k = 0; k < kKinds; ++k) {
    kernels[k] = dev.load_module(in.sources[k]).kernel(kKernelName[k]);
  }
  rig.load_module_us = (now_us() - t0) / kKinds;
  // Per kernel and variant: input buffers (staged once), one output buffer
  // per kernel shared by its variants.
  Op bound[kKinds][kVariants];
  for (unsigned k = 0; k < kKinds; ++k) {
    auto out = dev.alloc<std::uint32_t>(kThreads);
    runtime::Buffer<std::uint32_t> coef;
    if (k == 0) {
      coef = dev.alloc<std::uint32_t>(kTaps);
      stream.copy_in(coef, std::span<const std::uint32_t>(in.coef));
    }
    for (unsigned v = 0; v < kVariants; ++v) {
      Op& op = bound[k][v];
      op.kind = k;
      op.variant = v;
      op.kernel = kernels[k];
      op.out_base = out.word_base();
      op.golden = &in.variants[k][v].golden;
      std::vector<runtime::Buffer<std::uint32_t>> bufs;
      for (const auto& w : in.variants[k][v].inputs) {
        bufs.push_back(dev.alloc<std::uint32_t>(w.size()));
        stream.copy_in(bufs.back(), std::span<const std::uint32_t>(w));
        op.inputs.emplace_back(bufs.back().word_base(), w);
      }
      const auto bind = [&op](const runtime::Buffer<std::uint32_t>& b) {
        op.args.arg(b);
        op.values.push_back(b.word_base());
      };
      const auto scalar = [&op](std::uint32_t s) {
        op.args.scalar(s);
        op.values.push_back(s);
      };
      switch (k) {
        case 0:
          bind(bufs[0]);
          bind(coef);
          bind(out);
          op.inputs.emplace_back(coef.word_base(), in.coef);
          break;
        case 1:
          bind(bufs[0]);
          bind(out);
          scalar(in.threshold);
          break;
        default:
          bind(bufs[0]);
          bind(bufs[1]);
          bind(out);
          scalar(in.alpha);
          break;
      }
    }
  }
  stream.synchronize();
  // The k-th launch of a kernel in the deck uses variant k % kVariants, so
  // a launch that wrote nothing cannot pass on its predecessor's output.
  unsigned seen[kKinds] = {};
  for (const unsigned kind : in.deck) {
    rig.ops.push_back(bound[kind][seen[kind]++ % kVariants]);
  }
  // Warm-up: one launch per kernel decodes and caches its image.
  for (unsigned k = 0; k < kKinds; ++k) {
    stream.launch(bound[k][0].kernel, kThreads, bound[k][0].args).wait();
  }
  return rig;
}

struct LaunchLoop {
  Phase phase;
  std::vector<double> submit_us;
  std::vector<double> self_us;  ///< launch latency minus backend wall
  std::vector<std::uint64_t> cycles_per_op;  ///< first deck pass
  std::uint64_t decks = 0;
};

/// Whole decks of eager launches until `seconds` elapse, or exactly
/// `decks` decks when that is nonzero.
LaunchLoop launch_loop(Rig& rig, double seconds, std::uint64_t decks,
                       Tracer& tr) {
  LaunchLoop out;
  auto& dev = *rig.dev;
  auto& stream = dev.stream();
  Words got(kThreads);
  const double deadline = now_us() + seconds * 1e6;
  out.phase.start();
  std::uint64_t request = 0;
  while (decks ? out.decks < decks : out.decks == 0 || now_us() < deadline) {
    for (const Op& op : rig.ops) {
      const double s0 = now_us();
      auto ev = stream.launch(op.kernel, kThreads, op.args);
      const double s1 = now_us();
      ev.wait();
      const double s2 = now_us();
      dev.read_words(op.out_base, got);
      ++out.phase.attempted;
      const auto& st = ev.stats();
      if (!st.exited || got != *op.golden) {
        ++out.phase.failed;
        ++out.phase.mismatched;
      } else {
        out.phase.add_latency(s2 - s0);
      }
      out.submit_us.push_back(s1 - s0);
      out.self_us.push_back(s2 - s0 - st.host_wall_us);
      out.phase.model_us += st.wall_us;
      out.phase.cycles += st.perf.cycles;
      out.phase.thread_ops += st.perf.thread_ops;
      out.phase.instructions += st.perf.instructions;
      out.phase.tick();
      if (out.decks == 0) {
        out.cycles_per_op.push_back(st.perf.cycles);
      }
      const int parent = tr.span("runtime.launch", s0, s2, request);
      tr.span("runtime.launch_submit", s0, s1, request, parent);
      ++request;
    }
    ++out.decks;
  }
  out.phase.stop();
  return out;
}

std::vector<CoreJob> core_deck(const Rig& rig, const Inputs& in) {
  std::shared_ptr<const simt::core::DecodedImage> images[kKinds][kVariants];
  std::vector<CoreJob> deck;
  std::uint32_t entries[kKinds] = {};
  for (const Op& op : rig.ops) {
    auto& image = images[op.kind][op.variant];
    if (!image) {
      image = simt::core::DecodedImage::build(
          bind_program(in.sources[op.kind], kKernelName[op.kind], op.values,
                       &entries[op.kind]),
          core_cfg());
    }
    CoreJob job;
    job.image = image;
    job.entry = entries[op.kind];
    job.threads = kThreads;
    job.inputs = op.inputs;
    job.out_base = op.out_base;
    job.golden = *op.golden;
    deck.push_back(std::move(job));
  }
  return deck;
}

}  // namespace

int run_kernels(const Options& opt) {
  const Inputs in = make_inputs(opt.seed);
  Tracer off(false);
  Tracer tr(opt.trace);

  Rig rig;
  const double setup_s = median_setup_s([&] {
    rig = Rig{};
    rig = open_rig(in);
  });

  Report report;
  LaunchLoop top;
  LaunchLoop plain;  ///< traced runs: the untraced half of the overhead pair
  bool ok = true;
  if (!opt.trace) {
    top = launch_loop(rig, opt.seconds, 0, off);
    add_end_to_end(report, top.phase, setup_s);
  } else {
    Layers L;
    plain = launch_loop(rig, opt.seconds * 0.35, 0, off);
    top = launch_loop(rig, 0.0, plain.decks, tr);
    ok = same_model("model_us_per_op", plain.phase.model_us_per_op(),
                    top.phase.model_us_per_op()) &&
         same_model("model_lane_ops_per_cycle",
                    plain.phase.model_ops_per_cycle(),
                    top.phase.model_ops_per_cycle());
    const CoreRung core =
        run_core_rung(core_cfg(), core_deck(rig, in), opt.seconds * 0.25, tr);
    for (std::size_t i = 0; i < core.cycles_per_job.size(); ++i) {
      ok = same_model("core.cycles (core rung vs runtime launch)",
                      static_cast<double>(top.cycles_per_op[i]),
                      static_cast<double>(core.cycles_per_job[i])) &&
           ok;
    }
    ok = ok && core.phase.failed == 0;

    const double lat_rt = top.phase.lat_p50_us();
    const double lat_core = core.phase.lat_p50_us();
    const double cpu_rt = top.phase.cpu_us_per_op();
    const double cpu_core = core.phase.cpu_us_per_op();
    L.set("asm.assemble_us",
          assemble_us({in.sources, in.sources + kKinds}));
    L.set("runtime.load_module_us", rig.load_module_us);
    L.set("runtime.launch_submit_us", median(top.submit_us));
    L.set("runtime.launch_us_p50", lat_rt);
    L.set("runtime.self_us", median(top.self_us));
    set_cache_layers(L, {rig.dev.get()});
    set_core_layers(L, core);
    L.set("trace.overhead_cpu_us_per_op", cpu_rt - plain.phase.cpu_us_per_op());
    L.set("trace.overhead_lat_p50_us", lat_rt - plain.phase.lat_p50_us());
    L.set("trace.spans", static_cast<double>(tr.size()));
    L.set("ladder.runtime_cpu_share", (cpu_rt - cpu_core) / cpu_rt);
    L.set("ladder.core_cpu_share", cpu_core / cpu_rt);
    L.set("ladder.runtime_lat_share", (lat_rt - lat_core) / lat_rt);
    L.set("ladder.core_lat_share", lat_core / lat_rt);
    note("[kernels] ladder per launch: runtime %.2f us CPU / %.2f us p50 | "
         "core %.2f / %.2f; gate pass share %.3f",
         cpu_rt, lat_rt, cpu_core, lat_core, in.pass_share);
    L.add_to(report);
    write_trace(tr, opt);
  }
  print_context(opt.workload, top.phase);

  int rc = ok ? 0 : 1;
  if (top.phase.failed + plain.phase.failed != 0) {
    std::fprintf(stderr, "FAIL: %llu launches returned a wrong output\n",
                 static_cast<unsigned long long>(top.phase.failed +
                                                 plain.phase.failed));
    rc = 1;
  }
  report.print_json(rc == 0, top.phase.attempted, top.phase.failed);
  return rc;
}

}  // namespace bench
