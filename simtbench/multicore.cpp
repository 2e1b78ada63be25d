// The multicore workload: a multi_core(4) device with declared kernel
// footprints. One op is one iteration of
//
//   copy_in a, copy_in b -> vecadd_abi x 256 threads -> reduce_abi(4) x 64
//   threads -> copy_out partials -> synchronize
//
// with seeded inputs and a seeded vector length (224..288) per iteration,
// so the modeled time per iteration moves a little with the seed. Worker-pool dispatch and staging
// dominate; the traced run adds a stepwise launch rung, a system rung (the
// same dispatches through system::MultiCoreSystem::run directly) and a
// core rung (the same programs on one core::Gpgpu).
#include <algorithm>
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
#include "system/multicore.hpp"
#include "workloads.hpp"

namespace bench {

namespace {

using simt::Xoshiro256;
namespace runtime = simt::runtime;

constexpr unsigned kCores = 4;
constexpr unsigned kMaxN = 288;  ///< longest vector an iteration adds
constexpr unsigned kChunk = 4;
constexpr unsigned kMaxParts = kMaxN / kChunk;
constexpr unsigned kDeck = 64;  ///< distinct iterations, cycled

simt::core::CoreConfig core_cfg() { return simt::core::CoreConfig{}; }

struct Iteration {
  unsigned n = 0;           ///< vector length (a multiple of 16)
  Words a, b, c, partials;  ///< inputs and the two golden outputs
};

struct Inputs {
  std::string vecadd_src = simt::kernels::vecadd_abi();
  std::string reduce_src = simt::kernels::reduce_abi(kChunk);
  std::vector<Iteration> deck;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ULL + 3);
  for (unsigned i = 0; i < kDeck; ++i) {
    Iteration it;
    it.n = 224 + 16 * static_cast<unsigned>(rng.next_below(5));
    it.a.resize(it.n);
    it.b.resize(it.n);
    for (unsigned j = 0; j < it.n; ++j) {
      it.a[j] = rng.next_u32();
      it.b[j] = rng.next_u32();
    }
    it.c = golden_vecadd(it.a, it.b);
    it.partials = golden_reduce(it.c, kChunk);
    in.deck.push_back(std::move(it));
  }
  return in;
}

struct Rig {
  std::unique_ptr<runtime::Device> dev;
  runtime::Kernel vecadd, reduce;
  runtime::Buffer<std::uint32_t> a, b, c, p;
  runtime::KernelArgs vecadd_args, reduce_args;
  double load_module_us = 0.0;
};

/// Per-iteration sums of the two launches' backend roll-ups.
struct BackendSplit {
  double wall_us = 0, stage_us = 0, exec_us = 0, merge_us = 0;
  double dispatch_us = 0;  ///< wall - merge - slowest core's stage+exec
  double staged = 0, merged = 0, skipped = 0, rounds = 0;
  double occupancy = 0, imbalance = 0;  ///< means over the two launches
};

void fold(BackendSplit& s, const runtime::LaunchStats& st) {
  double slowest = 0.0, exec_sum = 0.0, exec_max = 0.0;
  for (const auto& c : st.per_core) {
    slowest = std::max(slowest, c.host_stage_us + c.host_exec_us);
    exec_sum += c.host_exec_us;
    exec_max = std::max(exec_max, c.host_exec_us);
  }
  s.wall_us += st.host_wall_us;
  s.stage_us += st.host_stage_us;
  s.exec_us += st.host_exec_us;
  s.merge_us += st.host_merge_us;
  s.dispatch_us += st.host_wall_us - st.host_merge_us - slowest;
  s.staged += static_cast<double>(st.staged_words);
  s.merged += static_cast<double>(st.merged_words);
  s.skipped += static_cast<double>(st.staged_words_skipped);
  s.rounds += st.rounds;
  s.occupancy += st.occupancy() / 2;
  if (exec_sum > 0) {
    s.imbalance += exec_max / (exec_sum / static_cast<double>(st.per_core.size())) / 2;
  }
}

struct IterLoop {
  Phase phase;
  std::uint64_t decks = 0;
  std::vector<double> copy_in_us, copy_out_us, sync_us, launch_submit_us;
  std::vector<double> launch_us;  ///< stepwise: launch -> Event resolved
  std::vector<BackendSplit> backend;       ///< traced loops only
  std::vector<std::uint64_t> cycles_per_op;  ///< first deck pass
};

/// Whole decks of iterations until `seconds` elapse, or exactly `decks`
/// decks when that is nonzero. `stepwise` waits on each launch's Event
/// before the next command (the launch-latency rung).
IterLoop iter_loop(Rig& rig, const Inputs& in, double seconds,
                   std::uint64_t decks, bool stepwise, Tracer& tr) {
  IterLoop out;
  auto& stream = rig.dev->stream();
  Words got;
  const double deadline = now_us() + seconds * 1e6;
  out.phase.start();
  std::uint64_t request = 0;
  const auto step = [&](const char* name, double s0, double s1, int parent,
                        std::vector<double>* into) {
    tr.span(name, s0, s1, request, parent);
    if (into != nullptr && tr.enabled()) {
      into->push_back(s1 - s0);
    }
  };
  while (decks ? out.decks < decks : out.decks == 0 || now_us() < deadline) {
    for (const Iteration& it : in.deck) {
      const double s0 = now_us();
      const int span = tr.begin(stepwise ? "runtime.iteration_stepwise"
                                         : "runtime.iteration",
                                s0, request);
      stream.copy_in(rig.a, std::span<const std::uint32_t>(it.a));
      stream.copy_in(rig.b, std::span<const std::uint32_t>(it.b));
      const double s1 = now_us();
      step("runtime.copy_in", s0, s1, span, &out.copy_in_us);
      auto ev1 = stream.launch(rig.vecadd, it.n, rig.vecadd_args);
      const double s2 = now_us();
      step("runtime.launch_submit", s1, s2, span, &out.launch_submit_us);
      if (stepwise) {
        ev1.wait();
        step("runtime.launch", s1, now_us(), span, &out.launch_us);
      }
      const double s3 = now_us();
      auto ev2 = stream.launch(rig.reduce, it.n / kChunk, rig.reduce_args);
      const double s4 = now_us();
      step("runtime.launch_submit", s3, s4, span, &out.launch_submit_us);
      if (stepwise) {
        ev2.wait();
        step("runtime.launch", s3, now_us(), span, &out.launch_us);
      }
      got.resize(it.n / kChunk);
      const double s5 = now_us();
      stream.copy_out(rig.p, std::span<std::uint32_t>(got));
      const double s6 = now_us();
      step("runtime.copy_out", s5, s6, span, &out.copy_out_us);
      stream.synchronize();
      const double s7 = now_us();
      step("runtime.sync", s6, s7, span, &out.sync_us);
      tr.end(span, s7);
      ++out.phase.attempted;
      const auto& st1 = ev1.stats();
      const auto& st2 = ev2.stats();
      if (!st1.exited || !st2.exited || got != it.partials) {
        ++out.phase.failed;
        ++out.phase.mismatched;
      } else {
        out.phase.add_latency(s7 - s0);
      }
      out.phase.model_us += st1.wall_us + st2.wall_us;
      out.phase.cycles += st1.perf.cycles + st2.perf.cycles;
      out.phase.thread_ops += st1.perf.thread_ops + st2.perf.thread_ops;
      out.phase.instructions += st1.perf.instructions + st2.perf.instructions;
      out.phase.tick();
      if (out.decks == 0) {
        out.cycles_per_op.push_back(st1.perf.cycles + st2.perf.cycles);
      }
      if (tr.enabled()) {
        BackendSplit split;
        fold(split, st1);
        fold(split, st2);
        out.backend.push_back(split);
      }
      ++request;
    }
    ++out.decks;
  }
  out.phase.stop();
  return out;
}

Rig open_rig(const Inputs& in) {
  Rig rig;
  rig.dev = std::make_unique<runtime::Device>(
      runtime::DeviceDescriptor::multi_core(kCores, core_cfg()));
  auto& dev = *rig.dev;
  const double t0 = now_us();
  rig.vecadd = dev.load_module(in.vecadd_src).kernel("vecadd");
  rig.reduce = dev.load_module(in.reduce_src).kernel("reduce");
  rig.load_module_us = (now_us() - t0) / 2;
  rig.a = dev.alloc<std::uint32_t>(kMaxN);
  rig.b = dev.alloc<std::uint32_t>(kMaxN);
  rig.c = dev.alloc<std::uint32_t>(kMaxN);
  rig.p = dev.alloc<std::uint32_t>(kMaxParts);
  rig.vecadd_args.arg(rig.a).arg(rig.b).arg(rig.c);
  rig.reduce_args.arg(rig.c).arg(rig.p);
  // Warm-up: one iteration decodes both images and starts the workers.
  Tracer off(false);
  Inputs one;
  one.deck = {in.deck.front()};
  if (iter_loop(rig, one, 0.0, 1, false, off).phase.failed != 0) {
    throw std::runtime_error("multicore warm-up iteration failed");
  }
  return rig;
}

/// The system rung: the same dispatches through MultiCoreSystem::run on a
/// system of the same shape, staging each core's slice directly.
struct SystemRung {
  Phase phase;
  std::vector<double> run_us;  ///< both run() calls of an iteration
  std::vector<std::uint64_t> cycles_per_op;  ///< first deck pass
};

SystemRung run_system_rung(const Rig& rig, const Inputs& in, double seconds,
                           Tracer& tr) {
  SystemRung out;
  simt::system::SystemConfig cfg;
  cfg.num_cores = kCores;
  cfg.core = core_cfg();
  simt::system::MultiCoreSystem sys(cfg);
  std::uint32_t vec_entry = 0, red_entry = 0;
  const auto vec_img = simt::core::DecodedImage::build(
      bind_program(in.vecadd_src, "vecadd",
                   {rig.a.word_base(), rig.b.word_base(), rig.c.word_base()},
                   &vec_entry),
      cfg.core);
  const auto red_img = simt::core::DecodedImage::build(
      bind_program(in.reduce_src, "reduce",
                   {rig.c.word_base(), rig.p.word_base()}, &red_entry),
      cfg.core);
  const auto dispatches = [](const auto& split, std::uint32_t entry) {
    std::vector<simt::system::Dispatch> d;
    for (unsigned i = 0; i < kCores; ++i) {
      d.push_back({i, split[i].second - split[i].first, entry});
    }
    return d;
  };
  const auto set_bases = [&sys](const auto& split, unsigned ntid) {
    for (unsigned i = 0; i < kCores; ++i) {
      sys.core(i).set_thread_base(split[i].first);
      sys.core(i).set_ntid_override(ntid);
    }
  };
  Words got;
  const double deadline = now_us() + seconds * 1e6;
  out.phase.start();
  std::uint64_t request = 0;
  for (bool first = true; first || now_us() < deadline; first = false) {
    for (const Iteration& it : in.deck) {
      const unsigned parts = it.n / kChunk;
      const auto vec_split =
          simt::system::MultiCoreSystem::split_range(it.n, kCores);
      const auto red_split =
          simt::system::MultiCoreSystem::split_range(parts, kCores);
      const auto vec_d = dispatches(vec_split, vec_entry);
      const auto red_d = dispatches(red_split, red_entry);
      got.resize(parts);
      const double s0 = now_us();
      const int span = tr.begin("system.iteration", s0, request);
      for (unsigned i = 0; i < kCores; ++i) {
        const auto [lo, hi] = vec_split[i];
        sys.core(i).write_shared_span(
            rig.a.word_base() + lo,
            std::span<const std::uint32_t>(it.a).subspan(lo, hi - lo));
        sys.core(i).write_shared_span(
            rig.b.word_base() + lo,
            std::span<const std::uint32_t>(it.b).subspan(lo, hi - lo));
      }
      sys.load_image_all(vec_img);
      set_bases(vec_split, it.n);
      const double r0 = now_us();
      const auto res1 = sys.run(vec_d);
      const double r1 = now_us();
      tr.span("system.run", r0, r1, request, span);
      // Core i reduces exactly the chunk slice it just produced.
      sys.load_image_all(red_img);
      set_bases(red_split, parts);
      const double r2 = now_us();
      const auto res2 = sys.run(red_d);
      const double r3 = now_us();
      tr.span("system.run", r2, r3, request, span);
      for (unsigned i = 0; i < kCores; ++i) {
        const auto [lo, hi] = red_split[i];
        sys.core(i).read_shared_span(
            rig.p.word_base() + lo,
            std::span<std::uint32_t>(got).subspan(lo, hi - lo));
      }
      const double s1 = now_us();
      tr.end(span, s1);
      ++out.phase.attempted;
      if (got != it.partials) {
        ++out.phase.failed;
        ++out.phase.mismatched;
      } else {
        out.phase.add_latency(s1 - s0);
      }
      out.run_us.push_back((r1 - r0) + (r3 - r2));
      for (const auto* res : {&res1, &res2}) {
        for (const auto& r : res->per_core) {
          out.phase.instructions += r.perf.instructions;
        }
      }
      out.phase.tick();
      if (first) {
        out.cycles_per_op.push_back(res1.max_cycles + res2.max_cycles);
      }
      ++request;
    }
  }
  out.phase.stop();
  return out;
}

std::vector<CoreJob> core_deck(const Rig& rig, const Inputs& in) {
  std::uint32_t vec_entry = 0, red_entry = 0;
  const auto vec_img = simt::core::DecodedImage::build(
      bind_program(in.vecadd_src, "vecadd",
                   {rig.a.word_base(), rig.b.word_base(), rig.c.word_base()},
                   &vec_entry),
      core_cfg());
  const auto red_img = simt::core::DecodedImage::build(
      bind_program(in.reduce_src, "reduce",
                   {rig.c.word_base(), rig.p.word_base()}, &red_entry),
      core_cfg());
  std::vector<CoreJob> deck;
  for (const Iteration& it : in.deck) {
    CoreJob add;
    add.image = vec_img;
    add.entry = vec_entry;
    add.threads = it.n;
    add.inputs = {{rig.a.word_base(), it.a}, {rig.b.word_base(), it.b}};
    add.out_base = rig.c.word_base();
    add.golden = it.c;
    deck.push_back(std::move(add));
    CoreJob red;  // reads the c the job before it left in memory
    red.image = red_img;
    red.entry = red_entry;
    red.threads = it.n / kChunk;
    red.out_base = rig.p.word_base();
    red.golden = it.partials;
    deck.push_back(std::move(red));
  }
  return deck;
}

template <typename F>
double median_of(const std::vector<BackendSplit>& v, F&& field) {
  std::vector<double> xs;
  for (const auto& s : v) {
    xs.push_back(field(s));
  }
  return median(std::move(xs));
}

}  // namespace

int run_multicore(const Options& opt) {
  const Inputs in = make_inputs(opt.seed);
  Tracer off(false);
  Tracer tr(opt.trace);

  Rig rig;
  const double setup_s = median_setup_s([&] {
    rig = Rig{};
    rig = open_rig(in);
  });

  Report report;
  IterLoop top;
  IterLoop plain;  ///< traced runs: the untraced half of the overhead pair
  bool ok = true;
  if (!opt.trace) {
    top = iter_loop(rig, in, opt.seconds, 0, false, off);
    add_end_to_end(report, top.phase, setup_s);
  } else {
    Layers L;
    plain = iter_loop(rig, in, opt.seconds * 0.25, 0, false, off);
    top = iter_loop(rig, in, 0.0, plain.decks, false, tr);
    ok = same_model("model_us_per_op", plain.phase.model_us_per_op(),
                    top.phase.model_us_per_op()) &&
         same_model("model_lane_ops_per_cycle",
                    plain.phase.model_ops_per_cycle(),
                    top.phase.model_ops_per_cycle());
    const IterLoop stepwise = iter_loop(rig, in, opt.seconds * 0.1, 0, true, tr);
    const SystemRung sys = run_system_rung(rig, in, opt.seconds * 0.15, tr);
    const CoreRung core =
        run_core_rung(core_cfg(), core_deck(rig, in), opt.seconds * 0.15, tr);
    for (std::size_t i = 0; i < sys.cycles_per_op.size(); ++i) {
      ok = same_model("modeled cycles (system rung vs runtime launch)",
                      static_cast<double>(top.cycles_per_op[i]),
                      static_cast<double>(sys.cycles_per_op[i])) &&
           ok;
    }
    ok = ok && stepwise.phase.failed == 0 && sys.phase.failed == 0 &&
         core.phase.failed == 0;

    const double lat_rt = top.phase.lat_p50_us();
    const double lat_sys = sys.phase.lat_p50_us();
    const double lat_core = core.phase.lat_p50_us() * 2;  // two jobs per op
    const double cpu_rt = top.phase.cpu_us_per_op();
    const double cpu_sys = sys.phase.cpu_us_per_op();
    const double cpu_core = core.phase.cpu_us_per_op() * 2;
    L.set("asm.assemble_us", assemble_us({in.vecadd_src, in.reduce_src}));
    L.set("runtime.load_module_us", rig.load_module_us);
    L.set("runtime.launch_submit_us", median(top.launch_submit_us));
    L.set("runtime.launch_us_p50", median(stepwise.launch_us));
    L.set("runtime.copy_in_us", median(top.copy_in_us));
    L.set("runtime.copy_out_us", median(top.copy_out_us));
    L.set("runtime.sync_us", median(top.sync_us));
    L.set("runtime.self_us",
          median(stepwise.launch_us) -
              median_of(top.backend, [](const BackendSplit& s) {
                return s.wall_us / 2;
              }));
    set_cache_layers(L, {rig.dev.get()});
    const auto& b = top.backend;
    L.set("system.backend_wall_us", median_of(b, [](const BackendSplit& s) { return s.wall_us; }));
    L.set("system.stage_us", median_of(b, [](const BackendSplit& s) { return s.stage_us; }));
    L.set("system.exec_us", median_of(b, [](const BackendSplit& s) { return s.exec_us; }));
    L.set("system.merge_us", median_of(b, [](const BackendSplit& s) { return s.merge_us; }));
    L.set("system.dispatch_overhead_us", median_of(b, [](const BackendSplit& s) { return s.dispatch_us; }));
    L.set("system.staged_words", median_of(b, [](const BackendSplit& s) { return s.staged; }));
    L.set("system.merged_words", median_of(b, [](const BackendSplit& s) { return s.merged; }));
    L.set("system.staged_words_skipped", median_of(b, [](const BackendSplit& s) { return s.skipped; }));
    L.set("system.rounds", median_of(b, [](const BackendSplit& s) { return s.rounds; }));
    L.set("system.occupancy", median_of(b, [](const BackendSplit& s) { return s.occupancy; }));
    L.set("system.core_exec_imbalance", median_of(b, [](const BackendSplit& s) { return s.imbalance; }));
    L.set("system.run_us", median(sys.run_us));
    set_core_layers(L, core);
    L.set("trace.overhead_cpu_us_per_op", cpu_rt - plain.phase.cpu_us_per_op());
    L.set("trace.overhead_lat_p50_us", lat_rt - plain.phase.lat_p50_us());
    L.set("trace.spans", static_cast<double>(tr.size()));
    L.set("ladder.runtime_cpu_share", (cpu_rt - cpu_sys) / cpu_rt);
    L.set("ladder.system_cpu_share", (cpu_sys - cpu_core) / cpu_rt);
    L.set("ladder.core_cpu_share", cpu_core / cpu_rt);
    L.set("ladder.runtime_lat_share", (lat_rt - lat_sys) / lat_rt);
    L.set("ladder.system_lat_share", (lat_sys - lat_core) / lat_rt);
    L.set("ladder.core_lat_share", lat_core / lat_rt);
    note("[multicore] ladder per iteration: runtime %.2f us CPU / %.2f us "
         "p50 | system %.2f / %.2f | core %.2f / %.2f",
         cpu_rt, lat_rt, cpu_sys, lat_sys, cpu_core, lat_core);
    L.add_to(report);
    write_trace(tr, opt);
  }
  print_context(opt.workload, top.phase);

  int rc = ok ? 0 : 1;
  if (top.phase.failed + plain.phase.failed != 0) {
    std::fprintf(stderr, "FAIL: %llu iterations returned a wrong output\n",
                 static_cast<unsigned long long>(top.phase.failed +
                                                 plain.phase.failed));
    rc = 1;
  }
  report.print_json(rc == 0, top.phase.attempted, top.phase.failed);
  return rc;
}

}  // namespace bench
