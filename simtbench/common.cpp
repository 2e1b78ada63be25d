#include "common.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "asm/assembler.hpp"
#include "common/rng.hpp"
#include "core/gpgpu.hpp"

namespace bench {

namespace {

namespace assembler = simt::assembler;

/// name, unit -- the order BENCHMARK.json's `per_layer` list uses.
const char* const kLayerCatalogue[][2] = {
    {"asm.assemble_us", "us"},
    {"cluster.register_plan_us", "us"},
    {"cluster.submit_us_p50", "us"},
    {"cluster.self_us_p50", "us"},
    {"cluster.self_cpu_us", "us"},
    {"cluster.retry_ratio", "ratio"},
    {"cluster.retried", "count"},
    {"cluster.rejected", "count"},
    {"cluster.shed", "count"},
    {"cluster.deadline_failures", "count"},
    {"cluster.corruption_detected", "count"},
    {"cluster.quarantined", "count"},
    {"cluster.probations", "count"},
    {"cluster.readmitted", "count"},
    {"cluster.device_share_max", "ratio"},
    {"cluster.model_busy_frac", "ratio"},
    {"runtime.load_module_us", "us"},
    {"runtime.instantiate_us", "us"},
    {"runtime.replay_submit_us", "us"},
    {"runtime.replay_us_p50", "us"},
    {"runtime.launch_submit_us", "us"},
    {"runtime.launch_us_p50", "us"},
    {"runtime.copy_in_us", "us"},
    {"runtime.copy_out_us", "us"},
    {"runtime.sync_us", "us"},
    {"runtime.self_us", "us"},
    {"runtime.decode_hit_ratio", "ratio"},
    {"runtime.module_hit_ratio", "ratio"},
    {"runtime.commands", "count/op"},
    {"runtime.graph_replays", "count/op"},
    {"system.backend_wall_us", "us"},
    {"system.stage_us", "us"},
    {"system.exec_us", "us"},
    {"system.merge_us", "us"},
    {"system.dispatch_overhead_us", "us"},
    {"system.run_us", "us"},
    {"system.staged_words", "words/op"},
    {"system.merged_words", "words/op"},
    {"system.staged_words_skipped", "words/op"},
    {"system.rounds", "count/op"},
    {"system.occupancy", "ratio"},
    {"system.core_exec_imbalance", "ratio"},
    {"core.run_us", "us"},
    {"core.mips", "MIPS"},
    {"core.lane_mops", "Mops/s"},
    {"core.cycles", "cycles/op"},
    {"core.cpi", "cycles/instr"},
    {"core.issue_cycle_share", "ratio"},
    {"core.stall_cycle_share", "ratio"},
    {"core.flush_cycle_share", "ratio"},
    {"core.fill_cycle_share", "ratio"},
    {"core.shm_reads", "words/op"},
    {"core.shm_writes", "words/op"},
    {"loadgen.late_us_p50", "us"},
    {"loadgen.late_us_p99", "us"},
    {"trace.overhead_cpu_us_per_op", "us"},
    {"trace.overhead_lat_p50_us", "us"},
    {"trace.spans", "count"},
    {"ladder.cluster_cpu_share", "ratio"},
    {"ladder.runtime_cpu_share", "ratio"},
    {"ladder.system_cpu_share", "ratio"},
    {"ladder.core_cpu_share", "ratio"},
    {"ladder.cluster_lat_share", "ratio"},
    {"ladder.runtime_lat_share", "ratio"},
    {"ladder.system_lat_share", "ratio"},
    {"ladder.core_lat_share", "ratio"},
};

std::int32_t signed_of(std::uint32_t v) { return static_cast<std::int32_t>(v); }

}  // namespace

// ---- metric catalogue -----------------------------------------------------

Layers::Layers() {
  for (const auto& row : kLayerCatalogue) {
    entries_.push_back({row[0], row[1], 0.0});
  }
}

Layers::Entry& Layers::find(const std::string& name) {
  for (auto& e : entries_) {
    if (e.name == name) {
      return e;
    }
  }
  throw std::logic_error("per-layer metric not in the catalogue: " + name);
}

void Layers::set(const std::string& name, double value) {
  find(name).value = value;
}

double Layers::get(const std::string& name) const {
  return const_cast<Layers*>(this)->find(name).value;
}

void Layers::add_to(Report& report) const {
  for (const auto& e : entries_) {
    report.add(e.name, e.value, e.unit);
  }
}

// ---- measured phases ------------------------------------------------------

Phase::Mark Phase::mark(double excluded_cpu_us) const {
  return {now_us(), process_cpu_s() * 1e6 - excluded_cpu_us, ok(),
          instructions};
}

void Phase::add_latency(double us) {
  lat_window_.push_back(us);
  ++lat_count;
  if (lat_sample.size() < kReservoir) {
    lat_sample.push_back(us);
    return;
  }
  rng_ = rng_ * 6364136223846793005ULL + 1442695040888963407ULL;
  const std::uint64_t slot = (rng_ >> 11) % lat_count;
  if (slot < kReservoir) {
    lat_sample[slot] = us;
  }
}

void Phase::start(double excluded_cpu_us) {
  start_ = window_ = mark(excluded_cpu_us);
}

void Phase::close_window(const Mark& now) {
  const auto ops = static_cast<double>(now.ok - window_.ok);
  if (ops > 0) {
    const double cpu_us = now.cpu_us - window_.cpu_us;
    win_cpu_.push_back(cpu_us / ops);
    win_lat_.push_back(median(lat_window_));
    win_mips_.push_back(
        static_cast<double>(now.instructions - window_.instructions) / cpu_us);
  }
  lat_window_.clear();
  window_ = now;
}

void Phase::tick(double excluded_cpu_us) {
  if (now_us() - window_.t_us >= kWindowS * 1e6) {
    close_window(mark(excluded_cpu_us));
  }
}

void Phase::stop(double excluded_cpu_us) {
  const Mark end = mark(excluded_cpu_us);
  // A trailing partial window counts only when no full window closed.
  if (win_cpu_.empty()) {
    close_window(end);
  }
  wall_s = (end.t_us - start_.t_us) * 1e-6;
  cpu_s = (end.cpu_us - start_.cpu_us) * 1e-6;
}

double Phase::cpu_us_per_op() const { return median(win_cpu_); }

double Phase::lat_p50_us() const { return median(win_lat_); }

double Phase::sim_mips() const { return median(win_mips_); }

double Phase::model_us_per_op() const {
  return ok() ? model_us / static_cast<double>(ok()) : 0.0;
}

double Phase::model_ops_per_cycle() const {
  return cycles ? static_cast<double>(thread_ops) /
                      static_cast<double>(cycles)
                : 0.0;
}

void add_end_to_end(Report& report, const Phase& phase, double setup_s) {
  report.add("setup_s", setup_s, "s");
  report.add("cpu_us_per_op", phase.cpu_us_per_op(), "us");
  report.add("lat_p50_us", phase.lat_p50_us(), "us");
  report.add("ok_frac",
             phase.attempted ? static_cast<double>(phase.ok()) /
                                   static_cast<double>(phase.attempted)
                             : 0.0,
             "ratio");
  report.add("model_us_per_op", phase.model_us_per_op(), "us");
  report.add("model_lane_ops_per_cycle", phase.model_ops_per_cycle(),
             "ops/cycle");
  report.add("sim_mips", phase.sim_mips(), "MIPS");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
}

void print_context(const std::string& workload, const Phase& phase) {
  const Tail t = tail_of(phase.lat_sample);
  note("[%s] context (report-only; these swing more than +-10%% on a "
       "shared VM):",
       workload.c_str());
  note("  ops_per_s (wall) = %.1f over %.3f s, %llu attempted, %llu failed "
       "(%llu wrong outputs), failed_frac = %.6g",
       phase.wall_s > 0 ? static_cast<double>(phase.ok()) / phase.wall_s : 0.0,
       phase.wall_s, static_cast<unsigned long long>(phase.attempted),
       static_cast<unsigned long long>(phase.failed),
       static_cast<unsigned long long>(phase.mismatched),
       phase.attempted ? static_cast<double>(phase.failed) /
                             static_cast<double>(phase.attempted)
                       : 0.0);
  note("  lat_p%g_us = %.2f with %zu of %zu samples beyond it (a uniform "
       "sample of %llu latencies; p50 %.2f)",
       t.pct, t.value, t.beyond, t.count,
       static_cast<unsigned long long>(phase.lat_count), t.p50);
  note("  per op, side by side: modeled device %.4f us | measured host "
       "latency p50 %.2f us | host CPU %.2f us",
       phase.model_us_per_op(), phase.lat_p50_us(), phase.cpu_us_per_op());
  note("  caveat: the cycle model is checked only against the paper's "
       "closed-form per-class clocks (bench_cycle_model), not against "
       "hardware, so no model-error figure is given.");
}

// ---- golden models --------------------------------------------------------

Words golden_fir(const Words& x, const Words& coef, unsigned n, unsigned q) {
  Words y(n);
  for (unsigned t = 0; t < n; ++t) {
    std::uint32_t acc = 0;
    for (unsigned k = 0; k < coef.size(); ++k) {
      acc += x[t + k] * coef[k];
    }
    y[t] = static_cast<std::uint32_t>(signed_of(acc) >> q);
  }
  return y;
}

Words golden_scale(const Words& x, std::uint32_t mul, std::uint32_t add) {
  Words y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    y[i] = x[i] * mul + add;
  }
  return y;
}

Words golden_reduce(const Words& x, unsigned per_thread) {
  Words y(x.size() / per_thread, 0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    y[i / per_thread] += x[i];
  }
  return y;
}

Words golden_saxpy(const Words& x, const Words& y, std::uint32_t alpha,
                   unsigned q) {
  // Inputs keep alpha * x below 2^31, so the kernel's MULHI half is zero
  // and the Qn product is a plain shift of the low word.
  Words out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = ((alpha * x[i]) >> q) + y[i];
  }
  return out;
}

Words golden_vecadd(const Words& a, const Words& b) {
  Words c(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    c[i] = a[i] + b[i];
  }
  return c;
}

Words golden_gate(const Words& x, std::uint32_t threshold) {
  Words y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    y[i] = x[i] < threshold ? x[i] * x[i] + 7 : 1;
  }
  return y;
}

std::string gate_source() {
  return ".kernel gate\n"
         ".param x buffer\n"
         ".param y buffer\n"
         ".param threshold scalar\n"
         ".reads x@tid\n"
         ".writes y@tid\n"
         "movsr %r0, %tid\n"
         "lds %r1, [%r0 + $x]\n"
         "movi %r2, $threshold\n"
         "setp.ltu %p0, %r1, %r2\n"
         "movi %r3, 1\n"
         "@p0 mul.lo %r3, %r1, %r1\n"
         "@p0 addi %r3, %r3, 7\n"
         "sts [%r0 + $y], %r3\n"
         "exit\n";
}

core::Program bind_program(const std::string& source,
                           const std::string& kernel, const Words& args,
                           std::uint32_t* entry) {
  core::Program program = assembler::assemble(source);
  const core::KernelInfo* info = program.find_kernel(kernel);
  if (info == nullptr || info->params.size() != args.size()) {
    throw std::runtime_error("bind_program: bad kernel or arity: " + kernel);
  }
  *entry = info->entry;
  for (const auto& ref : info->refs) {
    program.set_imm(ref.pc, static_cast<std::int32_t>(
                                args[ref.param] +
                                static_cast<std::uint32_t>(ref.addend)));
  }
  return program;
}

// ---- core rung ------------------------------------------------------------

CoreRung run_core_rung(const core::CoreConfig& cfg,
                       const std::vector<CoreJob>& deck, double seconds,
                       Tracer& tracer) {
  CoreRung out;
  core::Gpgpu gpu(cfg);
  Words got;
  const core::DecodedImage* loaded = nullptr;
  const double deadline = now_us() + seconds * 1e6;
  out.phase.start();
  std::uint64_t request = 0;
  for (bool first = true; first || now_us() < deadline; first = false) {
    for (const auto& job : deck) {
      const double op0 = now_us();
      if (loaded != job.image.get()) {
        gpu.load_image(job.image);
        loaded = job.image.get();
      }
      for (const auto& [base, words] : job.inputs) {
        gpu.write_shared_span(base, words);
      }
      // A grid larger than the core runs in back-to-back rounds over the
      // %tid base, as a single-core device does.
      core::PerfCounters perf;
      bool exited = true;
      double run_us = 0.0;
      const int parent = tracer.begin("core.op", op0, request);
      for (unsigned done = 0; done < job.threads;) {
        const unsigned batch = std::min(job.threads - done, cfg.max_threads);
        gpu.set_thread_base(done);
        gpu.set_ntid_override(job.threads);
        gpu.set_thread_count(batch);
        const double run0 = now_us();
        const core::RunResult r = gpu.run(job.entry);
        const double run1 = now_us();
        tracer.span("core.run", run0, run1, request, parent);
        run_us += run1 - run0;
        perf.add_work(r.perf);
        perf.add_clocks(r.perf);
        exited = exited && r.exited;
        done += batch;
      }
      got.resize(job.golden.size());
      gpu.read_shared_span(job.out_base, got);
      ++out.phase.attempted;
      if (!exited || got != job.golden) {
        ++out.phase.failed;
        ++out.phase.mismatched;
      } else {
        out.phase.add_latency(now_us() - op0);
      }
      out.run_us.push_back(run_us);
      out.perf.add_work(perf);
      out.perf.add_clocks(perf);
      out.phase.instructions += perf.instructions;
      out.phase.tick();
      if (first) {
        out.cycles_per_job.push_back(perf.cycles);
      }
      tracer.end(parent, now_us());
      ++request;
    }
  }
  out.phase.stop();
  out.phase.cycles = out.perf.cycles;
  out.phase.thread_ops = out.perf.thread_ops;
  return out;
}

void set_core_layers(Layers& layers, const CoreRung& rung) {
  const auto& p = rung.perf;
  const double ops = static_cast<double>(rung.phase.attempted);
  double run_s = 0.0;
  for (const double us : rung.run_us) {
    run_s += us * 1e-6;
  }
  const double cycles = static_cast<double>(p.cycles);
  layers.set("core.run_us", median(rung.run_us));
  layers.set("core.mips", static_cast<double>(p.instructions) / run_s * 1e-6);
  layers.set("core.lane_mops", static_cast<double>(p.thread_ops) / run_s * 1e-6);
  layers.set("core.cycles", cycles / ops);
  layers.set("core.cpi", p.cpi());
  layers.set("core.issue_cycle_share", static_cast<double>(p.issue_cycles) / cycles);
  layers.set("core.stall_cycle_share", static_cast<double>(p.stall_cycles) / cycles);
  layers.set("core.flush_cycle_share", static_cast<double>(p.flush_cycles) / cycles);
  layers.set("core.fill_cycle_share", static_cast<double>(p.fill_cycles) / cycles);
  layers.set("core.shm_reads", static_cast<double>(p.shm_reads) / ops);
  layers.set("core.shm_writes", static_cast<double>(p.shm_writes) / ops);
}

std::vector<unsigned> seeded_deck(std::uint64_t seed, unsigned kinds,
                                  unsigned per_kind) {
  simt::Xoshiro256 rng(seed);
  std::vector<unsigned> order;
  for (unsigned k = 0; k + 1 < kinds; ++k) {
    const auto n = static_cast<unsigned>(per_kind - 1 + rng.next_below(3));
    order.insert(order.end(), n, k);
  }
  order.resize(static_cast<std::size_t>(kinds) * per_kind, kinds - 1);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  return order;
}

double assemble_us(const std::vector<std::string>& sources) {
  std::vector<double> tries;
  for (unsigned t = 0; t < 5; ++t) {
    const double t0 = now_us();
    for (const auto& src : sources) {
      (void)assembler::assemble(src);
    }
    tries.push_back(now_us() - t0);
  }
  return median(std::move(tries));
}

void set_cache_layers(Layers& layers,
                      const std::vector<const simt::runtime::Device*>& devices) {
  double dec_hit = 0, dec_all = 0, mod_hit = 0, mod_all = 0;
  for (const auto* dev : devices) {
    dec_hit += static_cast<double>(dev->decode_cache_hits());
    dec_all += static_cast<double>(dev->decode_cache_hits() +
                                   dev->decode_cache_misses());
    mod_hit += static_cast<double>(dev->module_cache_hits());
    mod_all += static_cast<double>(dev->module_cache_hits() +
                                   dev->module_cache_misses());
  }
  layers.set("runtime.decode_hit_ratio", dec_hit / dec_all);
  layers.set("runtime.module_hit_ratio", mod_hit / mod_all);
}

void write_trace(const Tracer& tracer, const Options& opt) {
  const std::string path = opt.trace_dir + "/trace-" + opt.workload +
                           "-seed" + std::to_string(opt.seed) + ".json";
  if (!tracer.write_chrome(path)) {
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
  }
}

bool same_model(const char* what, double untraced, double traced,
                double rel_tol) {
  const double diff = untraced > traced ? untraced - traced : traced - untraced;
  const double scale = untraced > 0 ? untraced : -untraced;
  if (diff <= rel_tol * scale) {
    return true;
  }
  std::fprintf(stderr,
               "FAIL: %s differs between the untraced (%.17g) and traced "
               "(%.17g) runs\n",
               what, untraced, traced);
  return false;
}

}  // namespace bench
