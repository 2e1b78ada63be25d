// Pieces every workload shares: the metric catalogue, the measured-phase
// roll-up that turns into the end-to-end metrics, host golden models of
// every kernel the benchmark runs, and the core rung of the layer ladder
// (a direct core::Gpgpu::run of the same programs and inputs).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/decoded_image.hpp"
#include "core/perf.hpp"
#include "core/program.hpp"
#include "harness.hpp"
#include "runtime/device.hpp"

namespace bench {

namespace core = simt::core;
using Words = std::vector<std::uint32_t>;

// ---- metric catalogue ---------------------------------------------------

/// Per-layer metrics of a traced run. Every name is reported on every
/// workload; a layer the workload never reaches reads 0. Setting a name
/// outside the catalogue throws (it would silently miss BENCHMARK.json).
class Layers {
 public:
  Layers();
  void set(const std::string& name, double value);
  double get(const std::string& name) const;
  void add_to(Report& report) const;

 private:
  struct Entry {
    std::string name;
    std::string unit;
    double value = 0.0;
  };
  Entry& find(const std::string& name);
  std::vector<Entry> entries_;
};

// ---- measured phases ----------------------------------------------------

/// One measured loop over a workload's ops. The loop calls start() once,
/// add_latency() for every op that resolved Ok, tick() after every op it
/// settles, and stop() at the end. Host time is cut into windows of
/// kWindowS; CPU per op, latency median and simulated MIPS are taken per
/// window and reported as the median window, so a burst of outside load on
/// a shared host moves one window instead of the run. Latencies are kept
/// per window plus a fixed-size uniform reservoir for the tail, so the
/// benchmark's own memory does not grow with the op count.
struct Phase {
  static constexpr double kWindowS = 0.5;
  static constexpr std::size_t kReservoir = 1 << 16;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      ///< not Ok, thrown, or a wrong output
  std::uint64_t mismatched = 0;  ///< subset of failed: wrong output words
  double wall_s = 0.0;
  double cpu_s = 0.0;            ///< process CPU attributed to the ops
  std::uint64_t lat_count = 0;   ///< latencies recorded (ops Ok)
  std::vector<double> lat_sample;  ///< uniform reservoir of them
  double model_us = 0.0;         ///< modeled device us, summed over ops
  std::uint64_t thread_ops = 0;  ///< modeled lane operations
  std::uint64_t cycles = 0;      ///< modeled cycles (critical path)
  std::uint64_t instructions = 0;  ///< simulated sequencer instructions

  /// `excluded_cpu_us` is a running total of CPU the loop spent on itself
  /// (the open-loop generator's pacing), kept out of the op's CPU.
  void start(double excluded_cpu_us = 0.0);
  void add_latency(double us);
  void tick(double excluded_cpu_us = 0.0);
  void stop(double excluded_cpu_us = 0.0);

  std::uint64_t ok() const { return attempted - failed; }
  double cpu_us_per_op() const;  ///< median window
  double lat_p50_us() const;     ///< median window's median
  double sim_mips() const;       ///< median window
  double model_us_per_op() const;
  double model_ops_per_cycle() const;

 private:
  struct Mark {
    double t_us = 0, cpu_us = 0;
    std::uint64_t ok = 0, instructions = 0;
  };
  Mark mark(double excluded_cpu_us) const;
  void close_window(const Mark& now);
  Mark start_{}, window_{};
  std::vector<double> lat_window_;  ///< latencies of the open window
  std::uint64_t rng_ = 0x950;       ///< reservoir replacement draws
  std::vector<double> win_cpu_, win_lat_, win_mips_;
};

/// Add every end-to-end metric (the BENCHMARK.json `end_to_end` list).
void add_end_to_end(Report& report, const Phase& phase, double setup_s);
/// Print the report-only context lines: wall throughput, tail latency
/// with its sample count, modeled vs measured time, and the model caveat.
void print_context(const std::string& workload, const Phase& phase);

/// Set-up repetitions per run; setup_s is their median.
constexpr unsigned kSetupReps = 15;

/// Time `setup` kSetupReps times and return the median seconds. The last
/// repetition's state is what the caller keeps.
template <typename F>
double median_setup_s(F&& setup) {
  std::vector<double> secs;
  for (unsigned i = 0; i < kSetupReps; ++i) {
    const double t0 = now_us();
    setup();
    secs.push_back((now_us() - t0) * 1e-6);
  }
  return median(std::move(secs));
}

// ---- golden models ------------------------------------------------------

Words golden_fir(const Words& x, const Words& coef, unsigned n, unsigned q);
Words golden_scale(const Words& x, std::uint32_t mul, std::uint32_t add);
Words golden_reduce(const Words& x, unsigned per_thread);
Words golden_saxpy(const Words& x, const Words& y, std::uint32_t alpha,
                   unsigned q);
Words golden_vecadd(const Words& a, const Words& b);
/// The benchmark-local guarded kernel (see gate_source()).
Words golden_gate(const Words& x, std::uint32_t threshold);

/// Kernel "gate"; params (x, y: buffer; threshold: scalar). Lanes whose
/// input is below the threshold take a guarded multiply-add path, the rest
/// keep the default -- a data-dependent `setp` / `@p` guard, so the share
/// of passing lanes decides how often the guard is divergent.
std::string gate_source();

/// Assemble `source` and bind `args` (positional, buffer bases or scalar
/// values) into the `$param` relocation sites of `kernel` -- what the
/// runtime loader does at launch, done here so a core rung can run the
/// exact image the device runs.
core::Program bind_program(const std::string& source,
                           const std::string& kernel,
                           const Words& args, std::uint32_t* entry);

// ---- core rung ----------------------------------------------------------

/// One op of the core rung: a bound image plus the memory it reads.
struct CoreJob {
  std::shared_ptr<const core::DecodedImage> image;
  std::uint32_t entry = 0;
  unsigned threads = 0;
  std::vector<std::pair<std::uint32_t, Words>> inputs;  ///< (base, words)
  std::uint32_t out_base = 0;
  Words golden;
};

struct CoreRung {
  Phase phase;                 ///< latency = whole op (write, run, read)
  std::vector<double> run_us;  ///< the Gpgpu::run call alone
  core::PerfCounters perf;     ///< summed over ops (clocks summed too)
  std::vector<std::uint64_t> cycles_per_job;  ///< first pass over the deck
};

/// Run whole passes over `deck` on one core until `seconds` elapse
/// (at least one pass).
CoreRung run_core_rung(const core::CoreConfig& cfg,
                       const std::vector<CoreJob>& deck, double seconds,
                       Tracer& tracer);

/// Fill the core.* layer metrics from a core rung.
void set_core_layers(Layers& layers, const CoreRung& rung);

/// A seeded deck of op kinds in [0, kinds), shuffled. Every kind but the
/// last appears per_kind times give or take one (the last takes up the
/// difference), so the mix, and with it the modeled time per op, moves a
/// little with the seed while the deck keeps kinds * per_kind entries.
std::vector<unsigned> seeded_deck(std::uint64_t seed, unsigned kinds,
                                  unsigned per_kind);

/// Median host microseconds to assemble all of `sources` (five tries).
double assemble_us(const std::vector<std::string>& sources);

/// runtime.decode_hit_ratio and runtime.module_hit_ratio over `devices`.
void set_cache_layers(Layers& layers,
                      const std::vector<const simt::runtime::Device*>& devices);

/// Write a traced run's spans to <trace_dir>/trace-<workload>-seed<N>.json
/// (a warning, not a failure, when that is not possible).
void write_trace(const Tracer& tracer, const Options& opt);

/// Assert that a modeled figure is identical between the traced and the
/// untraced phases of a traced run; prints and returns false if not.
bool same_model(const char* what, double untraced, double traced,
                double rel_tol = 0.0);

}  // namespace bench
