// Multi-processor system (Section 6 future work / Section 5.1).
//
// The paper's stamping experiment shows that packing several SIMT cores
// onto one device and one clock network realizes ~850 MHz instead of the
// single-core ~927 MHz, and concludes "a system performance ... of 850 MHz
// is a reasonable target". This module builds that system: N independent
// cores fed by a host-side dispatcher, with wall-clock accounting at the
// realized multi-core clock so the throughput/clock trade is measurable
// (bench/multicore_scaling).
//
// Cores do not share memory (each SM owns its shared memory, as in the
// paper); the host partitions work and stages per-core inputs, which is
// the "managing other, more traditional FPGA accelerator cores" usage the
// eGPU was designed around.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "asm/assembler.hpp"
#include "common/worker_pool.hpp"
#include "core/gpgpu.hpp"

namespace simt::system {

struct SystemConfig {
  unsigned num_cores = 3;
  core::CoreConfig core;
  /// Realized clocks from the Table 2 regime: a single tightly packed core
  /// closes higher than a multi-stamp system on one clock network.
  double single_core_mhz = 927.0;
  double multi_core_mhz = 854.0;

  double clock_mhz() const {
    return num_cores == 1 ? single_core_mhz : multi_core_mhz;
  }
};

/// One kernel launch bound to a core.
struct Dispatch {
  unsigned core = 0;
  unsigned threads = 0;
  std::uint32_t entry = 0;  ///< I-MEM address to start execution at
};

struct SystemRunResult {
  std::vector<core::RunResult> per_core;
  std::uint64_t max_cycles = 0;   ///< the slowest core (cores run in parallel)
  double wall_us = 0.0;           ///< max_cycles / realized clock
  /// Measured host wall time of each dispatch's Gpgpu::run call (same
  /// index as per_core) -- real simulation seconds, as opposed to the
  /// modeled wall_us, so a runtime can validate its overlap model against
  /// what the simulator actually spent.
  std::vector<double> host_us;
  /// Measured host wall time of each dispatch's stage body (same index;
  /// zero without one). Timed apart from host_us.
  std::vector<double> stage_us;

  /// Aggregate thread-operations across all cores.
  std::uint64_t total_thread_ops() const {
    std::uint64_t n = 0;
    for (const auto& r : per_core) {
      n += r.perf.thread_ops;
    }
    return n;
  }
};

class MultiCoreSystem {
 public:
  explicit MultiCoreSystem(SystemConfig cfg);

  const SystemConfig& config() const { return cfg_; }
  unsigned num_cores() const { return static_cast<unsigned>(cores_.size()); }
  core::Gpgpu& core(unsigned i) { return cores_.at(i); }
  const core::Gpgpu& core(unsigned i) const { return cores_.at(i); }

  /// Load the same kernel into every core's I-MEM.
  void load_kernel_all(std::string_view source);
  /// Load a kernel into one core.
  void load_kernel(unsigned core, std::string_view source);
  /// Load an already-assembled program into every core's I-MEM (the module
  /// cache path: assemble once, stamp everywhere). Decodes and validates
  /// once into a shared DecodedImage -- the cores stamp the same image
  /// instead of each re-decoding the program.
  void load_program_all(const core::Program& program);
  /// Load a prebuilt predecoded image into every core (the runtime's
  /// decode-cache path; the image must match the core configuration).
  void load_image_all(std::shared_ptr<const core::DecodedImage> image);

  /// Host-side input staging for one core, run just before that core's
  /// kernel on the same thread (see run()).
  using StageFn = std::function<void(unsigned core)>;

  /// Launch the given dispatches concurrently (each core at most once) and
  /// account wall-clock at the realized system clock. Each dispatch is one
  /// body: `stage(core)` if given, then the core's run. A pooled round
  /// posts one such job per core to that core's persistent dispatch worker
  /// and waits until every worker is idle: a queue push, a worker wake-up
  /// and a drain wake-up per core, tens of microseconds of host time. An
  /// `inline_round` runs the same bodies on the calling thread instead,
  /// core after core, for rounds too small to repay those hand-offs
  /// (runtime::MultiCoreBackend decides which). Results are identical
  /// either way. Throws simt::Error on duplicate core ids. A body that
  /// throws (a staging fault, a core faulting mid-kernel) skips the rest
  /// of that body; the first such error rethrows here after every core
  /// settled.
  SystemRunResult run(const std::vector<Dispatch>& dispatches,
                      bool inline_round = false, const StageFn& stage = {});

  /// Partition [0, total) into per-core contiguous slices (last core takes
  /// the remainder). Helper for host-side work distribution.
  static std::vector<std::pair<unsigned, unsigned>> split_range(
      unsigned total, unsigned parts);

 private:
  SystemConfig cfg_;
  std::vector<core::Gpgpu> cores_;
  common::WorkerPool pool_;  ///< one persistent dispatch worker per core
};

}  // namespace simt::system
