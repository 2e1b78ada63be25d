#include "runtime/device.hpp"

#include <algorithm>
#include <chrono>
#include <string>

#include "asm/assembler.hpp"
#include "common/error.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/stream.hpp"

namespace simt::runtime {

namespace {

void check_launch_threads(unsigned threads) {
  if (threads == 0) {
    throw Error("launch needs at least one thread");
  }
}

/// Balanced shard sizes: every shard gets total/parts, the first
/// total%parts shards one extra, so no shard exceeds ceil(total/parts).
std::vector<unsigned> balanced_split(unsigned total, unsigned parts) {
  std::vector<unsigned> sizes(parts, total / parts);
  for (unsigned i = 0; i < total % parts; ++i) {
    ++sizes[i];
  }
  return sizes;
}

/// Microseconds of host wall time since `t0`.
double host_us_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

// ---- DeviceDescriptor ------------------------------------------------------

DeviceDescriptor DeviceDescriptor::simt_core(core::CoreConfig cfg) {
  DeviceDescriptor d;
  d.backend = BackendKind::SimtCore;
  d.core = cfg;
  return d;
}

DeviceDescriptor DeviceDescriptor::multi_core(unsigned cores,
                                              core::CoreConfig cfg) {
  DeviceDescriptor d;
  d.backend = BackendKind::MultiCore;
  d.num_cores = cores;
  d.core = cfg;
  return d;
}

DeviceDescriptor DeviceDescriptor::scalar_cpu(baseline::ScalarCpuConfig cfg) {
  DeviceDescriptor d;
  d.backend = BackendKind::Scalar;
  d.scalar = cfg;
  return d;
}

// ---- SimtCoreBackend -------------------------------------------------------

std::shared_ptr<const core::DecodedImage> SimtCoreBackend::build_image(
    const core::Program& program) const {
  return core::DecodedImage::build(program, gpu_.config());
}

void SimtCoreBackend::load_image(
    std::shared_ptr<const core::DecodedImage> image) {
  gpu_.load_image(std::move(image));
}

LaunchStats SimtCoreBackend::launch(std::uint32_t entry, unsigned threads,
                                    const LaunchFootprint&) {
  // The single core owns the one memory image -- host staging happened
  // through the stream copies already, so the footprint does not change
  // what this backend moves.
  check_launch_threads(threads);
  const auto t0 = std::chrono::steady_clock::now();
  LaunchStats out;
  out.exited = true;
  const unsigned per_round = gpu_.config().max_threads;
  unsigned done = 0;
  while (done < threads) {
    const unsigned batch = std::min(threads - done, per_round);
    gpu_.set_thread_base(done);
    gpu_.set_ntid_override(threads);  // %ntid = the logical grid, per round
    gpu_.set_thread_count(batch);
    const auto r = gpu_.run(entry);
    out.perf.add_work(r.perf);
    out.perf.add_clocks(r.perf);
    out.exited = out.exited && r.exited;
    ++out.rounds;
    done += batch;
  }
  gpu_.set_thread_base(0);
  gpu_.set_ntid_override(0);
  out.host_exec_us = out.host_wall_us = host_us_since(t0);
  return out;
}

void SimtCoreBackend::read_words(std::uint32_t base,
                                 std::span<std::uint32_t> out) const {
  gpu_.read_shared_span(base, out);
}

void SimtCoreBackend::write_words(std::uint32_t base,
                                  std::span<const std::uint32_t> data) {
  gpu_.write_shared_span(base, data);
}

// ---- MultiCoreBackend ------------------------------------------------------

MultiCoreBackend::MultiCoreBackend(
    const system::SystemConfig& cfg, double staging_words_per_cycle,
    std::shared_ptr<faults::FaultInjector> faults)
    : sys_(cfg),
      master_(cfg.core.shared_mem_words, 0),
      stale_(sys_.num_cores()),
      staging_words_per_cycle_(staging_words_per_cycle),
      faults_(std::move(faults)) {
  // Cores power up zeroed, exactly like the master image: every shard map
  // starts clean, and staleness accrues only from host writes and sibling
  // cores' merged output shards.
}

std::shared_ptr<const core::DecodedImage> MultiCoreBackend::build_image(
    const core::Program& program) const {
  return core::DecodedImage::build(program, sys_.config().core);
}

void MultiCoreBackend::load_image(
    std::shared_ptr<const core::DecodedImage> image) {
  // One shared image stamps into every core -- the decode ran once.
  sys_.load_image_all(std::move(image));
}

LaunchStats MultiCoreBackend::launch(std::uint32_t entry, unsigned threads,
                                     const LaunchFootprint& footprint) {
  check_launch_threads(threads);
  const auto launch_t0 = std::chrono::steady_clock::now();
  LaunchStats out;
  out.exited = true;
  const unsigned capacity = max_concurrent_threads();
  const unsigned num_cores = sys_.num_cores();
  // With a declared footprint, a round stages only the stale words the
  // kernel may actually touch: reads for its inputs, writes so the
  // post-round store-window diff runs against an up-to-date image. The
  // rest stays in the shard map for whichever later launch needs it.
  // Thread-independent ranges are shared by every core; per-thread
  // (`@tid`) declarations are expanded against each core's thread slice
  // below, so a core ships only the slice it covers.
  const RangeSet touched_static =
      union_sets(footprint.reads, footprint.writes);
  // Expand the sliced footprints over threads [lo, hi) of the grid.
  const auto slice_ranges = [](const std::vector<SlicedFootprint>& sliced,
                               unsigned lo, unsigned hi) {
    RangeSet set;
    for (const auto& s : sliced) {
      set.insert(s.base + lo * s.stride,
                 s.base + (hi - 1) * s.stride + s.window);
    }
    return set;
  };
  // Words skipped versus the conservative restage, deduplicated across
  // rounds (a core dispatched in several rounds skips the same leftover
  // ranges each time, but conservative would have staged them once).
  std::vector<RangeSet> skipped(num_cores);
  out.per_core.resize(num_cores);
  for (unsigned c = 0; c < num_cores; ++c) {
    out.per_core[c].core = c;
  }
  std::vector<std::vector<RoundCost>> round_costs;
  // Ranges merged in the previous round: staging that re-covers them is
  // data-dependent on those merges, so the pipeline model must not
  // prefetch it (RoundCost::stage_late_cycles).
  RangeSet merged_prev;

  // Predicted host work of a round is its staged words plus threads x
  // decoded image length; both are known before anything is posted.
  const auto& image = sys_.core(0).image();
  const std::uint64_t image_len = image ? image->size() : 0;

  unsigned done = 0;
  while (done < threads) {
    const unsigned round_total = std::min(threads - done, capacity);
    // Spread the round over every core (each shard stays <= max_threads
    // because round_total <= cores * max_threads): the round's clock cost
    // is its slowest core, so balance beats packing cores full.
    const unsigned cores_used = std::min(num_cores, round_total);
    const auto sizes = balanced_split(round_total, cores_used);
    std::vector<RoundCost> costs(num_cores);

    // Stage: bring each dispatched core's private image up to date by
    // copying only its stale ranges from the master (the shard map),
    // then shard the grid by %tid base.
    std::vector<system::Dispatch> dispatches;
    std::vector<unsigned> slice_lo(num_cores, 0);  ///< per-core %tid base
    std::vector<RangeSet> to_copy(num_cores);  ///< physical copies per core
    std::uint64_t round_words = 0;
    unsigned base = done;
    for (unsigned c = 0; c < cores_used; ++c) {
      if (sizes[c] == 0) {
        continue;
      }
      auto& gpu = sys_.core(c);
      RangeSet touched = touched_static;
      if (footprint.declared) {
        const RangeSet sliced = union_sets(
            slice_ranges(footprint.sliced_reads, base, base + sizes[c]),
            slice_ranges(footprint.sliced_writes, base, base + sizes[c]));
        touched = union_sets(touched, sliced);
      }
      RangeSet& to_stage = to_copy[c];
      to_stage = footprint.declared ? intersect_sets(stale_[c], touched)
                                    : std::move(stale_[c]);
      const std::uint64_t staged = to_stage.words();
      const std::uint64_t late = overlap_words(to_stage, merged_prev);
      round_words += staged;
      if (footprint.declared) {
        stale_[c] = subtract_sets(stale_[c], to_stage);
        skipped[c] = union_sets(skipped[c], stale_[c]);
      } else {
        stale_[c].clear();
      }
      out.per_core[c].staged_words += staged;
      out.staged_words += staged;
      costs[c].stage_early_cycles =
          staging_cycles(staged - late, staging_words_per_cycle_);
      costs[c].stage_late_cycles =
          staging_cycles(late, staging_words_per_cycle_);
      gpu.set_thread_base(base);
      gpu.set_ntid_override(threads);  // %ntid = the logical grid
      dispatches.push_back({c, sizes[c], entry});
      slice_lo[c] = base;
      base += sizes[c];
    }

    // Each core's copy-in and run are one body. Small rounds run every
    // body on this thread: the pool's per-core hand-offs would cost more
    // than the cores' work. Larger rounds post one body per core to the
    // dispatch workers, so a core's staging overlaps its siblings' staging
    // and execution in real wall time. Only the physical copy moves: the
    // shard maps, staged-word counts and modeled RoundCosts were settled
    // above, so the modeled timeline is the same on either path.
    const bool inline_round =
        round_words + std::uint64_t{round_total} * image_len <
        inline_round_work_;
    system::SystemRunResult res;
    try {
      res = sys_.run(dispatches, inline_round,
                     [&](unsigned c) { stage_core(c, to_copy[c]); });
    } catch (...) {
      // A failed round is never merged. Each dispatched core may hold
      // words it was sent and words it stored that the master never saw:
      // mark both stale so its next launch restages them from the master.
      for (const auto& d : dispatches) {
        RangeSet& stale = stale_[d.core];
        stale = union_sets(stale, to_copy[d.core]);
        for (const auto& [lo, hi] : sys_.core(d.core).store_windows()) {
          stale.insert(lo, hi);
        }
      }
      throw;
    }

    // Roll up: cores run in parallel, so the round's clock cost is the
    // critical-path core; work counters sum across cores.
    std::uint64_t worst = 0;
    std::size_t worst_i = 0;
    for (std::size_t i = 0; i < res.per_core.size(); ++i) {
      out.perf.add_work(res.per_core[i].perf);
      out.exited = out.exited && res.per_core[i].exited;
      const unsigned c = dispatches[i].core;
      out.per_core[c].exec_cycles += res.per_core[i].perf.cycles;
      out.per_core[c].rounds += 1;
      out.per_core[c].host_stage_us += res.stage_us[i];
      out.per_core[c].host_exec_us += res.host_us[i];
      costs[c].exec_cycles = res.per_core[i].perf.cycles;
      if (res.per_core[i].perf.cycles >= worst) {
        worst = res.per_core[i].perf.cycles;
        worst_i = i;
      }
    }
    out.perf.add_clocks(res.per_core[worst_i].perf);

    const auto merge_t0 = std::chrono::steady_clock::now();

    // Merge: read back each core's write shard (the store windows the
    // core tracked during the run), diff it against the pre-round master,
    // fold the changes in (later cores win on conflicts), and mark the
    // changed ranges stale for the sibling cores.
    struct Shard {
      unsigned core;
      std::uint32_t lo;
      std::vector<std::uint32_t> data;    ///< core memory in the window
      std::vector<std::uint32_t> before;  ///< pre-round master in the window
    };
    std::vector<Shard> shards;
    for (const auto& d : dispatches) {
      auto& gpu = sys_.core(d.core);
      std::uint64_t merged = 0;
      // With a declared footprint, clip each hardware store window to the
      // declared write set: window gaps (the tracker coalesces nearby
      // stores) may cover words this core's image is legitimately stale
      // on, and diffing those against the master would fold old data back
      // in. Stores outside the declared .writes are undefined behavior.
      RangeSet windows;
      for (const auto& [lo, hi] : gpu.store_windows()) {
        windows.insert(lo, hi);
      }
      if (footprint.declared) {
        // Clip to what THIS core may write: the static write ranges plus
        // its own slice of the per-thread (`@tid`) write declarations.
        const RangeSet writable = union_sets(
            footprint.writes,
            slice_ranges(footprint.sliced_writes, slice_lo[d.core],
                         slice_lo[d.core] + d.threads));
        windows = intersect_sets(windows, writable);
      }
      for (const auto& w : windows.ranges()) {
        Shard s;
        s.core = d.core;
        s.lo = w.lo;
        s.data.resize(w.words());
        gpu.read_shared_span(w.lo, s.data);
        s.before.assign(master_.begin() + w.lo, master_.begin() + w.hi);
        merged += s.data.size();
        shards.push_back(std::move(s));
      }
      out.per_core[d.core].merged_words += merged;
      out.merged_words += merged;
      costs[d.core].merge_cycles =
          staging_cycles(merged, staging_words_per_cycle_);
    }
    RangeSet merged_now;
    for (const auto& s : shards) {
      // Fold changed words into the master and collect them as ranges for
      // the sibling shard maps (RangeSet coalesces nearby runs).
      RangeSet changed;
      std::size_t w = 0;
      while (w < s.data.size()) {
        if (s.data[w] == s.before[w]) {
          ++w;
          continue;
        }
        std::size_t end = w;
        while (end < s.data.size() && s.data[end] != s.before[end]) {
          master_[s.lo + end] = s.data[end];
          ++end;
        }
        changed.insert(s.lo + static_cast<std::uint32_t>(w),
                       s.lo + static_cast<std::uint32_t>(end));
        w = end;
      }
      for (const auto& r : changed.ranges()) {
        merged_now.insert(r.lo, r.hi);
        for (unsigned c = 0; c < num_cores; ++c) {
          if (c != s.core) {
            stale_[c].insert(r.lo, r.hi);
          }
        }
      }
    }
    merged_prev = std::move(merged_now);
    out.host_merge_us += host_us_since(merge_t0);

    round_costs.push_back(std::move(costs));
    ++out.rounds;
    done += round_total;
  }

  for (unsigned c = 0; c < num_cores; ++c) {
    sys_.core(c).set_thread_base(0);
    sys_.core(c).set_ntid_override(0);
    out.staged_words_skipped += skipped[c].words();
    out.host_stage_us += out.per_core[c].host_stage_us;
    out.host_exec_us += out.per_core[c].host_exec_us;
  }

  const auto model = model_pipeline(round_costs);
  out.serial_cycles = model.serial_cycles;
  out.overlap_cycles = model.overlap_cycles;
  // Occupancy: how much of the launch's exec critical path each core spent
  // executing (the critical path is the per-round worst-core sum, i.e.
  // perf.cycles).
  if (out.perf.cycles > 0) {
    for (auto& c : out.per_core) {
      c.occupancy = static_cast<double>(c.exec_cycles) /
                    static_cast<double>(out.perf.cycles);
    }
  }
  out.host_wall_us = host_us_since(launch_t0);
  return out;
}

void MultiCoreBackend::stage_core(unsigned c, const RangeSet& set) {
  faults::SiteOutcome bend;
  if (faults_) {
    bend = faults_->at(faults::FaultSite::Staging);
  }
  auto& gpu = sys_.core(c);
  bool first = true;
  for (const auto& r : set.ranges()) {
    if (first && bend.corrupt && r.words() > 0) {
      // Corrupt the staged copy, never the master image: flip one bit of a
      // local duplicate of the first range and ship that.
      std::vector<std::uint32_t> bent(master_.data() + r.lo,
                                      master_.data() + r.lo + r.words());
      bent[bend.corrupt_word % bent.size()] ^= bend.corrupt_mask;
      gpu.write_shared_span(
          r.lo, std::span<const std::uint32_t>(bent.data(), bent.size()));
    } else {
      gpu.write_shared_span(
          r.lo,
          std::span<const std::uint32_t>(master_.data() + r.lo, r.words()));
    }
    first = false;
  }
}

void MultiCoreBackend::read_words(std::uint32_t base,
                                  std::span<std::uint32_t> out) const {
  if (base > master_.size() || out.size() > master_.size() - base) {
    throw Error("multicore read out of device memory bounds");
  }
  std::copy_n(master_.begin() + base, out.size(), out.begin());
}

void MultiCoreBackend::write_words(std::uint32_t base,
                                   std::span<const std::uint32_t> data) {
  if (base > master_.size() || data.size() > master_.size() - base) {
    throw Error("multicore write out of device memory bounds");
  }
  std::copy(data.begin(), data.end(), master_.begin() + base);
  // Every core's private image is now stale on these words.
  for (auto& map : stale_) {
    map.insert(base, base + static_cast<std::uint32_t>(data.size()));
  }
}

// ---- ScalarBackend ---------------------------------------------------------

std::shared_ptr<const core::DecodedImage> ScalarBackend::build_image(
    const core::Program& program) const {
  // The scalar sweep is purely functional: no core-shape validation, the
  // engine traps bad programs at runtime exactly as it always did.
  return core::DecodedImage::build(program);
}

void ScalarBackend::load_image(
    std::shared_ptr<const core::DecodedImage> image) {
  cpu_.load_image(std::move(image));
}

LaunchStats ScalarBackend::launch(std::uint32_t entry, unsigned threads,
                                  const LaunchFootprint&) {
  check_launch_threads(threads);
  const auto t0 = std::chrono::steady_clock::now();
  LaunchStats out;
  // ScalarSoftCpu::run only returns via EXIT (budget exhaustion and traps
  // throw), so a normal return means every sweep iteration exited.
  out.exited = true;
  for (unsigned t = 0; t < threads; ++t) {
    cpu_.set_thread_context(t, threads);
    const auto stats = cpu_.run(entry);
    out.perf.cycles += stats.cycles;
    out.perf.instructions += stats.instructions;
    out.perf.thread_ops += stats.instructions;
    ++out.rounds;
  }
  cpu_.set_thread_context(0, 1);
  out.host_exec_us = out.host_wall_us = host_us_since(t0);
  return out;
}

void ScalarBackend::read_words(std::uint32_t base,
                               std::span<std::uint32_t> out) const {
  cpu_.read_mem_span(base, out);
}

void ScalarBackend::write_words(std::uint32_t base,
                                std::span<const std::uint32_t> data) {
  cpu_.write_mem_span(base, data);
}

// ---- MemoryPool ------------------------------------------------------------

std::uint32_t MemoryPool::allocate(std::size_t count, unsigned align) {
  if (count == 0) {
    throw Error("buffer allocation needs at least one word");
  }
  if (align == 0 || (align & (align - 1)) != 0) {
    throw Error("buffer alignment must be a power of two, got " +
                std::to_string(align));
  }
  const std::uint64_t base = (static_cast<std::uint64_t>(next_) + align - 1) &
                             ~static_cast<std::uint64_t>(align - 1);
  if (base > words_ || count > words_ - base) {
    throw Error("device memory exhausted: requested " +
                std::to_string(count) + " words (aligned to " +
                std::to_string(align) + ") with " +
                std::to_string(words_ - next_) + " of " +
                std::to_string(words_) + " free");
  }
  next_ = static_cast<unsigned>(base + count);
  return static_cast<std::uint32_t>(base);
}

// ---- Device ----------------------------------------------------------------

namespace {

std::unique_ptr<DeviceBackend> make_backend(const DeviceDescriptor& desc) {
  switch (desc.backend) {
    case BackendKind::SimtCore:
      return std::make_unique<SimtCoreBackend>(desc.core);
    case BackendKind::MultiCore: {
      system::SystemConfig cfg;
      cfg.num_cores = desc.num_cores;
      cfg.core = desc.core;
      return std::make_unique<MultiCoreBackend>(
          cfg, desc.staging_words_per_cycle, desc.faults);
    }
    case BackendKind::Scalar:
      return std::make_unique<ScalarBackend>(desc.scalar);
  }
  throw Error("unknown backend kind");
}

}  // namespace

Device::Device(DeviceDescriptor desc)
    : desc_(desc),
      backend_(make_backend(desc_)),
      pool_(backend_->mem_words()),
      scheduler_(std::make_unique<Scheduler>(*this)) {
  if (desc_.staging_words_per_cycle <= 0.0) {
    throw Error("staging_words_per_cycle must be positive");
  }
}

Device::~Device() = default;

double Device::fmax_mhz() const {
  return desc_.fmax_mhz > 0.0 ? desc_.fmax_mhz
                              : backend_->default_fmax_mhz();
}

Module& Device::load_module(std::string_view source) {
  const std::uint64_t key = hash_source(source);
  std::lock_guard<std::mutex> lock(module_mutex_);
  const auto it = modules_.find(key);
  if (it != modules_.end()) {
    ++cache_hits_;
    return *it->second;
  }
  ++cache_misses_;
  auto module = std::make_unique<Module>(std::string(source),
                                         assembler::assemble(source));
  auto [inserted, ok] = modules_.emplace(key, std::move(module));
  (void)ok;
  return *inserted->second;
}

void Device::read_words(std::uint32_t base,
                        std::span<std::uint32_t> out) const {
  std::lock_guard<std::mutex> lock(exec_mutex_);
  backend_->read_words(base, out);
}

void Device::write_words(std::uint32_t base,
                         std::span<const std::uint32_t> data) {
  std::lock_guard<std::mutex> lock(exec_mutex_);
  backend_->write_words(base, data);
}

LaunchStats Device::launch_sync(const Kernel& kernel, unsigned threads) {
  return launch_sync(kernel, threads, KernelArgs{});
}

namespace {

/// Fold one declared footprint list into the plan's absolute footprint:
/// whole-launch declarations become ranges, per-thread (`@tid`)
/// declarations become sliced entries the multicore backend expands per
/// thread slice.
void add_footprints(RangeSet& set, std::vector<SlicedFootprint>& sliced,
                    const std::vector<core::Footprint>& fps,
                    const KernelArgs& args, unsigned threads,
                    unsigned mem_words, const core::KernelInfo& info) {
  for (const auto& fp : fps) {
    const auto& bound = args.values().at(fp.param);
    const std::uint64_t base = bound.value;
    // Per-thread: the launch as a whole covers threads [0, threads), so
    // the widest range any slice can see is [base, base + (threads-1) *
    // stride + window). Whole-launch: the declared extent (0 = the bound
    // buffer).
    const std::uint64_t extent =
        fp.per_thread
            ? static_cast<std::uint64_t>(threads - 1) * fp.stride + fp.extent
            : (fp.extent != 0 ? fp.extent : bound.size);
    if (base + extent > mem_words) {
      throw Error("kernel '" + info.name + "' footprint on parameter '" +
                  info.params.at(fp.param).name + "' spans [" +
                  std::to_string(base) + ", " +
                  std::to_string(base + extent) +
                  "), beyond device memory (" + std::to_string(mem_words) +
                  " words)");
    }
    if (fp.per_thread) {
      sliced.push_back(
          {static_cast<std::uint32_t>(base), fp.extent, fp.stride});
    } else {
      set.insert(static_cast<std::uint32_t>(base),
                 static_cast<std::uint32_t>(base + extent));
    }
  }
}

}  // namespace

LaunchStats Device::launch_sync(const Kernel& kernel, unsigned threads,
                                const KernelArgs& args) {
  return execute_plan(prepare_launch(kernel, threads, args));
}

LaunchPlan Device::prepare_launch(const Kernel& kernel, unsigned threads,
                                  const KernelArgs& args) const {
  if (!kernel.valid()) {
    throw Error("launch of an invalid kernel handle");
  }
  check_launch_threads(threads);
  validate_kernel_args(kernel, args);
  if (kernel.info != nullptr && kernel.info->lockstep &&
      (desc_.backend != BackendKind::SimtCore ||
       threads > max_concurrent_threads())) {
    // Sharding or splitting into rounds would separate threads that must
    // see each other's stores: fail here rather than return wrong data.
    throw Error("kernel '" + kernel.info->name + "' is .lockstep: its " +
                std::to_string(threads) + " threads must run in one round "
                "on a single-core (\"core\" backend) device, not a " +
                std::string(backend_name()) + " device running at most " +
                std::to_string(max_concurrent_threads()) + " per round");
  }

  LaunchPlan plan;
  plan.kernel = kernel;
  plan.threads = threads;
  plan.args = args;
  // The I-MEM image depends on the binding only when this kernel has
  // relocation sites to patch; everything else shares the pristine image
  // (signature 0), so switching entries in one resident module stays free.
  const bool has_params = kernel.info != nullptr && !args.empty();
  plan.patches = has_params && !kernel.info->refs.empty();
  plan.sig = plan.patches ? kernel.entry ^ args.signature() : 0;
  plan.alloc_gen = alloc_gen_;
  if (has_params && kernel.info->has_footprints()) {
    auto& fp = plan.footprint;
    fp.declared = true;
    add_footprints(fp.reads, fp.sliced_reads, kernel.info->reads, args,
                   threads, mem_words(), *kernel.info);
    add_footprints(fp.writes, fp.sliced_writes, kernel.info->writes, args,
                   threads, mem_words(), *kernel.info);
  }
  return plan;
}

void Device::rebind(LaunchPlan& plan, KernelArgs args) const {
  // Everything argument-dependent is re-derived; everything else (kernel,
  // threads, the patch sites themselves) is frozen in the plan. A full
  // prepare_launch is the simple way to get exactly that set.
  plan = prepare_launch(plan.kernel, plan.threads, args);
}

LaunchStats Device::execute_plan(const LaunchPlan& plan) {
  if (auto* f = fault_injector()) {
    // One Launch trigger per plan execution -- eager launches and graph
    // replay launch subs both funnel through here.
    f->at(faults::FaultSite::Launch);
  }
  const Kernel& kernel = plan.kernel;
  const KernelArgs& args = plan.args;
  if (plan.alloc_gen != alloc_gen_) {
    // A frozen plan holds absolute buffer bases; after a mem_reset()
    // those words belong to whoever allocated since. Refuse if any
    // buffer is bound (scalar-only bindings reference no memory).
    for (const auto& v : args.values()) {
      if (v.kind == core::KernelParam::Kind::Buffer) {
        throw Error("launch plan predates mem_reset(): its bound buffer "
                    "bases were reclaimed (plan generation " +
                    std::to_string(plan.alloc_gen) + ", device is at " +
                    std::to_string(alloc_gen_) +
                    "); rebind with fresh buffers");
      }
    }
  }
  std::lock_guard<std::mutex> lock(exec_mutex_);
  if (kernel.module != resident_ || plan.sig != resident_sig_) {
    // The module's program was decoded and validated into a DecodedImage
    // exactly once (the per-module cache); every reload from here on is a
    // cache hit, shared across rounds, cores, and graph replays.
    auto image = image_for(kernel.module);
    if (plan.patches) {
      // The loader patch: bind the argument values into the module's
      // $param relocation sites. A copy of the predecoded image with a
      // few immediates rewritten -- no re-assembly, no re-decode.
      std::vector<std::pair<std::uint32_t, std::int32_t>> patches;
      patches.reserve(kernel.info->refs.size());
      for (const auto& ref : kernel.info->refs) {
        const auto& v = args.values().at(ref.param);
        // Unsigned arithmetic: the intended mod-2^32 wrap without the UB
        // of signed overflow (e.g. scalar 0x7fffffff with a +1 addend).
        patches.emplace_back(
            ref.pc, static_cast<std::int32_t>(
                        v.value + static_cast<std::uint32_t>(ref.addend)));
      }
      image = core::DecodedImage::patched(*image, patches);
    }
    backend_->load_image(std::move(image));
    resident_ = kernel.module;
    resident_sig_ = plan.sig;
  }
  LaunchStats stats =
      backend_->launch(kernel.entry, plan.threads, plan.footprint);
  // Single-engine backends stage through the host interface before the
  // launch, so their in-launch staging model is pure execution.
  if (stats.serial_cycles == 0 && stats.overlap_cycles == 0) {
    stats.serial_cycles = stats.overlap_cycles = stats.perf.cycles;
  }
  if (stats.per_core.empty()) {
    CoreLaunchStats self;
    self.exec_cycles = stats.perf.cycles;
    self.rounds = stats.rounds;
    self.occupancy = 1.0;
    self.host_exec_us = stats.host_exec_us;
    stats.per_core.push_back(self);
  }
  const double fmax = fmax_mhz();
  stats.wall_us = static_cast<double>(stats.perf.cycles) / fmax;
  stats.serial_wall_us = static_cast<double>(stats.serial_cycles) / fmax;
  stats.overlap_wall_us = static_cast<double>(stats.overlap_cycles) / fmax;
  return stats;
}

std::shared_ptr<const core::DecodedImage> Device::image_for(
    const Module* module) {
  const auto it = images_.find(module);
  if (it != images_.end()) {
    ++decode_hits_;
    return it->second;
  }
  ++decode_misses_;
  auto image = backend_->build_image(module->program());
  images_.emplace(module, image);
  return image;
}

Stream& Device::stream() {
  if (streams_.empty()) {
    streams_.push_back(std::make_unique<Stream>(*this, 0));
  }
  return *streams_.front();
}

Stream& Device::create_stream() {
  stream();  // streams_[0] stays the default stream
  // Channels are spaced kChannelStride apart so graph replay can price
  // each capture lane on its own channel within the replaying stream's
  // reservation without aliasing another live stream's channel.
  streams_.push_back(std::make_unique<Stream>(
      *this, static_cast<unsigned>(streams_.size()) * Stream::kChannelStride));
  return *streams_.back();
}

}  // namespace simt::runtime
