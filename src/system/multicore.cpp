#include "system/multicore.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <set>

#include "common/error.hpp"

namespace simt::system {

MultiCoreSystem::MultiCoreSystem(SystemConfig cfg)
    : cfg_(std::move(cfg)), pool_(cfg_.num_cores) {
  if (cfg_.num_cores == 0) {
    throw Error("system needs at least one core");
  }
  cfg_.core.validate();
  cores_.reserve(cfg_.num_cores);
  for (unsigned i = 0; i < cfg_.num_cores; ++i) {
    cores_.emplace_back(cfg_.core);
    cores_.back().set_smid(i);
  }
}

void MultiCoreSystem::load_kernel_all(std::string_view source) {
  load_program_all(assembler::assemble(source));
}

void MultiCoreSystem::load_program_all(const core::Program& program) {
  // Decode + validate exactly once; every core loads the shared image
  // (the seed model re-ran the decode once per core per load).
  load_image_all(core::DecodedImage::build(program, cfg_.core));
}

void MultiCoreSystem::load_image_all(
    std::shared_ptr<const core::DecodedImage> image) {
  for (auto& c : cores_) {
    c.load_image(image);
  }
}

void MultiCoreSystem::load_kernel(unsigned core, std::string_view source) {
  cores_.at(core).load_program(assembler::assemble(source));
}

SystemRunResult MultiCoreSystem::run(const std::vector<Dispatch>& dispatches,
                                     bool inline_round, const StageFn& stage) {
  std::set<unsigned> seen;
  for (const auto& d : dispatches) {
    if (d.core >= cores_.size()) {
      throw Error("dispatch to nonexistent core " + std::to_string(d.core));
    }
    if (!seen.insert(d.core).second) {
      throw Error("core " + std::to_string(d.core) +
                  " dispatched more than once");
    }
  }

  // The cores are independent hardware; a pooled round simulates them
  // concurrently on the persistent per-core dispatch workers. A faulting
  // body (a staging fault, an out-of-bounds store) must not tear down the
  // process from a worker thread, so it captures its exception and the
  // first one is rethrown here after every core has settled -- on both
  // paths, so a fault surfaces the same way inline or pooled.
  SystemRunResult res;
  res.per_core.resize(dispatches.size());
  res.host_us.resize(dispatches.size(), 0.0);
  res.stage_us.resize(dispatches.size(), 0.0);
  std::vector<std::exception_ptr> errors(dispatches.size());
  const auto us_since = [](std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  const auto run_dispatch = [&](std::size_t i) {
    const auto& d = dispatches[i];
    auto t0 = std::chrono::steady_clock::now();
    try {
      if (stage) {
        stage(d.core);
        res.stage_us[i] = us_since(t0);
        t0 = std::chrono::steady_clock::now();
      }
      auto& gpu = cores_[d.core];
      gpu.set_thread_count(d.threads);
      res.per_core[i] = gpu.run(d.entry);
    } catch (...) {
      errors[i] = std::current_exception();
    }
    res.host_us[i] = us_since(t0);
  };
  {
    // Posted jobs reference this frame: drain before leaving it, also if a
    // post throws.
    struct DrainGuard {
      common::WorkerPool& pool;
      ~DrainGuard() { pool.drain(); }
    } drain_guard{pool_};
    for (std::size_t i = 0; i < dispatches.size(); ++i) {
      if (inline_round) {
        run_dispatch(i);
      } else {
        pool_.post(dispatches[i].core, [&run_dispatch, i] { run_dispatch(i); });
      }
    }
  }
  for (const auto& e : errors) {
    if (e) {
      std::rethrow_exception(e);
    }
  }

  for (const auto& r : res.per_core) {
    res.max_cycles = std::max(res.max_cycles, r.perf.cycles);
  }
  // Wall clock at the realized frequency of this system size (Table 2).
  SystemConfig effective = cfg_;
  effective.num_cores = static_cast<unsigned>(dispatches.size());
  res.wall_us =
      static_cast<double>(res.max_cycles) / effective.clock_mhz();
  return res;
}

std::vector<std::pair<unsigned, unsigned>> MultiCoreSystem::split_range(
    unsigned total, unsigned parts) {
  SIMT_CHECK(parts > 0);
  std::vector<std::pair<unsigned, unsigned>> out;
  const unsigned chunk = total / parts;
  unsigned begin = 0;
  for (unsigned p = 0; p < parts; ++p) {
    const unsigned end = p + 1 == parts ? total : begin + chunk;
    out.emplace_back(begin, end);
    begin = end;
  }
  return out;
}

}  // namespace simt::system
