// Differential tests for the multicore execution paths. Rounds run inline
// on the launching thread (every core staged and run there, core after
// core) must be bit-identical to rounds posted to the worker pool (one
// stage-then-run job per core on that core's dispatch worker) -- same
// final master image, same per-core private images, same
// staged/merged/skipped word accounting, and same modeled perf counters --
// across randomized host dirty ranges, overlapping footprints, and
// multi-round grids.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "kernels/kernels.hpp"
#include "runtime/args.hpp"
#include "runtime/buffer.hpp"
#include "runtime/device.hpp"
#include "runtime/module.hpp"

namespace simt::runtime {
namespace {

constexpr unsigned kCores = 4;
constexpr unsigned kThreadsPerCore = 32;
constexpr unsigned kMemWords = 2048;

core::CoreConfig small_cfg(unsigned mem_words = kMemWords) {
  core::CoreConfig c;
  c.max_threads = kThreadsPerCore;
  c.shared_mem_words = mem_words;
  c.predicates_enabled = true;
  return c;
}

DeviceDescriptor multicore_desc(unsigned mem_words = kMemWords) {
  return DeviceDescriptor::multi_core(kCores, small_cfg(mem_words));
}

/// How one side of a differential runs its rounds.
struct Side {
  /// MultiCoreBackend::set_inline_round_work: the default threshold,
  /// kAllPooled to pool every round, or kAllInline to run every round
  /// inline.
  std::uint64_t inline_round_work = MultiCoreBackend::kInlineRoundWork;
};
constexpr std::uint64_t kAllPooled = 0;
constexpr std::uint64_t kAllInline = ~std::uint64_t{0};

/// The shape of a randomized scenario.
struct Shape {
  unsigned mem_words = kMemWords;
  unsigned max_dirty = 64;  ///< longest host dirty range per write
};

/// Snapshot every core's private memory image (not just the master): the
/// shard maps must leave the same bytes resident regardless of which
/// thread performed the copies.
std::vector<std::vector<std::uint32_t>> core_images(Device& dev) {
  auto* backend = dev.backend_as<MultiCoreBackend>();
  std::vector<std::vector<std::uint32_t>> images;
  for (unsigned c = 0; c < backend->system().num_cores(); ++c) {
    std::vector<std::uint32_t> img(backend->mem_words());
    backend->system().core(c).read_shared_span(
        0, std::span<std::uint32_t>(img));
    images.push_back(std::move(img));
  }
  return images;
}

void expect_stats_eq(const LaunchStats& a, const LaunchStats& b,
                     const std::string& what) {
  EXPECT_EQ(a.exited, b.exited) << what;
  EXPECT_EQ(a.rounds, b.rounds) << what;
  EXPECT_EQ(a.perf.cycles, b.perf.cycles) << what;
  EXPECT_EQ(a.perf.instructions, b.perf.instructions) << what;
  EXPECT_EQ(a.perf.thread_ops, b.perf.thread_ops) << what;
  EXPECT_EQ(a.perf.shm_reads, b.perf.shm_reads) << what;
  EXPECT_EQ(a.perf.shm_writes, b.perf.shm_writes) << what;
  EXPECT_EQ(a.perf.per_opcode, b.perf.per_opcode) << what;
  EXPECT_EQ(a.staged_words, b.staged_words) << what;
  EXPECT_EQ(a.merged_words, b.merged_words) << what;
  EXPECT_EQ(a.staged_words_skipped, b.staged_words_skipped) << what;
  EXPECT_EQ(a.serial_cycles, b.serial_cycles) << what;
  EXPECT_EQ(a.overlap_cycles, b.overlap_cycles) << what;
  ASSERT_EQ(a.per_core.size(), b.per_core.size()) << what;
  for (std::size_t c = 0; c < a.per_core.size(); ++c) {
    EXPECT_EQ(a.per_core[c].staged_words, b.per_core[c].staged_words)
        << what << " core " << c;
    EXPECT_EQ(a.per_core[c].merged_words, b.per_core[c].merged_words)
        << what << " core " << c;
    EXPECT_EQ(a.per_core[c].exec_cycles, b.per_core[c].exec_cycles)
        << what << " core " << c;
    EXPECT_EQ(a.per_core[c].rounds, b.per_core[c].rounds)
        << what << " core " << c;
  }
}

/// One randomized scenario, replayed on two devices in lockstep:
/// alternating host dirty writes to random (often overlapping) ranges and
/// multi-round launches of a kernel whose footprint spans in/out windows
/// shared by every core. `pooled_launches`, when given, counts launches
/// whose first round side `b` certainly ran pooled.
void run_scenario(Side a, Side b, std::uint64_t seed, bool declared_abi,
                  const std::string& what, Shape shape = {},
                  unsigned* pooled_launches = nullptr) {
  Device dev_a(multicore_desc(shape.mem_words));
  Device dev_b(multicore_desc(shape.mem_words));
  dev_a.backend_as<MultiCoreBackend>()->set_inline_round_work(
      a.inline_round_work);
  dev_b.backend_as<MultiCoreBackend>()->set_inline_round_work(
      b.inline_round_work);
  Device* devs[] = {&dev_a, &dev_b};

  const unsigned n = 3 * kCores * kThreadsPerCore;  // 3 rounds per launch
  std::vector<Buffer<std::uint32_t>> in_bufs, out_bufs;
  std::vector<Module*> mods;
  for (Device* dev : devs) {
    auto in = dev->alloc<std::uint32_t>(n);
    auto out = dev->alloc<std::uint32_t>(n);
    Module& mod =
        declared_abi
            ? dev->load_module(kernels::vecadd_abi())
            : dev->load_module(
                  "movsr %r0, %tid\n"
                  "lds %r1, [%r0 + " + std::to_string(in.word_base()) + "]\n"
                  "muli %r2, %r1, 3\n"
                  "addi %r2, %r2, 7\n"
                  "sts [%r0 + " + std::to_string(out.word_base()) + "], %r2\n"
                  "exit\n");
    in_bufs.push_back(std::move(in));
    out_bufs.push_back(std::move(out));
    mods.push_back(&mod);
  }

  Xoshiro256 rng(seed);
  std::vector<std::uint32_t> init(n);
  for (auto& v : init) {
    v = rng.next_u32() % 10000;
  }
  for (int d = 0; d < 2; ++d) {
    in_bufs[d].write(init);
    if (declared_abi) {
      out_bufs[d].write(init);  // vecadd reuses out as the second addend
    }
  }

  for (unsigned round = 0; round < 6; ++round) {
    // Dirty a few random host ranges -- sometimes overlapping each other
    // and the footprint slices, sometimes outside the kernel's window.
    const unsigned dirties = 1 + static_cast<unsigned>(rng.next_below(4));
    for (unsigned k = 0; k < dirties; ++k) {
      const auto base = static_cast<std::uint32_t>(
          rng.next_below(shape.mem_words - shape.max_dirty));
      const auto len =
          1 + static_cast<unsigned>(rng.next_below(shape.max_dirty));
      std::vector<std::uint32_t> chunk(len);
      for (auto& v : chunk) {
        v = rng.next_u32() % 10000;
      }
      for (Device* dev : devs) {
        dev->write_words(base, std::span<const std::uint32_t>(chunk));
      }
    }

    // Vary the grid so rounds split unevenly across cores.
    const unsigned threads =
        1 + static_cast<unsigned>(rng.next_below(n));
    std::vector<LaunchStats> stats;
    for (int d = 0; d < 2; ++d) {
      if (declared_abi) {
        stats.push_back(devs[d]->launch_sync(
            mods[d]->kernel("vecadd"), threads,
            KernelArgs().arg(in_bufs[d]).arg(out_bufs[d]).arg(out_bufs[d])));
      } else {
        stats.push_back(devs[d]->launch_sync(mods[d]->kernel(), threads));
      }
    }
    expect_stats_eq(stats[0], stats[1],
                    what + " round " + std::to_string(round));
    // The first round stages what the host dirtied; the two later rounds
    // stage at most the words earlier rounds merged, n per core each. So
    // a launch staging more than threshold + 2 * kCores * n words ran its
    // first round above the threshold, on the pool.
    if (pooled_launches != nullptr &&
        stats[1].staged_words >= b.inline_round_work + 2 * kCores * n) {
      ++*pooled_launches;
    }

    // Both masters and every per-core private image must match.
    std::vector<std::uint32_t> ma(shape.mem_words), mb(shape.mem_words);
    dev_a.read_words(0, std::span<std::uint32_t>(ma));
    dev_b.read_words(0, std::span<std::uint32_t>(mb));
    ASSERT_EQ(ma, mb) << what << " master mismatch, round " << round;
    const auto ia = core_images(dev_a);
    const auto ib = core_images(dev_b);
    for (unsigned c = 0; c < kCores; ++c) {
      ASSERT_EQ(ia[c], ib[c])
          << what << " core " << c << " image mismatch, round " << round;
    }
  }
}

TEST(ParallelStaging, RandomizedInlineMatchesPooled) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    run_scenario(Side{kAllInline}, Side{kAllPooled}, seed,
                 /*declared_abi=*/false,
                 "conservative seed " + std::to_string(seed));
  }
}

TEST(ParallelStaging, StagingHeavyRoundsCrossTheThresholdAndMatchInline) {
  // Host dirty ranges of up to 384K words in a 512K-word memory: under
  // conservative staging every core restages them, which puts a launch's
  // first round above the inline threshold, so side b (default threshold)
  // pools those rounds with no override while side a runs all inline.
  Shape heavy;
  heavy.mem_words = 512 * 1024;
  heavy.max_dirty = 384 * 1024;
  unsigned pooled = 0;
  for (const std::uint64_t seed : {4ull, 5ull}) {
    run_scenario(Side{kAllInline}, Side{}, seed, /*declared_abi=*/false,
                 "heavy seed " + std::to_string(seed), heavy, &pooled);
  }
  EXPECT_GT(pooled, 0u) << "no launch crossed the inline threshold";
}

TEST(ParallelStaging, InlineAndPooledRoundsAgree) {
  // The same randomized launch sequence with every round inline on one
  // device and every round pooled on the other: identical master, per-core
  // images, word accounting and perf counters, for conservative and
  // declared footprints.
  for (const bool declared : {false, true}) {
    for (const std::uint64_t seed : {0x1a7eull, 0x5eedull}) {
      run_scenario(Side{kAllInline}, Side{kAllPooled}, seed + declared,
                   declared,
                   std::string(declared ? "declared" : "conservative") +
                       " seed " + std::to_string(seed + declared));
    }
  }
}

TEST(ParallelStaging, MeasuredWallSplitsArePopulated) {
  // Stage and run time are timed apart on both paths.
  for (const std::uint64_t work : {kAllInline, kAllPooled}) {
    const std::string what = "inline_round_work=" + std::to_string(work);
    Device dev(multicore_desc());
    dev.backend_as<MultiCoreBackend>()->set_inline_round_work(work);
    auto in = dev.alloc<std::uint32_t>(256);
    auto out = dev.alloc<std::uint32_t>(256);
    Module& mod = dev.load_module(
        "movsr %r0, %tid\n"
        "lds %r1, [%r0 + " + std::to_string(in.word_base()) + "]\n"
        "addi %r2, %r1, 1\n"
        "sts [%r0 + " + std::to_string(out.word_base()) + "], %r2\n"
        "exit\n");
    std::vector<std::uint32_t> host(256, 5);
    in.write(host);

    const auto stats = dev.launch_sync(mod.kernel(), 256);
    EXPECT_GT(stats.host_wall_us, 0.0) << what;
    EXPECT_GT(stats.host_exec_us, 0.0) << what;
    EXPECT_GT(stats.host_stage_us, 0.0) << what;  // 256 words written
    EXPECT_GE(stats.host_merge_us, 0.0) << what;
    double per_core_exec = 0.0;
    double per_core_stage = 0.0;
    for (const auto& c : stats.per_core) {
      EXPECT_GE(c.host_exec_us, 0.0) << what;
      per_core_exec += c.host_exec_us;
      per_core_stage += c.host_stage_us;
    }
    EXPECT_DOUBLE_EQ(per_core_exec, stats.host_exec_us) << what;
    EXPECT_DOUBLE_EQ(per_core_stage, stats.host_stage_us) << what;
    for (unsigned i = 0; i < 256; ++i) {
      ASSERT_EQ(out.at(i), 6u) << what << " " << i;
    }
  }
}

TEST(ParallelStaging, FaultsSurfaceOnBothPaths) {
  // Inline rounds (the default for these small launches) and pooled ones.
  for (const std::uint64_t work : {MultiCoreBackend::kInlineRoundWork,
                                   kAllPooled}) {
    const std::string what = "inline_round_work=" + std::to_string(work);
    Device dev(multicore_desc());
    dev.backend_as<MultiCoreBackend>()->set_inline_round_work(work);
    Module& ok = dev.load_module("movi %r1, 1\nexit\n");
    EXPECT_TRUE(dev.launch_sync(ok.kernel(), 4 * kThreadsPerCore).exited)
        << what;

    // A faulting kernel surfaces its error, and the device stays usable
    // afterwards.
    Module& bad = dev.load_module(
        "movi %r0, 9999\n"
        "sts [%r0], %r0\n"
        "exit\n");
    EXPECT_THROW(dev.launch_sync(bad.kernel(), 16), Error) << what;
    EXPECT_TRUE(dev.launch_sync(ok.kernel(), 16).exited) << what;
  }
}

}  // namespace
}  // namespace simt::runtime
