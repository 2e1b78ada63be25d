// Tests for the multi-core system layer (Section 6 future work).
#include "system/multicore.hpp"

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace simt::system {
namespace {

// c[i] = a[i] + b[i] with a@0, b@128, c@256. MultiCoreSystem loads raw
// source with no argument binding, so this kernel carries no directives.
constexpr const char* kVecadd =
    "movsr %r0, %tid\n"
    "lds %r1, [%r0]\n"
    "lds %r2, [%r0 + 128]\n"
    "add %r3, %r1, %r2\n"
    "sts [%r0 + 256], %r3\n"
    "exit\n";

SystemConfig small_system(unsigned cores) {
  SystemConfig cfg;
  cfg.num_cores = cores;
  cfg.core.max_threads = 128;
  cfg.core.shared_mem_words = 1024;
  return cfg;
}

TEST(System, SplitRangeCoversAll) {
  const auto parts = MultiCoreSystem::split_range(100, 3);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], (std::pair<unsigned, unsigned>{0, 33}));
  EXPECT_EQ(parts[1], (std::pair<unsigned, unsigned>{33, 66}));
  EXPECT_EQ(parts[2], (std::pair<unsigned, unsigned>{66, 100}));
}

TEST(System, CoresRunIndependently) {
  MultiCoreSystem sys(small_system(3));
  sys.load_kernel_all(kVecadd);
  // Distinct data per core.
  for (unsigned c = 0; c < 3; ++c) {
    for (unsigned i = 0; i < 128; ++i) {
      sys.core(c).write_shared(i, i * (c + 1));
      sys.core(c).write_shared(128 + i, 10 * (c + 1));
    }
  }
  const auto res = sys.run({{0, 128}, {1, 128}, {2, 128}});
  ASSERT_EQ(res.per_core.size(), 3u);
  for (unsigned c = 0; c < 3; ++c) {
    EXPECT_TRUE(res.per_core[c].exited);
    for (unsigned i = 0; i < 128; ++i) {
      EXPECT_EQ(sys.core(c).read_shared(256 + i), i * (c + 1) + 10 * (c + 1))
          << "core " << c << " i " << i;
    }
  }
}

TEST(System, WallClockUsesMaxCyclesOverCores) {
  MultiCoreSystem sys(small_system(2));
  sys.load_kernel(0, kVecadd);
  // Core 1 runs a much longer kernel (a loop).
  sys.load_kernel(1,
                  "movi %r1, 0\n"
                  "loopi 1000, end\n"
                  "addi %r2, %r1, 1\n"
                  "end: exit\n");
  const auto res = sys.run({{0, 128}, {1, 16}});
  EXPECT_EQ(res.max_cycles, std::max(res.per_core[0].perf.cycles,
                                     res.per_core[1].perf.cycles));
  EXPECT_EQ(res.max_cycles, res.per_core[1].perf.cycles);
}

TEST(System, ClockModelFollowsTable2Regime) {
  SystemConfig cfg = small_system(1);
  EXPECT_DOUBLE_EQ(cfg.clock_mhz(), 927.0);  // single tightly packed core
  cfg.num_cores = 3;
  EXPECT_DOUBLE_EQ(cfg.clock_mhz(), 854.0);  // multi-stamp system clock
}

TEST(System, WallClockAccountsRealizedClock) {
  MultiCoreSystem sys(small_system(1));
  sys.load_kernel_all(kVecadd);
  const auto res = sys.run({{0, 128}});
  EXPECT_NEAR(res.wall_us,
              static_cast<double>(res.max_cycles) / 927.0, 1e-9);
}

TEST(System, DispatchValidation) {
  MultiCoreSystem sys(small_system(2));
  sys.load_kernel_all(kVecadd);
  EXPECT_THROW(sys.run({{5, 16}}), Error);           // no such core
  EXPECT_THROW(sys.run({{0, 16}, {0, 16}}), Error);  // duplicate core
  EXPECT_THROW(MultiCoreSystem(SystemConfig{0, {}, 927, 854}), Error);
}

TEST(System, AggregateThreadOps) {
  MultiCoreSystem sys(small_system(2));
  sys.load_kernel_all(kVecadd);
  const auto res = sys.run({{0, 128}, {1, 64}});
  EXPECT_EQ(res.total_thread_ops(), res.per_core[0].perf.thread_ops +
                                        res.per_core[1].perf.thread_ops);
}

/// Stage per-core vecadd inputs: a[i] = i * (core + 1), b[i] = 10.
void stage_vecadd_inputs(MultiCoreSystem& sys, unsigned c) {
  for (unsigned i = 0; i < 128; ++i) {
    sys.core(c).write_shared(i, i * (c + 1));
    sys.core(c).write_shared(128 + i, 10);
  }
}

TEST(System, EachCoreStagesThenRunsAsOneBody) {
  // Inline: every body on the calling thread. Pooled: one job per core,
  // each on that core's own dispatch worker.
  for (const bool inline_round : {true, false}) {
    MultiCoreSystem sys(small_system(3));
    sys.load_kernel_all(kVecadd);
    std::vector<std::thread::id> stage_thread(3);
    const auto res =
        sys.run({{0, 128}, {1, 128}, {2, 128}}, inline_round,
                [&](unsigned c) {
                  stage_thread[c] = std::this_thread::get_id();
                  stage_vecadd_inputs(sys, c);
                });
    ASSERT_EQ(res.stage_us.size(), 3u);
    std::set<std::thread::id> threads;
    for (unsigned c = 0; c < 3; ++c) {
      EXPECT_GE(res.stage_us[c], 0.0);
      EXPECT_EQ(stage_thread[c] == std::this_thread::get_id(), inline_round)
          << "core " << c;
      threads.insert(stage_thread[c]);
      for (unsigned i = 0; i < 128; ++i) {
        ASSERT_EQ(sys.core(c).read_shared(256 + i), i * (c + 1) + 10)
            << "inline=" << inline_round << " core " << c << " i " << i;
      }
    }
    EXPECT_EQ(threads.size(), inline_round ? 1u : 3u);
  }
}

TEST(System, AThrowingStageSkipsOnlyItsCoreAndSurfacesAfterAllSettle) {
  for (const bool inline_round : {true, false}) {
    MultiCoreSystem sys(small_system(3));
    sys.load_kernel_all(kVecadd);
    EXPECT_THROW(sys.run({{0, 128}, {1, 128}, {2, 128}}, inline_round,
                         [&](unsigned c) {
                           if (c == 1) {
                             throw Error("staging failed");
                           }
                           stage_vecadd_inputs(sys, c);
                         }),
                 Error);
    // Cores 0 and 2 ran; core 1 never started its kernel.
    EXPECT_EQ(sys.core(0).read_shared(256 + 5), 5u + 10u);
    EXPECT_EQ(sys.core(2).read_shared(256 + 5), 15u + 10u);
    EXPECT_EQ(sys.core(1).read_shared(256 + 5), 0u);
  }
}

}  // namespace
}  // namespace simt::system
