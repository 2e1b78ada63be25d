// Tests for the kernel library: every generator validated against a golden
// reference on randomized data, across sizes (parameterized). Each kernel
// runs on a SimtCore device with its parameters bound through KernelArgs,
// the one way the library is launched.
#include "kernels/kernels.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "runtime/buffer.hpp"
#include "runtime/device.hpp"

namespace simt::kernels {
namespace {

using runtime::Buffer;
using runtime::Device;
using runtime::DeviceDescriptor;
using runtime::KernelArgs;

DeviceDescriptor core_for(unsigned threads, unsigned shared_words = 4096) {
  core::CoreConfig cfg;
  cfg.max_threads = std::max(threads, 16u);
  cfg.shared_mem_words = shared_words;
  cfg.predicates_enabled = true;
  return DeviceDescriptor::simt_core(cfg);
}

/// Launch the kernel `src` declares over `threads` threads with `args`.
void run_kernel(Device& dev, const std::string& src, unsigned threads,
                const KernelArgs& args) {
  const auto stats =
      dev.launch_sync(dev.load_module(src).kernel(), threads, args);
  EXPECT_TRUE(stats.exited);
}

Buffer<std::uint32_t> upload(Device& dev,
                             const std::vector<std::uint32_t>& host) {
  auto buf = dev.alloc<std::uint32_t>(host.size());
  buf.write(host);
  return buf;
}

TEST(Kernels, VecAdd) {
  Xoshiro256 rng(1);
  std::vector<std::uint32_t> ha(512), hb(512);
  for (unsigned i = 0; i < 512; ++i) {
    ha[i] = rng.next_u32();
    hb[i] = rng.next_u32();
  }
  Device dev(core_for(512));
  const auto a = upload(dev, ha);
  const auto b = upload(dev, hb);
  const auto c = dev.alloc<std::uint32_t>(512);
  run_kernel(dev, vecadd_abi(), 512, KernelArgs().arg(a).arg(b).arg(c));
  for (unsigned i = 0; i < 512; ++i) {
    EXPECT_EQ(c.at(i), ha[i] + hb[i]);
  }
}

TEST(Kernels, SaxpyQ16) {
  Xoshiro256 rng(2);
  const std::int32_t alpha = 3 << 16 | 0x4000;  // 3.25 in Q16
  std::vector<std::uint32_t> hx(256), hy(256);
  for (unsigned i = 0; i < 256; ++i) {
    hx[i] = static_cast<std::uint32_t>(rng.next_in(-100000, 100000));
    hy[i] = static_cast<std::uint32_t>(rng.next_in(-100000, 100000));
  }
  Device dev(core_for(256));
  const auto x = upload(dev, hx);
  const auto y = upload(dev, hy);
  const auto out = dev.alloc<std::uint32_t>(256);
  run_kernel(dev, saxpy_abi(16), 256,
             KernelArgs().arg(x).arg(y).arg(out).scalar(
                 static_cast<std::uint32_t>(alpha)));
  for (unsigned i = 0; i < 256; ++i) {
    const std::int64_t prod = static_cast<std::int64_t>(alpha) *
                              static_cast<std::int32_t>(hx[i]);
    const auto expect = static_cast<std::uint32_t>(
        static_cast<std::int32_t>(prod >> 16) +
        static_cast<std::int32_t>(hy[i]));
    EXPECT_EQ(out.at(i), expect) << i;
  }
}

class KernelFirSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(KernelFirSweep, MatchesGolden) {
  const unsigned taps = GetParam();
  Xoshiro256 rng(taps);
  const unsigned n = 128;
  std::vector<std::uint32_t> hx(n + taps), hcoef(taps);
  for (auto& v : hx) {
    v = static_cast<std::uint32_t>(rng.next_in(-1000, 1000));
  }
  for (auto& v : hcoef) {
    v = static_cast<std::uint32_t>(rng.next_in(-500, 500));
  }
  Device dev(core_for(n));
  const auto x = upload(dev, hx);
  const auto coef = upload(dev, hcoef);
  const auto y = dev.alloc<std::uint32_t>(n);
  run_kernel(dev, fir_abi(taps, 4), n,
             KernelArgs().arg(x).arg(coef).arg(y));
  for (unsigned t = 0; t < n; ++t) {
    std::int64_t acc = 0;
    for (unsigned k = 0; k < taps; ++k) {
      acc += static_cast<std::int64_t>(static_cast<std::int32_t>(hcoef[k])) *
             static_cast<std::int32_t>(hx[t + k]);
    }
    EXPECT_EQ(static_cast<std::int32_t>(y.at(t)),
              static_cast<std::int32_t>(acc >> 4))
        << "taps=" << taps << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Taps, KernelFirSweep,
                         ::testing::Values(1u, 3u, 8u, 16u));

class KernelMatmulSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(KernelMatmulSweep, MatchesGolden) {
  const unsigned dim = GetParam();
  Xoshiro256 rng(dim * 31);
  std::vector<std::uint32_t> ha(dim * dim), hb(dim * dim);
  for (auto* m : {&ha, &hb}) {
    for (auto& v : *m) {
      v = static_cast<std::uint32_t>(rng.next_in(-50, 50));
    }
  }
  const unsigned threads = dim * dim;
  Device dev(core_for(threads));
  const auto a = upload(dev, ha);
  const auto b = upload(dev, hb);
  const auto c = dev.alloc<std::uint32_t>(threads);
  run_kernel(dev, matmul_abi(dim), threads,
             KernelArgs().arg(a).arg(b).arg(c));
  for (unsigned i = 0; i < dim; ++i) {
    for (unsigned j = 0; j < dim; ++j) {
      std::int64_t acc = 0;
      for (unsigned k = 0; k < dim; ++k) {
        acc += static_cast<std::int64_t>(
                   static_cast<std::int32_t>(ha[i * dim + k])) *
               static_cast<std::int32_t>(hb[k * dim + j]);
      }
      EXPECT_EQ(static_cast<std::int32_t>(c.at(i * dim + j)),
                static_cast<std::int32_t>(acc))
          << dim << " " << i << "," << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, KernelMatmulSweep,
                         ::testing::Values(4u, 8u, 16u, 32u));

// Tree-reduce, scan and histogram are not shard-safe (SETTI / lockstep), so
// their golden tests run on the single-core backend in one round.

class KernelReduceSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(KernelReduceSweep, SumMatches) {
  const unsigned n = GetParam();
  Xoshiro256 rng(n);
  std::vector<std::uint32_t> init(n);
  std::uint32_t golden = 0;
  for (auto& v : init) {
    v = rng.next_u32();
    golden += v;
  }
  Device dev(core_for(n));
  const auto data = upload(dev, init);
  run_kernel(dev, tree_reduce_abi(n), n, KernelArgs().arg(data));
  EXPECT_EQ(data.at(0), golden);
}

INSTANTIATE_TEST_SUITE_P(Sizes, KernelReduceSweep,
                         ::testing::Values(16u, 64u, 256u, 1024u));

class KernelScanSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(KernelScanSweep, InclusivePrefixSum) {
  const unsigned n = GetParam();
  Xoshiro256 rng(n * 7);
  std::vector<std::uint32_t> init(n);
  for (auto& v : init) {
    v = static_cast<std::uint32_t>(rng.next_below(1000));
  }
  Device dev(core_for(n));
  const auto data = upload(dev, init);
  run_kernel(dev, scan_abi(n), n, KernelArgs().arg(data));
  std::uint32_t acc = 0;
  for (unsigned i = 0; i < n; ++i) {
    acc += init[i];
    EXPECT_EQ(data.at(i), acc) << "n=" << n << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, KernelScanSweep,
                         ::testing::Values(16u, 64u, 128u, 512u));

TEST(Kernels, HistogramMatchesGolden) {
  constexpr unsigned kN = 1024;
  constexpr unsigned kThreads = 64;
  constexpr unsigned kBinsLog2 = 4;  // 16 bins
  constexpr unsigned kBins = 1u << kBinsLog2;
  Xoshiro256 rng(99);
  std::vector<std::uint32_t> init(kN);
  std::vector<std::uint32_t> golden(kBins, 0);
  for (auto& v : init) {
    v = rng.next_u32();
    golden[v & (kBins - 1)]++;
  }
  Device dev(core_for(kThreads));
  const auto data = upload(dev, init);
  const auto hist = dev.alloc<std::uint32_t>(kBins);
  const auto scratch = dev.alloc<std::uint32_t>(kThreads * kBins);
  run_kernel(dev, histogram_abi(kBinsLog2, kN, kThreads), kThreads,
             KernelArgs().arg(data).arg(hist).arg(scratch));
  EXPECT_EQ(hist.read(), golden);
}

TEST(Kernels, HistogramValidatesArguments) {
  EXPECT_THROW(histogram_abi(4, 100, 64), Error);   // n % threads != 0
  EXPECT_THROW(histogram_abi(8, 1024, 64), Error);  // bins > threads
  // 2^32 bins is not representable; rejected before the shift.
  EXPECT_THROW(histogram_abi(32, 4096, 4096), Error);
  EXPECT_THROW(histogram_abi(13, 8192, 8192), Error);  // > 4096 bins
  EXPECT_THROW(matmul_abi(12), Error);                 // non-power-of-two
  EXPECT_THROW(scan_abi(100), Error);
  EXPECT_THROW(tree_reduce_abi(48), Error);
  EXPECT_THROW(reduce_abi(3), Error);
}

}  // namespace
}  // namespace simt::kernels
