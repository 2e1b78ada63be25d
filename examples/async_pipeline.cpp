// Async pipeline: serve a queue of small requests with request coalescing
// and two ping-ponged streams -- the production-traffic shape the runtime
// is built for.
//
// Each batch of requests is coalesced into ONE sharded grid launch (one
// copy-in, one launch over every request's threads, one copy-out instead
// of one each per request), and alternating two streams over disjoint
// staging buffers lets batch N+1's copy-in overlap batch N's execution on
// the scheduler's modeled engines -- double-buffered staging. The scheduler
// timeline at the end shows the modeled gain over executing every command
// back to back.
//
// Build & run:  ./example_async_pipeline
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "kernels/kernels.hpp"
#include "runtime/buffer.hpp"
#include "runtime/device.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/stream.hpp"

int main() {
  using namespace simt;

  // A 2-core device: each core 64 threads, one shared 8 K-word memory map.
  core::CoreConfig cfg;
  cfg.max_threads = 64;
  cfg.shared_mem_words = 8192;
  runtime::Device dev(runtime::DeviceDescriptor::multi_core(2, cfg));

  constexpr unsigned kRequestWords = 128;  // elements per request
  constexpr unsigned kBatch = 4;           // requests per coalesced launch
  constexpr unsigned kRequests = 24;

  // Double buffer: each stream owns its own in/out staging area.
  auto& stream_a = dev.stream();
  auto& stream_b = dev.create_stream();
  auto in_a = dev.alloc<std::uint32_t>(kRequestWords * kBatch, 16);
  auto out_a = dev.alloc<std::uint32_t>(kRequestWords * kBatch, 16);
  auto in_b = dev.alloc<std::uint32_t>(kRequestWords * kBatch, 16);
  auto out_b = dev.alloc<std::uint32_t>(kRequestWords * kBatch, 16);

  // Elementwise request kernel: out[tid] = 5 * in[tid] + 1. ONE module
  // serves both ping-pong streams -- the kernel ABI binds each stream's
  // staging buffers (and the scale/offset scalars) at launch time, so the
  // source is assembled once no matter how many buffer sets it serves.
  auto& mod = dev.load_module(kernels::scale_abi());
  const auto kernel = mod.kernel("scale");

  // Serve the request traffic: batch b carries requests [b*kBatch,
  // b*kBatch + n) as one copy-in of their concatenated inputs, one launch
  // over n * kRequestWords threads (request j owns the j-th kRequestWords
  // tids), and one copy-out into its slice of the host results. Batches
  // alternate between the two streams, so the scheduler can stage one
  // batch while the other executes.
  std::vector<std::uint32_t> results(kRequests * kRequestWords);
  unsigned batches = 0;
  for (unsigned first = 0; first < kRequests; first += kBatch) {
    const unsigned n = std::min(kBatch, kRequests - first);
    const bool on_a = batches % 2 == 0;
    auto& stream = on_a ? stream_a : stream_b;
    auto& in = on_a ? in_a : in_b;
    auto& out = on_a ? out_a : out_b;
    std::vector<std::uint32_t> batch_in(n * kRequestWords);
    for (unsigned j = 0; j < n; ++j) {
      for (unsigned i = 0; i < kRequestWords; ++i) {
        batch_in[j * kRequestWords + i] = (first + j) * 1000 + i;
      }
    }
    stream.copy_in(in, std::span<const std::uint32_t>(batch_in));
    stream.launch(kernel, n * kRequestWords,
                  runtime::KernelArgs().arg(in).arg(out).scalar(5).scalar(1));
    stream.copy_out(out, std::span<std::uint32_t>(
                             results.data() + first * kRequestWords,
                             n * kRequestWords));
    ++batches;
  }
  stream_a.synchronize();
  stream_b.synchronize();

  // Validate every request's slice of the batched results.
  for (unsigned r = 0; r < kRequests; ++r) {
    const std::uint32_t* result = results.data() + r * kRequestWords;
    for (unsigned i = 0; i < kRequestWords; ++i) {
      const std::uint32_t want = 5 * (r * 1000 + i) + 1;
      if (result[i] != want) {
        std::printf("FAIL: request %u elem %u: %u != %u\n", r, i, result[i],
                    want);
        return 1;
      }
    }
  }

  const auto t = dev.scheduler().timeline();
  std::printf("served %u requests in %u coalesced launches "
              "(%u launches saved)\n", kRequests, batches,
              kRequests - batches);
  std::printf("one shared module: %llu assembly, %llu cache hits\n",
              static_cast<unsigned long long>(dev.module_cache_misses()),
              static_cast<unsigned long long>(dev.module_cache_hits()));
  std::printf("modeled: %.2f us back to back, %.2f us with double-buffered "
              "staging (%.2fx)\n", t.serial_us, t.overlap_us,
              t.overlap_speedup());
  std::puts("OK");
  return 0;
}
