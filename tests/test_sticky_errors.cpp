// Regression tests for sticky-error propagation: a device fault must surface
// on the non-blocking Event handles (resolved/failed/rethrow_if_failed), not
// only at Stream::synchronize(), and a recovered device must not resurrect
// an old fault on reused or fresh streams. The faulted graph replay is
// covered in test_graph.cpp (BufferGeneration.FrozenGraphReplayAfterReset-
// Throws).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "kernels/kernels.hpp"
#include "runtime/buffer.hpp"
#include "runtime/device.hpp"
#include "runtime/module.hpp"
#include "runtime/stream.hpp"

namespace simt::runtime {
namespace {

core::CoreConfig small_cfg(unsigned threads = 64, unsigned mem_words = 2048) {
  core::CoreConfig c;
  c.max_threads = threads;
  c.shared_mem_words = mem_words;
  c.predicates_enabled = true;
  return c;
}

/// An elementwise-shaped ABI kernel that always faults: stores far beyond
/// the 2048-word device memory.
std::string boom_abi() {
  return ".kernel boom\n"
         ".param in buffer\n"
         ".param out buffer\n"
         "movi %r0, 9999\n"
         "sts [%r0], %r0\n"
         "exit\n";
}

TEST(StickyErrors, EventResolvedAndRethrowIfFailed) {
  Device dev(DeviceDescriptor::simt_core(small_cfg()));
  Module& bad = dev.load_module(
      "movi %r0, 9999\n"
      "sts [%r0], %r0\n"
      "exit\n");
  Module& ok = dev.load_module("movi %r1, 5\nexit\n");

  Event fault = dev.stream().launch(bad.kernel(), 16);
  Event fine = dev.stream().launch(ok.kernel(), 16);
  EXPECT_THROW(dev.stream().synchronize(), Error);

  // resolved() is the poll that cannot hang on a fault: the failed event
  // never reads as done(), but it has resolved.
  EXPECT_TRUE(fault.resolved());
  EXPECT_FALSE(fault.done());
  EXPECT_TRUE(fault.failed());
  EXPECT_THROW(fault.rethrow_if_failed(), Error);
  // ...and on a healthy event it is equivalent to done(), with
  // rethrow_if_failed a no-op.
  EXPECT_TRUE(fine.resolved());
  EXPECT_TRUE(fine.done());
  EXPECT_NO_THROW(fine.rethrow_if_failed());
}

TEST(StickyErrors, ResetThenReuseDoesNotResurrectOldFault) {
  Device dev(DeviceDescriptor::simt_core(small_cfg()));
  const auto boom = dev.load_module(boom_abi()).kernel("boom");
  auto in = dev.alloc<std::uint32_t>(4);
  auto out = dev.alloc<std::uint32_t>(4);

  // Fault the default stream, but do NOT synchronize: the sticky error is
  // parked in the stream's slot, exactly the state a recovery path finds.
  Event fault =
      dev.stream().launch(boom, 4, KernelArgs().arg(in).arg(out));
  EXPECT_THROW(fault.wait(), Error);  // wait() does not consume the slot
  EXPECT_TRUE(fault.failed());

  // Recovery: wipe device memory and move new work to a fresh stream. The
  // fresh stream has its own error slot -- the old fault must not leak
  // into it.
  dev.mem_reset();
  Stream& fresh = dev.create_stream();
  const auto ok = dev.load_module(kernels::scale_abi()).kernel("scale");
  auto in2 = dev.alloc<std::uint32_t>(4);
  auto out2 = dev.alloc<std::uint32_t>(4);
  const std::vector<std::uint32_t> payload{1, 2, 3, 4};
  std::vector<std::uint32_t> result(4, 0);
  fresh.copy_in(in2, std::span<const std::uint32_t>(payload));
  fresh.launch(ok, 4, KernelArgs().arg(in2).arg(out2).scalar(3).scalar(5));
  fresh.copy_out(out2, std::span<std::uint32_t>(result));
  EXPECT_NO_THROW(fresh.synchronize());
  for (std::size_t i = 0; i < result.size(); ++i) {
    EXPECT_EQ(result[i], payload[i] * 3 + 5);
  }

  // The faulted stream still holds its parked sticky error. clear_error()
  // (the documented test/recovery escape hatch) drops it, after which the
  // stream is reusable and the old fault never resurfaces.
  dev.stream().clear_error();
  dev.stream().launch(ok, 4,
                      KernelArgs().arg(in2).arg(out2).scalar(2).scalar(0));
  EXPECT_NO_THROW(dev.stream().synchronize());
}

}  // namespace
}  // namespace simt::runtime
