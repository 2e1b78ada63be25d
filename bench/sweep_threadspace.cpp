// Thread/register space sweep (Section 2: "parameterized thread and
// register spaces. Up to 4096 threads and 64K registers can be specified by
// the user"). The datapath logic is invariant; the register files grow with
// the thread space, and per-instruction clocks scale with block depth.
#include <cstdio>

#include "area/resource_model.hpp"
#include "common/table.hpp"
#include "kernels/kernels.hpp"
#include "runtime/buffer.hpp"
#include "runtime/device.hpp"

int main() {
  using namespace simt;

  std::puts("== Thread & register space sweep ==\n");

  Table t({"threads", "regs/thr", "total regs", "RF M20K/SP", "core M20K",
           "op clk", "vecadd cycles"});
  struct Point {
    unsigned threads, regs;
  };
  const Point points[] = {{256, 16},  {512, 16},  {1024, 16},
                          {1024, 32}, {2048, 16}, {4096, 16}};
  for (const auto& [threads, regs] : points) {
    core::CoreConfig cfg;
    cfg.max_threads = threads;
    cfg.regs_per_thread = regs;
    cfg.shared_mem_words = 4096;
    cfg.predicates_enabled = false;
    const auto res = area::estimate(cfg, {});

    // a@0, b@1024, c@2048; the grid fits the core, so one round.
    runtime::Device dev(runtime::DeviceDescriptor::simt_core(cfg));
    const auto a = dev.alloc<std::uint32_t>(1024);
    const auto b = dev.alloc<std::uint32_t>(1024);
    const auto c = dev.alloc<std::uint32_t>(1024);
    const auto run = dev.launch_sync(
        dev.load_module(kernels::vecadd_abi()).kernel(),
        std::min(threads, 1024u),
        runtime::KernelArgs().arg(a).arg(b).arg(c));

    t.add_row({fmt_int(threads), fmt_int(regs),
               fmt_int(threads * regs), fmt_int(res.sp_other.m20k),
               fmt_int(res.gpgpu.m20k), fmt_int(cfg.rows_for(threads)),
               fmt_int(static_cast<long long>(run.perf.cycles))});
  }
  t.print();

  std::puts(
      "\nthe maximum configuration (4096 threads x 16 regs = 64K registers)\n"
      "is the paper's stated ceiling; register files dominate the M20K\n"
      "budget as the thread space grows, while the SP datapath logic stays\n"
      "constant (371 ALMs).");
  return 0;
}
