// Deterministic fault injection (common/faults.hpp) and the recovery
// machinery it exercises: seeded reproducibility of the fault trace, every
// injection site firing and being survived, corruption caught by the
// three-backend differential and by the serving tier's verify hook, the
// watchdog failing a stalled replay with a named DeadlineExceeded error,
// the Quarantined -> Probation -> Healthy canary round-trip, and the Block
// overload policy waking a blocked submit on its deadline.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/error.hpp"
#include "common/faults.hpp"
#include "kernels/kernels.hpp"
#include "runtime/buffer.hpp"
#include "runtime/device.hpp"
#include "runtime/graph.hpp"
#include "runtime/module.hpp"
#include "runtime/stream.hpp"

namespace simt {
namespace {

namespace rt = simt::runtime;
using faults::FaultInjector;
using faults::FaultPlan;
using faults::FaultSite;

core::CoreConfig small_cfg(unsigned threads = 64, unsigned mem_words = 2048) {
  core::CoreConfig c;
  c.max_threads = threads;
  c.shared_mem_words = mem_words;
  c.predicates_enabled = true;
  return c;
}

// ---- spec grammar -----------------------------------------------------------

TEST(FaultSpec, ParsesTheFullGrammar) {
  const auto plan = FaultPlan::parse(
      "copy_in:transient:p=0.01; launch:sticky:after=200 ;"
      "dma:stall=50us;replay:corrupt:limit=3;staging:stall=2ms");
  // dma expands to copy_in + copy_out, so 6 rules total.
  ASSERT_EQ(plan.rules.size(), 6u);
  EXPECT_EQ(plan.rules[0].site, FaultSite::CopyIn);
  EXPECT_DOUBLE_EQ(plan.rules[0].p, 0.01);
  EXPECT_EQ(plan.rules[1].site, FaultSite::Launch);
  EXPECT_EQ(plan.rules[1].kind, faults::FaultKind::Sticky);
  EXPECT_EQ(plan.rules[1].after, 200u);
  EXPECT_EQ(plan.rules[2].stall_us, 50u);
  EXPECT_EQ(plan.rules[3].stall_us, 50u);
  EXPECT_EQ(plan.rules[4].limit, 3u);
  EXPECT_EQ(plan.rules[5].stall_us, 2000u);
  EXPECT_TRUE(FaultPlan::parse("").empty());
  EXPECT_TRUE(FaultPlan::parse(" ; ; ").empty());
  EXPECT_EQ(FaultInjector::from_spec("", 1), nullptr);
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("bogus:transient"), Error);
  EXPECT_THROW(FaultPlan::parse("copy_in"), Error);
  EXPECT_THROW(FaultPlan::parse("copy_in:explode"), Error);
  EXPECT_THROW(FaultPlan::parse("copy_in:transient:p=1.5"), Error);
  EXPECT_THROW(FaultPlan::parse("copy_in:transient:p=x"), Error);
  EXPECT_THROW(FaultPlan::parse("launch:transient:after=ten"), Error);
  EXPECT_THROW(FaultPlan::parse("launch:stall=50s"), Error);
  EXPECT_THROW(FaultPlan::parse("launch:transient:frobnicate=1"), Error);
}

// ---- seeded determinism -----------------------------------------------------

/// Drive one injector through a fixed trigger sequence, swallowing thrown
/// faults, and return its trace.
std::string drive(FaultInjector& inj, unsigned rounds) {
  std::vector<std::uint32_t> payload(8, 0xffffffffu);
  for (unsigned i = 0; i < rounds; ++i) {
    for (const FaultSite s :
         {FaultSite::CopyIn, FaultSite::Launch, FaultSite::CopyOut,
          FaultSite::Replay, FaultSite::Staging}) {
      try {
        inj.at(s, payload);
      } catch (const Error&) {
      }
    }
  }
  return inj.trace_string();
}

TEST(FaultDeterminism, SameSpecAndSeedSameTrace) {
  const char* spec =
      "copy_in:transient:p=0.3;launch:corrupt:p=0.4;copy_out:transient:p=0.2;"
      "replay:sticky:after=20:limit=5";
  auto a = FaultInjector::from_spec(spec, 1234);
  auto b = FaultInjector::from_spec(spec, 1234);
  const std::string trace = drive(*a, 64);
  EXPECT_FALSE(trace.empty());
  EXPECT_EQ(trace, drive(*b, 64));

  // A different seed draws a different storm from the same plan.
  auto c = FaultInjector::from_spec(spec, 4321);
  EXPECT_NE(trace, drive(*c, 64));
}

TEST(FaultDeterminism, DisarmedTriggersConsumeNoIndices) {
  const char* spec = "launch:transient:p=0.5";
  auto a = FaultInjector::from_spec(spec, 99);
  auto b = FaultInjector::from_spec(spec, 99);

  // b runs a disarmed warmup burst first (plan registration, canary
  // replays); the armed-phase sequence must be unaffected.
  b->disarm();
  for (int i = 0; i < 37; ++i) {
    b->at(FaultSite::Launch);
  }
  EXPECT_EQ(b->triggers(FaultSite::Launch), 0u);
  b->arm();
  EXPECT_EQ(drive(*a, 32), drive(*b, 32));
}

// ---- every site fires and is survived ---------------------------------------

rt::DeviceDescriptor with_faults(rt::DeviceDescriptor desc,
                                 const std::string& spec) {
  desc.faults = FaultInjector::from_spec(spec, 7);
  return desc;
}

TEST(FaultSites, EagerCopyAndLaunchSitesFireAndAreSurvived) {
  for (const char* spec : {"copy_in:transient:limit=1",
                           "copy_out:transient:limit=1",
                           "launch:transient:limit=1"}) {
    rt::Device dev(
        with_faults(rt::DeviceDescriptor::simt_core(small_cfg()), spec));
    const auto scale = dev.load_module(kernels::scale_abi()).kernel("scale");
    auto in = dev.alloc<std::uint32_t>(8);
    auto out = dev.alloc<std::uint32_t>(8);
    const std::vector<std::uint32_t> payload{1, 2, 3, 4, 5, 6, 7, 8};
    std::vector<std::uint32_t> result(8, 0);

    const auto run = [&] {
      dev.stream().copy_in(in, std::span<const std::uint32_t>(payload));
      dev.stream().launch(scale, 8,
                          rt::KernelArgs().arg(in).arg(out).scalar(3).scalar(5));
      dev.stream().copy_out(out, std::span<std::uint32_t>(result));
      dev.stream().synchronize();
    };
    // First pass trips the injected transient...
    EXPECT_THROW(run(), faults::TransientFault) << spec;
    EXPECT_EQ(dev.fault_injector()->fired(), 1u) << spec;
    // ...and the device survives: the same pipeline now runs clean
    // (limit=1 healed the rule) and produces the right answer.
    EXPECT_NO_THROW(run()) << spec;
    for (std::size_t i = 0; i < result.size(); ++i) {
      EXPECT_EQ(result[i], payload[i] * 3 + 5) << spec;
    }
  }
}

TEST(FaultSites, ReplaySiteFailsTheCompositeAndHeals) {
  rt::Device dev(with_faults(rt::DeviceDescriptor::simt_core(small_cfg()),
                             "replay:transient:limit=1"));
  const auto scale = dev.load_module(kernels::scale_abi()).kernel("scale");
  auto in = dev.alloc<std::uint32_t>(8);
  auto out = dev.alloc<std::uint32_t>(8);
  const std::vector<std::uint32_t> payload{9, 8, 7, 6, 5, 4, 3, 2};
  std::vector<std::uint32_t> result(8, 0);

  rt::Graph graph;
  dev.stream().begin_capture(graph);
  dev.stream().copy_in(in, std::span<const std::uint32_t>(payload));
  dev.stream().launch(scale, 8,
                      rt::KernelArgs().arg(in).arg(out).scalar(2).scalar(1));
  dev.stream().copy_out(out, std::span<std::uint32_t>(result));
  dev.stream().end_capture();
  auto exec = graph.instantiate();

  rt::Event first = exec.launch(dev.stream());
  EXPECT_THROW(first.wait(), faults::TransientFault);
  dev.stream().clear_error();  // recovery: drop the parked stream error

  rt::Event second = exec.launch(dev.stream());
  EXPECT_NO_THROW(second.wait());
  dev.stream().synchronize();
  for (std::size_t i = 0; i < result.size(); ++i) {
    EXPECT_EQ(result[i], payload[i] * 2 + 1);
  }
}

TEST(FaultSites, ReplaySiteFiresBeforeTheReplaysUpdatesApply) {
  // A replay that faults at the Replay site must not have rebound its
  // plan or spliced its payload: the site fires before the updates apply.
  rt::Device dev(with_faults(rt::DeviceDescriptor::simt_core(small_cfg()),
                             "replay:transient:limit=1"));
  const auto scale = dev.load_module(kernels::scale_abi()).kernel("scale");
  auto in = dev.alloc<std::uint32_t>(8);
  auto out = dev.alloc<std::uint32_t>(8);
  const std::vector<std::uint32_t> payload{9, 8, 7, 6, 5, 4, 3, 2};
  std::vector<std::uint32_t> result(8, 0);

  rt::Graph graph;
  dev.stream().begin_capture(graph);
  dev.stream().copy_in(in, std::span<const std::uint32_t>(payload));
  dev.stream().launch(scale, 8,
                      rt::KernelArgs().arg(in).arg(out).scalar(2).scalar(1));
  dev.stream().copy_out(out, std::span<std::uint32_t>(result));
  dev.stream().end_capture();
  auto exec = graph.instantiate();

  // A clean replay first (disarmed: it consumes no trigger index).
  dev.fault_injector()->disarm();
  ASSERT_NO_THROW(exec.run(dev.stream()).wait());
  const std::vector<std::uint32_t> clean = result;
  const rt::LaunchPlan before = exec.plan(0);
  dev.fault_injector()->arm();

  rt::Event failed = exec.run(
      dev.stream(),
      rt::GraphUpdates()
          .copy_in(0, {1, 1, 1, 1, 1, 1, 1, 1})
          .args(0, rt::KernelArgs().arg(in).arg(out).scalar(5).scalar(4)));
  EXPECT_THROW(failed.wait(), faults::TransientFault);
  dev.stream().clear_error();
  EXPECT_EQ(dev.fault_injector()->triggers(FaultSite::Replay), 1u);

  const rt::LaunchPlan after = exec.plan(0);
  EXPECT_EQ(after.sig, before.sig);
  EXPECT_EQ(after.args.signature(), before.args.signature());

  std::fill(result.begin(), result.end(), 0u);
  ASSERT_NO_THROW(exec.run(dev.stream()).wait());
  EXPECT_EQ(result, clean);
  for (std::size_t i = 0; i < result.size(); ++i) {
    EXPECT_EQ(clean[i], payload[i] * 2 + 1) << i;
  }
}

/// The two multicore round paths: inline on the launching thread (the
/// default for small rounds) and pooled on the dispatch workers.
constexpr std::uint64_t kRoundPaths[] = {rt::MultiCoreBackend::kInlineRoundWork,
                                         0};

TEST(FaultSites, StagingSiteFiresOnMultiCoreAndIsSurvived) {
  // Each dispatched core consults the site once, in its own dispatch body:
  // on the launching thread (an inline round) or its dispatch worker (a
  // pooled round).
  for (const std::uint64_t work : kRoundPaths) {
    const std::string what = "inline_round_work=" + std::to_string(work);
    rt::Device dev(with_faults(rt::DeviceDescriptor::multi_core(2, small_cfg()),
                               "staging:transient:limit=1"));
    dev.backend_as<rt::MultiCoreBackend>()->set_inline_round_work(work);
    rt::Module& mod = dev.load_module("movi %r1, 1\nexit\n");
    EXPECT_THROW(dev.launch_sync(mod.kernel(), 64), faults::TransientFault)
        << what;
    EXPECT_EQ(dev.fault_injector()->triggers(FaultSite::Staging), 2u)
        << what;
    EXPECT_NO_THROW(dev.launch_sync(mod.kernel(), 64)) << what;
  }
}

TEST(FaultSites, StagingFaultLandsOnTheSameCoreInPooledRounds) {
  // Each dispatched core's Staging outcome is drawn on the launching
  // thread in core order, so a trigger index lands on one core no matter
  // which dispatch worker runs first. 4 cores x 64 threads, every round
  // pooled; vecadd's @tid reads make each core stage only its own slice,
  // so the output word the flipped bit corrupts names the core.
  constexpr unsigned kCores = 4;
  constexpr unsigned kPerCore = 64;
  constexpr unsigned kN = kCores * kPerCore;
  constexpr int kTrials = 200;
  std::vector<std::uint32_t> av(kN), bv(kN);
  for (unsigned i = 0; i < kN; ++i) {
    av[i] = i + 1;
    bv[i] = 1000 * (i + 1);
  }
  int first_core = -1;
  for (int trial = 0; trial < kTrials; ++trial) {
    rt::Device dev(
        with_faults(rt::DeviceDescriptor::multi_core(kCores, small_cfg()),
                    "staging:corrupt:limit=1"));
    dev.backend_as<rt::MultiCoreBackend>()->set_inline_round_work(0);
    const auto vecadd = dev.load_module(kernels::vecadd_abi()).kernel("vecadd");
    auto a = dev.alloc<std::uint32_t>(kN);
    auto b = dev.alloc<std::uint32_t>(kN);
    auto c = dev.alloc<std::uint32_t>(kN);
    a.write(av);
    b.write(bv);
    dev.launch_sync(vecadd, kN, rt::KernelArgs().arg(a).arg(b).arg(c));
    ASSERT_EQ(dev.fault_injector()->triggers(FaultSite::Staging), kCores);
    const auto cv = c.read();
    int bent_core = -1;
    unsigned bent_words = 0;
    for (unsigned i = 0; i < kN; ++i) {
      if (cv[i] != av[i] + bv[i]) {
        bent_core = static_cast<int>(i / kPerCore);
        ++bent_words;
      }
    }
    ASSERT_EQ(bent_words, 1u) << "trial " << trial;
    if (first_core < 0) {
      first_core = bent_core;
    }
    ASSERT_EQ(bent_core, first_core) << "trial " << trial;
  }
}

TEST(FaultSites, FailedMultiCoreRoundResyncsEveryCoreWithTheMaster) {
  // A round that throws is never merged. The next launch must still see
  // the master image on every core: the faulted core never received its
  // inputs, and a sibling that ran holds stores the master never saw.
  constexpr unsigned kN = 128;  // two 64-thread cores, one round
  for (const std::uint64_t work : kRoundPaths) {
    const std::string what = "inline_round_work=" + std::to_string(work);
    const auto open = [work] {
      auto dev = std::make_unique<rt::Device>(
          with_faults(rt::DeviceDescriptor::multi_core(2, small_cfg()),
                      "staging:transient:limit=1"));
      dev->backend_as<rt::MultiCoreBackend>()->set_inline_round_work(work);
      return dev;
    };

    {  // Relaunching on the same buffers recomputes from the master.
      auto dev = open();
      const auto vecadd =
          dev->load_module(kernels::vecadd_abi()).kernel("vecadd");
      auto a = dev->alloc<std::uint32_t>(kN);
      auto b = dev->alloc<std::uint32_t>(kN);
      auto c = dev->alloc<std::uint32_t>(kN);
      std::vector<std::uint32_t> av(kN), bv(kN);
      for (unsigned i = 0; i < kN; ++i) {
        av[i] = i + 1;
        bv[i] = 1000 * (i + 1);
      }
      a.write(av);
      b.write(bv);
      const auto args = rt::KernelArgs().arg(a).arg(b).arg(c);
      EXPECT_THROW(dev->launch_sync(vecadd, kN, args), faults::TransientFault)
          << what;
      EXPECT_NO_THROW(dev->launch_sync(vecadd, kN, args)) << what;
      for (unsigned i = 0; i < kN; ++i) {
        ASSERT_EQ(c.at(i), av[i] + bv[i]) << what << " c[" << i << "]";
      }
    }

    {  // An in-place update applies exactly once per clean launch.
      auto dev = open();
      const auto inc = dev->load_module(
                              ".kernel inc\n"
                              ".param d buffer\n"
                              ".reads d@tid\n"
                              ".writes d@tid\n"
                              "movsr %r0, %tid\n"
                              "lds %r1, [%r0 + $d]\n"
                              "addi %r1, %r1, 1\n"
                              "sts [%r0 + $d], %r1\n"
                              "exit\n")
                           .kernel("inc");
      auto d = dev->alloc<std::uint32_t>(kN);
      std::vector<std::uint32_t> dv(kN);
      for (unsigned i = 0; i < kN; ++i) {
        dv[i] = 100 + i;
      }
      d.write(dv);
      const auto args = rt::KernelArgs().arg(d);
      EXPECT_THROW(dev->launch_sync(inc, kN, args), faults::TransientFault)
          << what;
      EXPECT_NO_THROW(dev->launch_sync(inc, kN, args)) << what;
      for (unsigned i = 0; i < kN; ++i) {
        ASSERT_EQ(d.at(i), dv[i] + 1) << what << " d[" << i << "]";
      }
    }
  }
}

// ---- corruption is caught by the three-backend differential -----------------

TEST(FaultCorruption, DifferentialCatchesTheFlippedBit) {
  constexpr unsigned kN = 16;
  const std::vector<std::uint32_t> payload = [] {
    std::vector<std::uint32_t> p(kN);
    for (unsigned i = 0; i < kN; ++i) {
      p[i] = 0x100 + i;
    }
    return p;
  }();

  const auto run = [&](rt::DeviceDescriptor desc) {
    rt::Device dev(std::move(desc));
    const auto scale = dev.load_module(kernels::scale_abi()).kernel("scale");
    auto in = dev.alloc<std::uint32_t>(kN);
    auto out = dev.alloc<std::uint32_t>(kN);
    std::vector<std::uint32_t> result(kN, 0);
    dev.stream().copy_in(in, std::span<const std::uint32_t>(payload));
    dev.stream().launch(scale, kN,
                        rt::KernelArgs().arg(in).arg(out).scalar(3).scalar(5));
    dev.stream().copy_out(out, std::span<std::uint32_t>(result));
    dev.stream().synchronize();
    return result;
  };

  baseline::ScalarCpuConfig scfg;
  scfg.shared_mem_words = 2048;
  const auto clean_core = run(rt::DeviceDescriptor::simt_core(small_cfg()));
  const auto clean_scalar = run(rt::DeviceDescriptor::scalar_cpu(scfg));
  const auto bent = run(with_faults(
      rt::DeviceDescriptor::multi_core(2, small_cfg()), "copy_out:corrupt"));

  // The two clean backends agree bit-exact -- the differential's baseline.
  EXPECT_EQ(clean_core, clean_scalar);
  // The corrupted run differs from it by EXACTLY one flipped bit.
  ASSERT_EQ(bent.size(), clean_core.size());
  unsigned flipped = 0;
  for (unsigned i = 0; i < kN; ++i) {
    flipped += static_cast<unsigned>(
        std::popcount(bent[i] ^ clean_core[i]));
  }
  EXPECT_EQ(flipped, 1u);
}

TEST(FaultCorruption, CopyInFlipsTheSameBitOnEagerAndReplayedCopies) {
  // The eager sink and graph replay run one copy-in body: under
  // copy_in:corrupt:limit=1 both put exactly one flipped bit on the
  // device, at the same word and bit for the same seed and trigger, and a
  // replay never bends its captured payload -- the next replay writes the
  // pristine words. A copy-in that fused into a burst behaves the same.
  constexpr unsigned kN = 16;
  std::vector<std::uint32_t> payload(kN);
  for (unsigned i = 0; i < kN; ++i) {
    payload[i] = 0x5a5a0000u + i;
  }
  const std::span<const std::uint32_t> whole(payload);
  const auto open = [] {
    return std::make_unique<rt::Device>(
        with_faults(rt::DeviceDescriptor::simt_core(small_cfg()),
                    "copy_in:corrupt:limit=1"));
  };
  // XOR of device words [base, base + kN) against the payload.
  const auto flips = [&](rt::Device& dev, std::uint32_t base) {
    std::vector<std::uint32_t> got(kN);
    dev.read_words(base, got);
    for (unsigned i = 0; i < kN; ++i) {
      got[i] ^= payload[i];
    }
    return got;
  };
  const auto bits = [](const std::vector<std::uint32_t>& x) {
    unsigned n = 0;
    for (const auto w : x) {
      n += static_cast<unsigned>(std::popcount(w));
    }
    return n;
  };

  std::vector<std::uint32_t> eager;
  {
    auto dev = open();
    auto buf = dev->alloc<std::uint32_t>(kN);
    dev->stream().copy_in(buf, whole);
    dev->stream().synchronize();
    eager = flips(*dev, buf.word_base());
  }
  EXPECT_EQ(bits(eager), 1u);

  {  // One captured copy-in, replayed.
    auto dev = open();
    auto buf = dev->alloc<std::uint32_t>(kN);
    rt::Graph graph;
    dev->stream().begin_capture(graph);
    dev->stream().copy_in(buf, whole);
    dev->stream().end_capture();
    auto exec = graph.instantiate();
    ASSERT_NO_THROW(exec.run(dev->stream()).wait());
    EXPECT_EQ(flips(*dev, buf.word_base()), eager);
    ASSERT_NO_THROW(exec.run(dev->stream()).wait());
    EXPECT_EQ(bits(flips(*dev, buf.word_base())), 0u);
  }

  {  // Two contiguous copy-ins fused into one burst, between guard words.
    auto dev = open();
    auto lo_guard = dev->alloc<std::uint32_t>(4);
    auto lo = dev->alloc<std::uint32_t>(kN / 2);
    auto hi = dev->alloc<std::uint32_t>(kN / 2);
    auto hi_guard = dev->alloc<std::uint32_t>(4);
    const std::vector<std::uint32_t> guard{7, 7, 7, 7};
    lo_guard.write(guard);
    hi_guard.write(guard);
    rt::Graph graph;
    dev->stream().begin_capture(graph);
    dev->stream().copy_in(lo, whole.first(kN / 2));
    dev->stream().copy_in(hi, whole.last(kN / 2));
    dev->stream().end_capture();
    auto exec = graph.instantiate();
    ASSERT_EQ(exec.copy_in_bursts(), 1u);
    ASSERT_EQ(exec.copy_in_count(), 2u);
    ASSERT_NO_THROW(exec.run(dev->stream()).wait());
    const auto fused = flips(*dev, lo.word_base());
    EXPECT_EQ(fused, eager);
    // The bit lands inside the segment of the copy-in that covers its
    // offset in the burst, and nowhere outside the burst.
    unsigned word = 0;
    while (word < kN && fused[word] == 0) {
      ++word;
    }
    ASSERT_LT(word, kN);
    const auto& owner = word < kN / 2 ? lo : hi;
    const unsigned seg_word = word < kN / 2 ? word : word - kN / 2;
    EXPECT_NE(owner.at(seg_word), payload[word]);
    EXPECT_EQ(lo_guard.read(), guard);
    EXPECT_EQ(hi_guard.read(), guard);
    ASSERT_NO_THROW(exec.run(dev->stream()).wait());
    EXPECT_EQ(bits(flips(*dev, lo.word_base())), 0u);
  }
}

// ---- serving tier -----------------------------------------------------------

cluster::PlanSpec scale_plan(unsigned n, bool with_verify = false) {
  cluster::PlanSpec spec;
  spec.name = "scale";
  spec.source = kernels::scale_abi();
  spec.kernel = "scale";
  spec.threads = n;
  spec.args = {cluster::PlanArg::input(n), cluster::PlanArg::output(n),
               cluster::PlanArg::immediate(3), cluster::PlanArg::immediate(5)};
  if (with_verify) {
    spec.verify = [](std::span<const std::uint32_t> payload,
                     const std::vector<cluster::ScalarOverride>&,
                     std::span<const std::uint32_t> output) {
      for (std::size_t i = 0; i < payload.size(); ++i) {
        if (output[i] != payload[i] * 3 + 5) {
          return false;
        }
      }
      return true;
    };
  }
  return spec;
}

std::vector<std::uint32_t> payload_for(unsigned n, std::uint32_t seed) {
  std::vector<std::uint32_t> p(n);
  for (unsigned i = 0; i < n; ++i) {
    p[i] = seed * 1000 + i;
  }
  return p;
}

TEST(ClusterFaults, VerifyHookCatchesCorruptionAndRetries) {
  cluster::ClusterConfig cfg;
  cfg.fault_spec = "copy_out:corrupt:limit=1";  // first response only
  cfg.max_retries = 3;
  cluster::DeviceCluster cluster(
      {rt::DeviceDescriptor::simt_core(small_cfg())}, cfg);
  cluster.register_plan(scale_plan(16, /*with_verify=*/true));

  const auto payload = payload_for(16, 1);
  auto ticket = cluster.submit("t", "scale", payload);
  ticket.wait();
  ASSERT_EQ(ticket.status(), cluster::RequestStatus::Ok);
  EXPECT_EQ(ticket.retries(), 1u);  // corrupt once, clean on retry
  const auto result = ticket.result();
  for (unsigned i = 0; i < 16; ++i) {
    EXPECT_EQ(result[i], payload[i] * 3 + 5);
  }
  const auto stats = cluster.stats();
  EXPECT_EQ(stats.corruption_detected, 1u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(ClusterFaults, WatchdogFailsAStalledReplay) {
  cluster::ClusterConfig cfg;
  // Every launch stalls 100ms; the request deadline is 5ms: only the
  // watchdog can resolve the ticket (the replay is hung on the executor).
  cfg.fault_spec = "launch:stall=100ms";
  cfg.default_deadline_us = 5000;
  cfg.max_retries = 0;
  cluster::DeviceCluster cluster(
      {rt::DeviceDescriptor::simt_core(small_cfg())}, cfg);
  cluster.register_plan(scale_plan(16));

  const auto payload = payload_for(16, 2);
  const auto t0 = std::chrono::steady_clock::now();
  auto ticket = cluster.submit("t", "scale", payload);
  // wait_for bounds the host-side wait; the watchdog must have resolved
  // the ticket long before the 100ms stall finishes.
  ASSERT_TRUE(ticket.wait_for(std::chrono::microseconds(60000)));
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(waited, std::chrono::milliseconds(95));
  EXPECT_EQ(ticket.status(), cluster::RequestStatus::Failed);
  try {
    ticket.result();
    FAIL() << "result() on a deadline-failed ticket must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("DeadlineExceeded"),
              std::string::npos)
        << e.what();
  }
  EXPECT_GE(cluster.stats().deadline_failures, 1u);
}

TEST(ClusterFaults, ProbationCanaryRoundTripReadmitsTheDevice) {
  std::vector<rt::DeviceDescriptor> descs = {
      rt::DeviceDescriptor::simt_core(small_cfg()),
      rt::DeviceDescriptor::simt_core(small_cfg())};
  // Device 0 throws sticky faults on its first two armed launches, then
  // heals -- modeling a reconfiguration blip. Device 1 is clean.
  descs[0].faults =
      FaultInjector::from_spec("launch:sticky:limit=2", /*seed=*/5);
  cluster::ClusterConfig cfg;
  cfg.max_retries = 3;
  cfg.probation_delay_us = 2000;
  cluster::DeviceCluster cluster(std::move(descs), cfg);
  cluster.register_plan(scale_plan(16));

  // Ties route to device 0 first: its launch throws StickyFault, it is
  // quarantined immediately (hard fault), and the request fails over.
  const auto payload = payload_for(16, 3);
  auto ticket = cluster.submit("t", "scale", payload);
  ticket.wait();
  ASSERT_EQ(ticket.status(), cluster::RequestStatus::Ok);
  EXPECT_EQ(ticket.device(), 1);
  EXPECT_EQ(cluster.health(0), cluster::DeviceHealth::Quarantined);

  // Probation round-trip: the first canary probe still trips the sticky
  // rule (fire #2) and re-quarantines; the second probe runs clean,
  // matches the golden, and re-admits the device.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (cluster.health(0) != cluster::DeviceHealth::Healthy &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(cluster.health(0), cluster::DeviceHealth::Healthy);
  const auto stats = cluster.stats();
  EXPECT_GE(stats.probations, 2u);
  EXPECT_EQ(stats.readmitted, 1u);
  EXPECT_GE(stats.quarantined, 2u);

  // The re-admitted device serves again.
  for (int i = 0; i < 8; ++i) {
    auto t = cluster.submit("t", "scale", payload_for(16, 10 + i));
    t.wait();
    ASSERT_EQ(t.status(), cluster::RequestStatus::Ok) << i;
  }
  EXPECT_GT(cluster.stats().per_device_completed[0], 0u);
}

TEST(ClusterFaults, BlockedSubmitWakesOnDeadlineExpiry) {
  cluster::ClusterConfig cfg;
  cfg.queue_capacity = 1;
  cfg.policy = cluster::OverloadPolicy::Block;
  cluster::DeviceCluster cluster(
      {rt::DeviceDescriptor::simt_core(small_cfg())}, cfg);
  cluster.register_plan(scale_plan(16));
  cluster.pause();  // hold routing so the queue stays full

  const auto payload = payload_for(16, 4);
  auto queued = cluster.submit("t", "scale", payload);

  // The queue is full and routing is held: this submit blocks, and
  // its 10ms deadline -- not new space -- must wake it.
  cluster::SubmitOptions opts;
  opts.deadline_us = 10000;
  const auto t0 = std::chrono::steady_clock::now();
  auto blocked = cluster.submit("t", "scale", payload, {}, opts);
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(waited, std::chrono::milliseconds(9));
  EXPECT_TRUE(blocked.done());
  EXPECT_EQ(blocked.status(), cluster::RequestStatus::Failed);
  try {
    blocked.result();
    FAIL() << "result() on a deadline-failed ticket must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("DeadlineExceeded"),
              std::string::npos);
  }
  EXPECT_EQ(cluster.stats().deadline_failures, 1u);

  // The queued request was untouched by the neighbor's deadline.
  cluster.resume();
  queued.wait();
  EXPECT_EQ(queued.status(), cluster::RequestStatus::Ok);
  cluster.drain();
}

TEST(ClusterFaults, RetryBackoffIsDeterministicAndRecovers) {
  cluster::ClusterConfig cfg;
  cfg.fault_spec = "launch:transient:limit=2";  // two armed launches fault
  cfg.fault_seed = 77;
  cfg.max_retries = 4;
  cfg.retry_backoff_us = 500;
  cfg.retry_backoff_cap_us = 2000;
  cfg.quarantine_after = 10;  // stay Degraded through the storm
  cluster::DeviceCluster cluster(
      {rt::DeviceDescriptor::simt_core(small_cfg())}, cfg);
  cluster.register_plan(scale_plan(16));

  const auto payload = payload_for(16, 5);
  auto ticket = cluster.submit("t", "scale", payload);
  ticket.wait();
  ASSERT_EQ(ticket.status(), cluster::RequestStatus::Ok);
  EXPECT_EQ(ticket.retries(), 2u);
  const auto stats = cluster.stats();
  EXPECT_EQ(stats.retried, 2u);
  EXPECT_EQ(stats.failed, 0u);
  // Two transients then a success: the device degraded and healed.
  EXPECT_EQ(cluster.health(0), cluster::DeviceHealth::Healthy);
}

}  // namespace
}  // namespace simt
