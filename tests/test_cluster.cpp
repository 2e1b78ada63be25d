// Tests for the DeviceCluster serving tier: admission control (reject /
// shed-oldest / block), per-tenant round-robin fairness, outstanding-work
// routing across mixed backends, plan-cached replay correctness (bit-
// identical to a single-device launch_sync), hot-unplug fail-over,
// sticky-fault quarantine, and the queue bound and fairness under live
// (unpaused) traffic.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/error.hpp"
#include "kernels/kernels.hpp"
#include "runtime/buffer.hpp"
#include "runtime/device.hpp"
#include "runtime/module.hpp"

namespace simt::cluster {
namespace {

namespace rt = simt::runtime;

core::CoreConfig small_cfg(unsigned threads = 64, unsigned mem_words = 2048) {
  core::CoreConfig c;
  c.max_threads = threads;
  c.shared_mem_words = mem_words;
  c.predicates_enabled = true;
  return c;
}

/// The canonical serving plan: out[i] = 3 * in[i] + 5 over n words.
PlanSpec scale_plan(unsigned n) {
  PlanSpec spec;
  spec.name = "scale";
  spec.source = kernels::scale_abi();
  spec.kernel = "scale";
  spec.threads = n;
  spec.args = {PlanArg::input(n), PlanArg::output(n), PlanArg::immediate(3),
               PlanArg::immediate(5)};
  return spec;
}

std::vector<std::uint32_t> payload_for(unsigned n, std::uint32_t seed) {
  std::vector<std::uint32_t> p(n);
  for (unsigned i = 0; i < n; ++i) {
    p[i] = seed * 1000 + i;
  }
  return p;
}

std::vector<std::uint32_t> golden_scale(const std::vector<std::uint32_t>& in,
                                        std::uint32_t mul, std::uint32_t add) {
  std::vector<std::uint32_t> out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] = mul * in[i] + add;
  }
  return out;
}

// ---- construction and edge cases -------------------------------------------

TEST(Cluster, ZeroDevicesThrows) {
  std::vector<rt::DeviceDescriptor> none;
  EXPECT_THROW(DeviceCluster cluster(none), Error);
}

TEST(Cluster, UnknownPlanAndBadRequestsThrow) {
  DeviceCluster cluster({rt::DeviceDescriptor::simt_core(small_cfg())});
  cluster.register_plan(scale_plan(16));

  const auto payload = payload_for(16, 1);
  EXPECT_THROW(cluster.submit("t", "nope", payload), Error);
  // Payload size must match the plan's Input extent (frozen at capture).
  const std::vector<std::uint32_t> wrong(8, 0);
  EXPECT_THROW(cluster.submit("t", "scale", wrong), Error);
  // Scalar overrides must name a Scalar position.
  const std::vector<ScalarOverride> on_buffer = {{0, 7}};
  const std::vector<ScalarOverride> past_end = {{9, 7}};
  EXPECT_THROW(cluster.submit("t", "scale", payload, on_buffer), Error);
  EXPECT_THROW(cluster.submit("t", "scale", payload, past_end), Error);
}

TEST(Cluster, BadPlanSpecsThrow) {
  DeviceCluster cluster({rt::DeviceDescriptor::simt_core(small_cfg())});
  PlanSpec spec = scale_plan(16);
  spec.args[0] = PlanArg::immediate(0);  // no Input
  EXPECT_THROW(cluster.register_plan(spec), Error);
  spec = scale_plan(16);
  spec.threads = 0;
  EXPECT_THROW(cluster.register_plan(spec), Error);
  spec = scale_plan(16);
  spec.kernel = "nope";
  EXPECT_THROW(cluster.register_plan(spec), Error);
}

// ---- serving correctness ---------------------------------------------------

TEST(Cluster, ServesWithScalarOverrides) {
  constexpr unsigned kN = 16;
  DeviceCluster cluster({rt::DeviceDescriptor::simt_core(small_cfg())});
  cluster.register_plan(scale_plan(kN));

  const auto payload = payload_for(kN, 1);
  auto a = cluster.submit("web", "scale", payload);
  const std::vector<ScalarOverride> mul10_add0 = {{2, 10}, {3, 0}};
  auto b = cluster.submit("web", "scale", payload, mul10_add0);
  cluster.drain();

  ASSERT_EQ(a.status(), RequestStatus::Ok);
  ASSERT_EQ(b.status(), RequestStatus::Ok);
  const auto got_a = a.result();
  const auto got_b = b.result();
  const auto want_a = golden_scale(payload, 3, 5);
  const auto want_b = golden_scale(payload, 10, 0);
  EXPECT_TRUE(std::equal(got_a.begin(), got_a.end(), want_a.begin()));
  EXPECT_TRUE(std::equal(got_b.begin(), got_b.end(), want_b.begin()));
  EXPECT_EQ(a.device(), 0);
  EXPECT_GT(a.latency_us(), 0.0);

  const auto stats = cluster.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST(Cluster, ThreeBackendDifferential) {
  constexpr unsigned kN = 32;
  baseline::ScalarCpuConfig scfg;
  scfg.shared_mem_words = 2048;
  DeviceCluster cluster({rt::DeviceDescriptor::simt_core(small_cfg()),
                         rt::DeviceDescriptor::multi_core(2, small_cfg()),
                         rt::DeviceDescriptor::scalar_cpu(scfg)});
  cluster.register_plan(scale_plan(kN));

  // Queue the whole burst with routing held so it sees real backlog
  // (outstanding-work spreading is what this test exercises).
  constexpr unsigned kRequests = 24;
  const char* tenants[] = {"dsp", "web", "ml"};
  cluster.pause();
  std::vector<ClusterTicket> tickets;
  for (unsigned r = 0; r < kRequests; ++r) {
    tickets.push_back(
        cluster.submit(tenants[r % 3], "scale", payload_for(kN, r)));
  }
  cluster.resume();
  cluster.drain();

  // Golden: the same kernel on a plain single device via launch_sync.
  rt::Device ref(rt::DeviceDescriptor::simt_core(small_cfg()));
  auto rin = ref.alloc<std::uint32_t>(kN);
  auto rout = ref.alloc<std::uint32_t>(kN);
  const auto scale = ref.load_module(kernels::scale_abi()).kernel("scale");

  // Every backend's answer is bit-identical to the single-device launch.
  std::vector<bool> device_hit(cluster.device_count(), false);
  for (unsigned r = 0; r < kRequests; ++r) {
    rin.write(payload_for(kN, r));
    ref.launch_sync(scale, kN,
                    rt::KernelArgs().arg(rin).arg(rout).scalar(3).scalar(5));
    const auto golden = rout.read();
    ASSERT_EQ(tickets[r].status(), RequestStatus::Ok) << "request " << r;
    const auto got = tickets[r].result();
    EXPECT_TRUE(std::equal(got.begin(), got.end(), golden.begin()))
        << "request " << r << " on device " << tickets[r].device();
    device_hit[static_cast<std::size_t>(tickets[r].device())] = true;
  }
  // The load balancer actually spread the burst: both SIMT-class devices
  // served some of it (the scalar soft CPU bids orders of magnitude higher
  // and may legitimately sit the burst out).
  EXPECT_TRUE(device_hit[0]);
  EXPECT_TRUE(device_hit[1]);
}

// ---- fairness ---------------------------------------------------------------

TEST(Cluster, RoundRobinFairnessUnderHotTenant) {
  constexpr unsigned kN = 16;
  DeviceCluster cluster({rt::DeviceDescriptor::simt_core(small_cfg())});
  cluster.register_plan(scale_plan(kN));
  const auto payload = payload_for(kN, 1);

  // Build the backlog with routing held so admission order is
  // deterministic: 8 hot requests, then 2 cold ones.
  cluster.pause();
  std::vector<ClusterTicket> hot, cold;
  for (int i = 0; i < 8; ++i) {
    hot.push_back(cluster.submit("hot", "scale", payload));
  }
  for (int i = 0; i < 2; ++i) {
    cold.push_back(cluster.submit("cold", "scale", payload));
  }
  cluster.resume();
  cluster.drain();

  // Round-robin dispatch interleaves the tenants (h c h c h h ...), so the
  // cold tenant's requests complete 2nd and 4th instead of 9th and 10th.
  for (auto& t : cold) {
    ASSERT_EQ(t.status(), RequestStatus::Ok);
  }
  EXPECT_EQ(cold[0].completion_seq(), 2u);
  EXPECT_EQ(cold[1].completion_seq(), 4u);
}

// ---- overload policies ------------------------------------------------------

TEST(Cluster, RejectPolicyBoundsTheQueue) {
  constexpr unsigned kN = 16;
  ClusterConfig cfg;
  cfg.queue_capacity = 2;
  cfg.policy = OverloadPolicy::Reject;
  DeviceCluster cluster({rt::DeviceDescriptor::simt_core(small_cfg())}, cfg);
  cluster.register_plan(scale_plan(kN));
  const auto payload = payload_for(kN, 1);

  cluster.pause();
  std::vector<ClusterTicket> tickets;
  for (int i = 0; i < 5; ++i) {
    tickets.push_back(cluster.submit("t", "scale", payload));
  }
  // The bound held: 2 queued, 3 rejected immediately (no hang, no device).
  EXPECT_EQ(tickets[2].status(), RequestStatus::Rejected);
  EXPECT_EQ(tickets[3].status(), RequestStatus::Rejected);
  EXPECT_EQ(tickets[4].status(), RequestStatus::Rejected);
  cluster.resume();
  cluster.drain();

  EXPECT_EQ(tickets[0].status(), RequestStatus::Ok);
  EXPECT_EQ(tickets[1].status(), RequestStatus::Ok);
  const auto stats = cluster.stats();
  EXPECT_EQ(stats.submitted, 5u);
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.rejected, 3u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(Cluster, ShedOldestEvictsTheOldest) {
  constexpr unsigned kN = 16;
  ClusterConfig cfg;
  cfg.queue_capacity = 2;
  cfg.policy = OverloadPolicy::ShedOldest;
  DeviceCluster cluster({rt::DeviceDescriptor::simt_core(small_cfg())}, cfg);
  cluster.register_plan(scale_plan(kN));
  const auto payload = payload_for(kN, 1);

  cluster.pause();
  std::vector<ClusterTicket> tickets;
  for (int i = 0; i < 4; ++i) {
    tickets.push_back(cluster.submit("t", "scale", payload));
  }
  // Requests 0 and 1 were evicted (oldest first) to admit 2 and 3.
  EXPECT_EQ(tickets[0].status(), RequestStatus::Shed);
  EXPECT_EQ(tickets[1].status(), RequestStatus::Shed);
  cluster.resume();
  cluster.drain();

  EXPECT_EQ(tickets[2].status(), RequestStatus::Ok);
  EXPECT_EQ(tickets[3].status(), RequestStatus::Ok);
  EXPECT_THROW(tickets[0].result(), Error);
  const auto stats = cluster.stats();
  EXPECT_EQ(stats.shed, 2u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(Cluster, BlockPolicyNeverDropsWork) {
  constexpr unsigned kN = 16;
  ClusterConfig cfg;
  cfg.queue_capacity = 1;
  cfg.policy = OverloadPolicy::Block;
  DeviceCluster cluster({rt::DeviceDescriptor::simt_core(small_cfg())}, cfg);
  cluster.register_plan(scale_plan(kN));

  std::vector<ClusterTicket> tickets;
  for (unsigned i = 0; i < 6; ++i) {
    tickets.push_back(cluster.submit("t", "scale", payload_for(kN, i)));
  }
  cluster.drain();
  for (unsigned i = 0; i < 6; ++i) {
    ASSERT_EQ(tickets[i].status(), RequestStatus::Ok) << "request " << i;
  }
  const auto stats = cluster.stats();
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.completed, 6u);
}

// ---- hot-unplug and quarantine ----------------------------------------------

TEST(Cluster, HotUnplugLosesNoAcceptedRequests) {
  constexpr unsigned kN = 16;
  DeviceCluster cluster({rt::DeviceDescriptor::simt_core(small_cfg()),
                         rt::DeviceDescriptor::simt_core(small_cfg())});
  cluster.register_plan(scale_plan(kN));

  constexpr unsigned kRequests = 32;
  std::vector<ClusterTicket> tickets;
  std::vector<std::vector<std::uint32_t>> goldens;
  for (unsigned r = 0; r < kRequests; ++r) {
    const auto payload = payload_for(kN, r);
    goldens.push_back(golden_scale(payload, 3, 5));
    tickets.push_back(cluster.submit("t", "scale", payload));
    if (r == kRequests / 2) {
      cluster.unplug(0);  // mid-run: in-flight drains, queued fails over
    }
  }
  cluster.drain();

  EXPECT_FALSE(cluster.alive(0));
  EXPECT_EQ(cluster.alive_count(), 1u);
  for (unsigned r = 0; r < kRequests; ++r) {
    ASSERT_EQ(tickets[r].status(), RequestStatus::Ok) << "request " << r;
    const auto got = tickets[r].result();
    EXPECT_TRUE(std::equal(got.begin(), got.end(), goldens[r].begin()))
        << "request " << r;
  }
  // Requests submitted after the unplug all landed on the survivor.
  for (unsigned r = kRequests / 2 + 1; r < kRequests; ++r) {
    EXPECT_EQ(tickets[r].device(), 1) << "request " << r;
  }
}

TEST(Cluster, AllDevicesUnpluggedRejects) {
  constexpr unsigned kN = 16;
  DeviceCluster cluster({rt::DeviceDescriptor::simt_core(small_cfg()),
                         rt::DeviceDescriptor::simt_core(small_cfg())});
  cluster.register_plan(scale_plan(kN));
  cluster.unplug(0);
  cluster.unplug(1);
  EXPECT_EQ(cluster.alive_count(), 0u);

  auto t = cluster.submit("t", "scale", payload_for(kN, 1));
  EXPECT_EQ(t.status(), RequestStatus::Rejected);
  EXPECT_THROW(t.result(), Error);
  EXPECT_EQ(cluster.stats().rejected, 1u);
}

TEST(Cluster, StickyFaultQuarantinesAndSurvivorServes) {
  constexpr unsigned kN = 16;
  ClusterConfig cfg;
  cfg.max_retries = 0;  // fault resolves the request, quarantines once
  DeviceCluster cluster({rt::DeviceDescriptor::simt_core(small_cfg()),
                         rt::DeviceDescriptor::simt_core(small_cfg())},
                        cfg);

  // A copy plan whose `addr` scalar is also a store target. The default
  // (word 16, inside the plan's own output buffer -- the bump allocator
  // places in at [0,16) and out at [16,32)) is harmless; an out-of-range
  // override faults the serving device. out[0] is clobbered by the poke,
  // so content checks start at word 1.
  PlanSpec poke;
  poke.name = "poke";
  poke.kernel = "poke";
  poke.threads = kN;
  poke.source =
      ".kernel poke\n"
      ".param in buffer\n"
      ".param out buffer\n"
      ".param addr scalar\n"
      "movsr %r0, %tid\n"
      "lds %r2, [%r0 + $in]\n"
      "sts [%r0 + $out], %r2\n"
      "movi %r3, $addr\n"
      "sts [%r3], %r2\n"
      "exit\n";
  poke.args = {PlanArg::input(kN), PlanArg::output(kN),
               PlanArg::immediate(kN)};
  cluster.register_plan(poke);

  const auto payload = payload_for(kN, 1);
  const std::vector<ScalarOverride> oob = {{2, 9999}};
  auto bad = cluster.submit("t", "poke", payload, oob);
  bad.wait();
  EXPECT_EQ(bad.status(), RequestStatus::Failed);
  EXPECT_THROW(bad.result(), Error);

  // One device is quarantined; the survivor keeps serving good requests.
  EXPECT_EQ(cluster.alive_count(), 1u);
  EXPECT_EQ(cluster.stats().quarantined, 1u);
  auto good = cluster.submit("t", "poke", payload);
  good.wait();
  ASSERT_EQ(good.status(), RequestStatus::Ok);
  const auto got = good.result();
  EXPECT_TRUE(std::equal(got.begin() + 1, got.end(), payload.begin() + 1));
}

// ---- live traffic: bound and fairness without pause() -----------------------

/// Poll until the cluster has started every admitted request (nothing left
/// in the admission queues or staged on a device).
bool wait_until_started(const DeviceCluster& cluster) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (cluster.stats().queued != 0) {
    if (std::chrono::steady_clock::now() > deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

TEST(ClusterCapacity, UnpausedRejectBurstHoldsTheBound) {
  // One device whose launches stall 50ms keeps its first request running
  // while a burst arrives. queue_capacity bounds admitted-but-not-started
  // work -- the admission queue plus the one request staged behind the
  // running replay -- so exactly `capacity` of the burst are accepted.
  constexpr unsigned kN = 16;
  constexpr unsigned kBurst = 12;
  ClusterConfig cfg;
  cfg.queue_capacity = 4;
  cfg.policy = OverloadPolicy::Reject;
  cfg.fault_spec = "launch:stall=50ms";
  cfg.fault_seed = 0x950;
  std::printf("[ config   ] seed=0x%llx devices=1 queue_capacity=%zu "
              "policy=reject fault_spec=%s burst=%u\n",
              static_cast<unsigned long long>(cfg.fault_seed),
              cfg.queue_capacity, cfg.fault_spec.c_str(), kBurst);
  DeviceCluster cluster({rt::DeviceDescriptor::simt_core(small_cfg())}, cfg);
  cluster.register_plan(scale_plan(kN));

  std::vector<ClusterTicket> tickets;
  tickets.push_back(cluster.submit("t", "scale", payload_for(kN, 0)));
  ASSERT_TRUE(wait_until_started(cluster)) << "first request never started";
  for (unsigned r = 1; r <= kBurst; ++r) {
    tickets.push_back(cluster.submit("t", "scale", payload_for(kN, r)));
  }
  unsigned accepted = 0, rejected = 0;
  for (unsigned r = 1; r <= kBurst; ++r) {
    if (tickets[r].done() &&
        tickets[r].status() == RequestStatus::Rejected) {
      ++rejected;
    } else {
      ++accepted;
    }
  }
  EXPECT_EQ(accepted, cfg.queue_capacity);
  EXPECT_EQ(rejected, kBurst - cfg.queue_capacity);

  cluster.drain();
  for (unsigned r = 0; r <= kBurst; ++r) {
    ASSERT_TRUE(tickets[r].done()) << "request " << r << " unresolved";
    if (tickets[r].status() == RequestStatus::Ok) {
      const auto got = tickets[r].result();
      const auto want = golden_scale(payload_for(kN, r), 3, 5);
      EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()))
          << "request " << r;
    }
  }
  const auto stats = cluster.stats();
  EXPECT_EQ(stats.submitted, kBurst + 1);
  EXPECT_EQ(stats.accepted, cfg.queue_capacity + 1);
  EXPECT_EQ(stats.rejected, kBurst - cfg.queue_capacity);
  EXPECT_EQ(stats.completed, cfg.queue_capacity + 1);
  EXPECT_EQ(stats.failed + stats.shed, 0u);
  EXPECT_EQ(stats.submitted, stats.completed + stats.rejected);
}

TEST(ClusterCapacity, UnpausedColdTenantIsNotStarvedByHotBacklog) {
  // The device is busy (every launch stalls 5ms) and a hot tenant has a
  // deep backlog when a cold tenant's request arrives. Ahead of it can be
  // only what had completed by then, the running request, the one staged
  // behind it, and one round-robin turn per other tenant: it completes
  // 4th (later only if the host was slow to submit), not last.
  constexpr unsigned kN = 16;
  constexpr unsigned kHot = 8;
  ClusterConfig cfg;
  cfg.fault_spec = "launch:stall=5ms";
  cfg.fault_seed = 0x950;
  std::printf("[ config   ] seed=0x%llx devices=1 queue_capacity=%zu "
              "fault_spec=%s hot_backlog=%u other_tenants=1\n",
              static_cast<unsigned long long>(cfg.fault_seed),
              cfg.queue_capacity, cfg.fault_spec.c_str(), kHot);
  DeviceCluster cluster({rt::DeviceDescriptor::simt_core(small_cfg())}, cfg);
  cluster.register_plan(scale_plan(kN));
  const auto payload = payload_for(kN, 1);

  std::vector<ClusterTicket> hot;
  hot.push_back(cluster.submit("hot", "scale", payload));
  ASSERT_TRUE(wait_until_started(cluster)) << "first request never started";
  for (unsigned i = 0; i < kHot; ++i) {
    hot.push_back(cluster.submit("hot", "scale", payload));
  }
  auto cold = cluster.submit("cold", "scale", payload);
  // At least as many as had completed when the cold request arrived.
  const std::uint64_t done_before = cluster.stats().completed;
  cluster.drain();

  ASSERT_EQ(cold.status(), RequestStatus::Ok);
  constexpr std::uint64_t kRunning = 1, kStaged = 1, kOtherTenants = 1;
  EXPECT_LE(cold.completion_seq(),
            done_before + kRunning + kStaged + kOtherTenants + 1)
      << "the cold request waited behind the hot backlog (" << done_before
      << " completed before it arrived)";
  for (auto& t : hot) {
    EXPECT_EQ(t.status(), RequestStatus::Ok);
  }
}

TEST(ClusterCapacity, StalledDeviceDoesNotHoldRoutingForItsPeer) {
  // Device 0's first launch stalls on the host for 400ms; its modeled
  // cost does not grow, so in modeled terms it soon looks like the
  // least-loaded device. Routing must still send the traffic behind it
  // to device 1, which is free: only the one request device 0 may hold
  // staged behind its running replay waits out the stall.
  constexpr unsigned kN = 16;
  constexpr unsigned kBurst = 8;
  constexpr std::uint64_t kSeed = 0x950;
  const auto stall = std::chrono::milliseconds(400);
  std::vector<rt::DeviceDescriptor> descs = {
      rt::DeviceDescriptor::simt_core(small_cfg()),
      rt::DeviceDescriptor::simt_core(small_cfg())};
  descs[0].faults =
      faults::FaultInjector::from_spec("launch:stall=400ms:limit=1", kSeed);
  std::printf("[ config   ] seed=0x%llx devices=2 device0_faults="
              "launch:stall=400ms:limit=1 burst=%u\n",
              static_cast<unsigned long long>(kSeed), kBurst);
  DeviceCluster cluster(std::move(descs));
  cluster.register_plan(scale_plan(kN));

  // Ties route to device 0 first: this request runs into the stall.
  const auto t0 = std::chrono::steady_clock::now();
  auto stalled = cluster.submit("t", "scale", payload_for(kN, 0));
  ASSERT_TRUE(wait_until_started(cluster)) << "first request never started";

  std::vector<ClusterTicket> burst;
  for (unsigned r = 1; r <= kBurst; ++r) {
    burst.push_back(cluster.submit("t", "scale", payload_for(kN, r)));
  }
  unsigned behind_stall = 0;
  for (unsigned r = 0; r < kBurst; ++r) {
    if (!burst[r].wait_for(stall / 2) || burst[r].device() == 0) {
      ++behind_stall;
    }
  }
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_FALSE(stalled.done()) << "the stall ended before the burst drained";
  EXPECT_LT(waited, stall) << "the burst waited out the stall";
  EXPECT_LE(behind_stall, 1u)
      << "requests queued behind the stalled device instead of its peer";

  cluster.drain();
  ASSERT_EQ(stalled.status(), RequestStatus::Ok);
  EXPECT_EQ(stalled.device(), 0);
  for (unsigned r = 0; r < kBurst; ++r) {
    ASSERT_EQ(burst[r].status(), RequestStatus::Ok) << "request " << r + 1;
    const auto got = burst[r].result();
    const auto want = golden_scale(payload_for(kN, r + 1), 3, 5);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()))
        << "request " << r + 1;
  }
}

}  // namespace
}  // namespace simt::cluster
