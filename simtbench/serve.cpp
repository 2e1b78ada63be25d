// The serving workloads. Both drive cluster::DeviceCluster with three
// tenants' 256-sample requests (dsp -> fir_abi(8,4), web -> scale_abi,
// ml -> reduce_abi(4)) against four simt_core devices:
//
//   serve        closed loop: one submitter keeps 16 requests in flight.
//   serve-storm  open loop: one generator paces seeded Poisson arrivals at
//                a fixed rate while a seeded fault storm (transients,
//                corruption, stalls, and a sticky fault that sends device 0
//                through quarantine and probation) runs with retry backoff,
//                armed deadlines and a verify hook on every plan.
//
// The traced run adds the layer ladder: the same request deck replayed
// through runtime::GraphExec::launch on a bare Device, and run directly
// on a core::Gpgpu, so cluster self time is measured from outside.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "common.hpp"
#include "common/faults.hpp"
#include "common/rng.hpp"
#include "kernels/kernels.hpp"
#include "runtime/buffer.hpp"
#include "runtime/device.hpp"
#include "runtime/graph.hpp"
#include "runtime/stream.hpp"
#include "workloads.hpp"

namespace bench {

namespace {

using simt::Xoshiro256;
namespace cluster = simt::cluster;
namespace runtime = simt::runtime;

constexpr unsigned kSamples = 256;
constexpr unsigned kTaps = 8;
constexpr unsigned kQ = 4;
constexpr unsigned kChunk = 4;
constexpr unsigned kDevices = 4;
constexpr unsigned kWindow = 16;     ///< serve: requests in flight
constexpr unsigned kPerPlan = 64;    ///< deck: requests per plan
constexpr double kStormRate = 10000;  ///< serve-storm: offered req/s
constexpr unsigned kPlans = 3;

const char* const kTenant[kPlans] = {"dsp", "web", "ml"};
const char* const kPlanName[kPlans] = {"fir", "scale", "reduce"};

simt::core::CoreConfig core_cfg() {
  simt::core::CoreConfig cfg;
  cfg.max_threads = 128;
  cfg.shared_mem_words = 2048;
  return cfg;
}

struct Request {
  unsigned plan = 0;
  Words payload;
  Words golden;
};

/// Everything a serving run draws from the seed.
struct Inputs {
  Words coef;
  std::uint32_t mul = 0;
  std::uint32_t add = 0;
  std::vector<Request> deck;  ///< kPerPlan requests per plan, shuffled
  std::string sources[kPlans];
};

Words golden_for(const Inputs& in, unsigned plan, const Words& payload) {
  switch (plan) {
    case 0:
      return golden_fir(payload, in.coef, kSamples, kQ);
    case 1:
      return golden_scale(payload, in.mul, in.add);
    default:
      return golden_reduce(payload, kChunk);
  }
}

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  for (unsigned k = 0; k < kTaps; ++k) {
    in.coef.push_back(static_cast<std::uint32_t>(rng.next_in(-64, 64)));
  }
  in.mul = static_cast<std::uint32_t>(rng.next_in(2, 1000));
  in.add = rng.next_u32();
  in.sources[0] = simt::kernels::fir_abi(kTaps, kQ);
  in.sources[1] = simt::kernels::scale_abi();
  in.sources[2] = simt::kernels::reduce_abi(kChunk);
  for (const unsigned plan : seeded_deck(rng.next(), kPlans, kPerPlan)) {
    Request r;
    r.plan = plan;
    r.payload.resize(plan == 0 ? kSamples + kTaps : kSamples);
    for (auto& w : r.payload) {
      // FIR taps are signed Q4 samples; the others take full words.
      w = plan == 0 ? static_cast<std::uint32_t>(rng.next_in(-2048, 2047))
                    : rng.next_u32();
    }
    r.golden = golden_for(in, plan, r.payload);
    in.deck.push_back(std::move(r));
  }
  return in;
}

std::vector<cluster::PlanSpec> plan_specs(const Inputs& in, bool verify) {
  std::vector<cluster::PlanSpec> specs(kPlans);
  for (unsigned p = 0; p < kPlans; ++p) {
    specs[p].name = kPlanName[p];
    specs[p].source = in.sources[p];
    specs[p].kernel = kPlanName[p];
  }
  specs[0].threads = kSamples;
  specs[0].args = {cluster::PlanArg::input(kSamples + kTaps),
                   cluster::PlanArg::constant(in.coef),
                   cluster::PlanArg::output(kSamples)};
  specs[1].threads = kSamples;
  specs[1].args = {cluster::PlanArg::input(kSamples),
                   cluster::PlanArg::output(kSamples),
                   cluster::PlanArg::immediate(in.mul),
                   cluster::PlanArg::immediate(in.add)};
  specs[2].threads = kSamples / kChunk;
  specs[2].args = {cluster::PlanArg::input(kSamples),
                   cluster::PlanArg::output(kSamples / kChunk)};
  if (verify) {
    for (unsigned p = 0; p < kPlans; ++p) {
      specs[p].verify = [&in, p](std::span<const std::uint32_t> payload,
                                 const std::vector<cluster::ScalarOverride>&,
                                 std::span<const std::uint32_t> output) {
        const Words want =
            golden_for(in, p, Words(payload.begin(), payload.end()));
        return std::equal(want.begin(), want.end(), output.begin(),
                          output.end());
      };
    }
  }
  return specs;
}

/// Modeled work of one request per plan, probed once on a bare device
/// (the cluster reports modeled busy time but not perf counters).
struct PlanWork {
  std::uint64_t thread_ops = 0;
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
};

struct Fleet {
  std::unique_ptr<cluster::DeviceCluster> cluster;
  double register_plan_us = 0.0;  ///< mean per plan
};

Fleet open_fleet(const Options& opt, const Inputs& in, bool storm) {
  std::vector<runtime::DeviceDescriptor> descs(
      kDevices, runtime::DeviceDescriptor::simt_core(core_cfg()));
  cluster::ClusterConfig cfg;
  cfg.queue_capacity = 4 * kWindow;
  if (storm) {
    // The bench_chaos storm shape at a fixed offered rate: device 0 throws
    // two sticky faults (quarantine, then a failed first probe) after a
    // seeded number of launches; every device draws low-p transients,
    // corruption and stalls from its own seeded stream.
    const std::uint64_t after = 2000 + opt.seed % 2000;
    descs[0].faults = simt::faults::FaultInjector::from_spec(
        "launch:sticky:after=" + std::to_string(after) + ":limit=2",
        opt.seed);
    cfg.queue_capacity = 1024;
    cfg.fault_spec =
        "launch:transient:p=0.002;copy_out:corrupt:p=0.001;"
        "launch:stall=200us:p=0.005";
    cfg.fault_seed = opt.seed;
    cfg.default_deadline_us = 2'000'000;  // armed, generous
    cfg.max_retries = 8;
    cfg.retry_backoff_us = 100;
    cfg.retry_backoff_cap_us = 2000;
    cfg.quarantine_after = 3;
    cfg.probation_delay_us = 2000;
  }
  Fleet fleet;
  fleet.cluster = std::make_unique<cluster::DeviceCluster>(descs, cfg);
  fleet.cluster->disarm_faults();
  const double t0 = now_us();
  for (const auto& spec : plan_specs(in, storm)) {
    fleet.cluster->register_plan(spec);
  }
  fleet.register_plan_us = (now_us() - t0) / kPlans;
  // One warm-up op per plan, then the storm (if any) is armed.
  for (unsigned p = 0; p < kPlans; ++p) {
    const auto& r = *std::find_if(in.deck.begin(), in.deck.end(),
                                  [p](const Request& q) { return q.plan == p; });
    auto t = fleet.cluster->submit(kTenant[p], kPlanName[p], r.payload);
    t.wait();
    if (t.status() != cluster::RequestStatus::Ok) {
      throw std::runtime_error("warm-up request failed");
    }
  }
  return fleet;
}

double busy_us(const cluster::ClusterStats& s) {
  double sum = 0.0;
  for (const double b : s.per_device_busy_us) {
    sum += b;
  }
  return sum;
}

/// How a resolved ticket counts.
enum class Outcome { Ok, Wrong, Rejected, Lost };

Outcome judge(const cluster::ClusterTicket& t, const Request& r) {
  switch (t.status()) {
    case cluster::RequestStatus::Ok: {
      const auto got = t.result();
      return std::equal(got.begin(), got.end(), r.golden.begin(),
                        r.golden.end())
                 ? Outcome::Ok
                 : Outcome::Wrong;
    }
    case cluster::RequestStatus::Rejected:
      return Outcome::Rejected;
    default:
      return Outcome::Lost;  // Failed (incl. DeadlineExceeded) or Shed
  }
}

struct Ledger {
  std::uint64_t lost = 0;
  std::uint64_t rejected = 0;
  std::uint64_t unresolved = 0;
};

/// Fold one resolved request into the phase.
void settle(Phase& ph, Ledger& led, const cluster::ClusterTicket& t,
            const Request& r, const PlanWork* work, double extra_us) {
  ++ph.attempted;
  switch (judge(t, r)) {
    case Outcome::Ok:
      ph.add_latency(extra_us + t.latency_us());
      ph.thread_ops += work[r.plan].thread_ops;
      ph.cycles += work[r.plan].cycles;
      ph.instructions += work[r.plan].instructions;
      return;
    case Outcome::Wrong:
      ++ph.mismatched;
      break;
    case Outcome::Rejected:
      ++led.rejected;
      break;
    case Outcome::Lost:
      ++led.lost;
      break;
  }
  ++ph.failed;
}

struct InFlight {
  cluster::ClusterTicket ticket;
  std::size_t index = 0;
  double submit_us = 0.0;  ///< when submit() was called
  double due_us = 0.0;     ///< open loop: when it was due
  int span = Tracer::kNoParent;   ///< the request's outermost span
  int inner = Tracer::kNoParent;  ///< open loop: its cluster span
};

/// Close a request's open spans at the ticket's terminal state.
void close_spans(Tracer& tr, const InFlight& f) {
  if (!tr.enabled()) {
    return;
  }
  const double end = f.ticket.status() == cluster::RequestStatus::Rejected
                         ? f.submit_us
                         : f.submit_us + f.ticket.latency_us();
  tr.end(f.span, end);
  tr.end(f.inner, end);
}

/// Closed loop over whole decks: runs until `seconds` elapse (at a deck
/// boundary), or exactly `decks` decks when that is nonzero.
Phase closed_loop(cluster::DeviceCluster& c, const Inputs& in,
                  const PlanWork* work, double seconds, std::uint64_t decks,
                  Tracer& tr, std::vector<double>* submit_us,
                  std::uint64_t* decks_run) {
  Phase ph;
  Ledger led;
  std::deque<InFlight> window;
  const auto before = c.stats();
  const double deadline = now_us() + seconds * 1e6;
  ph.start();
  std::uint64_t next = 0;
  const auto finish_front = [&] {
    InFlight f = std::move(window.front());
    window.pop_front();
    f.ticket.wait();
    settle(ph, led, f.ticket, in.deck[f.index], work, 0.0);
    close_spans(tr, f);
    ph.tick();
  };
  const std::size_t deck = in.deck.size();
  for (;;) {
    const bool boundary = next % deck == 0;
    if (boundary && (decks ? next / deck == decks
                           : next > 0 && now_us() >= deadline)) {
      break;
    }
    if (window.size() == kWindow) {
      finish_front();
    }
    const std::size_t i = next % deck;
    const auto& r = in.deck[i];
    const double s0 = now_us();
    auto t = c.submit(kTenant[r.plan], kPlanName[r.plan], r.payload);
    const double s1 = now_us();
    if (submit_us != nullptr) {
      submit_us->push_back(s1 - s0);
    }
    const int span = tr.begin("cluster.request", s0, next);
    tr.span("cluster.submit", s0, s1, next, span);
    window.push_back({std::move(t), i, s0, 0.0, span, Tracer::kNoParent});
    ++next;
  }
  while (!window.empty()) {
    finish_front();
  }
  ph.stop();
  ph.model_us = busy_us(c.stats()) - busy_us(before);
  if (decks_run != nullptr) {
    *decks_run = next / deck;
  }
  return ph;
}

struct OpenLoopResult {
  Phase phase;
  Ledger ledger;
  std::vector<double> late_us;
  std::vector<double> submit_us;
};

/// Open loop: seeded Poisson arrivals at kStormRate for `seconds`. The
/// generator sleeps until just before each due time and then spins; each
/// request is timed from its due time. The generator's pacing CPU is
/// excluded from the phase CPU (it measures the load, not the program).
OpenLoopResult open_loop(cluster::DeviceCluster& c, const Inputs& in,
                         const PlanWork* work, std::uint64_t seed,
                         double seconds, Tracer& tr) {
  OpenLoopResult out;
  Phase& ph = out.phase;
  Xoshiro256 gaps(seed ^ 0x5eed0a77ULL);
  std::deque<InFlight> pending;
  double pacing_cpu_us = 0.0;
  const auto reap = [&](bool block) {
    while (!pending.empty() && (block || pending.front().ticket.done())) {
      InFlight f = std::move(pending.front());
      pending.pop_front();
      if (block && !f.ticket.done()) {
        ++out.ledger.unresolved;  // drain() returned with it still pending
        ++ph.attempted;
        ++ph.failed;
        continue;
      }
      settle(ph, out.ledger, f.ticket, in.deck[f.index], work,
             f.submit_us - f.due_us);
      close_spans(tr, f);
      ph.tick(pacing_cpu_us);
    }
  };
  const auto before = c.stats();
  c.arm_faults();
  const double t0 = now_us();
  const double end = t0 + seconds * 1e6;
  double due = t0;
  ph.start(pacing_cpu_us);
  for (std::uint64_t n = 0;; ++n) {
    due += -std::log(1.0 - gaps.next_double()) * 1e6 / kStormRate;
    if (due >= end) {
      break;
    }
    reap(false);
    const double pace0 = thread_cpu_us();
    wait_until_us(due);
    pacing_cpu_us += thread_cpu_us() - pace0;
    const std::size_t i = n % in.deck.size();
    const auto& r = in.deck[i];
    const double s0 = now_us();
    auto t = c.submit(kTenant[r.plan], kPlanName[r.plan], r.payload);
    const double s1 = now_us();
    out.late_us.push_back(s0 - due);
    out.submit_us.push_back(s1 - s0);
    const int span = tr.begin("loadgen.request", due, n);
    const int inner = tr.begin("cluster.request", s0, n, span);
    tr.span("cluster.submit", s0, s1, n, inner);
    pending.push_back({std::move(t), i, s0, due, span, inner});
  }
  c.drain();
  reap(true);
  ph.stop(pacing_cpu_us);
  c.disarm_faults();
  ph.model_us = busy_us(c.stats()) - busy_us(before);
  return out;
}

/// The runtime rung: each plan's copy-in -> launch -> copy-out pipeline
/// captured and instantiated on one bare Device, then the deck replayed
/// through GraphExec::launch -> Event::wait.
struct ReplayRung {
  std::unique_ptr<runtime::Device> dev;
  std::vector<runtime::GraphExec> execs;
  std::vector<Words> outputs;                 ///< copy-out targets
  std::vector<Words> arg_values;              ///< per plan: bound args
  std::vector<std::uint32_t> out_base;        ///< per plan
  std::vector<std::uint32_t> in_base;         ///< per plan
  std::vector<std::pair<std::uint32_t, Words>> consts;  ///< fir coef
  PlanWork work[kPlans];
  double load_module_us = 0.0;
  double instantiate_us = 0.0;
};

std::unique_ptr<ReplayRung> build_replay_rung(const Inputs& in) {
  auto rung = std::make_unique<ReplayRung>();
  rung->dev = std::make_unique<runtime::Device>(
      runtime::DeviceDescriptor::simt_core(core_cfg()));
  auto& dev = *rung->dev;
  auto& stream = dev.stream();
  const auto specs = plan_specs(in, false);
  rung->outputs.resize(kPlans);
  for (unsigned p = 0; p < kPlans; ++p) {
    const auto& spec = specs[p];
    double t0 = now_us();
    const auto kernel = dev.load_module(spec.source).kernel(spec.kernel);
    rung->load_module_us += now_us() - t0;
    runtime::KernelArgs args;
    Words values;
    runtime::Buffer<std::uint32_t> input;
    runtime::Buffer<std::uint32_t> output;
    for (const auto& a : spec.args) {
      if (a.kind == cluster::PlanArg::Kind::Scalar) {
        args.scalar(a.scalar);
        values.push_back(a.scalar);
        continue;
      }
      auto buf = dev.alloc<std::uint32_t>(a.words);
      args.arg(buf);
      values.push_back(buf.word_base());
      if (a.kind == cluster::PlanArg::Kind::Input) {
        input = buf;
      } else if (a.kind == cluster::PlanArg::Kind::Output) {
        output = buf;
      } else {
        dev.write_words(buf.word_base(), a.data);
        rung->consts.emplace_back(buf.word_base(), a.data);
      }
    }
    rung->outputs[p].assign(output.size(), 0);
    rung->arg_values.push_back(values);
    rung->in_base.push_back(input.word_base());
    rung->out_base.push_back(output.word_base());
    t0 = now_us();
    runtime::Graph graph;
    const Words placeholder(input.size(), 0);
    stream.begin_capture(graph);
    stream.copy_in(input, std::span<const std::uint32_t>(placeholder));
    stream.launch(kernel, spec.threads, args);
    stream.copy_out(output, std::span<std::uint32_t>(rung->outputs[p]));
    stream.end_capture();
    rung->execs.push_back(graph.instantiate());
    rung->instantiate_us += now_us() - t0;
    // Probe: the plan's modeled work per request.
    const auto& r = *std::find_if(in.deck.begin(), in.deck.end(),
                                  [p](const Request& q) { return q.plan == p; });
    auto ev = rung->execs[p].launch(
        stream, runtime::GraphUpdates().copy_in(0, r.payload));
    ev.wait();
    const auto& perf = ev.stats().perf;
    rung->work[p] = {perf.thread_ops, perf.cycles, perf.instructions};
    if (rung->outputs[p] != r.golden) {
      throw std::runtime_error("replay probe produced a wrong output");
    }
  }
  rung->load_module_us /= kPlans;
  rung->instantiate_us /= kPlans;
  return rung;
}

struct ReplayResult {
  Phase phase;
  std::vector<double> submit_us;
  std::vector<std::uint64_t> cycles_per_req;  ///< first deck pass
};

ReplayResult run_replay_rung(ReplayRung& rung, const Inputs& in,
                             double seconds, Tracer& tr) {
  ReplayResult out;
  auto& stream = rung.dev->stream();
  const double deadline = now_us() + seconds * 1e6;
  out.phase.start();
  for (bool first = true; first || now_us() < deadline; first = false) {
    for (std::size_t i = 0; i < in.deck.size(); ++i) {
      const auto& r = in.deck[i];
      const double s0 = now_us();
      auto ev = rung.execs[r.plan].launch(
          stream, runtime::GraphUpdates().copy_in(0, r.payload));
      const double s1 = now_us();
      ev.wait();
      const double s2 = now_us();
      ++out.phase.attempted;
      if (rung.outputs[r.plan] != r.golden) {
        ++out.phase.failed;
        ++out.phase.mismatched;
      } else {
        out.phase.add_latency(s2 - s0);
      }
      out.submit_us.push_back(s1 - s0);
      const auto& st = ev.stats();
      out.phase.model_us += ev.replay_overlap_us();
      out.phase.cycles += st.perf.cycles;
      out.phase.thread_ops += st.perf.thread_ops;
      out.phase.instructions += st.perf.instructions;
      out.phase.tick();
      if (first) {
        out.cycles_per_req.push_back(st.perf.cycles);
      }
      const int parent = tr.span("runtime.replay", s0, s2, i);
      tr.span("runtime.replay_submit", s0, s1, i, parent);
    }
  }
  out.phase.stop();
  return out;
}

std::vector<CoreJob> core_deck(const ReplayRung& rung, const Inputs& in) {
  std::vector<CoreJob> deck;
  std::shared_ptr<const simt::core::DecodedImage> images[kPlans];
  std::uint32_t entries[kPlans] = {};
  for (unsigned p = 0; p < kPlans; ++p) {
    images[p] = simt::core::DecodedImage::build(
        bind_program(in.sources[p], kPlanName[p], rung.arg_values[p],
                     &entries[p]),
        core_cfg());
  }
  for (const auto& r : in.deck) {
    CoreJob job;
    job.image = images[r.plan];
    job.entry = entries[r.plan];
    job.threads = r.plan == 2 ? kSamples / kChunk : kSamples;
    job.inputs.emplace_back(rung.in_base[r.plan], r.payload);
    if (r.plan == 0) {
      job.inputs.insert(job.inputs.end(), rung.consts.begin(),
                        rung.consts.end());
    }
    job.out_base = rung.out_base[r.plan];
    job.golden = r.golden;
    deck.push_back(std::move(job));
  }
  return deck;
}

void set_cluster_layers(Layers& L, cluster::DeviceCluster& c,
                        const Phase& top, const cluster::ClusterStats& s0,
                        const cluster::ClusterStats& s1) {
  const auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a);
  };
  L.set("cluster.retried", delta(s0.retried, s1.retried));
  L.set("cluster.rejected", delta(s0.rejected, s1.rejected));
  L.set("cluster.shed", delta(s0.shed, s1.shed));
  L.set("cluster.deadline_failures",
        delta(s0.deadline_failures, s1.deadline_failures));
  L.set("cluster.corruption_detected",
        delta(s0.corruption_detected, s1.corruption_detected));
  L.set("cluster.quarantined", delta(s0.quarantined, s1.quarantined));
  L.set("cluster.probations", delta(s0.probations, s1.probations));
  L.set("cluster.readmitted", delta(s0.readmitted, s1.readmitted));
  const double completed = delta(s0.completed, s1.completed);
  const double retried = delta(s0.retried, s1.retried);
  L.set("cluster.retry_ratio", completed / (completed + retried));
  double max_share = 0.0;
  double sum_share = 0.0;
  for (std::size_t d = 0; d < s1.per_device_completed.size(); ++d) {
    const double n = delta(s0.per_device_completed[d], s1.per_device_completed[d]);
    max_share = std::max(max_share, n);
    sum_share += n;
  }
  L.set("cluster.device_share_max",
        max_share / (sum_share / static_cast<double>(kDevices)));
  L.set("cluster.model_busy_frac",
        (busy_us(s1) - busy_us(s0)) / (kDevices * top.wall_s * 1e6));
  // Runtime counters of the cluster's own devices (cumulative since setup).
  double commands = 0.0, replays = 0.0;
  std::vector<const runtime::Device*> devices;
  for (std::size_t d = 0; d < c.device_count(); ++d) {
    auto& dev = c.device(d);
    const auto tl = dev.scheduler().timeline();
    commands += tl.commands;
    replays += tl.graph_replays;
    devices.push_back(&dev);
  }
  const double served = static_cast<double>(s1.completed);
  L.set("runtime.commands", commands / served);
  L.set("runtime.graph_replays", replays / served);
  set_cache_layers(L, devices);
}

int fail(const char* what, std::uint64_t n) {
  std::fprintf(stderr, "FAIL: %llu %s\n", static_cast<unsigned long long>(n),
               what);
  return 1;
}

}  // namespace

int run_serve(const Options& opt, bool storm) {
  const Inputs in = make_inputs(opt.seed);
  Tracer off(false);
  Tracer tr(opt.trace);

  Fleet fleet;
  const double setup_s = median_setup_s([&] {
    fleet = Fleet{};  // previous repetition torn down
    fleet = open_fleet(opt, in, storm);
  });
  // The modeled work per plan (for lane utilization and sim_mips) and the
  // runtime rung come from a bare device, set up outside setup_s.
  auto rung = build_replay_rung(in);
  auto& c = *fleet.cluster;

  Report report;
  Phase top;
  Phase plain;  ///< traced runs: the untraced half of the overhead pair
  std::vector<double> submit_us;
  std::vector<double> late_us;
  Ledger storm_ledger;
  bool ok = true;

  if (!opt.trace) {
    if (storm) {
      auto res = open_loop(c, in, rung->work, opt.seed, opt.seconds, off);
      top = std::move(res.phase);
      storm_ledger = res.ledger;
      late_us = std::move(res.late_us);
    } else {
      top = closed_loop(c, in, rung->work, opt.seconds, 0, off, nullptr,
                        nullptr);
    }
    add_end_to_end(report, top, setup_s);
  } else {
    Layers L;
    // Overhead pair: the top rung untraced, then traced on the same work.
    const auto s0 = c.stats();
    if (storm) {
      // Faults, retries and routing make the storm's modeled busy time
      // depend on host timing, so it gets no identity check.
      auto res = open_loop(c, in, rung->work, opt.seed, opt.seconds * 0.3, off);
      plain = std::move(res.phase);
      auto traced = open_loop(c, in, rung->work, opt.seed, opt.seconds * 0.3, tr);
      top = std::move(traced.phase);
      storm_ledger = res.ledger;
      storm_ledger.lost += traced.ledger.lost;
      storm_ledger.unresolved += traced.ledger.unresolved;
      late_us = std::move(traced.late_us);
      submit_us = std::move(traced.submit_us);
      L.set("loadgen.late_us_p50", median(late_us));
      L.set("loadgen.late_us_p99", quantile(late_us, 0.99));
    } else {
      std::uint64_t decks = 0;
      plain = closed_loop(c, in, rung->work, opt.seconds * 0.3, 0, off,
                          nullptr, &decks);
      top = closed_loop(c, in, rung->work, 0.0, decks, tr, &submit_us,
                        nullptr);
      // Same requests, same plans: the modeled figures must not move
      // (per-device busy sums add in routing order, hence the tolerance).
      ok = same_model("model_us_per_op", plain.model_us_per_op(),
                      top.model_us_per_op(), 1e-9) &&
           same_model("model_lane_ops_per_cycle", plain.model_ops_per_cycle(),
                      top.model_ops_per_cycle()) &&
           ok;
    }
    const auto s1 = c.stats();
    set_cluster_layers(L, c, top, s0, s1);
    L.set("trace.overhead_cpu_us_per_op",
          top.cpu_us_per_op() - plain.cpu_us_per_op());
    L.set("trace.overhead_lat_p50_us", top.lat_p50_us() - plain.lat_p50_us());

    // Runtime and core rungs: the same deck, one layer further in.
    const ReplayResult rep = run_replay_rung(*rung, in, opt.seconds * 0.2, tr);
    const CoreRung core =
        run_core_rung(core_cfg(), core_deck(*rung, in), opt.seconds * 0.2, tr);
    for (std::size_t i = 0; i < core.cycles_per_job.size(); ++i) {
      ok = same_model("core.cycles (core rung vs runtime replay)",
                      static_cast<double>(rep.cycles_per_req[i]),
                      static_cast<double>(core.cycles_per_job[i])) &&
           ok;
    }
    ok = ok && rep.phase.failed == 0 && core.phase.failed == 0;

    const double lat_top = top.lat_p50_us();
    const double lat_rt = rep.phase.lat_p50_us();
    const double lat_core = core.phase.lat_p50_us();
    const double cpu_top = top.cpu_us_per_op();
    const double cpu_rt = rep.phase.cpu_us_per_op();
    const double cpu_core = core.phase.cpu_us_per_op();
    L.set("asm.assemble_us",
          assemble_us({in.sources, in.sources + kPlans}));
    L.set("cluster.register_plan_us", fleet.register_plan_us);
    L.set("cluster.submit_us_p50", median(submit_us));
    L.set("cluster.self_us_p50", lat_top - lat_rt);
    L.set("cluster.self_cpu_us", cpu_top - cpu_rt);
    L.set("runtime.load_module_us", rung->load_module_us);
    L.set("runtime.instantiate_us", rung->instantiate_us);
    L.set("runtime.replay_submit_us", median(rep.submit_us));
    L.set("runtime.replay_us_p50", lat_rt);
    set_core_layers(L, core);
    L.set("ladder.cluster_cpu_share", (cpu_top - cpu_rt) / cpu_top);
    L.set("ladder.runtime_cpu_share", (cpu_rt - cpu_core) / cpu_top);
    L.set("ladder.core_cpu_share", cpu_core / cpu_top);
    L.set("ladder.cluster_lat_share", (lat_top - lat_rt) / lat_top);
    L.set("ladder.runtime_lat_share", (lat_rt - lat_core) / lat_top);
    L.set("ladder.core_lat_share", lat_core / lat_top);
    L.set("trace.spans", static_cast<double>(tr.size()));
    note("[%s] ladder per op: cluster %.2f us CPU / %.2f us p50 | runtime "
         "replay %.2f / %.2f | core %.2f / %.2f",
         opt.workload.c_str(), cpu_top, lat_top, cpu_rt, lat_rt, cpu_core,
         lat_core);
    note("[%s] share of cpu_us_per_op: cluster self %.1f%%, runtime %.1f%%, "
         "core %.1f%%; of lat_p50_us: %.1f%% / %.1f%% / %.1f%%",
         opt.workload.c_str(), 100 * L.get("ladder.cluster_cpu_share"),
         100 * L.get("ladder.runtime_cpu_share"),
         100 * L.get("ladder.core_cpu_share"),
         100 * L.get("ladder.cluster_lat_share"),
         100 * L.get("ladder.runtime_lat_share"),
         100 * L.get("ladder.core_lat_share"));
    L.add_to(report);
  }

  print_context(opt.workload, top);
  if (storm) {
    const auto s = c.stats();
    note("[%s] recovery: %llu retried, %llu corruption caught, %llu "
         "quarantines, %llu probations, %llu readmitted, %llu rejected",
         opt.workload.c_str(), static_cast<unsigned long long>(s.retried),
         static_cast<unsigned long long>(s.corruption_detected),
         static_cast<unsigned long long>(s.quarantined),
         static_cast<unsigned long long>(s.probations),
         static_cast<unsigned long long>(s.readmitted),
         static_cast<unsigned long long>(storm_ledger.rejected));
    if (!late_us.empty()) {
      note("[%s] loadgen at %.0f req/s: late p50 %.1f us, p99 %.1f us",
           opt.workload.c_str(), kStormRate, median(late_us),
           quantile(late_us, 0.99));
    }
  }
  if (opt.trace) {
    write_trace(tr, opt);
  }

  int rc = ok ? 0 : 1;
  if (top.mismatched + plain.mismatched != 0) {
    rc = fail("requests returned a wrong output",
              top.mismatched + plain.mismatched);
  }
  if (storm) {
    if (storm_ledger.lost != 0) {
      rc = fail("accepted requests lost", storm_ledger.lost);
    }
    if (storm_ledger.unresolved != 0) {
      rc = fail("tickets never resolved", storm_ledger.unresolved);
    }
  } else if (top.failed + plain.failed != 0) {
    rc = fail("requests did not resolve Ok", top.failed + plain.failed);
  }
  report.print_json(rc == 0, top.attempted, top.failed);
  return rc;
}

}  // namespace bench
