#include "cluster/cluster.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "runtime/stream.hpp"

namespace simt::cluster {

namespace rt = simt::runtime;
using Clock = std::chrono::steady_clock;

const char* to_string(RequestStatus s) {
  switch (s) {
    case RequestStatus::Pending:
      return "pending";
    case RequestStatus::Ok:
      return "ok";
    case RequestStatus::Rejected:
      return "rejected";
    case RequestStatus::Shed:
      return "shed";
    case RequestStatus::Failed:
      return "failed";
  }
  return "?";
}

const char* to_string(DeviceHealth h) {
  switch (h) {
    case DeviceHealth::Healthy:
      return "healthy";
    case DeviceHealth::Degraded:
      return "degraded";
    case DeviceHealth::Quarantined:
      return "quarantined";
    case DeviceHealth::Probation:
      return "probation";
    case DeviceHealth::Unplugged:
      return "unplugged";
  }
  return "?";
}

namespace {

/// Routable = takes new traffic.
bool routable(DeviceHealth h) {
  return h == DeviceHealth::Healthy || h == DeviceHealth::Degraded;
}

constexpr auto kNoDeadline = Clock::time_point::max();

}  // namespace

// ---- ClusterTicket ----------------------------------------------------------

struct ClusterTicket::State {
  mutable std::mutex mu;
  std::condition_variable cv;
  RequestStatus status = RequestStatus::Pending;
  std::vector<std::uint32_t> output;
  std::string error;
  double latency_us = 0.0;
  int device = -1;
  unsigned retries = 0;
  std::uint64_t seq = 0;
};

bool ClusterTicket::done() const {
  if (!state_) {
    return false;
  }
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->status != RequestStatus::Pending;
}

void ClusterTicket::wait() const {
  if (!state_) {
    throw Error("wait() on an invalid ClusterTicket");
  }
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock,
                  [&] { return state_->status != RequestStatus::Pending; });
}

bool ClusterTicket::wait_for(std::chrono::microseconds timeout) const {
  if (!state_) {
    throw Error("wait_for() on an invalid ClusterTicket");
  }
  std::unique_lock<std::mutex> lock(state_->mu);
  return state_->cv.wait_for(lock, timeout, [&] {
    return state_->status != RequestStatus::Pending;
  });
}

RequestStatus ClusterTicket::status() const {
  if (!state_) {
    throw Error("status() on an invalid ClusterTicket");
  }
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->status;
}

std::span<const std::uint32_t> ClusterTicket::result() const {
  if (!state_) {
    throw Error("result() on an invalid ClusterTicket");
  }
  std::lock_guard<std::mutex> lock(state_->mu);
  if (state_->status == RequestStatus::Ok) {
    return state_->output;
  }
  std::string why = to_string(state_->status);
  if (!state_->error.empty()) {
    why += ": " + state_->error;
  }
  throw Error("request has no result (" + why + ")");
}

double ClusterTicket::latency_us() const {
  if (!state_) {
    throw Error("latency_us() on an invalid ClusterTicket");
  }
  std::lock_guard<std::mutex> lock(state_->mu);
  if (state_->status == RequestStatus::Pending) {
    throw Error("request is still pending; wait() first");
  }
  return state_->latency_us;
}

int ClusterTicket::device() const {
  if (!state_) {
    return -1;
  }
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->device;
}

std::uint64_t ClusterTicket::completion_seq() const {
  if (!state_) {
    return 0;
  }
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->seq;
}

unsigned ClusterTicket::retries() const {
  if (!state_) {
    return 0;
  }
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->retries;
}

// ---- internal structures ----------------------------------------------------

/// One accepted request moving through the cluster.
struct DeviceCluster::Request {
  std::string tenant;
  std::string plan;
  std::vector<std::uint32_t> payload;
  std::vector<ScalarOverride> scalars;
  std::shared_ptr<ClusterTicket::State> ticket;
  Clock::time_point submitted{};
  Clock::time_point deadline = kNoDeadline;
  Clock::time_point not_before{};  ///< backoff: route no earlier
  unsigned retries = 0;
  std::uint64_t admit_seq = 0;   ///< admission order (shed-oldest key)
  double routed_est = 0.0;       ///< est_us charged to the routed device
};

/// One plan pre-instantiated on one device: buffers, the canonical binding
/// recipe, and the captured pipeline with the stable host storage its
/// copy-out was frozen against. Only the device's worker replays it, one
/// request at a time.
struct DeviceCluster::PlanEntry {
  rt::GraphExec exec;
  std::vector<std::uint32_t> host_out;  ///< frozen copy-out destination
  std::uint32_t in_words = 0;
  std::uint32_t out_words = 0;
  /// The capture-time binding; per-request rebinds clone it and patch the
  /// overridden Scalar positions (KernelArgs itself is immutable).
  std::vector<rt::KernelArgs::Value> recipe;
  double est_us = 1.0;  ///< modeled cost of one replay (routing weight)
  /// Probation canary: a deterministic payload and the golden output it
  /// produced at registration (fault injection disarmed). Re-admission
  /// requires the probe replay to reproduce it bit-exact.
  std::vector<std::uint32_t> canary_in;
  std::vector<std::uint32_t> canary_golden;
  /// The spec's verify hook, copied here so the completion path needs no
  /// registry lookup.
  std::function<bool(std::span<const std::uint32_t>,
                     const std::vector<ScalarOverride>&,
                     std::span<const std::uint32_t>)>
      verify;
};

struct DeviceCluster::DeviceState {
  explicit DeviceState(rt::DeviceDescriptor desc) : dev(std::move(desc)) {}

  rt::Device dev;
  std::thread worker;
  std::condition_variable cv;  ///< paired with DeviceCluster::mu_
  /// The one routed request waiting behind the running one: route_locked()
  /// fills it, the worker takes it. Still counted in queued_.
  std::optional<Request> staged;
  DeviceHealth health = DeviceHealth::Healthy;
  unsigned consecutive_faults = 0;  ///< transients since the last success
  Clock::time_point quarantined_at{};
  bool probe_pending = false;  ///< watchdog asked the worker to probe
  double outstanding_us = 0.0; ///< modeled work staged or running
  double busy_us = 0.0;        ///< modeled time spent on completed replays
  /// Watchdog's view of the replay the worker is running, set under mu_
  /// before the replay starts and cleared after it ends. The watchdog
  /// disarms `deadline` once it has failed the ticket.
  struct Running {
    std::shared_ptr<ClusterTicket::State> ticket;
    Clock::time_point deadline = kNoDeadline;
    Clock::time_point submitted{};
    unsigned retries = 0;
  };
  std::optional<Running> running;
  std::unordered_map<std::string, PlanEntry> plans;
  /// Lazily created per-tenant streams (worker thread only); raw pointers
  /// into the device's stream table, which lives as long as the device.
  std::unordered_map<std::string, rt::Stream*> tenant_streams;
  /// Staging lane for plan captures: request copy-ins are captured on this
  /// stream so every plan's graph is a two-lane DAG (stage lane feeds the
  /// primary lane's launch) and replays price the copy-in on its own
  /// modeled DMA channel. Created on first register_plan.
  rt::Stream* stage_stream = nullptr;
};

namespace {

rt::KernelArgs build_args(const std::vector<rt::KernelArgs::Value>& recipe,
                          const std::vector<ScalarOverride>& scalars) {
  rt::KernelArgs args;
  for (std::size_t i = 0; i < recipe.size(); ++i) {
    const auto& v = recipe[i];
    std::uint32_t value = v.value;
    for (const auto& s : scalars) {
      if (s.param == i) {
        value = s.value;
      }
    }
    if (v.kind == core::KernelParam::Kind::Buffer) {
      args.buffer(v.value, v.size);
    } else {
      args.scalar(value);
    }
  }
  return args;
}

/// Re-arm the injectors that were armed before a disarmed section.
struct DisarmGuard {
  std::vector<faults::FaultInjector*> rearm;
  ~DisarmGuard() {
    for (auto* f : rearm) {
      f->arm();
    }
  }
};

}  // namespace

// ---- DeviceCluster ----------------------------------------------------------

DeviceCluster::DeviceCluster(std::vector<rt::DeviceDescriptor> descs,
                             ClusterConfig cfg)
    : cfg_(cfg) {
  if (descs.empty()) {
    throw Error("DeviceCluster needs at least one device");
  }
  if (!cfg_.fault_spec.empty()) {
    // Attach a per-device injector to every descriptor that does not
    // already carry one: same plan, device-decorrelated seed streams.
    for (std::size_t i = 0; i < descs.size(); ++i) {
      if (!descs[i].faults) {
        descs[i].faults = faults::FaultInjector::from_spec(
            cfg_.fault_spec,
            cfg_.fault_seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)));
      }
    }
  }
  devices_.reserve(descs.size());
  for (auto& d : descs) {
    devices_.push_back(std::make_unique<DeviceState>(std::move(d)));
  }
  stats_.per_device_completed.assign(devices_.size(), 0);
  watchdog_ = std::thread([this] { watchdog_loop(); });
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    devices_[i]->worker = std::thread([this, i] { worker_loop(i); });
  }
}

DeviceCluster::~DeviceCluster() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  space_cv_.notify_all();
  watch_cv_.notify_all();
  for (auto& d : devices_) {
    d->cv.notify_all();
  }
  if (watchdog_.joinable()) {
    watchdog_.join();
  }
  for (auto& d : devices_) {
    if (d->worker.joinable()) {
      d->worker.join();
    }
  }
  // Whatever is still waiting after the workers finished their running
  // replays resolves Failed -- a ticket must never dangle.
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& d : devices_) {
    if (d->staged) {
      finish_locked(*d->staged, RequestStatus::Failed, {}, "cluster shut down",
                    -1);
      d->staged.reset();
    }
  }
  for (auto& [tenant, q] : tenants_) {
    for (auto& req : q) {
      finish_locked(req, RequestStatus::Failed, {}, "cluster shut down", -1);
    }
    q.clear();
  }
  for (auto& req : delayed_) {
    finish_locked(req, RequestStatus::Failed, {}, "cluster shut down", -1);
  }
  delayed_.clear();
  tenant_ring_.clear();
  queued_ = 0;
}

void DeviceCluster::register_plan(const PlanSpec& spec) {
  if (spec.name.empty()) {
    throw Error("plan needs a name");
  }
  if (spec.threads == 0) {
    throw Error("plan '" + spec.name + "' needs a thread count");
  }
  std::size_t inputs = 0, outputs = 0;
  for (const auto& a : spec.args) {
    inputs += a.kind == PlanArg::Kind::Input;
    outputs += a.kind == PlanArg::Kind::Output;
    if ((a.kind == PlanArg::Kind::Input || a.kind == PlanArg::Kind::Output) &&
        a.words == 0) {
      throw Error("plan '" + spec.name + "': zero-word request buffer");
    }
  }
  if (inputs != 1 || outputs != 1) {
    throw Error("plan '" + spec.name +
                "' needs exactly one Input and one Output argument");
  }

  // Registration traffic (warmup, canary golden) must neither trip a fault
  // nor consume trigger indices -- the armed-phase fault sequence stays
  // identical whether or not plans were (re-)registered first.
  DisarmGuard guard;
  for (auto& d : devices_) {
    if (auto* f = d->dev.fault_injector(); f != nullptr && f->armed()) {
      f->disarm();
      guard.rearm.push_back(f);
    }
  }

  for (std::size_t i = 0; i < devices_.size(); ++i) {
    auto& d = *devices_[i];
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!routable(d.health)) {
        continue;  // quarantined / unplugged devices take no plans
      }
    }
    PlanEntry entry;
    entry.verify = spec.verify;

    // Load + bind on this device. The module cache absorbs duplicate
    // sources across plans and re-registrations.
    auto& module = d.dev.load_module(spec.source);
    const auto kernel = module.kernel(spec.kernel);
    rt::KernelArgs canonical;
    rt::Buffer<std::uint32_t> in_buf;
    rt::Buffer<std::uint32_t> out_buf;
    for (const auto& a : spec.args) {
      switch (a.kind) {
        case PlanArg::Kind::Input: {
          in_buf = d.dev.alloc<std::uint32_t>(a.words);
          entry.in_words = a.words;
          canonical.arg(in_buf);
          break;
        }
        case PlanArg::Kind::Output: {
          out_buf = d.dev.alloc<std::uint32_t>(a.words);
          entry.out_words = a.words;
          canonical.arg(out_buf);
          break;
        }
        case PlanArg::Kind::Const: {
          auto buf = d.dev.alloc<std::uint32_t>(a.words);
          d.dev.write_words(buf.word_base(), a.data);
          canonical.arg(buf);
          break;
        }
        case PlanArg::Kind::Scalar:
          canonical.scalar(a.scalar);
          break;
      }
    }
    entry.recipe = canonical.values();

    // Capture the request pipeline as a two-lane DAG on the device's
    // default stream plus a dedicated staging stream (workers only ever
    // touch their per-tenant streams, so capture cannot interleave with
    // traffic): the stage lane copies the request in and the primary lane
    // launches off it, so every replay is ONE DAG submit whose copy-in is
    // priced on its own modeled DMA channel (see docs/serving.md). The
    // copy-out freezes the entry's host_out storage.
    const std::vector<std::uint32_t> placeholder(entry.in_words, 0);
    auto& capture_stream = d.dev.stream();
    if (d.stage_stream == nullptr) {
      d.stage_stream = &d.dev.create_stream();
    }
    entry.host_out.assign(entry.out_words, 0);
    rt::Graph graph;
    capture_stream.begin_capture(graph);
    d.stage_stream->begin_capture(graph);  // joins as the stage lane
    d.stage_stream->copy_in(in_buf,
                            std::span<const std::uint32_t>(placeholder));
    rt::Event staged = d.stage_stream->record();
    capture_stream.wait(staged);  // DAG edge: launch waits on the stage
    capture_stream.launch(kernel, spec.threads, canonical);
    capture_stream.copy_out(out_buf, std::span<std::uint32_t>(entry.host_out));
    d.stage_stream->end_capture();
    capture_stream.end_capture();
    entry.exec = graph.instantiate();

    // Warmup replay: primes the resident image and measures the routing
    // cost estimate.
    const auto warm = entry.exec.run(capture_stream);
    const auto& stats = warm.stats();
    entry.est_us = std::max(
        stats.overlap_wall_us > 0.0 ? stats.overlap_wall_us : stats.wall_us,
        1e-3);

    // Canary: a deterministic payload replayed once more, its output kept
    // as the golden the probation probe must reproduce bit-exact.
    entry.canary_in.resize(entry.in_words);
    SplitMix64 g(0x950c0de ^ static_cast<std::uint64_t>(i));
    for (auto& w : entry.canary_in) {
      w = static_cast<std::uint32_t>(g.next());
    }
    rt::GraphUpdates canary_updates;
    canary_updates.copy_in(0, entry.canary_in);
    entry.exec.run(capture_stream, std::move(canary_updates)).wait();
    entry.canary_golden = entry.host_out;

    std::lock_guard<std::mutex> lock(mu_);
    d.plans[spec.name] = std::move(entry);
  }

  std::lock_guard<std::mutex> lock(mu_);
  specs_[spec.name] = spec;
}

ClusterTicket DeviceCluster::submit(std::string_view tenant,
                                    std::string_view plan,
                                    std::span<const std::uint32_t> payload,
                                    std::vector<ScalarOverride> scalars,
                                    SubmitOptions opts) {
  ClusterTicket ticket;
  ticket.state_ = std::make_shared<ClusterTicket::State>();

  Request req;
  req.tenant = std::string(tenant);
  req.plan = std::string(plan);
  req.payload.assign(payload.begin(), payload.end());
  req.scalars = std::move(scalars);
  req.ticket = ticket.state_;
  req.submitted = Clock::now();
  const std::int64_t deadline_us =
      opts.deadline_us < 0 ? cfg_.default_deadline_us : opts.deadline_us;
  if (deadline_us > 0) {
    req.deadline = req.submitted + std::chrono::microseconds(deadline_us);
  }

  std::unique_lock<std::mutex> lock(mu_);

  const auto it = specs_.find(req.plan);
  if (it == specs_.end()) {
    throw Error("unknown plan '" + req.plan + "'");
  }
  const auto& spec = it->second;
  for (const auto& a : spec.args) {
    if (a.kind == PlanArg::Kind::Input && payload.size() != a.words) {
      throw Error("plan '" + req.plan + "' takes " + std::to_string(a.words) +
                  " payload words, got " + std::to_string(payload.size()));
    }
  }
  for (const auto& s : req.scalars) {
    if (s.param >= spec.args.size() ||
        spec.args[s.param].kind != PlanArg::Kind::Scalar) {
      throw Error("plan '" + req.plan + "': override position " +
                  std::to_string(s.param) + " is not a Scalar parameter");
    }
  }
  ++stats_.submitted;

  if (stopping_ || alive_count_locked() == 0) {
    finish_locked(req, RequestStatus::Rejected, {},
                  stopping_ ? "cluster shut down" : "no alive devices", -1);
    return ticket;
  }

  if (queued_ >= cfg_.queue_capacity) {
    switch (cfg_.policy) {
      case OverloadPolicy::Reject:
        finish_locked(req, RequestStatus::Rejected, {}, "admission queue full",
                      -1);
        return ticket;
      case OverloadPolicy::ShedOldest:
        shed_oldest_locked();
        break;
      case OverloadPolicy::Block: {
        const auto space = [&] {
          return stopping_ || alive_count_locked() == 0 ||
                 queued_ < cfg_.queue_capacity;
        };
        bool woke = true;
        if (req.deadline != kNoDeadline) {
          woke = space_cv_.wait_until(lock, req.deadline, space);
        } else {
          space_cv_.wait(lock, space);
        }
        if (!woke) {
          // Never admitted: the deadline expired while blocked. Failed,
          // but not accepted -- in_system_ was never incremented.
          ++stats_.deadline_failures;
          finish_locked(req, RequestStatus::Failed, {},
                        "DeadlineExceeded: blocked at admission past the "
                        "request deadline",
                        -1, /*accepted=*/false);
          return ticket;
        }
        if (stopping_ || alive_count_locked() == 0) {
          finish_locked(req, RequestStatus::Rejected, {},
                        stopping_ ? "cluster shut down" : "no alive devices",
                        -1);
          return ticket;
        }
        break;
      }
    }
  }

  ++stats_.accepted;
  ++in_system_;
  req.admit_seq = admit_seq_++;
  const auto deadline = req.deadline;
  enqueue_locked(std::move(req), /*front=*/false);
  route_locked();
  if (deadline != kNoDeadline) {
    arm_watchdog_locked(deadline);
  }
  return ticket;
}

void DeviceCluster::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [&] { return in_system_ == 0; });
}

void DeviceCluster::unplug(std::size_t i) {
  if (i >= devices_.size()) {
    throw Error("unplug: no device " + std::to_string(i));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (devices_[i]->health == DeviceHealth::Unplugged) {
      return;
    }
    retire_device_locked(i, /*fault=*/false);
  }
  space_cv_.notify_all();
  devices_[i]->cv.notify_all();
}

bool DeviceCluster::alive(std::size_t i) const {
  if (i >= devices_.size()) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  return routable(devices_[i]->health);
}

DeviceHealth DeviceCluster::health(std::size_t i) const {
  if (i >= devices_.size()) {
    throw Error("health: no device " + std::to_string(i));
  }
  std::lock_guard<std::mutex> lock(mu_);
  return devices_[i]->health;
}

std::size_t DeviceCluster::alive_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return alive_count_locked();
}

faults::FaultInjector* DeviceCluster::fault_injector(std::size_t i) {
  if (i >= devices_.size()) {
    throw Error("fault_injector: no device " + std::to_string(i));
  }
  return devices_[i]->dev.fault_injector();
}

void DeviceCluster::arm_faults() {
  for (auto& d : devices_) {
    if (auto* f = d->dev.fault_injector()) {
      f->arm();
    }
  }
}

void DeviceCluster::disarm_faults() {
  for (auto& d : devices_) {
    if (auto* f = d->dev.fault_injector()) {
      f->disarm();
    }
  }
}

void DeviceCluster::pause() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void DeviceCluster::resume() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = false;
  route_locked();
}

ClusterStats DeviceCluster::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ClusterStats out = stats_;
  out.queued = queued_;
  out.per_device_busy_us.reserve(devices_.size());
  out.per_device_health.reserve(devices_.size());
  for (const auto& d : devices_) {
    out.per_device_busy_us.push_back(d->busy_us);
    out.per_device_health.push_back(d->health);
  }
  return out;
}

rt::Device& DeviceCluster::device(std::size_t i) {
  if (i >= devices_.size()) {
    throw Error("no device " + std::to_string(i));
  }
  return devices_[i]->dev;
}

// ---- admission internals (mu_ held) -----------------------------------------

std::size_t DeviceCluster::alive_count_locked() const {
  std::size_t n = 0;
  for (const auto& d : devices_) {
    n += routable(d->health);
  }
  return n;
}

void DeviceCluster::enqueue_locked(Request req, bool front) {
  auto& q = tenants_[req.tenant];
  const bool was_empty = q.empty();
  const std::string tenant = req.tenant;
  if (front) {
    q.push_front(std::move(req));
  } else {
    q.push_back(std::move(req));
  }
  ++queued_;
  if (was_empty) {
    if (front) {
      tenant_ring_.push_front(tenant);
    } else {
      tenant_ring_.push_back(tenant);
    }
  }
}

void DeviceCluster::shed_oldest_locked() {
  // The oldest waiting request is the earliest admit_seq among the tenant
  // queue fronts (each per-tenant FIFO is age-ordered) and the requests
  // staged on devices.
  const std::string* victim_tenant = nullptr;
  DeviceState* victim_device = nullptr;
  std::uint64_t oldest = ~0ull;
  for (const auto& tenant : tenant_ring_) {
    const auto& q = tenants_[tenant];
    if (!q.empty() && q.front().admit_seq < oldest) {
      oldest = q.front().admit_seq;
      victim_tenant = &tenant;
    }
  }
  for (auto& d : devices_) {
    if (d->staged && d->staged->admit_seq < oldest) {
      oldest = d->staged->admit_seq;
      victim_device = d.get();
    }
  }
  Request victim;
  if (victim_device != nullptr) {
    victim = std::move(*victim_device->staged);
    victim_device->staged.reset();
    victim_device->outstanding_us -= victim.routed_est;
  } else if (victim_tenant != nullptr) {
    auto& q = tenants_[*victim_tenant];
    victim = std::move(q.front());
    q.pop_front();
    if (q.empty()) {
      tenant_ring_.erase(std::find(tenant_ring_.begin(), tenant_ring_.end(),
                                   *victim_tenant));
    }
  } else {
    return;
  }
  --queued_;
  ++stats_.shed;
  finish_locked(victim, RequestStatus::Shed, {}, "shed by a newer request",
                -1);
}

bool DeviceCluster::finish_ticket_locked(
    const std::shared_ptr<ClusterTicket::State>& st, RequestStatus status,
    std::vector<std::uint32_t> output, std::string error, int device,
    Clock::time_point submitted, unsigned retries, bool accepted) {
  {
    std::lock_guard<std::mutex> lock(st->mu);
    if (st->status != RequestStatus::Pending) {
      return false;  // the watchdog and the completion path may race here
    }
    st->status = status;
    st->output = std::move(output);
    st->error = std::move(error);
    st->latency_us =
        std::chrono::duration<double, std::micro>(Clock::now() - submitted)
            .count();
    st->device = device;
    st->retries = retries;
    st->seq = ++completion_seq_;
    st->cv.notify_all();
  }
  switch (status) {
    case RequestStatus::Ok:
      ++stats_.completed;
      if (device >= 0) {
        ++stats_.per_device_completed[static_cast<std::size_t>(device)];
      }
      break;
    case RequestStatus::Rejected:
      ++stats_.rejected;
      break;
    case RequestStatus::Shed:
      break;  // counted at the shed site (stats_.shed)
    case RequestStatus::Failed:
      ++stats_.failed;
      break;
    case RequestStatus::Pending:
      break;
  }
  // Rejected (and never-admitted) requests are not in the system.
  if (accepted && status != RequestStatus::Rejected &&
      status != RequestStatus::Pending) {
    if (in_system_ > 0) {
      --in_system_;
    }
    if (in_system_ == 0) {
      drain_cv_.notify_all();
    }
  }
  return true;
}

void DeviceCluster::finish_locked(Request& req, RequestStatus status,
                                  std::vector<std::uint32_t> output,
                                  std::string error, int device,
                                  bool accepted) {
  finish_ticket_locked(req.ticket, status, std::move(output),
                       std::move(error), device, req.submitted, req.retries,
                       accepted);
}

void DeviceCluster::retire_device_locked(std::size_t device, bool fault) {
  auto& d = *devices_[device];
  d.health = fault ? DeviceHealth::Quarantined : DeviceHealth::Unplugged;
  if (fault) {
    ++stats_.quarantined;
    d.quarantined_at = Clock::now();
    if (cfg_.probation_delay_us > 0) {
      arm_watchdog_locked(d.quarantined_at + std::chrono::microseconds(
                                                 cfg_.probation_delay_us));
    }
  }
  // Fail the staged request over to the survivors: back to the front of
  // the admission queue -- accepted work is never shed by its own
  // fail-over -- and straight back out through routing.
  if (d.staged) {
    Request req = std::move(*d.staged);
    d.staged.reset();
    --queued_;  // enqueue_locked counts it again
    d.outstanding_us -= req.routed_est;
    req.routed_est = 0.0;
    enqueue_locked(std::move(req), /*front=*/true);
  }
  route_locked();
}

void DeviceCluster::arm_watchdog_locked(Clock::time_point t) {
  if (t < watch_until_) {
    watch_until_ = t;
    watch_cv_.notify_one();
  }
}

// ---- routing (mu_ held) -----------------------------------------------------

void DeviceCluster::route_locked() {
  if (paused_ || stopping_) {
    return;
  }
  // Round-robin across tenants with queued work: the front tenant's oldest
  // request goes next, and the tenant rotates to the back.
  while (!tenant_ring_.empty()) {
    auto& q = tenants_[tenant_ring_.front()];
    Request& req = q.front();  // the ring only holds tenants with work

    // Route to the routable device with the least outstanding modeled
    // work including this request's own cost there (devices with cheaper
    // backends bid lower and absorb proportionally more traffic). A
    // degraded device bids double: still in rotation, but traffic leans
    // toward clean peers while it proves itself. A device that already
    // holds a staged request is full and sits this one out.
    DeviceState* best = nullptr;
    double best_est = 0.0;
    double best_score = 0.0;
    bool any_full = false;
    for (auto& dp : devices_) {
      auto& d = *dp;
      if (!routable(d.health)) {
        continue;
      }
      const auto plan = d.plans.find(req.plan);
      if (plan == d.plans.end()) {
        continue;
      }
      if (d.staged) {
        any_full = true;
        continue;
      }
      const double penalty = d.health == DeviceHealth::Degraded ? 2.0 : 1.0;
      const double score = d.outstanding_us + plan->second.est_us * penalty;
      if (best == nullptr || score < best_score) {
        best = &d;
        best_est = plan->second.est_us;
        best_score = score;
      }
    }
    if (best == nullptr && any_full) {
      // Every device that could serve it is full: the rest wait here, in
      // the bounded, fair admission queues, until a worker takes its
      // staged request.
      return;
    }

    Request next = std::move(req);
    q.pop_front();
    std::string tenant = std::move(tenant_ring_.front());
    tenant_ring_.pop_front();
    if (!q.empty()) {
      tenant_ring_.push_back(std::move(tenant));
    }
    if (best == nullptr) {
      --queued_;
      finish_locked(next, RequestStatus::Failed, {}, "no alive devices", -1);
      space_cv_.notify_one();
      continue;
    }
    next.routed_est = best_est;
    best->outstanding_us += best_est;
    best->staged = std::move(next);
    best->cv.notify_one();
  }
}

// ---- watchdog ---------------------------------------------------------------

void DeviceCluster::watchdog_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    // Next timed event: the earliest request deadline anywhere in the
    // system, the earliest backoff expiry, or the earliest probation
    // due-time. (A running replay whose ticket the watchdog already failed
    // has its deadline disarmed, so it cannot re-trigger.)
    auto next = kNoDeadline;
    for (const auto& [tenant, q] : tenants_) {
      for (const auto& r : q) {
        next = std::min(next, r.deadline);
      }
    }
    for (const auto& r : delayed_) {
      next = std::min({next, r.deadline, r.not_before});
    }
    for (const auto& d : devices_) {
      if (d->staged) {
        next = std::min(next, d->staged->deadline);
      }
      if (d->running) {
        next = std::min(next, d->running->deadline);
      }
      if (cfg_.probation_delay_us > 0 &&
          d->health == DeviceHealth::Quarantined) {
        next = std::min(
            next, d->quarantined_at +
                      std::chrono::microseconds(cfg_.probation_delay_us));
      }
    }
    // Publish the wake time: arm_watchdog_locked() notifies only for an
    // earlier one.
    watch_until_ = next;
    if (next == kNoDeadline) {
      watch_cv_.wait(lock);  // until new timed work (or shutdown) arrives
    } else {
      watch_cv_.wait_until(lock, next);
    }
    if (stopping_) {
      return;
    }
    const auto now = Clock::now();

    // Expire overdue waiting work (admission queues, backoff lot, staged
    // requests): remove and fail with the named error.
    const char* overdue = "DeadlineExceeded: request deadline elapsed";
    bool freed = false;
    for (auto rit = tenant_ring_.begin(); rit != tenant_ring_.end();) {
      auto& q = tenants_[*rit];
      for (auto it = q.begin(); it != q.end();) {
        if (it->deadline <= now) {
          ++stats_.deadline_failures;
          finish_locked(*it, RequestStatus::Failed, {}, overdue, -1);
          it = q.erase(it);
          --queued_;
          freed = true;
        } else {
          ++it;
        }
      }
      rit = q.empty() ? tenant_ring_.erase(rit) : rit + 1;
    }
    // Backoff expiry: due retries re-enter at the front of the admission
    // queue, above the capacity bound.
    for (auto it = delayed_.begin(); it != delayed_.end();) {
      if (it->deadline <= now) {
        ++stats_.deadline_failures;
        finish_locked(*it, RequestStatus::Failed, {}, overdue, -1);
        it = delayed_.erase(it);
      } else if (it->not_before <= now) {
        enqueue_locked(std::move(*it), /*front=*/true);
        it = delayed_.erase(it);
      } else {
        ++it;
      }
    }
    for (std::size_t i = 0; i < devices_.size(); ++i) {
      auto& d = *devices_[i];
      if (d.staged && d.staged->deadline <= now) {
        d.outstanding_us -= d.staged->routed_est;
        ++stats_.deadline_failures;
        finish_locked(*d.staged, RequestStatus::Failed, {}, overdue,
                      static_cast<int>(i));
        d.staged.reset();
        --queued_;
        freed = true;
      }
      // An overdue running replay cannot be cancelled (it may be stalled
      // mid-simulation), but its ticket resolves NOW -- that is the
      // no-hang guarantee. The worker discards the eventual result
      // (finish_ticket_locked is first-writer-wins) and the device is
      // flagged Degraded for taking too long.
      if (d.running && d.running->deadline <= now) {
        if (finish_ticket_locked(
                d.running->ticket, RequestStatus::Failed, {},
                "DeadlineExceeded: in flight past the request deadline "
                "(hung or stalled replay)",
                static_cast<int>(i), d.running->submitted,
                d.running->retries, /*accepted=*/true)) {
          ++stats_.deadline_failures;
          if (d.health == DeviceHealth::Healthy) {
            d.health = DeviceHealth::Degraded;
          }
        }
        d.running->deadline = kNoDeadline;
      }
      // Probation: a quarantined device that rested out its delay gets
      // one canary probe.
      if (cfg_.probation_delay_us > 0 &&
          d.health == DeviceHealth::Quarantined &&
          d.quarantined_at +
                  std::chrono::microseconds(cfg_.probation_delay_us) <=
              now) {
        d.health = DeviceHealth::Probation;
        d.probe_pending = true;
        ++stats_.probations;
        d.cv.notify_all();
      }
    }
    route_locked();
    if (freed) {
      space_cv_.notify_all();
    }
  }
}

// ---- per-device workers -----------------------------------------------------

void DeviceCluster::worker_loop(std::size_t device) {
  auto& d = *devices_[device];
  while (true) {
    std::unique_lock<std::mutex> lock(mu_);
    d.cv.wait(lock, [&] {
      return stopping_ || d.probe_pending || d.staged.has_value();
    });
    if (stopping_) {
      return;
    }
    if (d.probe_pending) {
      d.probe_pending = false;
      lock.unlock();
      probe_device(device);
      continue;
    }

    Request req = std::move(*d.staged);
    d.staged.reset();
    --queued_;  // started: no longer counts against queue_capacity
    space_cv_.notify_one();
    route_locked();  // stage the next request behind this one
    PlanEntry& entry = d.plans.find(req.plan)->second;
    // Don't spend device time on a request that is already overdue (the
    // watchdog may not have swept it yet).
    if (req.deadline != kNoDeadline && req.deadline <= Clock::now()) {
      d.outstanding_us -= req.routed_est;
      ++stats_.deadline_failures;
      finish_locked(req, RequestStatus::Failed, {},
                    "DeadlineExceeded: request deadline elapsed",
                    static_cast<int>(device));
      continue;
    }
    // Visible to the watchdog before the replay starts, so a replay that
    // stalls still fails at its deadline.
    d.running = DeviceState::Running{req.ticket, req.deadline, req.submitted,
                                     req.retries};
    lock.unlock();
    issue(device, entry, std::move(req));
  }
}

void DeviceCluster::issue(std::size_t device, PlanEntry& entry, Request req) {
  auto& d = *devices_[device];

  // Per-tenant stream, created on first use (worker thread only).
  rt::Stream* stream;
  {
    const auto it = d.tenant_streams.find(req.tenant);
    if (it != d.tenant_streams.end()) {
      stream = it->second;
    } else {
      stream = &d.dev.create_stream();
      d.tenant_streams.emplace(req.tenant, stream);
    }
  }

  rt::GraphUpdates updates;
  updates.copy_in(0, req.payload);
  if (!req.scalars.empty()) {
    updates.args(0, build_args(entry.recipe, req.scalars));
  }

  // The replay runs right here, on the worker, behind anything else queued
  // on the device: no thread handoff on the request path.
  rt::Event event;
  std::string fault;
  bool transient = false;
  bool corruption = false;
  double modeled_us = 0.0;
  try {
    event = entry.exec.run(*stream, std::move(updates));
  } catch (const Error& e) {
    // Submission-side validation failure (should not happen for a request
    // submit() accepted) -- resolve the ticket, leave the device's health
    // alone.
    std::lock_guard<std::mutex> lock(mu_);
    d.running.reset();
    d.outstanding_us -= req.routed_est;
    finish_locked(req, RequestStatus::Failed, {}, e.what(),
                  static_cast<int>(device));
    route_locked();
    return;
  }
  try {
    const auto& stats = event.stats();
    modeled_us =
        stats.overlap_wall_us > 0.0 ? stats.overlap_wall_us : stats.wall_us;
  } catch (const faults::TransientFault& e) {
    // A recoverable injected fault: the request retries and the device
    // degrades instead of quarantining.
    fault = e.what();
    transient = true;
  } catch (const std::exception& e) {
    fault = e.what();
    if (fault.empty()) {
      fault = "device fault";
    }
  }

  if (fault.empty() && entry.verify) {
    // Output verification: a corrupted result is handled like a transient
    // fault -- retried elsewhere, device degraded -- plus the corruption
    // counter (the chaos bench's detection signal).
    if (!entry.verify(req.payload, req.scalars, entry.host_out)) {
      fault = "output verification failed (corrupted result)";
      transient = true;
      corruption = true;
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  d.running.reset();
  d.outstanding_us -= req.routed_est;
  req.routed_est = 0.0;
  if (corruption) {
    ++stats_.corruption_detected;
  }
  bool expired;
  {
    // The watchdog may have already failed this ticket (deadline while in
    // flight). The result -- success or fault -- is then discarded: the
    // caller was told, and a retry would outlive the request's deadline.
    std::lock_guard<std::mutex> tl(req.ticket->mu);
    expired = req.ticket->status != RequestStatus::Pending;
  }

  if (fault.empty()) {
    d.busy_us += modeled_us;
    // A clean replay decays the health machine: Degraded heals back to
    // Healthy, the consecutive-transient count restarts.
    d.consecutive_faults = 0;
    if (d.health == DeviceHealth::Degraded) {
      d.health = DeviceHealth::Healthy;
    }
    if (!expired) {
      finish_locked(req, RequestStatus::Ok, entry.host_out, "",
                    static_cast<int>(device));
    }
    route_locked();  // this device's lighter load may win the next request
    return;
  }

  // Health bookkeeping. Transient: Healthy -> Degraded, quarantining only
  // after cfg_.quarantine_after consecutive transients. Anything else is
  // a hard fault: quarantine now (the pre-health-machine behavior).
  if (transient) {
    ++d.consecutive_faults;
    if (d.health == DeviceHealth::Healthy) {
      d.health = DeviceHealth::Degraded;
    }
    if (d.consecutive_faults >= cfg_.quarantine_after &&
        routable(d.health)) {
      retire_device_locked(device, /*fault=*/true);
    }
  } else if (routable(d.health)) {
    retire_device_locked(device, /*fault=*/true);
  }

  if (expired) {
    route_locked();
    return;
  }
  if (req.retries < cfg_.max_retries && alive_count_locked() > 0) {
    ++req.retries;
    ++stats_.retried;
    if (cfg_.retry_backoff_us > 0) {
      // Capped exponential backoff with deterministic jitter: delay =
      // min(backoff * 2^(retries-1), cap) * U where U in [0.75, 1.25) is
      // a pure function of (fault_seed, request, attempt) -- reproducible
      // storm replays, no synchronized retry herds.
      const unsigned exp = std::min(req.retries - 1, 30u);
      const double base = std::min(
          static_cast<double>(cfg_.retry_backoff_us) *
              static_cast<double>(1ull << exp),
          static_cast<double>(cfg_.retry_backoff_cap_us));
      SplitMix64 g(cfg_.fault_seed ^ (req.admit_seq * 0x9e3779b97f4a7c15ULL) ^
                   req.retries);
      const double unit =
          static_cast<double>(g.next() >> 11) * 0x1.0p-53;  // [0, 1)
      const double jitter = 0.75 + 0.5 * unit;
      req.not_before =
          Clock::now() + std::chrono::microseconds(
                             static_cast<std::int64_t>(base * jitter));
      arm_watchdog_locked(req.not_before);  // the watchdog ends the backoff
      delayed_.push_back(std::move(req));
    } else {
      enqueue_locked(std::move(req), /*front=*/true);
    }
    route_locked();
    return;
  }
  finish_locked(req, RequestStatus::Failed, {}, fault,
                static_cast<int>(device));
  route_locked();
}

void DeviceCluster::probe_device(std::size_t device) {
  auto& d = *devices_[device];
  bool ok = true;
  bool mismatch = false;
  // The probe replays each plan's canary on the device's default stream
  // (no traffic is routed to a Probation device, and only this worker
  // replays its plans, so the pipelines and the stream are exclusively
  // ours). The stream may still carry the sticky error that quarantined
  // the device -- recovery starts by clearing it.
  d.dev.stream().clear_error();
  try {
    for (auto& [name, entry] : d.plans) {
      rt::GraphUpdates updates;
      updates.copy_in(0, entry.canary_in);
      entry.exec.run(d.dev.stream(), std::move(updates)).wait();
      if (entry.host_out != entry.canary_golden) {
        ok = false;
        mismatch = true;
        break;
      }
    }
  } catch (const std::exception&) {
    ok = false;  // the canary faulted: not healed yet
  }
  d.dev.stream().clear_error();  // leave no probe residue either way

  std::lock_guard<std::mutex> lock(mu_);
  if (d.health != DeviceHealth::Probation) {
    return;  // unplugged (or shut down) mid-probe
  }
  if (ok) {
    d.health = DeviceHealth::Healthy;
    d.consecutive_faults = 0;
    ++stats_.readmitted;
    route_locked();  // back in the routing set
  } else {
    if (mismatch) {
      ++stats_.corruption_detected;
    }
    // Back to quarantine; the timer restarts, the watchdog will probe
    // again after another probation_delay_us.
    d.health = DeviceHealth::Quarantined;
    ++stats_.quarantined;
    d.quarantined_at = Clock::now();
    arm_watchdog_locked(d.quarantined_at +
                        std::chrono::microseconds(cfg_.probation_delay_us));
  }
}

}  // namespace simt::cluster
