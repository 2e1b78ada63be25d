#include "runtime/scheduler.hpp"

#include <algorithm>
#include <chrono>

#include "runtime/device.hpp"

namespace simt::runtime {

Scheduler::Scheduler(Device& dev) : dev_(dev), fmax_mhz_(dev.fmax_mhz()) {
  thread_ = std::thread([this] { loop(); });
}

Scheduler::~Scheduler() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  thread_.join();  // drains the queue: every event has resolved by now
  liveness_.reset();
}

Ticket Scheduler::submit(Command cmd, std::vector<Ticket> deps) {
  Node node;
  node.cmd = std::move(cmd);
  node.deps = std::move(deps);
  Ticket ticket;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ticket = next_ticket_++;
    node.ticket = ticket;
    if (node.cmd.event) {
      node.cmd.event->ticket = ticket;
      node.cmd.event->scheduler = this;
      node.cmd.event->scheduler_alive = liveness_;
    }
    queue_.push_back(std::move(node));
  }
  work_cv_.notify_all();
  return ticket;
}

void Scheduler::run(Command cmd, std::vector<Ticket> deps,
                    const std::function<void(Ticket)>& reserved) {
  Node node;
  node.cmd = std::move(cmd);
  node.deps = std::move(deps);
  std::unique_lock<std::mutex> lock(mutex_);
  const Ticket t = next_ticket_++;
  node.ticket = t;
  if (node.cmd.event) {
    node.cmd.event->ticket = t;
    node.cmd.event->scheduler = this;
    node.cmd.event->scheduler_alive = liveness_;
  }
  reserved(t);
  done_cv_.wait(lock, [this, t] {
    return !paused_ && completed_.load(std::memory_order_relaxed) + 1 == t;
  });
  execute(node, lock);
  if (front_ready()) {
    work_cv_.notify_all();  // hand the executor what queued behind us
  }
}

void Scheduler::wait(Ticket t) {
  std::unique_lock<std::mutex> lock(mutex_);
  // A waiter that would only sleep until the executor wakes runs the
  // commands it waits for itself: the same pop + execute() the executor
  // loop does, so ticket order, pricing, fault sites, a pause and
  // completion publication are unchanged. Commands behind `t` stay queued
  // for the executor.
  while (completed_.load(std::memory_order_relaxed) < t) {
    if (front_ready() && queue_.front().ticket <= t) {
      Node node = std::move(queue_.front());
      queue_.pop_front();
      execute(node, lock);
    } else {
      done_cv_.wait(lock);
    }
  }
  if (front_ready()) {
    work_cv_.notify_all();  // hand the executor what queued behind us
  }
}

void Scheduler::pause() {
  std::lock_guard<std::mutex> lock(mutex_);
  paused_ = true;
}

void Scheduler::resume() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
  }
  work_cv_.notify_all();
  done_cv_.notify_all();  // run() callers held by the pause
}

TimelineStats Scheduler::timeline() const {
  std::lock_guard<std::mutex> lock(mutex_);
  TimelineStats t;
  t.serial_us = serial_us_;
  t.overlap_us = overlap_us_;
  t.dispatch_us = dispatch_us_;
  t.copied_words = copied_words_;
  t.exec_cycles = exec_cycles_;
  t.commands = commands_;
  t.graph_replays = graph_replays_;
  return t;
}

double Scheduler::price(const Command& cmd, double ready,
                        std::uint64_t cycles) {
  const double dur_us = static_cast<double>(cycles) / fmax_mhz_;
  serial_us_ += dur_us;
  double finish = ready;
  switch (cmd.engine) {
    case EngineKind::Copy: {
      if (copy_free_us_.size() <= cmd.channel) {
        copy_free_us_.resize(cmd.channel + 1, 0.0);
      }
      double& channel_free = copy_free_us_[cmd.channel];
      finish = std::max(channel_free, ready) + dur_us;
      channel_free = finish;
      break;
    }
    case EngineKind::Exec:
      finish = std::max(exec_free_us_, ready) + dur_us;
      exec_free_us_ = finish;
      break;
    case EngineKind::None:
      break;
  }
  copied_words_ += cmd.words;
  if (cmd.engine == EngineKind::Exec) {
    exec_cycles_ += cycles;
  }
  return finish;
}

void Scheduler::account(const Node& node, std::uint64_t cycles,
                        const std::vector<std::uint64_t>& sub_cycles) {
  double ready = 0.0;
  for (const Ticket dep : node.deps) {
    const auto it = finish_us_.find(dep);
    if (it != finish_us_.end()) {
      ready = std::max(ready, it->second);
    }
  }
  double finish;
  if (node.cmd.sub.empty()) {
    finish = price(node.cmd, ready, cycles);
  } else {
    // Composite (graph replay): walk the frozen DAG. Each sub-command is
    // ready once the composite's own dependencies AND its captured `after`
    // edges have finished, so independent branches of a cross-stream
    // capture overlap on the engines (a copy on one channel under another
    // channel's copy or the compute array) while the host-side dispatch
    // below is charged once for the whole replay. A single-lane capture
    // degenerates to the chain its eager expansion would have priced.
    const double serial_before = serial_us_;
    std::vector<double> sub_finish(node.cmd.sub.size(), ready);
    finish = ready;
    for (std::size_t i = 0; i < node.cmd.sub.size(); ++i) {
      double sub_ready = ready;
      for (const std::uint32_t dep : node.cmd.sub[i].after) {
        if (dep < i) {  // instantiate() guarantees topological order
          sub_ready = std::max(sub_ready, sub_finish[dep]);
        }
      }
      sub_finish[i] = price(node.cmd.sub[i], sub_ready,
                            i < sub_cycles.size() ? sub_cycles[i] : 0);
      finish = std::max(finish, sub_finish[i]);
    }
    ++graph_replays_;
    if (node.cmd.event) {
      // Publish the replay's own modeled span (both pricings) on its
      // event; the complete/failed store in execute() sequences these
      // writes before any reader.
      node.cmd.event->replay_serial_us = serial_us_ - serial_before;
      node.cmd.event->replay_overlap_us = finish - ready;
    }
  }
  finish_us_[node.ticket] = finish;
  finish_order_.push_back(node.ticket);
  while (finish_order_.size() > kFinishWindow) {
    finish_us_.erase(finish_order_.front());
    finish_order_.pop_front();
  }
  overlap_us_ = std::max(overlap_us_, finish);
  dispatch_us_ += HostCost::kSubmitUs + node.cmd.prep_us;
  ++commands_;
}

bool Scheduler::front_ready() const {
  return !queue_.empty() && (!paused_ || stopping_) &&
         queue_.front().ticket ==
             completed_.load(std::memory_order_relaxed) + 1;
}

void Scheduler::loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [this] {
      return (stopping_ && queue_.empty()) || front_ready();
    });
    if (queue_.empty()) {
      return;  // stopping with a drained queue
    }
    Node node = std::move(queue_.front());
    queue_.pop_front();
    execute(node, lock);
  }
}

void Scheduler::execute(Node& node, std::unique_lock<std::mutex>& lock) {
  lock.unlock();
  std::uint64_t cycles = 0;
  std::vector<std::uint64_t> sub_cycles;
  std::exception_ptr err;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    if (node.cmd.run) {
      cycles = node.cmd.run();
    }
    // Composite command: execute the frozen sub-sequence in order. A
    // faulting sub-command aborts the rest of the replay (the fault
    // lands on the parent's event and stream error slot).
    if (!node.cmd.sub.empty()) {
      if (auto* f = dev_.fault_injector()) {
        // One Replay trigger per composite replay dispatch; a thrown
        // fault fails the whole replay before any sub executes.
        f->at(faults::FaultSite::Replay);
      }
    }
    for (auto& sub : node.cmd.sub) {
      sub_cycles.push_back(sub.run ? sub.run() : 0);
    }
  } catch (...) {
    err = std::current_exception();
  }
  const double host_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - t0)
          .count();

  lock.lock();
  account(node, cycles, sub_cycles);
  completed_.store(node.ticket, std::memory_order_release);
  if (node.cmd.event) {
    if (err) {
      node.cmd.event->error = err;
      node.cmd.event->failed.store(true, std::memory_order_release);
    } else {
      node.cmd.event->host_elapsed_us = host_us;
      node.cmd.event->complete.store(true, std::memory_order_release);
    }
  }
  if (err && node.cmd.error_slot) {
    std::lock_guard<std::mutex> slot_lock(node.cmd.error_slot->mutex);
    if (!node.cmd.error_slot->error) {
      node.cmd.error_slot->error = err;  // first fault on the stream wins
    }
  }
  done_cv_.notify_all();
}

void Event::wait() const {
  if (!state_) {
    return;
  }
  if (state_->captured) {
    throw Error("wait on an event recorded during graph capture: it names "
                "a graph node and never resolves; launch the instantiated "
                "graph and wait on the Event GraphExec::launch returns");
  }
  if (!state_->scheduler) {
    return;
  }
  // Only touch the scheduler while it is alive; a destroyed device already
  // drained its queue, so the event's final state is set and the wait
  // degrades to the completion/failure check below. (Destroying the device
  // concurrently with wait() is outside the API contract.)
  if (auto alive = state_->scheduler_alive.lock()) {
    state_->scheduler->wait(state_->ticket);
  }
  if (failed()) {
    std::rethrow_exception(state_->error);
  }
}

}  // namespace simt::runtime
