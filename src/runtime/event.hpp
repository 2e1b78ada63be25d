// Event: completion handle for an asynchronously scheduled launch.
//
// An Event resolves when the device's Scheduler has executed the launch it
// was returned from. done() is a non-blocking poll, wait() joins just this
// event, and stats()/wall_us()/elapsed_us() throw simt::Error while the
// launch is still in flight -- an incomplete event never reads as zeros.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>

#include "common/error.hpp"
#include "runtime/device.hpp"

namespace simt::runtime {

class Scheduler;

/// Scheduler command identifier; commands execute in ticket order subject
/// to dependencies. 0 means "no command".
using Ticket = std::uint64_t;

/// Shared completion record, owned jointly by the Event handle and the
/// scheduler command that resolves it.
struct EventState {
  std::atomic<bool> complete{false};
  std::atomic<bool> failed{false};
  /// The event was recorded while its stream was capturing into a Graph:
  /// it names a graph node, not a scheduled command, and never resolves.
  /// Waiting on it throws; Stream::wait treats it as already satisfied by
  /// the capture order. `capture_graph` identifies the owning capture
  /// (pointer identity only; never dereferenced).
  bool captured = false;
  const void* capture_graph = nullptr;
  /// For captured events: the index of the graph node this event names.
  /// Stream::wait uses it during capture to record a cross-lane DAG edge.
  std::size_t capture_node = 0;
  LaunchStats stats{};
  /// For graph-replay events: the replay's modeled engine time priced two
  /// ways -- every sub-command back to back (serial) and the frozen DAG's
  /// critical path with independent branches overlapped on the engines
  /// (overlap). Zero for ordinary stream events.
  double replay_serial_us = 0.0;
  double replay_overlap_us = 0.0;
  /// Host-side (simulation) time the command took to execute, for
  /// profiling the simulator itself; unrelated to the modeled wall_us.
  double host_elapsed_us = 0.0;
  /// The command's exception if it faulted (valid once `failed` is set);
  /// rethrown by every wait()/stats() on the event -- a failed event
  /// stays failed.
  std::exception_ptr error;
  Ticket ticket = 0;
  Scheduler* scheduler = nullptr;
  /// Liveness token for `scheduler`: expired once the device (and its
  /// scheduler) is destroyed, so wait() on an outliving Event degrades to
  /// a completion check instead of dereferencing a dangling pointer. (The
  /// scheduler drains its queue on destruction, so the event has resolved
  /// by then.)
  std::weak_ptr<void> scheduler_alive;
};

class Event {
 public:
  Event() = default;

  /// Non-blocking completion poll.
  bool done() const {
    return state_ && state_->complete.load(std::memory_order_acquire);
  }
  /// Legacy name for done().
  bool complete() const { return done(); }

  /// Did the launch fault? (Non-blocking; implies the event will never
  /// complete.)
  bool failed() const {
    return state_ && state_->failed.load(std::memory_order_acquire);
  }

  /// Has the scheduler finished with this command, either way? Equivalent
  /// to done() || failed(); the non-blocking poll for callers that must
  /// not hang on a faulted launch (a failed event never reads as done()).
  bool resolved() const { return done() || failed(); }

  /// Rethrow the command's fault if it has one; no-op otherwise.
  /// Non-blocking -- pair with resolved() to poll without losing errors.
  void rethrow_if_failed() const {
    if (failed()) {
      std::rethrow_exception(state_->error);
    }
  }

  /// Was this event recorded during graph capture? A captured event names
  /// a node of the graph, not work in flight: it never completes, and
  /// wait()/stats() on it throw. Launch the instantiated graph and use
  /// the Event GraphExec::launch returns instead.
  bool captured() const { return state_ && state_->captured; }

  /// Block until the scheduler has executed this launch; rethrows the
  /// command's error if it faulted (every time -- a failed event stays
  /// failed). No-op on a default-constructed event.
  void wait() const;

  /// Rolled-up counters for the launch; throws while still in flight and
  /// rethrows the fault of a failed launch.
  const LaunchStats& stats() const {
    if (failed()) {
      std::rethrow_exception(state_->error);
    }
    if (!done()) {
      throw Error("event is not complete; wait() or synchronize the stream");
    }
    return state_->stats;
  }
  /// Modeled wall-clock of the launch at the device's realized Fmax.
  double wall_us() const { return stats().wall_us; }
  /// Graph replays only: the replay's modeled engine time with every
  /// sub-command back to back (the linearized model). Throws while the
  /// replay is in flight; zero for non-replay events.
  double replay_serial_us() const {
    if (failed()) {
      std::rethrow_exception(state_->error);
    }
    if (!done()) {
      throw Error("event is not complete; wait() or synchronize the stream");
    }
    return state_->replay_serial_us;
  }
  /// Graph replays only: the replay's modeled critical path through the
  /// frozen DAG, with independent branches overlapped on the device
  /// engines. Throws while the replay is in flight; zero for non-replay
  /// events.
  double replay_overlap_us() const {
    if (failed()) {
      std::rethrow_exception(state_->error);
    }
    if (!done()) {
      throw Error("event is not complete; wait() or synchronize the stream");
    }
    return state_->replay_overlap_us;
  }
  /// Host (simulation) time spent executing the launch; throws while the
  /// launch is in flight and rethrows the fault of a failed launch.
  double elapsed_us() const {
    if (failed()) {
      std::rethrow_exception(state_->error);
    }
    if (!done()) {
      throw Error("event is not complete; wait() or synchronize the stream");
    }
    return state_->host_elapsed_us;
  }

 private:
  friend class Scheduler;
  friend class Stream;
  friend class GraphExec;
  std::shared_ptr<EventState> state_;
};

}  // namespace simt::runtime
