// The device-owned asynchronous scheduler.
//
// Streams do not execute anything themselves: every copy/launch command is
// submitted here and runs on the scheduler's executor thread, so host code
// keeps going while the device simulates. Stream::synchronize() is a join.
// A caller that would only wait for the result anyway (a serving worker
// replaying a graph) can instead run a command on its own thread through
// run(): same ticket order, same pricing, same fault sites and completion
// publication, minus the handoff to the executor and back. A thread
// blocked in wait() does the same for commands already queued: it executes
// the ready front itself up to the ticket it waits for.
// Commands carry dependency tickets (same-stream ordering, cross-stream
// Event waits); the in-process executor runs commands in submission order,
// which trivially satisfies those dependencies and keeps multi-stream
// execution deterministic -- on real hardware the dependencies are what
// the DMA descriptors would encode.
//
// Alongside functional execution the scheduler keeps a modeled timeline:
// each command occupies a device engine (the staging DMA for copies, the
// compute array for launches) for its modeled duration. serial_us prices
// the PR-1 shape -- every command back to back on one timeline -- and
// overlap_us prices the engines running concurrently subject to the
// dependency tickets, i.e. double-buffered staging. The ratio is the
// modeled throughput gain of the asynchronous engine.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "runtime/event.hpp"

namespace simt::runtime {

/// Which modeled device engine a command occupies.
enum class EngineKind { Copy, Exec, None };

/// Modeled host-side dispatch costs, in microseconds. The device engines
/// (staging DMA, compute array) are priced by the timeline below; these
/// constants price the OTHER half of a launch -- the host work of getting
/// a command onto the device: queue submission, argument validation and
/// binding, building the relocation patch plan, and intersecting declared
/// footprints. For the short kernels the eGPU papers serve, this path
/// dominates wall clock, and it is exactly what execution-graph replay
/// amortizes: a captured sequence is validated/planned once at
/// instantiate time and replays as ONE submitted command whose per-node
/// cost is a frozen-plan walk.
struct HostCost {
  static constexpr double kSubmitUs = 0.40;     ///< enqueue one command
  static constexpr double kCopyPrepUs = 0.10;   ///< snapshot + bounds check
  static constexpr double kValidateUs = 0.15;   ///< per-launch arg checks
  static constexpr double kPerArgUs = 0.03;     ///< binding one argument
  static constexpr double kPerRelocUs = 0.02;   ///< one patch-plan site
  static constexpr double kPerFootprintUs = 0.05;  ///< one declared range
  static constexpr double kReplayNodeUs = 0.02;    ///< walk one frozen node
};

/// Modeled host cost of preparing one eager launch command (validation,
/// positional binding, patch-plan resolution, footprint intersection).
inline double launch_prep_us(std::size_t args, std::size_t relocs,
                             std::size_t footprints) {
  return HostCost::kValidateUs +
         static_cast<double>(args) * HostCost::kPerArgUs +
         static_cast<double>(relocs) * HostCost::kPerRelocUs +
         static_cast<double>(footprints) * HostCost::kPerFootprintUs;
}

/// Modeled timeline roll-up across everything this scheduler has executed.
struct TimelineStats {
  double serial_us = 0.0;   ///< every command back to back (the PR-1 model)
  double overlap_us = 0.0;  ///< copy/exec engines overlapped
  /// Modeled host-side dispatch cost (HostCost): submission plus per-
  /// command preparation. Graph replay's whole point is to shrink this.
  double dispatch_us = 0.0;
  std::uint64_t copied_words = 0;
  std::uint64_t exec_cycles = 0;
  unsigned commands = 0;       ///< scheduler commands (a replay counts once)
  unsigned graph_replays = 0;  ///< graph-replay commands

  /// Modeled throughput gain of overlapping staging with execution.
  double overlap_speedup() const {
    return overlap_us > 0.0 ? serial_us / overlap_us : 1.0;
  }
};

/// A stream's sticky-error slot, shared between the stream and the
/// executor thread. It carries its own mutex so the executor's store and
/// the stream's consume (Stream::synchronize) stay race-free even while
/// other host threads keep submitting past the joined ticket.
struct StreamErrorSlot {
  std::mutex mutex;
  std::exception_ptr error;
};

/// One node of a graph replay's pricing skeleton, frozen at
/// Graph::instantiate(): the engine the node occupies, its staging
/// traffic, its capture lane and its DAG edges.
struct ReplayStep {
  EngineKind engine = EngineKind::None;
  std::uint64_t words = 0;  ///< staging traffic (copies)
  /// Copies: the modeled DMA channel as an offset from the replaying
  /// command's `channel` (the capture lane, capped to the stream's
  /// channel reservation).
  unsigned lane = 0;
  /// Indices of earlier steps this one waits for (the frozen DAG's edges).
  std::vector<std::uint32_t> after;
};

/// A graph's frozen pricing skeleton plus the cycles its executing replay
/// reports. One replay at a time writes `cycles`: a device executes one
/// command at a time and prices it before the next one starts.
struct ReplaySkeleton {
  std::vector<ReplayStep> steps;
  /// The executing replay's modeled duration of each step, in device
  /// cycles: written by its body, read when the scheduler prices it. A
  /// step the replay never reached (it faulted first) reads 0.
  std::vector<std::uint64_t> cycles;
};

class Scheduler {
 public:
  /// One schedulable command. `run` executes on the executing thread and
  /// returns the command's modeled duration in device cycles.
  struct Command {
    EngineKind engine = EngineKind::None;
    std::function<std::uint64_t()> run;
    std::shared_ptr<EventState> event;  ///< resolved after run (optional)
    /// The submitting stream's error slot: a faulting command stores its
    /// exception here (first fault wins), so errors stay attributed to
    /// the stream that owns the command instead of leaking to whichever
    /// stream synchronizes first.
    std::shared_ptr<StreamErrorSlot> error_slot;
    std::uint64_t words = 0;            ///< staging traffic (copies)
    /// Staging channel for Copy commands: each stream owns one (its half
    /// of the double buffer), so copies on different streams overlap while
    /// copies within a stream serialize. Launches share the one compute
    /// array regardless.
    unsigned channel = 0;
    /// Modeled host preparation cost beyond the submission itself
    /// (HostCost); folded into TimelineStats::dispatch_us.
    double prep_us = 0.0;
    /// Graph replay: the frozen DAG this command executes as ONE
    /// scheduler command. It is priced step by step instead of on
    /// `engine`: each step occupies its own engine (copies on `channel`
    /// plus the step's lane) no earlier than its `after` steps finish, so
    /// independent branches of a cross-stream capture overlap on the
    /// modeled engines while the host pays for a single submission. Its
    /// `run` stores each step's cycles in the skeleton; the value `run`
    /// returns is unused.
    std::shared_ptr<const ReplaySkeleton> replay;
  };

  /// `fmax_mhz` is the device's realized clock, which prices the timeline.
  explicit Scheduler(double fmax_mhz);
  ~Scheduler();  ///< drains the queue and joins the executor

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Enqueue a command after `deps` (earlier tickets). Returns its ticket.
  Ticket submit(Command cmd, std::vector<Ticket> deps = {});

  /// Execute `cmd` on the calling thread as the next ticket: commands
  /// submitted afterwards order behind it, and it runs once every earlier
  /// ticket has executed (queued or running commands first; a paused
  /// scheduler holds it too). Pricing, fault sites, and event / error-slot
  /// publication are exactly the executor's; returns once the command's
  /// completion is published. `reserved` is called with the new ticket
  /// under the scheduler lock, before the wait (a stream records its
  /// ordering there); it must not throw. Taking the ticket and running it
  /// are one call, so no ticket can be left unrun to stall the executor.
  void run(Command cmd, std::vector<Ticket> deps,
           const std::function<void(Ticket)>& reserved);

  /// Block until ticket `t` has executed (t == 0 returns immediately).
  /// While a queued command at or before `t` is next in ticket order (and
  /// the scheduler is not paused) the caller executes it, exactly as the
  /// executor would, instead of sleeping until the executor wakes.
  /// Errors are reported through the command's stream error slot and
  /// event, not here -- see Stream::synchronize() and Event::wait().
  void wait(Ticket t);

  /// Retired watermark: every ticket <= this has executed (non-blocking;
  /// ticket 0 is always retired). Lock-free, so streams can prune their
  /// bookkeeping on every submit for free.
  Ticket retired() const { return completed_.load(std::memory_order_acquire); }

  /// Hold the executor between commands (in-flight work finishes). Lets
  /// tests and tools observe queued state deterministically.
  void pause();
  void resume();

  TimelineStats timeline() const;

  /// Liveness token shared with events (and graphs captured on this
  /// device): expired once the scheduler is destroyed, so handles that
  /// outlive the device can tell instead of dereferencing it.
  std::weak_ptr<void> liveness() const { return liveness_; }

 private:
  struct Node {
    Command cmd;
    std::vector<Ticket> deps;
    Ticket ticket = 0;
  };

  void loop();
  /// Is the queue's front command next in ticket order and allowed to run
  /// (mutex held)? A reserved ticket ahead of it holds it back.
  bool front_ready() const;
  /// Run one command on the calling thread and publish its completion:
  /// modeled pricing, completed_, event, error slot. Called with the lock
  /// held; drops it while the command runs and returns with it held.
  void execute(Node& node, std::unique_lock<std::mutex>& lock);
  /// Fold an executed command into the modeled timeline (mutex held).
  void account(const Node& node, std::uint64_t cycles);
  /// Price `cycles` of work on `engine` (copies on `channel`) starting no
  /// earlier than `ready`; returns its finish time (mutex held).
  double price(EngineKind engine, std::uint64_t words, unsigned channel,
               double ready, std::uint64_t cycles);

  double fmax_mhz_;
  /// Handed to events as a weak_ptr; reset by the destructor so an Event
  /// that outlives the device can tell its scheduler is gone.
  std::shared_ptr<void> liveness_ = std::make_shared<int>(0);

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;  ///< wakes the executor
  std::condition_variable done_cv_;  ///< wakes waiters and run() callers
  std::deque<Node> queue_;
  Ticket next_ticket_ = 1;
  /// Every ticket <= this has executed. Written under mutex_, read
  /// lock-free by retired().
  std::atomic<Ticket> completed_{0};
  bool paused_ = false;
  bool stopping_ = false;

  // Modeled timeline (all in modeled microseconds at fmax_mhz_).
  std::vector<double> copy_free_us_;  ///< per staging channel
  double exec_free_us_ = 0.0;
  double serial_us_ = 0.0;
  double overlap_us_ = 0.0;
  double dispatch_us_ = 0.0;
  std::uint64_t copied_words_ = 0;
  std::uint64_t exec_cycles_ = 0;
  unsigned commands_ = 0;
  unsigned graph_replays_ = 0;
  /// Finish times of recent commands, for dependency lookups. Bounded: a
  /// long-lived serving device would otherwise grow one entry per command
  /// forever. A dependency older than the window resolves to "ready at 0",
  /// which the monotone engine timelines make harmless in practice.
  static constexpr std::size_t kFinishWindow = 16384;
  std::unordered_map<Ticket, double> finish_us_;
  std::deque<Ticket> finish_order_;

  std::thread thread_;  ///< last member: joins before state tears down
};

}  // namespace simt::runtime
