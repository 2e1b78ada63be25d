#include "runtime/stream.hpp"

#include <utility>

namespace simt::runtime {

std::uint64_t run_copy_in(Device& dev, const StreamOp& op) {
  std::span<const std::uint32_t> data(op.data);
  std::vector<std::uint32_t> bent;
  if (auto* f = dev.fault_injector()) {
    const faults::SiteOutcome bend = f->at(faults::FaultSite::CopyIn);
    if (bend.corrupt && !data.empty()) {
      bent = op.data;
      bent[bend.corrupt_word % bent.size()] ^= bend.corrupt_mask;
      data = bent;
    }
  }
  dev.write_words(op.base, data);
  return dma_burst_cycles(data.size(),
                          dev.descriptor().staging_words_per_cycle);
}

std::uint64_t run_copy_out(Device& dev, const StreamOp& op) {
  const std::span<std::uint32_t> dst(op.dst, op.count);
  dev.read_words(op.base, dst);
  if (auto* f = dev.fault_injector()) {
    f->at(faults::FaultSite::CopyOut, dst);
  }
  return dma_burst_cycles(op.count, dev.descriptor().staging_words_per_cycle);
}

std::vector<Ticket> Stream::next_deps_locked(std::vector<Ticket> extra) const {
  if (capture_ != nullptr) {
    // Every internal path checks capture mode before building a command,
    // but those checks release the mutex; re-checking inside the critical
    // section closes the race against a concurrent begin_capture(), so an
    // eager command can never slip onto the scheduler mid-capture.
    throw Error("command submitted while the stream is capturing; eager "
                "execution and graph replay are not allowed mid-capture");
  }
  if (last_ != 0) {
    extra.push_back(last_);
  }
  return extra;
}

Ticket Stream::submit(Scheduler::Command cmd, std::vector<Ticket> extra_deps) {
  std::lock_guard<std::mutex> lock(submit_mutex_);
  std::vector<Ticket> deps = next_deps_locked(std::move(extra_deps));
  cmd.error_slot = error_;
  last_ = sched_->submit(std::move(cmd), std::move(deps));
  prune_locked();
  live_.push_back(last_);
  return last_;
}

void Stream::prune_locked() const {
  const Ticket retired = sched_->retired();
  while (!live_.empty() && live_.front() <= retired) {
    live_.pop_front();
  }
}

Event Stream::submit_op(StreamOp op) {
  {
    std::lock_guard<std::mutex> lock(submit_mutex_);
    if (capture_ != nullptr) {
      // Capture sink: record the op as a DAG node on this stream's lane.
      // The node depends on this lane's previous node (in-stream order)
      // plus any cross-lane edges wait() collected since. Launches and
      // markers hand back a captured-event handle (it names the node,
      // resolves never); copies return a default Event like the eager
      // path.
      const std::size_t index = capture_->nodes_.size();
      Event event;
      if (op.kind == StreamOp::Kind::Launch ||
          op.kind == StreamOp::Kind::Marker) {
        auto state = std::make_shared<EventState>();
        state->captured = true;
        state->capture_graph = capture_;
        state->capture_node = index;
        event.state_ = std::move(state);
      }
      GraphNode node;
      node.op = std::move(op);
      node.lane = capture_lane_;
      node.deps = std::move(capture_deps_);
      capture_deps_.clear();
      if (capture_last_ != kNoNode) {
        node.deps.push_back(capture_last_);
      }
      capture_->nodes_.push_back(std::move(node));
      capture_last_ = index;
      return event;
    }
  }

  // Eager sink: convert the op into a scheduler command.
  Scheduler::Command cmd;
  Event event;
  switch (op.kind) {
    case StreamOp::Kind::CopyIn:
      cmd.engine = EngineKind::Copy;
      cmd.words = op.data.size();
      cmd.channel = channel_;
      cmd.prep_us = HostCost::kCopyPrepUs;
      cmd.run = [dev = dev_, op = std::move(op)] {
        return run_copy_in(*dev, op);
      };
      break;
    case StreamOp::Kind::CopyOut:
      cmd.engine = EngineKind::Copy;
      cmd.words = op.count;
      cmd.channel = channel_;
      cmd.prep_us = HostCost::kCopyPrepUs;
      cmd.run = [dev = dev_, op = std::move(op)] {
        return run_copy_out(*dev, op);
      };
      break;
    case StreamOp::Kind::Launch: {
      cmd.engine = EngineKind::Exec;
      auto state = std::make_shared<EventState>();
      cmd.event = state;
      // The per-submission host cost an eager launch pays and a graph
      // replay amortizes: validation, binding, patch-plan resolution,
      // footprint intersection.
      const auto* info = op.kernel.info;
      cmd.prep_us = launch_prep_us(
          op.args.size(), info != nullptr ? info->refs.size() : 0,
          info != nullptr ? info->reads.size() + info->writes.size() : 0);
      cmd.run = [dev = dev_, kernel = op.kernel, threads = op.threads, state,
                 args = std::move(op.args)] {
        state->stats = dev->launch_sync(kernel, threads, args);
        // The launch occupies the compute array for its overlap-adjusted
        // span (exec critical path plus unhidden in-launch staging).
        return state->stats.overlap_cycles;
      };
      event.state_ = std::move(state);
      break;
    }
    case StreamOp::Kind::Marker: {
      cmd.engine = EngineKind::None;
      auto state = std::make_shared<EventState>();
      cmd.event = state;
      event.state_ = std::move(state);
      break;
    }
  }
  submit(std::move(cmd));
  return event;
}

Event Stream::launch(const Kernel& kernel, unsigned threads,
                     KernelArgs args) {
  if (!kernel.valid()) {
    throw Error("launch of an invalid kernel handle");
  }
  if (threads == 0) {
    throw Error("launch needs at least one thread");
  }
  validate_kernel_args(kernel, args);  // mismatches fail at enqueue
  StreamOp op;
  op.kind = StreamOp::Kind::Launch;
  op.kernel = kernel;
  op.threads = threads;
  op.args = std::move(args);
  return submit_op(std::move(op));
}

Event Stream::record() {
  StreamOp op;
  op.kind = StreamOp::Kind::Marker;
  return submit_op(std::move(op));
}

Stream& Stream::wait(const Event& event) {
  {
    std::lock_guard<std::mutex> lock(submit_mutex_);
    if (capture_ != nullptr) {
      // A wait during capture is ordering metadata, never execution:
      // depending on live execution cannot be captured. A same-lane event
      // is a no-op (the recorded order already serializes the lane); an
      // event recorded on ANOTHER lane of this capture becomes a DAG edge
      // carried by this lane's next node.
      if (!event.state_ || !event.state_->captured ||
          event.state_->capture_graph != capture_) {
        throw Error("graph capture can only wait on events recorded in "
                    "the same capture");
      }
      const std::size_t node = event.state_->capture_node;
      if (capture_->nodes_[node].lane != capture_lane_) {
        capture_deps_.push_back(node);
      }
      return *this;
    }
  }
  if (event.state_ && event.state_->captured) {
    throw Error("wait on an event recorded during graph capture: replay "
                "ordering comes from the captured sequence, not from "
                "captured events");
  }
  if (!event.state_ || event.state_->scheduler != sched_) {
    throw Error("wait on an event from no stream or another device");
  }
  // A no-op marker command carrying the cross-stream dependency: later
  // commands on this stream chain behind it.
  Scheduler::Command cmd;
  cmd.engine = EngineKind::None;
  submit(std::move(cmd), {event.state_->ticket});
  return *this;
}

void Stream::begin_capture(Graph& graph) {
  std::lock_guard<std::mutex> lock(submit_mutex_);
  if (capture_ != nullptr) {
    throw Error("begin_capture on a stream that is already capturing");
  }
  if (graph.capturing_ != 0) {
    // An open capture admits further streams -- of the capturing device
    // only -- as additional DAG lanes.
    if (graph.dev_ != dev_) {
      throw Error("begin_capture into a graph capturing on another "
                  "device: a capture's lanes must share one device");
    }
    capture_lane_ = graph.lanes_++;
    ++graph.capturing_;
  } else {
    if (!graph.nodes_.empty()) {
      throw Error("begin_capture into a non-empty graph; clear() it first");
    }
    graph.dev_ = dev_;
    graph.capturing_ = 1;
    graph.lanes_ = 1;
    // Freeze the validity horizon: a mem_reset() or device teardown after
    // this makes the capture uninstantiable (see Graph::instantiate).
    graph.capture_alloc_gen_ = dev_->allocation_generation();
    graph.dev_alive_ = sched_->liveness();
    capture_lane_ = 0;
  }
  capture_ = &graph;
  capture_last_ = kNoNode;
  capture_deps_.clear();
}

void Stream::end_capture() {
  std::lock_guard<std::mutex> lock(submit_mutex_);
  if (capture_ == nullptr) {
    throw Error("end_capture on a stream that is not capturing");
  }
  --capture_->capturing_;
  capture_ = nullptr;
  capture_last_ = kNoNode;
  capture_deps_.clear();
}

std::size_t Stream::pending() const {
  Ticket target;
  {
    std::lock_guard<std::mutex> lock(submit_mutex_);
    target = last_;
  }
  sched_->poll(target);  // outside the lock: submitters keep going
  std::lock_guard<std::mutex> lock(submit_mutex_);
  prune_locked();
  return live_.size();
}

void Stream::synchronize() {
  Ticket target;
  {
    std::lock_guard<std::mutex> lock(submit_mutex_);
    if (capture_ != nullptr) {
      throw Error("synchronize() during graph capture: captured commands "
                  "do not execute; end_capture() and launch the "
                  "instantiated graph");
    }
    target = last_;
  }
  sched_->wait(target);  // join outside the lock: submitters keep going
  {
    std::lock_guard<std::mutex> lock(submit_mutex_);
    prune_locked();  // everything up to the joined ticket has retired
  }
  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lock(error_->mutex);
    err = error_->error;
    error_->error = nullptr;  // sticky error consumed; the stream stays usable
  }
  if (err) {
    std::rethrow_exception(err);
  }
}

void Stream::clear_error() {
  std::lock_guard<std::mutex> lock(error_->mutex);
  error_->error = nullptr;
}

}  // namespace simt::runtime
