#include "runtime/graph.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/staging.hpp"
#include "runtime/stream.hpp"

namespace simt::runtime {

namespace {

std::size_t count_kind(const std::vector<GraphNode>& nodes,
                       StreamOp::Kind kind) {
  std::size_t n = 0;
  for (const auto& node : nodes) {
    if (node.op.kind == kind) {
      ++n;
    }
  }
  return n;
}

/// Fold one replayed launch into the replay's aggregate stats. Clock-side
/// counters sum (the launches share the one compute array, so they run
/// back to back even across lanes); per-core slices are not aggregated
/// across launches.
void fold_stats(LaunchStats& agg, const LaunchStats& s) {
  agg.perf.add_work(s.perf);
  agg.perf.add_clocks(s.perf);
  agg.exited = agg.exited && s.exited;
  agg.rounds += s.rounds;
  agg.wall_us += s.wall_us;
  agg.staged_words += s.staged_words;
  agg.merged_words += s.merged_words;
  agg.staged_words_skipped += s.staged_words_skipped;
  agg.serial_cycles += s.serial_cycles;
  agg.overlap_cycles += s.overlap_cycles;
  agg.serial_wall_us += s.serial_wall_us;
  agg.overlap_wall_us += s.overlap_wall_us;
}

/// Exact contiguity check for copy-in fusion, directional: fusion appends
/// the later copy's payload to the earlier burst and keeps the earlier
/// base, so the later destination must start exactly where the earlier
/// burst ends. A LOWER-adjacent destination also unions into one gapless
/// range, but fusing it would replay the concatenated payload at the
/// wrong base -- it stays its own burst.
bool contiguous_destinations(std::uint32_t a_base, std::size_t a_words,
                             std::uint32_t b_base, std::size_t b_words) {
  if (b_base != a_base + static_cast<std::uint32_t>(a_words)) {
    return false;
  }
  RangeSet a = RangeSet::from_sorted(
      {{a_base, a_base + static_cast<std::uint32_t>(a_words)}});
  RangeSet b = RangeSet::from_sorted(
      {{b_base, b_base + static_cast<std::uint32_t>(b_words)}});
  const RangeSet u = union_sets(a, b);
  return u.ranges().size() == 1 &&
         u.words() == static_cast<std::uint64_t>(a_words + b_words);
}

}  // namespace

// ---- Graph -----------------------------------------------------------------

std::size_t Graph::launch_count() const {
  return count_kind(nodes_, StreamOp::Kind::Launch);
}

std::size_t Graph::copy_in_count() const {
  return count_kind(nodes_, StreamOp::Kind::CopyIn);
}

void Graph::clear() {
  if (capturing_ != 0) {
    throw Error("clear() of a graph while a stream is capturing into it");
  }
  nodes_.clear();
  dev_ = nullptr;
  lanes_ = 0;
  capture_alloc_gen_ = 0;
  dev_alive_.reset();
}

GraphExec Graph::instantiate() const {
  if (capturing_ != 0) {
    throw Error("instantiate() before end_capture(): the graph is still "
                "recording on " + std::to_string(capturing_) + " stream(s)");
  }
  if (dev_ == nullptr || nodes_.empty()) {
    throw Error("instantiate() of an empty graph: capture a command "
                "sequence first");
  }
  // The graph holds raw buffer bases and a raw device pointer frozen at
  // capture time; refuse to plan against a backend that no longer exists
  // or whose arena was handed out again -- the generation check copy-in/
  // copy-out enforce at enqueue time, applied to the whole capture.
  if (dev_alive_.expired()) {
    throw Error("instantiate() of a graph whose capturing device has been "
                "destroyed: the captured nodes reference a dead backend");
  }
  if (dev_->allocation_generation() != capture_alloc_gen_) {
    throw Error("instantiate() of a graph captured before mem_reset() "
                "(allocation generation " +
                std::to_string(capture_alloc_gen_) + ", device is at " +
                std::to_string(dev_->allocation_generation()) +
                "): the captured buffer ranges are stale; re-capture");
  }

  auto state = std::make_shared<GraphExec::State>();
  state->dev = dev_;

  // Copy the DAG, fusing as we go: a copy-in whose only dependency is the
  // immediately preceding node, when that node is a same-lane copy-in to
  // an exactly contiguous destination, appends its payload to that burst
  // instead of becoming a node. `remap` carries original node index ->
  // post-fusion index so later nodes' edges stay intact.
  std::vector<std::size_t> remap(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const GraphNode& src = nodes_[i];
    // Map, bound-check, and dedup the dependency edges. Capture order
    // makes real cycles impossible; this guards a hand-built graph.
    std::vector<std::size_t> deps;
    for (const std::size_t d : src.deps) {
      if (d >= i) {
        throw Error("graph node " + std::to_string(i) +
                    " depends on node " + std::to_string(d) +
                    ": dependency cycles cannot be instantiated");
      }
      deps.push_back(remap[d]);
    }
    std::sort(deps.begin(), deps.end());
    deps.erase(std::unique(deps.begin(), deps.end()), deps.end());

    if (src.op.kind == StreamOp::Kind::CopyIn && !state->nodes.empty()) {
      const std::size_t prev = state->nodes.size() - 1;
      GraphNode& tail = state->nodes.back();
      if (tail.op.kind == StreamOp::Kind::CopyIn && tail.lane == src.lane &&
          deps.size() == 1 && deps.front() == prev &&
          contiguous_destinations(tail.op.base, tail.op.data.size(),
                                  src.op.base, src.op.data.size())) {
        state->copy_in_segments.push_back(
            {prev, tail.op.data.size(), src.op.data.size()});
        tail.op.data.insert(tail.op.data.end(), src.op.data.begin(),
                            src.op.data.end());
        remap[i] = prev;
        continue;
      }
    }

    GraphNode node;
    node.op = src.op;
    node.lane = src.lane;
    node.deps = std::move(deps);
    remap[i] = state->nodes.size();
    if (node.op.kind == StreamOp::Kind::CopyIn) {
      state->copy_in_segments.push_back(
          {remap[i], 0, node.op.data.size()});
    }
    state->nodes.push_back(std::move(node));
  }

  // Validate once, here, what eager submission re-validates per launch:
  // prepare_launch resolves each launch node's patch plan, binding
  // signature, and staging footprint into a frozen LaunchPlan. Each node
  // also gets its pricing step: engine, words, DMA lane and edges.
  auto& steps = state->skeleton.steps;
  steps.resize(state->nodes.size());
  state->skeleton.cycles.resize(state->nodes.size());
  for (std::size_t i = 0; i < state->nodes.size(); ++i) {
    const GraphNode& node = state->nodes[i];
    ReplayStep& step = steps[i];
    // Each capture lane keeps its own modeled DMA channel at replay,
    // drawn from the replaying stream's kChannelStride reservation:
    // independent lanes' copies overlap exactly as the captured streams'
    // would have, without aliasing another live stream's channel.
    step.lane = std::min(node.lane, Stream::kChannelStride - 1);
    for (const std::size_t d : node.deps) {
      step.after.push_back(static_cast<std::uint32_t>(d));
    }
    switch (node.op.kind) {
      case StreamOp::Kind::Launch:
        step.engine = EngineKind::Exec;
        state->plans.push_back(dev_->prepare_launch(
            node.op.kernel, node.op.threads, node.op.args));
        break;
      case StreamOp::Kind::CopyIn:
        step.engine = EngineKind::Copy;
        step.words = node.op.data.size();
        ++state->copy_in_nodes;
        break;
      case StreamOp::Kind::CopyOut:
        step.engine = EngineKind::Copy;
        step.words = node.op.count;
        break;
      case StreamOp::Kind::Marker:
        break;
    }
  }
  GraphExec exec;
  exec.state_ = std::move(state);
  return exec;
}

// ---- GraphExec -------------------------------------------------------------

std::size_t GraphExec::node_count() const {
  return state_ ? state_->nodes.size() : 0;
}

std::size_t GraphExec::launch_count() const {
  return state_ ? state_->plans.size() : 0;
}

std::size_t GraphExec::copy_in_count() const {
  return state_ ? state_->copy_in_segments.size() : 0;
}

std::size_t GraphExec::copy_in_bursts() const {
  return state_ ? state_->copy_in_nodes : 0;
}

LaunchPlan GraphExec::plan(std::size_t launch_index) const {
  if (!state_ || launch_index >= state_->plans.size()) {
    throw Error("graph launch index out of range");
  }
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->plans[launch_index];
}

Event GraphExec::run(Stream& stream, GraphUpdates updates) {
  Event event = launch(stream, std::move(updates));
  stream.device().scheduler().wait(event.state_->ticket);
  return event;
}

Event GraphExec::launch(Stream& stream, GraphUpdates updates) {
  if (!state_) {
    throw Error("launch of an empty GraphExec; instantiate a graph first");
  }
  auto state = state_;
  if (&stream.device() != state->dev) {
    throw Error("graph replay on a stream of another device");
  }

  // Validate the updates now, on the submitting thread, so a bad rebind
  // throws here instead of surfacing as a sticky stream error. The
  // mutation itself is deferred to the replay body so an in-flight
  // earlier replay is never rebound under. State::mutex covers these
  // reads against that earlier replay's updates.
  std::unique_lock<std::mutex> state_lock(state->mutex);
  double rebind_us = 0.0;
  for (const auto& [idx, args] : updates.args_) {
    if (idx >= state->plans.size()) {
      throw Error("graph argument update names launch " +
                  std::to_string(idx) + " of a graph with " +
                  std::to_string(state->plans.size()) + " launches");
    }
    validate_kernel_args(state->plans[idx].kernel, args);
    const auto* info = state->plans[idx].kernel.info;
    rebind_us += launch_prep_us(
        args.size(), 0,
        info != nullptr ? info->reads.size() + info->writes.size() : 0);
  }
  for (const auto& [idx, data] : updates.copies_) {
    if (idx >= state->copy_in_segments.size()) {
      throw Error("graph copy update names copy-in " + std::to_string(idx) +
                  " of a graph with " +
                  std::to_string(state->copy_in_segments.size()) +
                  " copy-ins");
    }
    const auto& seg = state->copy_in_segments[idx];
    if (data.size() != seg.words) {
      throw Error("graph copy update of " + std::to_string(data.size()) +
                  " words against a captured transfer of " +
                  std::to_string(seg.words) +
                  " (staging extents are frozen at capture)");
    }
    rebind_us += HostCost::kCopyPrepUs;
  }

  auto event_state = std::make_shared<EventState>();
  event_state->stats.exited = true;

  Scheduler::Command cmd;
  cmd.event = event_state;
  cmd.channel = stream.channel();
  cmd.replay = std::shared_ptr<const ReplaySkeleton>(state, &state->skeleton);
  // One submission for the whole replay: the frozen-DAG walk plus the
  // requested rebinds is all the host-side work left.
  cmd.prep_us =
      static_cast<double>(state->nodes.size()) * HostCost::kReplayNodeUs +
      rebind_us;
  cmd.run = [state, event_state,
             updates = std::move(updates)]() mutable -> std::uint64_t {
    execute(*state, updates, event_state->stats);
    return 0;  // priced per node, through the skeleton
  };

  state_lock.unlock();
  stream.submit(std::move(cmd));
  Event event;
  event.state_ = std::move(event_state);
  return event;
}

void GraphExec::execute(State& state, GraphUpdates& updates,
                        LaunchStats& stats) {
  Device& dev = *state.dev;
  std::vector<std::uint64_t>& cycles = state.skeleton.cycles;
  std::fill(cycles.begin(), cycles.end(), 0);
  if (auto* f = dev.fault_injector()) {
    // One Replay trigger per replay, before its updates apply and before
    // any node runs: a thrown fault fails the whole replay and leaves the
    // plans and captured payloads as they were.
    f->at(faults::FaultSite::Replay);
  }
  if (!updates.empty()) {
    std::lock_guard<std::mutex> lock(state.mutex);
    for (const auto& [idx, args] : updates.args_) {
      dev.rebind(state.plans[idx], args);
    }
    for (auto& [idx, data] : updates.copies_) {
      const auto& seg = state.copy_in_segments[idx];
      auto& payload = state.nodes[seg.node].op.data;
      if (seg.offset == 0 && seg.words == payload.size()) {
        // Safe to steal: the command runs once, then is destroyed.
        payload = std::move(data);
      } else {
        // The transfer fused into a burst: splice into its segment.
        std::copy(data.begin(), data.end(),
                  payload.begin() + static_cast<std::ptrdiff_t>(seg.offset));
      }
    }
  }
  // Capture order is topological, so walking it satisfies every edge; a
  // faulting node aborts the rest of the replay (the fault lands on the
  // replay's event and stream error slot).
  std::size_t plan_index = 0;
  for (std::size_t i = 0; i < state.nodes.size(); ++i) {
    const StreamOp& op = state.nodes[i].op;
    switch (op.kind) {
      case StreamOp::Kind::CopyIn:
        cycles[i] = run_copy_in(dev, op);
        break;
      case StreamOp::Kind::CopyOut:
        cycles[i] = run_copy_out(dev, op);
        break;
      case StreamOp::Kind::Launch: {
        const LaunchStats s = dev.execute_plan(state.plans[plan_index++]);
        fold_stats(stats, s);
        // The launch occupies the compute array for its overlap-adjusted
        // span, exactly like an eager stream launch.
        cycles[i] = s.overlap_cycles;
        break;
      }
      case StreamOp::Kind::Marker:
        break;
    }
  }
}

}  // namespace simt::runtime
