// Stream: an in-order command queue over a Device, executed by the
// device's Scheduler.
//
// Enqueueing a command (copy-in, launch, copy-out) only queues it -- the
// cudaMemcpyAsync / kernel<<<>>> / cudaStreamSynchronize shape -- and the
// queued commands run on the thread that needs them: synchronize(),
// Event::wait() and the polls (pending(), Event::done()) execute the
// ready commands up to their ticket. A device can have any number of
// streams (Device::stream() is the default, Device::create_stream() adds
// more); each stream is in-order with itself, and streams are unordered
// against each other except through wait(event), which makes this stream's
// later commands depend on another stream's launch. Copies are priced on
// the staging DMA engine and launches on the compute array in the
// scheduler's modeled timeline, so overlapping streams report the
// double-buffered staging gain (Scheduler::timeline()).
//
// Submission is host-thread-safe: the stream's command bookkeeping is
// guarded by a mutex, so any number of host worker threads can enqueue on
// one stream (server worker threads sharing a device). Commands still
// execute in submission order; which thread wins a race decides that order.
//
// Capture mode (begin_capture / end_capture): between the two calls the
// stream records its commands into a runtime::Graph instead of executing
// them -- both modes build the same StreamOp and diverge only at the sink
// (see submit_op), so a serving pipeline is captured by running its
// ordinary stream code once. Capture is cross-stream: after a primary
// stream opens a capture, other streams of the same device join it by
// calling begin_capture on the same graph; each records onto its own DAG
// lane, and wait() on an event captured on another lane records a
// cross-lane dependency edge instead of throwing. During capture,
// synchronize() and waits on live events throw, and the Events returned
// by launch()/record() are graph-node handles that never resolve
// (Event::captured()). Capture is a single-host-thread affair;
// concurrent submitters belong to eager mode.
#pragma once

#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "runtime/buffer.hpp"
#include "runtime/device.hpp"
#include "runtime/event.hpp"
#include "runtime/graph.hpp"
#include "runtime/module.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/staging.hpp"

namespace simt::runtime {

class Stream {
 public:
  /// Modeled DMA channels reserved per stream: a stream's eager copies use
  /// `channel()` itself, and graph replay prices lane L's copies on
  /// `channel() + min(L, kChannelStride - 1)`. Device spaces stream
  /// channels this far apart so a replay's lane channels can never alias
  /// another live stream's channel (captures wider than the stride share
  /// the last lane channel -- conservative, never cross-stream).
  static constexpr unsigned kChannelStride = 16;

  /// `channel` is the modeled staging channel this stream's copies occupy
  /// (Device hands each stream its own kChannelStride-spaced channel; see
  /// Scheduler::Command::channel).
  explicit Stream(Device& dev, unsigned channel = 0)
      : dev_(&dev), sched_(&dev.scheduler()), channel_(channel) {}

  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  /// Enqueue host -> device copy. The host data is snapshotted now, so the
  /// source may be freed immediately.
  template <typename T>
  Stream& copy_in(Buffer<T>& dst, std::span<const T> host) {
    dst.ensure_current();
    if (host.size() > dst.size()) {
      throw Error("copy_in larger than destination buffer");
    }
    const auto* words = reinterpret_cast<const std::uint32_t*>(host.data());
    StreamOp op;
    op.kind = StreamOp::Kind::CopyIn;
    op.base = dst.word_base();
    op.data.assign(words, words + host.size());
    submit_op(std::move(op));
    return *this;
  }

  /// Enqueue device -> host copy into caller storage, filled by the time
  /// synchronize() returns; `out` must stay alive until then (for a
  /// captured copy, for as long as the graph replays). A copy nobody
  /// waits for runs when the device is destroyed, so unless the stream is
  /// synchronized first, `out` must outlive the Device.
  template <typename T>
  Stream& copy_out(const Buffer<T>& src, std::span<T> out) {
    src.ensure_current();
    if (out.size() > src.size()) {
      throw Error("copy_out larger than source buffer");
    }
    StreamOp op;
    op.kind = StreamOp::Kind::CopyOut;
    op.base = src.word_base();
    op.dst = reinterpret_cast<std::uint32_t*>(out.data());
    op.count = out.size();
    submit_op(std::move(op));
    return *this;
  }

  /// Enqueue a grid launch; the returned Event resolves once the scheduler
  /// has executed it (invalid kernels, zero-thread grids, and argument
  /// sets that do not match the kernel's .param list throw now). `args`
  /// binds the kernel's parameters for this launch (see runtime/args.hpp);
  /// kernels without metadata take the default empty set.
  Event launch(const Kernel& kernel, unsigned threads, KernelArgs args = {});

  /// Record a marker event that resolves once every command enqueued on
  /// this stream so far has executed (cudaEventRecord). Marker events
  /// carry no launch stats -- use them for ordering and completion polls.
  Event record();

  /// Order this stream's subsequent commands after another stream's launch
  /// (cross-stream dependency; a same-stream event is a no-op beyond the
  /// ordering the stream already has). During capture, an event recorded
  /// on another lane of the same capture becomes a DAG edge: this lane's
  /// next node depends on the event's node.
  Stream& wait(const Event& event);

  // ---- graph capture -------------------------------------------------------
  /// Record subsequent commands into `graph` instead of executing them,
  /// until end_capture(). On a graph no stream is capturing, this opens
  /// the capture (the graph must be empty -- clear() a used one) with this
  /// stream as lane 0. On a graph another stream OF THE SAME DEVICE is
  /// already capturing, this stream joins the open capture as a new lane;
  /// a stream of another device throws. The stream itself must not
  /// already be capturing.
  void begin_capture(Graph& graph);
  /// Stop recording on this stream. The graph is ready for
  /// Graph::instantiate() once every joined stream has ended its capture.
  /// A cross-lane wait() edge attaches to this lane's NEXT recorded node;
  /// if the lane records nothing after the wait, the trailing edge is
  /// discarded here -- the same eager semantics where a trailing wait
  /// with no subsequent command orders nothing. Record a marker after the
  /// wait to keep the edge in the graph.
  void end_capture();
  bool capturing() const {
    std::lock_guard<std::mutex> lock(submit_mutex_);
    return capture_ != nullptr;
  }

  /// Commands enqueued on this stream the scheduler has not executed yet,
  /// after running the ready ones on the calling thread (a non-blocking
  /// poll; see Scheduler::poll). A synchronous graph replay,
  /// GraphExec::run, has executed by the time it returns and never counts.
  std::size_t pending() const;

  /// Join: block until every command enqueued on this stream has executed.
  /// Rethrows (and clears) the first error one of THIS stream's commands
  /// raised -- the CUDA-style sticky stream error; other streams' faults
  /// surface on their own synchronize().
  void synchronize();

  /// Drop a sticky stream error without rethrowing it. Test/recovery use
  /// only: the serving tier's probe path clears a quarantined device's
  /// stream before replaying its canary, and fault-injection tests use it
  /// to reuse a stream past an injected fault. Ordinary code should let
  /// synchronize() surface the error instead.
  void clear_error();

  Device& device() { return *dev_; }
  /// The modeled staging channel this stream's copies occupy.
  unsigned channel() const { return channel_; }

 private:
  friend class GraphExec;  ///< replays submit through submit()
  friend class StreamTestPeer;  ///< white-box access for the tests

  /// The one sink every command goes through: capture mode records the op
  /// as a graph node (returning a captured-event handle for launches and
  /// markers), eager mode converts it into a scheduler command and
  /// submits. Keeping both modes behind one builder is what guarantees a
  /// captured pipeline is the pipeline that would have executed.
  Event submit_op(StreamOp op);
  /// Submit with this stream's ordering dependency and track the ticket.
  Ticket submit(Scheduler::Command cmd, std::vector<Ticket> extra_deps = {});
  /// This stream's ordering dependency for its next command, plus
  /// `extra` (submit_mutex_ held). Throws mid-capture.
  std::vector<Ticket> next_deps_locked(std::vector<Ticket> extra) const;
  /// Drop live_'s retired prefix (submit_mutex_ held).
  void prune_locked() const;

  Device* dev_;
  Scheduler* sched_;
  unsigned channel_;
  /// Capture sink: non-null between begin_capture and end_capture.
  Graph* capture_ = nullptr;
  static constexpr std::size_t kNoNode = static_cast<std::size_t>(-1);
  unsigned capture_lane_ = 0;          ///< this stream's lane in the capture
  std::size_t capture_last_ = kNoNode; ///< last node this lane recorded
  /// Cross-lane edges collected by wait() since the last recorded node;
  /// attached to this lane's next node.
  std::vector<std::size_t> capture_deps_;
  /// Guards the submission bookkeeping (last_, live_) so host worker
  /// threads can enqueue concurrently.
  mutable std::mutex submit_mutex_;
  Ticket last_ = 0;                   ///< most recent command on this stream
  /// Enqueued tickets not yet known to have retired, for pending(). Every
  /// submit prunes the retired prefix against the lock-free
  /// Scheduler::retired(), so a stream that never synchronizes stays
  /// bounded.
  mutable std::deque<Ticket> live_;
  /// First fault among this stream's commands (shared with the scheduler,
  /// which fills it from the thread that ran the command, under the
  /// slot's own mutex); consumed by synchronize().
  std::shared_ptr<StreamErrorSlot> error_ =
      std::make_shared<StreamErrorSlot>();
};

}  // namespace simt::runtime
