// Shared plumbing of the benchmark: command-line options, host clocks
// (wall, process CPU, thread CPU, peak RSS), order statistics, the metric
// report, and the span recorder used by traced runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace bench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir = ".";  ///< where a traced run writes its trace
};

/// Monotonic host wall clock in microseconds since the first call.
double now_us();
/// Process user+sys CPU seconds (every thread of the process).
double process_cpu_s();
/// CPU microseconds of the calling thread.
double thread_cpu_us();
/// Peak resident set size of the process, MB.
double peak_rss_mb();

/// Sleep until shortly before `due_us` (now_us() clock), then spin up to
/// it. Never paces with a relative sleep, so lateness does not accumulate.
void wait_until_us(double due_us);

double median(std::vector<double> v);
/// Linear-interpolated quantile q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);

/// Timing summary of one sample set: median, and the highest of p90 /
/// p99 / p99.9 that still has at least ten samples beyond it.
struct Tail {
  double p50 = 0.0;
  double pct = 0.0;       ///< which percentile `value` is (e.g. 99)
  double value = 0.0;
  std::size_t beyond = 0; ///< samples strictly above `value`
  std::size_t count = 0;
};
Tail tail_of(const std::vector<double>& v);

/// The metric set one run reports, in insertion order.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// The benchmark's last stdout line.
  void print_json(bool correct, std::uint64_t attempted,
                  std::uint64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Context line on stdout (never parsed; the JSON line comes last).
void note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// In-memory span recorder. Spans are recorded from the benchmark's own
/// files around calls into the program's layers; nothing inside the
/// program is instrumented. Disabled recorders cost one branch per call.
/// Past kMaxSpans further spans are counted but not kept, which bounds the
/// trace file; the metrics never read spans back.
class Tracer {
 public:
  static constexpr int kNoParent = -1;
  static constexpr std::size_t kMaxSpans = 100000;

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Record a finished span; returns its index (for children), or
  /// kNoParent when disabled.
  int span(const char* name, double start_us, double end_us,
           std::uint64_t request, int parent = kNoParent);
  /// Open a span whose end is not known yet (close it with end()).
  int begin(const char* name, double start_us, std::uint64_t request,
            int parent = kNoParent) {
    return span(name, start_us, start_us, request, parent);
  }
  void end(int index, double end_us) {
    if (index != kNoParent) {
      spans_[static_cast<std::size_t>(index)].end_us = end_us;
    }
  }
  /// Spans recorded, kept or not.
  std::size_t size() const { return spans_.size() + dropped_; }

  /// Write every span as Chrome trace-event JSON (Perfetto opens it).
  /// Returns false on an I/O failure.
  bool write_chrome(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    std::uint64_t request;
    int parent;
  };
  bool enabled_;
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
};

}  // namespace bench
