#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <ctime>
#include <thread>

namespace bench {

double now_us() {
  static const Clock::time_point t0 = Clock::now();
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double thread_cpu_us() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) * 1e-3;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void wait_until_us(double due_us) {
  // The kernel's sleep overshoots by tens of microseconds on a shared VM,
  // so sleep only to within this margin and spin the rest.
  constexpr double kSpinMarginUs = 150.0;
  const double ahead = due_us - now_us();
  if (ahead > kSpinMarginUs) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(
        ahead - kSpinMarginUs));
  }
  while (now_us() < due_us) {
  }
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

Tail tail_of(const std::vector<double>& v) {
  Tail t;
  t.count = v.size();
  t.p50 = median(v);
  for (const double pct : {99.9, 99.0, 90.0, 50.0}) {
    const double value = quantile(v, pct / 100.0);
    const auto beyond = static_cast<std::size_t>(std::count_if(
        v.begin(), v.end(), [value](double x) { return x > value; }));
    if (beyond >= 10 || pct == 50.0) {
      t.pct = pct;
      t.value = value;
      t.beyond = beyond;
      break;
    }
  }
  return t;
}

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  entries_.push_back({name, value, unit});
}

void Report::print_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const auto& e = entries_[i];
    // %.17g keeps every digit of the double; non-finite values (a ratio
    // over an empty sample) are not JSON and read as 0.
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(e.value) ? e.value : 0.0);
    out += (i ? ", \"" : "\"") + e.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + e.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void note(const char* fmt, ...) {
  std::va_list ap;
  va_start(ap, fmt);
  std::vprintf(fmt, ap);
  va_end(ap);
  std::printf("\n");
}

int Tracer::span(const char* name, double start_us, double end_us,
                 std::uint64_t request, int parent) {
  if (!enabled_) {
    return kNoParent;
  }
  if (spans_.size() == kMaxSpans) {
    ++dropped_;
    return kNoParent;
  }
  spans_.push_back({name, start_us, end_us, request, parent});
  return static_cast<int>(spans_.size() - 1);
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  // Nestable async events keyed by request id: a request's spans nest
  // under each other while requests in flight overlap on the timeline.
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    for (const char ph : {'b', 'e'}) {
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"cat\": \"bench\", \"ph\": \"%c\", "
                   "\"id\": %llu, \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                   "\"args\": {\"span\": %zu, \"parent\": %d}}\n",
                   (i == 0 && ph == 'b') ? "" : ",", s.name, ph,
                   static_cast<unsigned long long>(s.request),
                   ph == 'b' ? s.start_us : s.end_us, i, s.parent);
    }
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace bench
