// simtbench: the repository benchmark.
//
//   simtbench --workload {serve|serve-storm|kernels|multicore} --seed N
//             --seconds S --trace {0|1} [--trace-dir DIR]
//
// --trace 0 measures the end-to-end metrics with no tracing; --trace 1
// runs the layer ladder, reports the per-layer metrics and writes a Chrome
// trace-event file to DIR. The last stdout line is the result JSON.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: simtbench --workload {serve|serve-storm|kernels|"
               "multicore} --seed N --seconds S --trace {0|1} "
               "[--trace-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value, &end);
    } else if (key == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--trace-dir") {
      opt.trace_dir = value;
    } else {
      return usage();
    }
    if (end != nullptr && *end != '\0') {
      return usage();
    }
  }
  if (argc % 2 != 1 || opt.seconds <= 0.0) {
    return usage();
  }
  try {
    if (opt.workload == "serve" || opt.workload == "serve-storm") {
      return bench::run_serve(opt, opt.workload == "serve-storm");
    }
    if (opt.workload == "kernels") {
      return bench::run_kernels(opt);
    }
    if (opt.workload == "multicore") {
      return bench::run_multicore(opt);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FAIL: %s\n", e.what());
    return 1;
  }
  return usage();
}
