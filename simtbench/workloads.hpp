// Workload entry points. Each runs one workload for Options::seconds,
// prints its context lines and the result JSON as the last stdout line,
// and returns the process exit code (nonzero on any wrong output).
#pragma once

#include "harness.hpp"

namespace bench {

int run_serve(const Options& opt, bool storm);
int run_kernels(const Options& opt);
int run_multicore(const Options& opt);

}  // namespace bench
