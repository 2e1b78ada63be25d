// Kernel library: reusable assembly generators for the embedded workloads
// the paper motivates (Section 1: signal processing and general-purpose
// algorithms that are "difficult to program in RTL, but easy in software").
//
// Every generator speaks the kernel ABI: no addresses are baked into the
// source. Each declares a `.kernel` with positional `.param`s and
// read/write footprints; the host binds a runtime::KernelArgs at launch.
// One assembled module serves any number of buffer sets (the module cache
// hits on every reuse), and the declared footprints let the multicore
// backend stage only the ranges the kernel touches. The memory layout is
// word-addressed shared memory.
//
// Golden tests live in tests/test_kernels.cpp; tests/test_kernel_abi.cpp
// runs the shard-safe kernels on every backend and compares the results.
#pragma once

#include <string>

namespace simt::kernels {

/// c[i] = a[i] + b[i]. Kernel "vecadd"; params (a, b, c: buffer).
std::string vecadd_abi();

/// out[i] = (alpha * x[i]) >> q + y[i] in Qn fixed point. Kernel "saxpy";
/// params (x, y, out: buffer; alpha: scalar Qn immediate).
std::string saxpy_abi(unsigned q);

/// FIR: y[t] = (sum_k coef[k] * x[t+k]) >> q, fully unrolled taps. Kernel
/// "fir"; params (x, coef, y: buffer).
std::string fir_abi(unsigned taps, unsigned q);

/// dim x dim integer matmul C = A x B (row-major), one thread per output,
/// inner product via the zero-overhead loop hardware. Kernel "matmul";
/// params (a, b, c: buffer); launch with dim * dim threads.
std::string matmul_abi(unsigned dim);

/// out[i] = mul * in[i] + add. Kernel "scale"; params (in, out: buffer;
/// mul, add: scalar) -- elementwise over %tid, so k requests of m words
/// coalesce into one launch over k*m threads.
std::string scale_abi();

/// Chunked partial-sum reduction: thread t writes
/// out[t] = sum_j in[t * per_thread + j] for j in [0, per_thread)
/// (per_thread a power of two; launch with n / per_thread threads over n
/// inputs). Kernel "reduce"; params (in, out: buffer). Unlike
/// tree_reduce_abi this needs no cross-thread coordination inside the
/// launch, so it shards safely across multicore private memories; the host
/// (or a second pass) folds the partials.
std::string reduce_abi(unsigned per_thread);

// The three kernels below coordinate threads inside one launch -- dynamic
// thread scaling (SETTI) or lockstep loads-before-stores -- so they are not
// shard-safe: they declare `.lockstep`, and the runtime rejects any launch
// other than one SimtCore running every thread in one round (threads <= the
// core's max_threads). A multicore or multi-round launch would split the
// threads that must see each other's stores.

/// In-place tree reduction (sum) over n values (n a power of two, launched
/// with n threads); the result lands in data[0]. Uses dynamic thread
/// scaling to cut the STO sweeps (Section 2). Kernel "tree_reduce"; params
/// (data: buffer).
std::string tree_reduce_abi(unsigned n);

/// Inclusive prefix sum (Hillis-Steele) over n values, in place, guarded
/// per step; launched with n threads. Requires predicates. Kernel "scan";
/// params (data: buffer).
std::string scan_abi(unsigned n);

/// Histogram of n values into 2^bins_log2 bins (bins_log2 <= 12). Each
/// thread privatizes a bin row at scratch[tid * bins], striding over the
/// data with the zero-overhead loop; bins are then tree-reduced across
/// threads (dynamic thread scaling). Launch with `threads` threads (power
/// of two dividing n, at least bins). Kernel "histogram"; params (data,
/// hist, scratch: buffer), scratch holding threads * bins words.
std::string histogram_abi(unsigned bins_log2, unsigned n, unsigned threads);

}  // namespace simt::kernels
