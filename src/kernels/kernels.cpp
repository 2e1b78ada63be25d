#include "kernels/kernels.hpp"

#include <bit>
#include <cstdint>

#include "common/error.hpp"

namespace simt::kernels {
namespace {

std::string num(std::uint64_t v) { return std::to_string(v); }

unsigned log2_exact(unsigned v, const char* what) {
  if (v == 0 || (v & (v - 1)) != 0) {
    throw Error(std::string(what) + " must be a power of two");
  }
  return static_cast<unsigned>(std::countr_zero(v));
}

/// Emit the Qn high/low composition of %ra * %rb into %rd (clobbers %rt):
/// rd = (ra * rb) >> q, exact for in-range products.
std::string qmul(const std::string& rd, const std::string& ra,
                 const std::string& rb, const std::string& rt, unsigned q) {
  std::string s;
  s += "mul.hi " + rd + ", " + ra + ", " + rb + "\n";
  s += "shli " + rd + ", " + rd + ", " + num(32 - q) + "\n";
  s += "mul.lo " + rt + ", " + ra + ", " + rb + "\n";
  s += "shri " + rt + ", " + rt + ", " + num(q) + "\n";
  s += "or " + rd + ", " + rd + ", " + rt + "\n";
  return s;
}

}  // namespace

std::string vecadd_abi() {
  return ".kernel vecadd\n"
         ".param a buffer\n"
         ".param b buffer\n"
         ".param c buffer\n"
         ".reads a@tid\n"
         ".reads b@tid\n"
         ".writes c@tid\n"
         "movsr %r0, %tid\n"
         "lds %r1, [%r0 + $a]\n"
         "lds %r2, [%r0 + $b]\n"
         "add %r3, %r1, %r2\n"
         "sts [%r0 + $c], %r3\n"
         "exit\n";
}

std::string saxpy_abi(unsigned q) {
  SIMT_CHECK(q > 0 && q < 32);
  return ".kernel saxpy\n"
         ".param x buffer\n"
         ".param y buffer\n"
         ".param out buffer\n"
         ".param alpha scalar\n"
         ".reads x@tid\n"
         ".reads y@tid\n"
         ".writes out@tid\n"
         "movsr %r0, %tid\n"
         "lds %r1, [%r0 + $x]\n"
         "movi %r2, $alpha\n" +
         qmul("%r3", "%r1", "%r2", "%r4", q) +
         "lds %r5, [%r0 + $y]\n"
         "add %r6, %r3, %r5\n"
         "sts [%r0 + $out], %r6\n"
         "exit\n";
}

std::string fir_abi(unsigned taps, unsigned q) {
  SIMT_CHECK(taps >= 1 && q < 32);
  std::string src =
      ".kernel fir\n"
      ".param x buffer\n"
      ".param coef buffer\n"
      ".param y buffer\n"
      // Thread t reads the tap window x[t, t + taps); declaring it per
      // thread lets multicore staging ship each core only its slice of the
      // signal instead of the whole-launch range.
      ".reads x@tid+" + num(taps) + "\n"
      ".reads coef\n"
      ".writes y@tid\n"
      "movsr %r0, %tid\n"
      "movi %r5, $coef\n"
      "movi %r6, 0\n";
  for (unsigned k = 0; k < taps; ++k) {
    src += "lds %r2, [%r0 + $x + " + num(k) + "]\n";
    src += "lds %r3, [%r5 + " + num(k) + "]\n";
    src += "mul.lo %r4, %r2, %r3\n";
    src += "add %r6, %r6, %r4\n";
  }
  if (q > 0) {
    src += "sari %r6, %r6, " + num(q) + "\n";
  }
  src += "sts [%r0 + $y], %r6\n";
  src += "exit\n";
  return src;
}

std::string matmul_abi(unsigned dim) {
  const unsigned lg = log2_exact(dim, "matmul dim");
  return ".kernel matmul\n"
         ".param a buffer\n"
         ".param b buffer\n"
         ".param c buffer\n"
         ".reads a\n"
         ".reads b\n"
         ".writes c@tid\n"
         "movsr %r0, %tid\n"
         "andi %r1, %r0, " + num(dim - 1) + "\n"   // j
         "shri %r2, %r0, " + num(lg) + "\n"        // i
         "shli %r3, %r2, " + num(lg) + "\n"        // a index = i*dim
         "mov %r4, %r1\n"                          // b index = j
         "movi %r5, 0\n"
         "loopi " + num(dim) + ", kend\n"
         "lds %r6, [%r3 + $a]\n"
         "lds %r7, [%r4 + $b]\n"
         "mul.lo %r8, %r6, %r7\n"
         "add %r5, %r5, %r8\n"
         "addi %r3, %r3, 1\n"
         "addi %r4, %r4, " + num(dim) + "\n"
         "kend:\n"
         "sts [%r0 + $c], %r5\n"
         "exit\n";
}

std::string scale_abi() {
  return ".kernel scale\n"
         ".param in buffer\n"
         ".param out buffer\n"
         ".param mul scalar\n"
         ".param add scalar\n"
         ".reads in@tid\n"
         ".writes out@tid\n"
         "movsr %r0, %tid\n"
         "lds %r1, [%r0 + $in]\n"
         "movi %r2, $mul\n"
         "mul.lo %r3, %r1, %r2\n"
         "addi %r3, %r3, $add\n"
         "sts [%r0 + $out], %r3\n"
         "exit\n";
}

std::string reduce_abi(unsigned per_thread) {
  const unsigned shift = log2_exact(per_thread, "reduce chunk");
  std::string src =
      ".kernel reduce\n"
      ".param in buffer\n"
      ".param out buffer\n"
      // Thread t reads the chunk [t*P, (t+1)*P): the strided per-thread
      // form lets multicore staging ship each core only its chunk slice
      // instead of the whole input buffer.
      ".reads in@tid*" + num(per_thread) + "+" + num(per_thread) + "\n"
      ".writes out@tid\n"
      "movsr %r0, %tid\n"
      "shli %r1, %r0, " + num(shift) + "\n"
      "movi %r2, 0\n";
  for (unsigned j = 0; j < per_thread; ++j) {
    src += "lds %r3, [%r1 + $in + " + num(j) + "]\n";
    src += "add %r2, %r2, %r3\n";
  }
  src += "sts [%r0 + $out], %r2\n";
  src += "exit\n";
  return src;
}

std::string tree_reduce_abi(unsigned n) {
  log2_exact(n, "reduction size");
  std::string src =
      ".kernel tree_reduce\n"
      ".lockstep\n"
      ".param data buffer\n"
      ".reads data\n"
      ".writes data\n"
      "movsr %r0, %tid\n";
  for (unsigned stride = n / 2; stride >= 1; stride /= 2) {
    src += "setti " + num(stride) + "\n";
    src += "lds %r1, [%r0 + $data]\n";
    src += "lds %r2, [%r0 + $data + " + num(stride) + "]\n";
    src += "add %r1, %r1, %r2\n";
    src += "sts [%r0 + $data], %r1\n";
  }
  src += "exit\n";
  return src;
}

std::string scan_abi(unsigned n) {
  log2_exact(n, "scan size");
  // Hillis-Steele: for each offset d, x[t] += x[t-d] for t >= d. Lockstep
  // guarantees every load of a step completes before its stores commit.
  std::string src =
      ".kernel scan\n"
      ".lockstep\n"
      ".param data buffer\n"
      ".reads data\n"
      ".writes data\n"
      "movsr %r0, %tid\n";
  for (unsigned d = 1; d < n; d *= 2) {
    src += "movi %r9, " + num(d) + "\n";
    src += "setp.geu %p0, %r0, %r9\n";
    src += "sub %r1, %r0, %r9\n";
    src += "@p0 lds %r2, [%r1 + $data]\n";
    src += "lds %r3, [%r0 + $data]\n";
    src += "@p0 add %r3, %r3, %r2\n";
    src += "@p0 sts [%r0 + $data], %r3\n";
  }
  src += "exit\n";
  return src;
}

std::string histogram_abi(unsigned bins_log2, unsigned n, unsigned threads) {
  // bins <= threads <= 4096, so anything above 2^12 bins is out of range;
  // checking first also keeps the shift below defined.
  if (bins_log2 > 12) {
    throw Error("histogram: bins_log2 must be at most 12");
  }
  const unsigned bins = 1u << bins_log2;
  log2_exact(threads, "histogram threads");
  if (n % threads != 0) {
    throw Error("histogram: n must be a multiple of the thread count");
  }
  if (bins > threads) {
    throw Error("histogram: bins must not exceed the thread count");
  }
  const unsigned per_thread = n / threads;

  // Each scratch word is stored by the kernel before it is loaded, so the
  // footprint declares scratch as written only.
  std::string src =
      ".kernel histogram\n"
      ".lockstep\n"
      ".param data buffer\n"
      ".param hist buffer\n"
      ".param scratch buffer\n"
      ".reads data\n"
      ".writes hist\n"
      ".writes scratch\n";

  // Phase 1: zero this thread's private bin row.
  src +=
      "movsr %r0, %tid\n"
      "shli %r1, %r0, " + num(bins_log2) + "\n"   // row = tid * bins
      "movi %r2, 0\n"
      "mov %r3, %r1\n"
      "loopi " + num(bins) + ", zero_end\n"
      "sts [%r3 + $scratch], %r2\n"
      "addi %r3, %r3, 1\n"
      "zero_end:\n";

  // Phase 2: stride over this thread's slice of the data.
  src +=
      "muli %r4, %r0, " + num(per_thread) + "\n"
      "loopi " + num(per_thread) + ", acc_end\n"
      "lds %r5, [%r4 + $data]\n"
      "andi %r5, %r5, " + num(bins - 1) + "\n"    // bin index
      "add %r6, %r1, %r5\n"
      "lds %r7, [%r6 + $scratch]\n"
      "addi %r7, %r7, 1\n"
      "sts [%r6 + $scratch], %r7\n"
      "addi %r4, %r4, 1\n"
      "acc_end:\n";

  // Phase 3: tree-reduce the private rows (dynamic thread scaling).
  for (unsigned s = threads / 2; s >= 1; s /= 2) {
    const std::string tag = num(s);
    src += "setti " + num(s) + "\n";
    src += "mov %r3, %r1\n";  // own row cursor
    src += "movi %r8, " + num(s * bins) + "\n";
    src += "add %r8, %r1, %r8\n";  // partner row cursor
    src += "loopi " + num(bins) + ", red_end_" + tag + "\n";
    src += "lds %r5, [%r3 + $scratch]\n";
    src += "lds %r6, [%r8 + $scratch]\n";
    src += "add %r5, %r5, %r6\n";
    src += "sts [%r3 + $scratch], %r5\n";
    src += "addi %r3, %r3, 1\n";
    src += "addi %r8, %r8, 1\n";
    src += "red_end_" + tag + ":\n";
  }

  // Phase 4: bins threads copy row 0 into the output histogram.
  src +=
      "setti " + num(bins) + "\n"
      "lds %r5, [%r0 + $scratch]\n"
      "sts [%r0 + $hist], %r5\n"
      "exit\n";
  return src;
}

}  // namespace simt::kernels
