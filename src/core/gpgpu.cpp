#include "core/gpgpu.hpp"

#include <algorithm>
#include <bit>

#include "common/bits.hpp"
#include "common/error.hpp"

namespace simt::core {

using isa::Format;
using isa::Guard;
using isa::Instr;
using isa::Opcode;
using isa::TimingClass;

Gpgpu::Gpgpu(CoreConfig cfg)
    : cfg_(std::move(cfg)),
      imem_(cfg_.imem_depth),
      shared_(cfg_.shared_mem_words, cfg_.shared_read_ports,
              cfg_.shared_write_ports),
      fetch_(cfg_),
      launch_threads_(cfg_.max_threads),
      active_threads_(cfg_.max_threads) {
  cfg_.validate();
  sp_mask_ = cfg_.num_sps - 1;
  sp_shift_ = static_cast<unsigned>(std::countr_zero(cfg_.num_sps));
  rf_data_.assign(std::size_t{cfg_.max_threads} * cfg_.regs_per_thread, 0);
  addr_scratch_.assign(cfg_.max_threads, 0);
  alus_.reserve(cfg_.num_sps);
  for (unsigned sp = 0; sp < cfg_.num_sps; ++sp) {
    alus_.emplace_back(cfg_.shifter);
  }
  preds_.assign(cfg_.max_threads, 0);
  reg_producer_.assign(cfg_.regs_per_thread, ProducerRecord{});
}

void Gpgpu::load_program(const Program& program) {
  load_image(DecodedImage::build(program, cfg_));
}

void Gpgpu::load_image(std::shared_ptr<const DecodedImage> image) {
  if (!image) {
    throw Error("load_image needs a non-null decoded image");
  }
  if (!image->validated_for(cfg_)) {
    throw Error("decoded image was built for a different core "
                "configuration; rebuild it with DecodedImage::build("
                "program, cfg)");
  }
  imem_.load(image->words());
  decoded_ = std::move(image);
}

void Gpgpu::set_thread_count(unsigned threads) {
  if (threads == 0 || threads > cfg_.max_threads) {
    throw Error("thread count must be in [1, max_threads]");
  }
  launch_threads_ = threads;
}

std::uint32_t Gpgpu::read_shared(std::uint32_t addr) const {
  return shared_.peek(addr);
}

void Gpgpu::write_shared(std::uint32_t addr, std::uint32_t value) {
  shared_.poke(addr, value);
}

void Gpgpu::read_shared_span(std::uint32_t base,
                             std::span<std::uint32_t> out) const {
  shared_.peek_span(base, out);
}

void Gpgpu::write_shared_span(std::uint32_t base,
                              std::span<const std::uint32_t> data) {
  shared_.poke_span(base, data);
}

std::uint32_t Gpgpu::read_reg(unsigned thread, unsigned reg) const {
  SIMT_CHECK(thread < cfg_.max_threads && reg < cfg_.regs_per_thread);
  return rf_read(thread, reg);
}

void Gpgpu::write_reg(unsigned thread, unsigned reg, std::uint32_t value) {
  SIMT_CHECK(thread < cfg_.max_threads && reg < cfg_.regs_per_thread);
  rf_write(thread, reg, value);
}

bool Gpgpu::read_pred(unsigned thread, unsigned pred) const {
  SIMT_CHECK(thread < cfg_.max_threads &&
             pred < static_cast<unsigned>(isa::kNumPredRegs));
  return (preds_[thread] >> pred) & 1u;
}

void Gpgpu::write_pred(unsigned thread, unsigned pred, bool value) {
  SIMT_CHECK(thread < cfg_.max_threads &&
             pred < static_cast<unsigned>(isa::kNumPredRegs));
  if (value) {
    preds_[thread] |= static_cast<std::uint8_t>(1u << pred);
  } else {
    preds_[thread] &= static_cast<std::uint8_t>(~(1u << pred));
  }
}

void Gpgpu::reset_state() {
  std::fill(rf_data_.begin(), rf_data_.end(), 0);
  std::fill(preds_.begin(), preds_.end(), 0);
  for (unsigned a = 0; a < shared_.words(); ++a) {
    shared_.poke(a, 0);
  }
}

bool Gpgpu::guard_passes(const Instr& instr, unsigned thread) const {
  switch (instr.guard) {
    case Guard::None:
      return true;
    case Guard::IfTrue:
      return (preds_[thread] >> instr.gpred) & 1u;
    case Guard::IfFalse:
      return !((preds_[thread] >> instr.gpred) & 1u);
  }
  return true;
}

std::uint32_t Gpgpu::special_value(isa::SpecialReg sr, unsigned thread,
                                   unsigned active) const {
  switch (sr) {
    case isa::SpecialReg::Tid:
      return thread_base_ + thread;
    case isa::SpecialReg::Ntid:
      return ntid_override_ ? ntid_override_ : active;
    case isa::SpecialReg::Nsp:
      return cfg_.num_sps;
    case isa::SpecialReg::Lane:
      return thread % cfg_.num_sps;
    case isa::SpecialReg::Row:
      return thread / cfg_.num_sps;
    case isa::SpecialReg::Smid:
      return smid_;
  }
  return 0;
}

namespace {

/// Per-lane ALU evaluated with the functional thunks cached in the
/// DecodedOp: one direct-call arithmetic function, no per-lane dispatch.
struct FunctionalAlu {
  AluFn alu;
  CmpFn cmp;
  std::uint32_t exec(unsigned, std::uint32_t a, std::uint32_t b) const {
    return alu(a, b);
  }
  bool compare(unsigned, std::uint32_t a, std::uint32_t b) const {
    return cmp(a, b);
  }
};

/// Precomputed guard polarity: a lane passes iff (preds & bit) == want.
/// The default (bit = want = 0) passes every lane -- what the unguarded
/// loop bodies instantiate.
struct GuardMask {
  std::uint8_t bit = 0;
  std::uint8_t want = 0;
  static GuardMask of(const Instr& in) {
    const auto b = static_cast<std::uint8_t>(1u << in.gpred);
    return {b, in.guard == Guard::IfTrue ? b : std::uint8_t{0}};
  }
  bool passes(std::uint8_t preds) const { return (preds & bit) == want; }
};

/// Guard uniformity over the active block. The SIMD lane engine engages
/// only when every lane resolves the same way: AllPass dispatches one batch
/// thunk, NonePass skips the instruction body outright, and Divergent falls
/// back to the per-lane scalar loop.
enum class GuardScan { AllPass, NonePass, Divergent };

GuardScan scan_guard(const GuardMask& g, const std::uint8_t* preds,
                     unsigned active) {
  unsigned pass = 0;
  for (unsigned t = 0; t < active; ++t) {
    pass += g.passes(preds[t]) ? 1u : 0u;
  }
  if (pass == active) {
    return GuardScan::AllPass;
  }
  return pass == 0 ? GuardScan::NonePass : GuardScan::Divergent;
}

/// Per-lane ALU walking the bit-accurate structural models (Mul33,
/// shifter, LogicUnit) of the lane's SP -- the CoreConfig::bit_accurate
/// engine.
struct StructuralAlu {
  const std::vector<hw::Alu>* alus;
  unsigned sp_mask;
  isa::Opcode op;
  std::uint32_t exec(unsigned t, std::uint32_t a, std::uint32_t b) const {
    return (*alus)[t & sp_mask].execute(op, a, b);
  }
  bool compare(unsigned t, std::uint32_t a, std::uint32_t b) const {
    return (*alus)[t & sp_mask].compare(op, a, b);
  }
};

}  // namespace

template <bool kGuarded, typename AluPolicy>
void Gpgpu::exec_operation_body(const DecodedOp& d, unsigned active,
                                const AluPolicy& alu) {
  const Instr& instr = d.instr;
  // Guard test hoisted to a mask-and-compare against the precomputed
  // polarity; compiled out entirely on the all-lanes-active fast path.
  const GuardMask g = kGuarded ? GuardMask::of(instr) : GuardMask{};
  const auto passes = [&](unsigned t) {
    return !kGuarded || g.passes(preds_[t]);
  };
  switch (d.info->format) {
    case Format::RRR:
      for (unsigned t = 0; t < active; ++t) {
        if (passes(t)) {
          rf_write(t, instr.rd,
                   alu.exec(t, rf_read(t, instr.ra), rf_read(t, instr.rb)));
        }
      }
      break;
    case Format::RRI: {
      const auto imm = static_cast<std::uint32_t>(instr.imm);
      for (unsigned t = 0; t < active; ++t) {
        if (passes(t)) {
          rf_write(t, instr.rd, alu.exec(t, rf_read(t, instr.ra), imm));
        }
      }
      break;
    }
    case Format::RR:
      for (unsigned t = 0; t < active; ++t) {
        if (passes(t)) {
          rf_write(t, instr.rd, alu.exec(t, rf_read(t, instr.ra), 0));
        }
      }
      break;
    case Format::RI: {
      const auto imm = static_cast<std::uint32_t>(instr.imm);
      for (unsigned t = 0; t < active; ++t) {
        if (passes(t)) {
          rf_write(t, instr.rd, alu.exec(t, 0, imm));
        }
      }
      break;
    }
    case Format::RS: {
      const auto sr = static_cast<isa::SpecialReg>(instr.imm);
      for (unsigned t = 0; t < active; ++t) {
        if (passes(t)) {
          rf_write(t, instr.rd, special_value(sr, t, active));
        }
      }
      break;
    }
    case Format::PRR:
      for (unsigned t = 0; t < active; ++t) {
        if (passes(t)) {
          write_pred(t, instr.pd,
                     alu.compare(t, rf_read(t, instr.ra),
                                 rf_read(t, instr.rb)));
        }
      }
      break;
    case Format::PPP:
      for (unsigned t = 0; t < active; ++t) {
        if (passes(t)) {
          const bool a = (preds_[t] >> instr.pa) & 1u;
          const bool b = (preds_[t] >> instr.pb) & 1u;
          bool r = false;
          if (instr.op == Opcode::PAND) {
            r = a && b;
          } else if (instr.op == Opcode::POR) {
            r = a || b;
          } else {
            r = a != b;  // PXOR
          }
          write_pred(t, instr.pd, r);
        }
      }
      break;
    case Format::PP:
      for (unsigned t = 0; t < active; ++t) {
        if (passes(t)) {
          write_pred(t, instr.pd, !((preds_[t] >> instr.pa) & 1u));
        }
      }
      break;
    case Format::SELP:
      for (unsigned t = 0; t < active; ++t) {
        if (passes(t)) {
          const bool sel = (preds_[t] >> instr.pa) & 1u;
          rf_write(t, instr.rd,
                   sel ? rf_read(t, instr.ra) : rf_read(t, instr.rb));
        }
      }
      break;
    default:
      SIMT_CHECK(false && "unexpected format in operation class");
  }
}

bool Gpgpu::exec_operation_batched(const DecodedOp& d, unsigned active) {
  const Instr& instr = d.instr;
  if (instr.guard != Guard::None) {
    switch (scan_guard(GuardMask::of(instr), preds_.data(), active)) {
      case GuardScan::AllPass:
        break;
      case GuardScan::NonePass:
        return true;  // every lane masked off: nothing to execute
      case GuardScan::Divergent:
        return false;
    }
  }
  switch (d.info->format) {
    case Format::RRR:
      if (d.alu_batch_rr == nullptr) {
        return false;
      }
      d.alu_batch_rr(rf_row(instr.rd), rf_row(instr.ra), rf_row(instr.rb),
                     active);
      return true;
    case Format::RRI:
      if (d.alu_batch_ri == nullptr) {
        return false;
      }
      d.alu_batch_ri(rf_row(instr.rd), rf_row(instr.ra),
                     static_cast<std::uint32_t>(instr.imm), active);
      return true;
    case Format::RR:
      // Scalar RR evaluates alu(a, 0): the RI batch thunk with b = 0.
      if (d.alu_batch_ri == nullptr) {
        return false;
      }
      d.alu_batch_ri(rf_row(instr.rd), rf_row(instr.ra), 0, active);
      return true;
    case Format::RI: {
      // alu(0, imm) has no lane dependence: evaluate once, broadcast.
      if (d.alu == nullptr) {
        return false;
      }
      const std::uint32_t v = d.alu(0, static_cast<std::uint32_t>(instr.imm));
      std::fill_n(rf_row(instr.rd), active, v);
      return true;
    }
    case Format::RS: {
      // Hoist the special-register switch out of the lane loop. Tid/Lane/
      // Row are the only lane-varying sources; the rest broadcast.
      std::uint32_t* dst = rf_row(instr.rd);
      switch (static_cast<isa::SpecialReg>(instr.imm)) {
        case isa::SpecialReg::Tid:
          for (unsigned t = 0; t < active; ++t) {
            dst[t] = thread_base_ + t;
          }
          return true;
        case isa::SpecialReg::Lane:
          for (unsigned t = 0; t < active; ++t) {
            dst[t] = t & sp_mask_;
          }
          return true;
        case isa::SpecialReg::Row:
          for (unsigned t = 0; t < active; ++t) {
            dst[t] = t >> sp_shift_;
          }
          return true;
        case isa::SpecialReg::Ntid:
          std::fill_n(dst, active, ntid_override_ ? ntid_override_ : active);
          return true;
        case isa::SpecialReg::Nsp:
          std::fill_n(dst, active, cfg_.num_sps);
          return true;
        case isa::SpecialReg::Smid:
          std::fill_n(dst, active, smid_);
          return true;
      }
      return false;
    }
    case Format::PRR:
      if (d.cmp_batch == nullptr) {
        return false;
      }
      d.cmp_batch(preds_.data(), static_cast<std::uint8_t>(1u << instr.pd),
                  rf_row(instr.ra), rf_row(instr.rb), active);
      return true;
    case Format::SELP: {
      const std::uint8_t sel_bit = static_cast<std::uint8_t>(1u << instr.pa);
      const std::uint32_t* a = rf_row(instr.ra);
      const std::uint32_t* b = rf_row(instr.rb);
      std::uint32_t* dst = rf_row(instr.rd);
      for (unsigned t = 0; t < active; ++t) {
        dst[t] = (preds_[t] & sel_bit) != 0 ? a[t] : b[t];
      }
      return true;
    }
    default:
      // PPP/PP are byte-wide predicate ops; the scalar loop is already the
      // right shape for them.
      return false;
  }
}

void Gpgpu::exec_operation(const DecodedOp& d, unsigned active) {
  const bool guarded = d.instr.guard != Guard::None;
  if (!cfg_.bit_accurate) {
    if (exec_operation_batched(d, active)) {
      return;
    }
    const FunctionalAlu alu{d.alu, d.cmp};
    if (guarded) {
      exec_operation_body<true>(d, active, alu);
    } else {
      exec_operation_body<false>(d, active, alu);
    }
  } else {
    const StructuralAlu alu{&alus_, sp_mask_, d.instr.op};
    if (guarded) {
      exec_operation_body<true>(d, active, alu);
    } else {
      exec_operation_body<false>(d, active, alu);
    }
  }
}

template <bool kGuarded>
unsigned Gpgpu::exec_load_body(const Instr& instr, unsigned active) {
  const GuardMask g = kGuarded ? GuardMask::of(instr) : GuardMask{};
  const auto imm = static_cast<std::uint32_t>(instr.imm);
  const unsigned words = shared_.words();
  const unsigned ports = shared_.read_ports();
  unsigned lanes = 0;
  for (unsigned t = 0; t < active; ++t) {
    if (kGuarded && !g.passes(preds_[t])) {
      continue;
    }
    const std::uint32_t addr = rf_read(t, instr.ra) + imm;
    if (addr >= words) {
      throw Error("LDS address out of bounds: thread " + std::to_string(t) +
                  " addr " + std::to_string(addr));
    }
    rf_write(t, instr.rd, shared_.read(t % ports, addr));
    ++lanes;
  }
  return lanes;
}

bool Gpgpu::exec_load_batched(const Instr& instr, unsigned active,
                              unsigned& lanes) {
  if (instr.guard != Guard::None) {
    switch (scan_guard(GuardMask::of(instr), preds_.data(), active)) {
      case GuardScan::AllPass:
        break;
      case GuardScan::NonePass:
        lanes = 0;
        return true;
      case GuardScan::Divergent:
        return false;
    }
  }
  // Compute and bounds-check every lane's address before touching any
  // state: an out-of-bounds lane must take the scalar body so its partial
  // writes and the exact per-thread diagnostic are reproduced.
  const auto imm = static_cast<std::uint32_t>(instr.imm);
  const unsigned words = shared_.words();
  const std::uint32_t* a = rf_row(instr.ra);
  std::uint32_t* addrs = addr_scratch_.data();
  bool oob = false;
  for (unsigned t = 0; t < active; ++t) {
    addrs[t] = a[t] + imm;
    oob |= addrs[t] >= words;
  }
  if (oob) {
    return false;
  }
  // Gather from the committed image (the replicated copies would all
  // agree, so the port a lane would arbitrate onto does not matter). The
  // scratch holds the addresses, so rd == ra aliasing is already resolved.
  // Unrolled because the one-lane gather loop's speed follows its code
  // alignment (ROADMAP item 1: drop this once bench builds pin alignment).
  std::uint32_t* dst = rf_row(instr.rd);
#pragma GCC unroll 4
  for (unsigned t = 0; t < active; ++t) {
    dst[t] = shared_.read_lane(addrs[t]);
  }
  lanes = active;
  return true;
}

unsigned Gpgpu::exec_load(const Instr& instr, unsigned active) {
  if (!cfg_.bit_accurate) {
    unsigned lanes = 0;
    if (exec_load_batched(instr, active, lanes)) {
      return lanes;
    }
  }
  return instr.guard != Guard::None ? exec_load_body<true>(instr, active)
                                    : exec_load_body<false>(instr, active);
}

template <bool kGuarded>
unsigned Gpgpu::exec_store_body(const Instr& instr, unsigned active) {
  // The 16:1 write mux serializes the lanes in thread order within each
  // row, so on an address conflict the highest thread id wins.
  const GuardMask g = kGuarded ? GuardMask::of(instr) : GuardMask{};
  const auto imm = static_cast<std::uint32_t>(instr.imm);
  const unsigned words = shared_.words();
  unsigned lanes = 0;
  for (unsigned t = 0; t < active; ++t) {
    if (kGuarded && !g.passes(preds_[t])) {
      continue;
    }
    const std::uint32_t addr = rf_read(t, instr.ra) + imm;
    if (addr >= words) {
      throw Error("STS address out of bounds: thread " + std::to_string(t) +
                  " addr " + std::to_string(addr));
    }
    note_store(addr);
    shared_.write(addr, rf_read(t, instr.rd));
    ++lanes;
  }
  shared_.commit();
  return lanes;
}

bool Gpgpu::exec_store_batched(const Instr& instr, unsigned active,
                               unsigned& lanes) {
  if (instr.guard != Guard::None) {
    switch (scan_guard(GuardMask::of(instr), preds_.data(), active)) {
      case GuardScan::AllPass:
        break;
      case GuardScan::NonePass:
        lanes = 0;
        return true;  // scalar body would stage nothing and commit a no-op
      case GuardScan::Divergent:
        return false;
    }
  }
  // Same bounds-check-everything-first discipline as the batched load: the
  // scalar body's behavior on an out-of-bounds lane (stores staged for the
  // lower lanes, then a throw that leaves them pending) is only reproducible
  // from untouched state.
  const auto imm = static_cast<std::uint32_t>(instr.imm);
  const unsigned words = shared_.words();
  const std::uint32_t* a = rf_row(instr.ra);
  std::uint32_t* addrs = addr_scratch_.data();
  bool oob = false;
  for (unsigned t = 0; t < active; ++t) {
    addrs[t] = a[t] + imm;
    oob |= addrs[t] >= words;
  }
  if (oob) {
    return false;
  }
  // Scatter in thread order straight into the committed image: identical
  // to stage-all-then-commit (highest lane wins on address conflicts, and
  // stores never read shared memory within the instruction). note_store
  // runs per lane exactly as in the scalar body, so the merged-window
  // bookkeeping the runtime reads back is unchanged.
  const std::uint32_t* data = rf_row(instr.rd);
  for (unsigned t = 0; t < active; ++t) {
    note_store(addrs[t]);
    shared_.write_lane(addrs[t], data[t]);
  }
  lanes = active;
  return true;
}

unsigned Gpgpu::exec_store(const Instr& instr, unsigned active) {
  if (!cfg_.bit_accurate) {
    unsigned lanes = 0;
    if (exec_store_batched(instr, active, lanes)) {
      return lanes;
    }
  }
  return instr.guard != Guard::None ? exec_store_body<true>(instr, active)
                                    : exec_store_body<false>(instr, active);
}

void Gpgpu::note_store(std::uint32_t addr) {
  // Track the write shard as a handful of coalesced windows. Extend the
  // nearest window when the store lands inside or within the gap of one;
  // otherwise open a new window, merging the two closest windows first if
  // every slot is taken. All loops are over kStoreWindows entries, so the
  // per-store cost is constant.
  unsigned best = kStoreWindows;
  std::uint32_t best_dist = kStoreWindowGap + 1;
  for (unsigned i = 0; i < store_win_count_; ++i) {
    auto& [lo, hi] = store_win_[i];
    if (addr >= lo && addr < hi) {
      return;
    }
    const std::uint32_t dist = addr < lo ? lo - addr : addr - hi + 1;
    if (dist < best_dist) {
      best_dist = dist;
      best = i;
    }
  }
  if (best < kStoreWindows) {
    // Grow the nearest window, absorbing any sibling the growth touches.
    std::uint32_t lo = std::min(store_win_[best].first, addr);
    std::uint32_t hi = std::max(store_win_[best].second, addr + 1);
    store_win_[best] = store_win_[--store_win_count_];
    for (unsigned i = 0; i < store_win_count_;) {
      if (store_win_[i].first < hi && lo < store_win_[i].second) {
        lo = std::min(lo, store_win_[i].first);
        hi = std::max(hi, store_win_[i].second);
        store_win_[i] = store_win_[--store_win_count_];
      } else {
        ++i;
      }
    }
    store_win_[store_win_count_++] = {lo, hi};
    return;
  }
  if (store_win_count_ < kStoreWindows) {
    store_win_[store_win_count_++] = {addr, addr + 1};
    return;
  }
  // All slots taken and the store is far from every window: merge the two
  // closest windows and open a fresh one in the freed slot.
  unsigned a = 0, b = 1;
  std::uint64_t min_gap = ~0ull;
  for (unsigned i = 0; i < store_win_count_; ++i) {
    for (unsigned j = i + 1; j < store_win_count_; ++j) {
      const auto& [ilo, ihi] = store_win_[i];
      const auto& [jlo, jhi] = store_win_[j];
      const std::uint64_t gap =
          ihi <= jlo ? jlo - ihi : (jhi <= ilo ? ilo - jhi : 0);
      if (gap < min_gap) {
        min_gap = gap;
        a = i;
        b = j;
      }
    }
  }
  store_win_[a] = {std::min(store_win_[a].first, store_win_[b].first),
                   std::max(store_win_[a].second, store_win_[b].second)};
  store_win_[b] = {addr, addr + 1};
}

std::uint64_t Gpgpu::producer_bound(const ProducerRecord& p, unsigned my_width,
                                    unsigned my_rows) const {
  if (!p.valid) {
    return 0;
  }
  const unsigned overlap = std::min(p.rows, my_rows);
  return p.start + min_issue_gap(p.width, my_width, overlap, p.latency);
}

std::uint64_t Gpgpu::earliest_start(const Instr& instr, unsigned my_width,
                                    unsigned my_rows,
                                    std::uint64_t candidate) const {
  const auto& info = isa::op_info(instr.op);
  std::uint64_t t = candidate;
  auto need_reg = [&](std::uint8_t r) {
    t = std::max(t, producer_bound(reg_producer_[r], my_width, my_rows));
  };
  auto need_pred = [&](std::uint8_t p) {
    t = std::max(t, producer_bound(pred_producer_[p], my_width, my_rows));
  };
  if (instr.guard != Guard::None) {
    need_pred(instr.gpred);
  }
  switch (info.format) {
    case Format::RRR:
    case Format::PRR:
      need_reg(instr.ra);
      need_reg(instr.rb);
      break;
    case Format::RRI:
    case Format::RR:
      need_reg(instr.ra);
      break;
    case Format::SELP:
      need_reg(instr.ra);
      need_reg(instr.rb);
      need_pred(instr.pa);
      break;
    case Format::PPP:
      need_pred(instr.pa);
      need_pred(instr.pb);
      break;
    case Format::PP:
      need_pred(instr.pa);
      break;
    case Format::MEM:
      need_reg(instr.ra);
      if (instr.op == Opcode::STS) {
        need_reg(instr.rd);  // store data
      }
      break;
    case Format::PB:
      need_pred(instr.pa);
      break;
    case Format::LOOPR:
    case Format::TR:
      need_reg(instr.ra);
      break;
    default:
      break;
  }
  if (instr.op == Opcode::LDS && store_producer_.valid) {
    // Memory ordering: a load must observe every lane of the previous
    // store, so it waits for the store's final-row writeback to drain.
    const auto& s = store_producer_;
    t = std::max(t, s.start + static_cast<std::uint64_t>(s.rows - 1) * s.width +
                        s.latency + 1);
  }
  return t;
}

void Gpgpu::note_writes(const Instr& instr, std::uint64_t start,
                        unsigned width, unsigned rows) {
  const auto& info = isa::op_info(instr.op);
  if (info.writes_rd) {
    const unsigned lat =
        instr.op == Opcode::LDS ? cfg_.mem_latency : cfg_.alu_latency;
    reg_producer_[instr.rd] = ProducerRecord{start, width, rows, lat, true};
  }
  if (info.writes_pd) {
    pred_producer_[instr.pd] =
        ProducerRecord{start, width, rows, cfg_.alu_latency, true};
  }
  if (instr.op == Opcode::STS) {
    store_producer_ =
        ProducerRecord{start, width, rows, cfg_.mem_latency, true};
  }
}

RunResult Gpgpu::run(std::uint32_t entry, std::uint64_t max_instructions) {
  RunResult res;
  PerfCounters& perf = res.perf;

  fetch_.reset(entry);
  active_threads_ = launch_threads_;
  store_win_count_ = 0;
  std::fill(reg_producer_.begin(), reg_producer_.end(), ProducerRecord{});
  pred_producer_.fill(ProducerRecord{});
  store_producer_ = ProducerRecord{};

  // Initial pipeline fill: the first instruction travels the decode pipe.
  std::uint64_t cycle = cfg_.decode_depth;
  perf.fill_cycles = cfg_.decode_depth;

  // The I-MEM image was decoded (and the program validated) once at load;
  // the loop executes the cached records. Thread-block geometry is
  // recomputed only when SETT/SETTI rescales the thread space.
  const DecodedImage* image = decoded_.get();
  unsigned cached_active = active_threads_;
  unsigned cached_rows = cfg_.rows_for(cached_active);

  for (std::uint64_t executed = 0; executed < max_instructions; ++executed) {
    const std::uint32_t pc = fetch_.pc();
    if (image == nullptr || pc >= image->size()) {
      throw Error("PC ran past the end of the program: " + std::to_string(pc));
    }
    const DecodedOp& d = image->at(pc);
    const Instr& instr = d.instr;
    const auto& info = *d.info;

    const unsigned active = active_threads_;
    if (active != cached_active) {
      cached_active = active;
      cached_rows = cfg_.rows_for(active);
    }
    const unsigned rows = cached_rows;
    const unsigned width = d.width;
    const unsigned duration = d.single ? 1 : rows * width;

    // Register/memory interlocks (deep pipeline, row-aligned lockstep).
    const unsigned hazard_rows = d.single ? 1 : rows;
    const std::uint64_t start =
        earliest_start(instr, width, hazard_rows, cycle);
    perf.stall_cycles += start - cycle;
    cycle = start;

    // Functional execution of the whole thread block.
    switch (info.timing) {
      case TimingClass::Operation:
        exec_operation(d, active);
        perf.operation_instrs++;
        perf.thread_rows += rows;
        perf.thread_ops += active;
        perf.operation_thread_ops += active;
        break;
      case TimingClass::Load:
        perf.shm_reads += exec_load(instr, active);
        perf.load_instrs++;
        perf.thread_rows += rows;
        perf.thread_ops += active;
        perf.load_thread_ops += active;
        break;
      case TimingClass::Store:
        perf.shm_writes += exec_store(instr, active);
        perf.store_instrs++;
        perf.thread_rows += rows;
        perf.thread_ops += active;
        perf.store_thread_ops += active;
        break;
      case TimingClass::Single:
        perf.single_instrs++;
        break;
    }
    perf.instructions++;
    perf.per_opcode[static_cast<std::size_t>(instr.op)]++;
    note_writes(instr, start, width,
                info.timing == TimingClass::Single ? 1 : rows);

    perf.issue_cycles += duration;
    cycle += duration;

    // Sequencing / control flow (decisions made in the instruction block).
    if (instr.op == Opcode::EXIT) {
      res.exited = true;
      break;
    }
    unsigned flush = 0;
    switch (instr.op) {
      case Opcode::BRA:
        flush = fetch_.branch_to(static_cast<std::uint32_t>(instr.imm));
        break;
      case Opcode::BRP:
      case Opcode::BRN: {
        // Scalar branch on a thread-wide predicate reduction: BRP is taken
        // if *any* active thread has the predicate set, BRN if *none* does.
        bool any = false;
        for (unsigned t = 0; t < active && !any; ++t) {
          any = (preds_[t] >> instr.pa) & 1u;
        }
        const bool taken = instr.op == Opcode::BRP ? any : !any;
        flush = taken
                    ? fetch_.branch_to(static_cast<std::uint32_t>(instr.imm))
                    : fetch_.advance();
        break;
      }
      case Opcode::CALL:
        flush = fetch_.call(static_cast<std::uint32_t>(instr.imm));
        break;
      case Opcode::RET:
        flush = fetch_.ret();
        break;
      case Opcode::LOOP: {
        const std::uint32_t count = rf_read(0, instr.ra);
        flush =
            fetch_.loop_begin(count, static_cast<std::uint32_t>(instr.imm));
        break;
      }
      case Opcode::LOOPI: {
        const auto count = static_cast<std::uint32_t>((instr.imm >> 16) &
                                                      0xffff);
        const auto end = static_cast<std::uint32_t>(instr.imm & 0xffff);
        flush = fetch_.loop_begin(count, end);
        break;
      }
      case Opcode::SETT: {
        if (!cfg_.dynamic_thread_scaling) {
          throw Error("dynamic thread scaling is disabled");
        }
        const std::uint32_t v = rf_read(0, instr.ra);
        active_threads_ = std::clamp<std::uint32_t>(v, 1, cfg_.max_threads);
        ntid_override_ = 0;  // %ntid tracks the dynamic count from here on
        flush = fetch_.advance();
        break;
      }
      case Opcode::SETTI: {
        if (!cfg_.dynamic_thread_scaling) {
          throw Error("dynamic thread scaling is disabled");
        }
        active_threads_ =
            std::clamp<std::uint32_t>(static_cast<std::uint32_t>(instr.imm),
                                      1, cfg_.max_threads);
        ntid_override_ = 0;  // %ntid tracks the dynamic count from here on
        flush = fetch_.advance();
        break;
      }
      default:
        flush = fetch_.advance();
        break;
    }
    perf.flush_cycles += flush;
    cycle += flush;
  }

  perf.cycles = cycle;
  return res;
}

}  // namespace simt::core
