// The multi-port shared memory (Section 2).
//
// The eGPU departs from the banked shared memory of commercial GPGPUs and
// uses a replicated multi-port memory configured as 4R-1W: four read ports
// (each a physical copy of the data, kept coherent by writing all copies)
// and one write port. The bandwidth is lower than a banked design but the
// arbitration is trivial -- a 16:4 read address mux and a 16:1 write mux in
// front of the SPs (Fig. 1) -- saving logic, routing, and latency. The
// copies never differ, so the model stores the words once; the replication
// shows only where it costs: the M20K count and the port clock arithmetic.
//
// Consequences modeled here and in core/pipeline_control:
//   * a load for 16 lanes takes 16/4 = 4 clocks per thread-block row;
//   * a store takes 16/1 = 16 clocks per row (dynamic thread scaling exists
//     largely to cut this cost when only a few threads write back).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace simt::hw {

class MultiPortMemory {
 public:
  /// words: capacity in 32-bit words. read_ports/write_ports define the
  /// replication (4R-1W in the shipped configuration).
  MultiPortMemory(unsigned words, unsigned read_ports = 4,
                  unsigned write_ports = 1);

  /// Read through one of the replicated ports. All ports return the same
  /// committed data (read-old-data before commit()); the port index models
  /// arbitration and is bounds-checked.
  std::uint32_t read(unsigned port, std::uint32_t addr) const;

  /// Stage a write (single write port). Committed at commit().
  void write(std::uint32_t addr, std::uint32_t data);

  /// Clock edge: apply the staged writes in order (the last one to an
  /// address wins).
  void commit();

  /// Host-side backdoor accessors (no port arbitration; used by the runtime
  /// to stage inputs and collect results).
  std::uint32_t peek(std::uint32_t addr) const;
  void poke(std::uint32_t addr, std::uint32_t data);

  /// Bulk backdoor transfers: one bounds check and a direct copy, bypassing
  /// the per-word write staging. This is the host-staging fast path the
  /// runtime Buffer copies ride on.
  void peek_span(std::uint32_t base, std::span<std::uint32_t> out) const;
  void poke_span(std::uint32_t base, std::span<const std::uint32_t> data);

  /// Per-lane gather/scatter fast path for the batched SIMD engine: the
  /// caller bounds-checks the whole address block up front, then reads /
  /// writes the committed image directly (no staging; a sequential
  /// thread-order scatter keeps the highest-lane-wins conflict semantics
  /// of the staged write port).
  std::uint32_t read_lane(std::uint32_t addr) const { return data_[addr]; }
  void write_lane(std::uint32_t addr, std::uint32_t data) {
    data_[addr] = data;
  }

  unsigned words() const { return words_; }
  unsigned read_ports() const { return read_ports_; }
  unsigned write_ports() const { return write_ports_; }

  /// Total M20K blocks: one copy per read port, each copy a 32-bit-wide
  /// memory of `words` depth.
  unsigned m20k_blocks() const;

  /// Clocks to service `lanes` parallel reads (ceil(lanes / read_ports)).
  unsigned read_clocks(unsigned lanes) const;
  /// Clocks to service `lanes` parallel writes (ceil(lanes / write_ports)).
  unsigned write_clocks(unsigned lanes) const;

 private:
  unsigned words_;
  unsigned read_ports_;
  unsigned write_ports_;
  std::vector<std::uint32_t> data_;  ///< the committed words
  /// Writes staged since the last commit(), oldest first.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> staged_;
};

}  // namespace simt::hw
