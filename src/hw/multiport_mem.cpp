#include "hw/multiport_mem.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "hw/m20k.hpp"

namespace simt::hw {

MultiPortMemory::MultiPortMemory(unsigned words, unsigned read_ports,
                                 unsigned write_ports)
    : words_(words),
      read_ports_(read_ports),
      write_ports_(write_ports),
      data_(words, 0) {
  SIMT_CHECK(words_ > 0);
  SIMT_CHECK(read_ports_ >= 1);
  SIMT_CHECK(write_ports_ >= 1);
}

std::uint32_t MultiPortMemory::read(unsigned port, std::uint32_t addr) const {
  SIMT_CHECK(port < read_ports_);
  SIMT_CHECK(addr < words_);
  return data_[addr];
}

void MultiPortMemory::write(std::uint32_t addr, std::uint32_t data) {
  SIMT_CHECK(addr < words_);
  staged_.emplace_back(addr, data);
}

void MultiPortMemory::commit() {
  for (const auto& [addr, value] : staged_) {
    data_[addr] = value;
  }
  staged_.clear();
}

std::uint32_t MultiPortMemory::peek(std::uint32_t addr) const {
  return read(0, addr);
}

void MultiPortMemory::poke(std::uint32_t addr, std::uint32_t data) {
  write(addr, data);
  commit();
}

void MultiPortMemory::peek_span(std::uint32_t base,
                                std::span<std::uint32_t> out) const {
  SIMT_CHECK(base <= words_ && out.size() <= words_ - base);
  std::copy_n(data_.begin() + base, out.size(), out.begin());
}

void MultiPortMemory::poke_span(std::uint32_t base,
                                std::span<const std::uint32_t> data) {
  SIMT_CHECK(base <= words_ && data.size() <= words_ - base);
  std::copy(data.begin(), data.end(), data_.begin() + base);
}

unsigned MultiPortMemory::m20k_blocks() const {
  return read_ports_ * m20k_blocks_for(words_, 32);
}

unsigned MultiPortMemory::read_clocks(unsigned lanes) const {
  return ceil_div(lanes, read_ports_);
}

unsigned MultiPortMemory::write_clocks(unsigned lanes) const {
  return ceil_div(lanes, write_ports_);
}

}  // namespace simt::hw
