// M20K embedded memory block model (Agilex).
//
// Each block stores 20 kilobits, configurable as 512x40, 1024x20 or 2048x10,
// with one read and one write port (simple dual port) and a registered
// output. M20Ks are ASIC blocks capable of the full 1 GHz clock network
// rate, so they never limit the processor's Fmax -- but their count and
// column placement dominate the floorplan (Figs. 6/7).
#pragma once

#include <cstdint>

namespace simt::hw {

/// Geometry of one M20K configuration mode.
struct M20kMode {
  unsigned depth;
  unsigned width;
};

inline constexpr M20kMode kM20kModes[] = {{512, 40}, {1024, 20}, {2048, 10}};
inline constexpr unsigned kM20kBits = 20 * 1024;

/// Number of M20K blocks needed for a `depth` x `width` memory, choosing the
/// best mode (the mosaic is depth-slices x width-slices of that mode).
unsigned m20k_blocks_for(unsigned depth, unsigned width);

/// The mode that minimizes block count for a given aspect ratio.
M20kMode m20k_best_mode(unsigned depth, unsigned width);

}  // namespace simt::hw
