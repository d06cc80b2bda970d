#pragma once
// Phase-shifted SHIL planning for the multi-stage divide-and-color flow
// (paper Sec. 3.1-3.2, Fig. 2), in radix q = the SHIL order.
//
// A K = q^m coloring runs in m stages. Entering stage k every oscillator
// carries the digits d_1..d_{k-1} (each in [0, q)) read out in earlier stages
// (stored in the SHIL_SEL registers). During stage-k discretization the
// oscillator receives an order-q SHIL whose phase offset is
//
//   psi_k(d_1..d_{k-1}) = (2*pi/q) * sum_{j=1}^{k-1} d_j / q^j
//
// which locks it at psi + (2*pi/q) * d for d in [0, q); the chosen lock
// point is digit d_k. For the paper's q = 2, m = 2 this is exactly SHIL 1
// (psi = 0, locks {0, 180} deg) and SHIL 2 (psi = pi/2, locks {90, 270} deg).
// After m stages the q^m distinct final phases psi_m + (2*pi/q) * d_m are
// equally spaced -- the vector Potts spins. The single-stage N-SHIL machine
// of the paper's ref. [14] is the case m = 1, q = K.

#include <cstdint>
#include <vector>

namespace msropm::core {

/// Accumulated readout digits of one oscillator, d_1 first (bits at q = 2).
using StageBits = std::vector<std::uint8_t>;

/// Number of stages m for K = q^m colors; K must be a power of q in [2, 128].
[[nodiscard]] unsigned stages_for_colors(unsigned num_colors,
                                         unsigned shil_order = 2);

/// True when K is a representable color count (a power q^m, m >= 1, <= 128).
[[nodiscard]] bool valid_color_count(unsigned num_colors,
                                     unsigned shil_order = 2) noexcept;

/// SHIL phase offset for the stage following the given digits (see above).
/// bits.size() == k-1 when entering stage k.
[[nodiscard]] double shil_phase_for_bits(const StageBits& bits,
                                         unsigned shil_order = 2);

/// Ideal final phase after all m stages given all m digits:
/// theta = psi_m(d_1..d_{m-1}) + (2*pi/q) * d_m.
[[nodiscard]] double final_phase_from_bits(const StageBits& bits,
                                           unsigned shil_order = 2);

/// Final color: the final phase quantized to 2*pi/q^m slots. Bijective over
/// the q^m digit patterns.
[[nodiscard]] std::uint8_t color_from_bits(const StageBits& bits,
                                           unsigned shil_order = 2);

}  // namespace msropm::core
