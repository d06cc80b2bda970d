#include "msropm/core/shil_plan.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace msropm::core {

namespace {

constexpr unsigned kMaxColors = 128;

/// 2*pi/q: the lock-point spacing of an order-q SHIL (exactly pi at q = 2).
double lobe_spacing(unsigned shil_order) {
  if (shil_order < 2) throw std::invalid_argument("shil_plan: SHIL order >= 2");
  return 2.0 * std::numbers::pi / static_cast<double>(shil_order);
}

}  // namespace

bool valid_color_count(unsigned num_colors, unsigned shil_order) noexcept {
  if (shil_order < 2 || num_colors < 2 || num_colors > kMaxColors) return false;
  unsigned power = shil_order;
  while (power < num_colors) power *= shil_order;
  return power == num_colors;
}

unsigned stages_for_colors(unsigned num_colors, unsigned shil_order) {
  if (!valid_color_count(num_colors, shil_order)) {
    throw std::invalid_argument(
        "stages_for_colors: colors must be a power of the SHIL order in [2, 128]");
  }
  unsigned stages = 1;
  for (unsigned power = shil_order; power < num_colors; power *= shil_order) {
    ++stages;
  }
  return stages;
}

double shil_phase_for_bits(const StageBits& bits, unsigned shil_order) {
  const double spacing = lobe_spacing(shil_order);
  double psi = 0.0;
  double weight = 1.0 / static_cast<double>(shil_order);
  for (std::uint8_t d : bits) {
    if (d >= shil_order) {
      throw std::invalid_argument("shil_phase_for_bits: digit >= SHIL order");
    }
    psi += static_cast<double>(d) * weight;
    weight /= static_cast<double>(shil_order);
  }
  return spacing * psi;
}

double final_phase_from_bits(const StageBits& bits, unsigned shil_order) {
  if (bits.empty()) throw std::invalid_argument("final_phase_from_bits: no bits");
  StageBits prefix(bits.begin(), bits.end() - 1);
  return shil_phase_for_bits(prefix, shil_order) +
         lobe_spacing(shil_order) * static_cast<double>(bits.back());
}

std::uint8_t color_from_bits(const StageBits& bits, unsigned shil_order) {
  unsigned k = bits.empty() ? 0 : 1;
  for (std::size_t j = 0; j < bits.size() && k <= kMaxColors; ++j) k *= shil_order;
  if (!valid_color_count(k, shil_order)) {
    throw std::invalid_argument("color_from_bits: q^m must be in [2, 128]");
  }
  const double slot = 2.0 * std::numbers::pi / static_cast<double>(k);
  const double theta = final_phase_from_bits(bits, shil_order);
  auto idx = static_cast<long>(std::lround(theta / slot));
  idx %= static_cast<long>(k);
  if (idx < 0) idx += static_cast<long>(k);
  return static_cast<std::uint8_t>(idx);
}

}  // namespace msropm::core
