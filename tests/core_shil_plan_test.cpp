// Tests for the multi-stage SHIL phase plan (paper Sec. 3.1/3.2, Fig. 2).
#include "msropm/core/shil_plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

namespace {

using namespace msropm::core;

constexpr double kPi = std::numbers::pi;

/// Digits d_1..d_m of `pattern` in radix q, least significant first.
StageBits digits(std::uint32_t pattern, unsigned q, unsigned m) {
  StageBits bits(m);
  for (unsigned j = 0; j < m; ++j, pattern /= q) {
    bits[j] = static_cast<std::uint8_t>(pattern % q);
  }
  return bits;
}

unsigned power(unsigned q, unsigned m) {
  unsigned k = 1;
  while (m-- > 0) k *= q;
  return k;
}

TEST(ColorCount, Validity) {
  EXPECT_TRUE(valid_color_count(2));
  EXPECT_TRUE(valid_color_count(4));
  EXPECT_TRUE(valid_color_count(8));
  EXPECT_TRUE(valid_color_count(128));
  EXPECT_FALSE(valid_color_count(0));
  EXPECT_FALSE(valid_color_count(1));
  EXPECT_FALSE(valid_color_count(3));
  EXPECT_FALSE(valid_color_count(6));
  EXPECT_FALSE(valid_color_count(256));
  // Radix q = SHIL order: K must be q^m.
  EXPECT_TRUE(valid_color_count(3, 3));
  EXPECT_TRUE(valid_color_count(81, 3));
  EXPECT_TRUE(valid_color_count(4, 4));
  EXPECT_TRUE(valid_color_count(64, 4));
  EXPECT_FALSE(valid_color_count(4, 3));
  EXPECT_FALSE(valid_color_count(8, 4));
  EXPECT_FALSE(valid_color_count(2, 4));
  EXPECT_FALSE(valid_color_count(243, 3));
  EXPECT_FALSE(valid_color_count(2, 1));
  EXPECT_FALSE(valid_color_count(2, 0));
}

TEST(StagesForColors, Log2) {
  EXPECT_EQ(stages_for_colors(2), 1u);
  EXPECT_EQ(stages_for_colors(4), 2u);
  EXPECT_EQ(stages_for_colors(8), 3u);
  EXPECT_EQ(stages_for_colors(16), 4u);
  EXPECT_THROW((void)stages_for_colors(3), std::invalid_argument);
  EXPECT_THROW((void)stages_for_colors(0), std::invalid_argument);
  EXPECT_EQ(stages_for_colors(3, 3), 1u);
  EXPECT_EQ(stages_for_colors(9, 3), 2u);
  EXPECT_EQ(stages_for_colors(4, 4), 1u);
  EXPECT_EQ(stages_for_colors(64, 4), 3u);
  EXPECT_THROW((void)stages_for_colors(4, 3), std::invalid_argument);
}

TEST(ShilPhase, PaperTwoStagePlan) {
  // Stage 1: everyone gets SHIL 1 (psi = 0).
  EXPECT_DOUBLE_EQ(shil_phase_for_bits({}), 0.0);
  // Stage 2: the 0-degree group keeps SHIL 1; the 180-degree group gets
  // SHIL 2 at psi = pi/2 (locks 90/270 deg, paper Fig. 2d).
  EXPECT_DOUBLE_EQ(shil_phase_for_bits({0}), 0.0);
  EXPECT_DOUBLE_EQ(shil_phase_for_bits({1}), kPi / 2);
}

TEST(ShilPhase, ThreeStagePlanDistinctOffsets) {
  std::set<double> offsets;
  for (std::uint8_t b1 : {0, 1}) {
    for (std::uint8_t b2 : {0, 1}) {
      offsets.insert(shil_phase_for_bits({b1, b2}));
    }
  }
  EXPECT_EQ(offsets.size(), 4u);
  EXPECT_TRUE(offsets.count(0.0));
  EXPECT_TRUE(offsets.count(kPi / 4));
  EXPECT_TRUE(offsets.count(kPi / 2));
  EXPECT_TRUE(offsets.count(3 * kPi / 4));
}

TEST(ShilPhase, RejectsNonBits) {
  EXPECT_THROW((void)shil_phase_for_bits({2}), std::invalid_argument);
  EXPECT_THROW((void)shil_phase_for_bits({3}, 3), std::invalid_argument);
  EXPECT_THROW((void)shil_phase_for_bits({}, 1), std::invalid_argument);
}

TEST(FinalPhase, TwoStageProducesQuadraturePhases) {
  // The four (b1, b2) patterns must land on 0, 90, 180, 270 deg.
  std::set<int> quadrants;
  for (std::uint8_t b1 : {0, 1}) {
    for (std::uint8_t b2 : {0, 1}) {
      const double theta = final_phase_from_bits({b1, b2});
      const double slot = theta / (kPi / 2);
      const int q = static_cast<int>(std::lround(slot)) % 4;
      EXPECT_NEAR(slot, std::lround(slot), 1e-9);
      quadrants.insert(q);
    }
  }
  EXPECT_EQ(quadrants.size(), 4u);
}

/// (SHIL order q, stages m).
class ColorBijectionSweep
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>> {};

TEST_P(ColorBijectionSweep, ColorFromBitsIsBijective) {
  const auto [q, m] = GetParam();
  const unsigned k = power(q, m);
  std::set<std::uint8_t> colors;
  for (std::uint32_t pattern = 0; pattern < k; ++pattern) {
    colors.insert(color_from_bits(digits(pattern, q, m), q));
  }
  EXPECT_EQ(colors.size(), k) << "every digit pattern must map to a unique color";
  EXPECT_EQ(*colors.rbegin(), k - 1);
}

INSTANTIATE_TEST_SUITE_P(
    Stages, ColorBijectionSweep,
    ::testing::Values(std::pair{2u, 1u}, std::pair{2u, 2u}, std::pair{2u, 3u},
                      std::pair{2u, 4u}, std::pair{2u, 5u}, std::pair{3u, 1u},
                      std::pair{3u, 2u}, std::pair{3u, 4u}, std::pair{4u, 1u},
                      std::pair{4u, 3u}));

TEST(ColorFromBits, AdjacentFinalPhasesAreEquallySpaced) {
  // After m stages, colors sorted by final phase are exactly 2pi/q^m apart:
  // the defining property of the vector Potts spin set (Eq. 4).
  const unsigned m = 3;
  for (const unsigned q : {2u, 3u, 4u}) {
    const unsigned k = power(q, m);
    std::vector<double> phases;
    for (std::uint32_t pattern = 0; pattern < k; ++pattern) {
      phases.push_back(final_phase_from_bits(digits(pattern, q, m), q));
    }
    std::sort(phases.begin(), phases.end());
    EXPECT_NEAR(phases.front(), 0.0, 1e-12) << "q=" << q;
    for (std::size_t i = 1; i < phases.size(); ++i) {
      EXPECT_NEAR(phases[i] - phases[i - 1], 2.0 * kPi / k, 1e-9) << "q=" << q;
    }
  }
}

TEST(ColorFromBits, Validation) {
  EXPECT_THROW((void)color_from_bits({}), std::invalid_argument);
  EXPECT_THROW((void)color_from_bits(StageBits(5), 3), std::invalid_argument)
      << "3^5 = 243 colors exceed the 128 limit";
  EXPECT_THROW((void)color_from_bits({0}, 1), std::invalid_argument);
  EXPECT_THROW((void)final_phase_from_bits({}), std::invalid_argument);
}

}  // namespace
