// Tests for the single-stage N-SHIL ROPM baseline (paper ref. [14]): the
// MultiStagePottsMachine at shil_order = num_colors = N, i.e. one order-N SHIL
// stage, with the baseline's 0.4 lock ramp.
#include "msropm/core/machine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "msropm/graph/builders.hpp"
#include "msropm/util/rng.hpp"

namespace {

using namespace msropm;
using core::MsropmConfig;
using core::MultiStagePottsMachine;

MsropmConfig nshil_config(unsigned colors) {
  MsropmConfig cfg = core::design_point_config(colors);
  cfg.network.shil_order = colors;
  cfg.shil_ramp = phase::GainRamp{0.0, 0.4};
  return cfg;
}

double best_accuracy(const graph::Graph& g, const MultiStagePottsMachine& machine,
                     std::uint64_t seeds) {
  double best = 0.0;
  for (std::uint64_t seed = 0; seed < seeds; ++seed) {
    util::Rng rng(seed);
    best = std::max(best, graph::coloring_accuracy(g, machine.solve(rng).colors));
  }
  return best;
}

TEST(NShilRopm, ProducesInRangeColors) {
  const auto g = graph::kings_graph(4, 4);
  MultiStagePottsMachine machine(g, nshil_config(4));
  util::Rng rng(1);
  const auto r = machine.solve(rng);
  EXPECT_EQ(r.colors.size(), 16u);
  for (auto c : r.colors) EXPECT_LT(c, 4);
}

TEST(NShilRopm, LockResidualSmall) {
  const auto g = graph::kings_graph(4, 4);
  MultiStagePottsMachine machine(g, nshil_config(4));
  util::Rng rng(2);
  const auto r = machine.solve(rng);
  ASSERT_EQ(r.stages.size(), 1u);
  EXPECT_LT(r.stages[0].max_lock_residual, 0.5);
}

TEST(NShilRopm, ThreeColoringMode) {
  // The ICCAD'24 machine solves 3-coloring with 3rd-order SHIL.
  const auto g = graph::cycle_graph(9);  // 3-chromatic
  MultiStagePottsMachine machine(g, nshil_config(3));
  EXPECT_GE(best_accuracy(g, machine, 10), 0.85);
}

TEST(NShilRopm, SolvesBipartiteWith2Shil) {
  const auto g = graph::complete_bipartite_graph(5, 5);
  MultiStagePottsMachine machine(g, nshil_config(2));
  EXPECT_DOUBLE_EQ(best_accuracy(g, machine, 5), 1.0);
}

TEST(NShilRopm, ReasonableQualityOn4Coloring) {
  const auto g = graph::kings_graph_square(5);
  MultiStagePottsMachine machine(g, nshil_config(4));
  EXPECT_GE(best_accuracy(g, machine, 10), 0.8);
}

TEST(NShilRopm, TotalTimeSingleStage) {
  EXPECT_NEAR(nshil_config(4).total_time_s(), 30e-9, 1e-15);
}

TEST(NShilRopm, RejectsDegenerateColorCount) {
  // An order-1 SHIL locks nothing: N = 1 is not a machine.
  const auto g = graph::path_graph(2);
  EXPECT_THROW(MultiStagePottsMachine(g, nshil_config(1)), std::invalid_argument);
}

}  // namespace
