// Tests for the single-stage N-SHIL ROPM baseline (paper ref. [14]).
#include "msropm/solvers/nshil_ropm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "msropm/analysis/experiments.hpp"
#include "msropm/graph/builders.hpp"
#include "msropm/util/rng.hpp"

namespace {

using namespace msropm;
using solvers::NShilRopm;
using solvers::NShilRopmConfig;

NShilRopmConfig quick_config(unsigned colors) {
  NShilRopmConfig cfg;
  cfg.num_colors = colors;
  cfg.network = analysis::default_machine_config().network;
  return cfg;
}

TEST(NShilRopm, ProducesInRangeColors) {
  const auto g = graph::kings_graph(4, 4);
  NShilRopm machine(g, quick_config(4));
  util::Rng rng(1);
  const auto r = machine.solve(rng);
  EXPECT_EQ(r.colors.size(), 16u);
  for (auto c : r.colors) EXPECT_LT(c, 4);
}

TEST(NShilRopm, LockResidualSmall) {
  const auto g = graph::kings_graph(4, 4);
  NShilRopm machine(g, quick_config(4));
  util::Rng rng(2);
  const auto r = machine.solve(rng);
  EXPECT_LT(r.max_lock_residual, 0.5);
}

TEST(NShilRopm, ThreeColoringMode) {
  // The ICCAD'24 machine solves 3-coloring with 3rd-order SHIL.
  const auto g = graph::cycle_graph(9);  // 3-chromatic
  NShilRopm machine(g, quick_config(3));
  double best = 0.0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    util::Rng rng(seed);
    best = std::max(best, graph::coloring_accuracy(g, machine.solve(rng).colors));
  }
  EXPECT_GE(best, 0.85);
}

TEST(NShilRopm, SolvesBipartiteWith2Shil) {
  const auto g = graph::complete_bipartite_graph(5, 5);
  NShilRopm machine(g, quick_config(2));
  double best = 0.0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    util::Rng rng(seed);
    best = std::max(best, graph::coloring_accuracy(g, machine.solve(rng).colors));
  }
  EXPECT_DOUBLE_EQ(best, 1.0);
}

TEST(NShilRopm, ReasonableQualityOn4Coloring) {
  const auto g = graph::kings_graph_square(5);
  NShilRopm machine(g, quick_config(4));
  double best = 0.0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    util::Rng rng(seed);
    best = std::max(best, graph::coloring_accuracy(g, machine.solve(rng).colors));
  }
  EXPECT_GE(best, 0.8);
}

TEST(NShilRopm, TotalTimeSingleStage) {
  const auto cfg = quick_config(4);
  EXPECT_NEAR(cfg.total_time_s(), 30e-9, 1e-15);
}

TEST(NShilRopm, RejectsDegenerateColorCount) {
  const auto g = graph::path_graph(2);
  NShilRopmConfig bad = quick_config(1);
  EXPECT_THROW(NShilRopm(g, bad), std::invalid_argument);
}

TEST(NShilRopm, RejectsNonPositiveOrNonFiniteWindows) {
  const auto g = graph::path_graph(2);
  for (const double bad : {0.0, -1e-9, std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    for (double NShilRopmConfig::*window :
         {&NShilRopmConfig::init_s, &NShilRopmConfig::anneal_s,
          &NShilRopmConfig::lock_s}) {
      NShilRopmConfig cfg = quick_config(4);
      cfg.*window = bad;
      EXPECT_THROW(NShilRopm(g, cfg), std::invalid_argument) << bad;
    }
  }
}

TEST(NShilRopm, ConfigOverridesNetworkOrder) {
  const auto g = graph::path_graph(2);
  NShilRopm machine(g, quick_config(3));
  EXPECT_EQ(machine.config().network.shil_order, 3u);
}

}  // namespace
