// Tests for the phase-domain oscillator dynamics on a single trajectory (a
// PhaseBatch of one replica): gradient-flow correctness, coupling behaviour,
// SHIL binarization, masks and integrators.
#include "msropm/phase/batch.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "msropm/graph/builders.hpp"
#include "msropm/model/ising.hpp"
#include "msropm/phase/lock.hpp"
#include "msropm/util/rng.hpp"

namespace {

using namespace msropm;
using phase::angular_distance;
using phase::PhaseBatch;
using phase::wrap_angle;

using Phases = std::vector<double>;
using Flags = std::vector<std::uint8_t>;

constexpr double kPi = std::numbers::pi;

phase::NetworkParams quiet_params() {
  phase::NetworkParams p;
  p.coupling_gain = 8.0e8;
  p.shil_gain = 1.6e9;
  p.noise_stddev = 0.0;  // deterministic unless a test wants jitter
  p.dt = 1.0e-11;
  return p;
}

TEST(WrapAngle, MapsIntoPrincipalRange) {
  EXPECT_NEAR(wrap_angle(0.0), 0.0, 1e-15);
  EXPECT_NEAR(wrap_angle(2.0 * kPi), 0.0, 1e-12);
  EXPECT_NEAR(wrap_angle(-kPi / 2), 1.5 * kPi, 1e-12);
  EXPECT_NEAR(wrap_angle(5.0 * kPi), kPi, 1e-12);
}

TEST(AngularDistance, ShortestArc) {
  EXPECT_NEAR(angular_distance(0.0, kPi / 2), kPi / 2, 1e-12);
  EXPECT_NEAR(angular_distance(0.1, 2.0 * kPi - 0.1), 0.2, 1e-12);
  EXPECT_NEAR(angular_distance(kPi, -kPi), 0.0, 1e-12);
}

TEST(GainRamp, PiecewiseLinearEnvelope) {
  const phase::GainRamp ramp{0.2, 0.6};
  EXPECT_DOUBLE_EQ(ramp.value(0.0), 0.0);
  EXPECT_DOUBLE_EQ(ramp.value(0.2), 0.0);
  EXPECT_NEAR(ramp.value(0.4), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(ramp.value(0.6), 1.0);
  EXPECT_DOUBLE_EQ(ramp.value(1.0), 1.0);
}

TEST(PhaseDynamics, TwoAntiferromagneticOscillatorsAntiAlign) {
  const auto g = graph::path_graph(2);
  PhaseBatch batch(g, quiet_params(), 1);
  batch.set_uniform_coupling(0, -1.0);  // B2B inverter
  batch.set_couplings_active(0, true);
  batch.set_phases(0, Phases{0.0, 0.7});
  util::Rng rng(1);
  batch.run(20e-9, {&rng, 1});
  const auto th = batch.phases(0);
  EXPECT_NEAR(angular_distance(th[0], th[1]), kPi, 0.02)
      << "negative coupling must push ROSCs out of phase (paper Fig. 1)";
}

TEST(PhaseDynamics, FerromagneticCouplingAligns) {
  const auto g = graph::path_graph(2);
  PhaseBatch batch(g, quiet_params(), 1);
  batch.set_uniform_coupling(0, +1.0);
  batch.set_couplings_active(0, true);
  batch.set_phases(0, Phases{0.0, 2.0});
  util::Rng rng(1);
  batch.run(20e-9, {&rng, 1});
  const auto th = batch.phases(0);
  EXPECT_NEAR(angular_distance(th[0], th[1]), 0.0, 0.02);
}

TEST(PhaseDynamics, DerivativeIsNegativeEnergyGradient) {
  // Finite-difference check of theta_dot = -Kc * dE/dtheta on a frustrated
  // graph with mixed couplings.
  const auto g = graph::cycle_graph(5);
  auto params = quiet_params();
  PhaseBatch batch(g, params, 1);
  batch.set_edge_couplings(0, Phases{-1.0, 0.5, -0.7, 1.0, -0.3});
  batch.set_couplings_active(0, true);
  const Phases theta{0.3, 1.7, 4.0, 2.2, 5.5};
  batch.set_phases(0, theta);

  model::IsingModel ising(g, {-1.0, 0.5, -0.7, 1.0, -0.3});
  const double h = 1e-7;
  Phases dtheta(theta.size());
  batch.derivative(0, theta, dtheta);
  for (std::size_t i = 0; i < theta.size(); ++i) {
    auto plus = theta;
    auto minus = theta;
    plus[i] += h;
    minus[i] -= h;
    const double grad =
        (ising.phase_energy(plus) - ising.phase_energy(minus)) / (2.0 * h);
    EXPECT_NEAR(dtheta[i], -params.coupling_gain * grad,
                1e-4 * params.coupling_gain)
        << "node " << i;
  }
}

TEST(PhaseDynamics, EnergyDescendsWithoutNoise) {
  const auto g = graph::kings_graph(4, 4);
  PhaseBatch batch(g, quiet_params(), 1);
  batch.set_couplings_active(0, true);
  util::Rng rng(3);
  batch.randomize_phases(0, rng);
  double prev = batch.coupling_energy(0);
  for (int window = 0; window < 10; ++window) {
    batch.run(1e-9, {&rng, 1});
    const double now = batch.coupling_energy(0);
    EXPECT_LE(now, prev + 1e-6) << "gradient flow must not increase energy";
    prev = now;
  }
}

TEST(PhaseDynamics, ShilBinarizesToPsiLobes) {
  const auto g = graph::Graph(4);  // no couplings, SHIL only
  auto params = quiet_params();
  PhaseBatch batch(g, params, 1);
  batch.set_couplings_active(0, false);
  batch.set_shil_active(0, true);
  batch.set_uniform_shil_phase(0, 0.0);
  batch.set_phases(0, Phases{0.3, 2.9, 3.6, 6.0});
  util::Rng rng(5);
  batch.run(10e-9, {&rng, 1});
  const auto th = batch.phases(0);
  for (double t : th) {
    EXPECT_LT(phase::lock_residual(t, 0.0, 2), 0.01)
        << "order-2 SHIL must lock at {0, pi}";
  }
  // Initial phases closer to 0 go to 0; closer to pi go to pi.
  EXPECT_NEAR(angular_distance(th[0], 0.0), 0.0, 0.01);
  EXPECT_NEAR(angular_distance(th[1], kPi), 0.0, 0.01);
  EXPECT_NEAR(angular_distance(th[2], kPi), 0.0, 0.01);
  EXPECT_NEAR(angular_distance(th[3], 0.0), 0.0, 0.01);
}

class ShilPhaseShiftSweep : public ::testing::TestWithParam<double> {};

TEST_P(ShilPhaseShiftSweep, LockPointsFollowPsi) {
  // The paper's key mechanism (Fig. 2d): the binarized lobes track the SHIL
  // phase. SHIL 2 (psi = pi/2) locks at 90/270 deg.
  const double psi = GetParam();
  const auto g = graph::Graph(8);
  PhaseBatch batch(g, quiet_params(), 1);
  batch.set_shil_active(0, true);
  batch.set_uniform_shil_phase(0, psi);
  util::Rng rng(7);
  batch.randomize_phases(0, rng);
  batch.run(10e-9, {&rng, 1});
  for (double th : batch.phases(0)) {
    EXPECT_LT(phase::lock_residual(th, psi, 2), 0.01) << "psi = " << psi;
  }
}

INSTANTIATE_TEST_SUITE_P(Offsets, ShilPhaseShiftSweep,
                         ::testing::Values(0.0, kPi / 4, kPi / 2, 0.9, kPi,
                                           1.5 * kPi));

class ShilOrderSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(ShilOrderSweep, OrderNShilLocksAtNPoints) {
  // Higher-order SHIL (the ICCAD'24 ROPM mechanism) pins at N spots.
  const unsigned order = GetParam();
  const auto g = graph::Graph(16);
  auto params = quiet_params();
  params.shil_order = order;
  PhaseBatch batch(g, params, 1);
  batch.set_shil_active(0, true);
  batch.set_uniform_shil_phase(0, 0.0);
  util::Rng rng(11);
  batch.randomize_phases(0, rng);
  batch.run(20e-9, {&rng, 1});
  for (double th : batch.phases(0)) {
    EXPECT_LT(phase::lock_residual(th, 0.0, order), 0.02) << "order " << order;
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, ShilOrderSweep, ::testing::Values(2u, 3u, 4u, 8u));

TEST(PhaseDynamics, EdgeMaskDisablesInteraction) {
  const auto g = graph::path_graph(2);
  PhaseBatch batch(g, quiet_params(), 1);
  batch.set_couplings_active(0, true);
  batch.set_edge_mask(0, Flags{0});
  batch.set_phases(0, Phases{0.0, 1.0});
  util::Rng rng(1);
  batch.run(10e-9, {&rng, 1});
  EXPECT_NEAR(batch.phases(0)[0], 0.0, 1e-9);
  EXPECT_NEAR(batch.phases(0)[1], 1.0, 1e-9);
}

TEST(PhaseDynamics, GlobalCouplingSwitch) {
  const auto g = graph::path_graph(2);
  PhaseBatch batch(g, quiet_params(), 1);
  batch.set_couplings_active(0, false);
  batch.set_phases(0, Phases{0.0, 1.0});
  util::Rng rng(1);
  batch.run(5e-9, {&rng, 1});
  EXPECT_NEAR(batch.phases(0)[1], 1.0, 1e-9);
}

TEST(PhaseDynamics, DetuneAdvancesPhase) {
  const auto g = graph::Graph(1);
  PhaseBatch batch(g, quiet_params(), 1);
  batch.set_couplings_active(0, false);
  batch.set_detune(0, Phases{2.0 * kPi * 1e8});  // 100 MHz offset
  batch.set_phases(0, Phases{0.0});
  util::Rng rng(1);
  batch.run(10e-9, {&rng, 1});
  EXPECT_NEAR(batch.phases(0)[0], 2.0 * kPi * 1e8 * 10e-9, 1e-3);
}

TEST(PhaseDynamics, NoiseAccumulatesDiffusively) {
  const auto g = graph::Graph(256);
  auto params = quiet_params();
  params.noise_stddev = 2.0e3;
  PhaseBatch batch(g, params, 1);
  batch.set_couplings_active(0, false);
  batch.set_phases(0, Phases(256, 0.0));
  util::Rng rng(13);
  const double duration = 10e-9;
  batch.run(duration, {&rng, 1});
  double var = 0.0;
  for (double th : batch.phases(0)) var += th * th;
  var /= 256.0;
  const double expected = params.noise_stddev * params.noise_stddev * duration;
  EXPECT_NEAR(var, expected, expected * 0.35);
}

TEST(PhaseDynamics, Rk4MatchesEulerInSmoothRegime) {
  const auto g = graph::cycle_graph(6);
  auto params = quiet_params();
  params.dt = 1e-12;
  PhaseBatch euler(g, params, 1);
  PhaseBatch rk4(g, params, 1);
  const Phases init{0.1, 1.0, 2.5, 4.0, 5.0, 0.7};
  euler.set_phases(0, init);
  rk4.set_phases(0, init);
  euler.set_couplings_active(0, true);
  rk4.set_couplings_active(0, true);
  util::Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    euler.step({&rng, 1});  // zero noise -> plain explicit Euler
    rk4.step_rk4();
  }
  for (std::size_t i = 0; i < init.size(); ++i) {
    EXPECT_NEAR(euler.phases(0)[i], rk4.phases(0)[i], 5e-3);
  }
}

TEST(PhaseDynamics, ShilLevelScalesPinning) {
  const auto g = graph::Graph(1);
  PhaseBatch batch(g, quiet_params(), 1);
  batch.set_shil_active(0, true);
  batch.set_uniform_shil_phase(0, 0.0);
  batch.set_phases(0, Phases{0.5});
  batch.set_shil_level(0, 0.0);
  util::Rng rng(1);
  batch.run(5e-9, {&rng, 1});
  EXPECT_NEAR(batch.phases(0)[0], 0.5, 1e-9) << "zero level = no SHIL force";
  batch.set_shil_level(0, 1.0);
  batch.run(5e-9, {&rng, 1});
  EXPECT_LT(phase::lock_residual(batch.phases(0)[0], 0.0, 2), 0.01);
}

TEST(PhaseDynamics, RunObserverSeesMonotoneTime) {
  const auto g = graph::Graph(2);
  PhaseBatch batch(g, quiet_params(), 1);
  util::Rng rng(1);
  double last = 0.0;
  std::size_t calls = 0;
  batch.run(1e-10, {&rng, 1}, nullptr, [&](double t, const PhaseBatch&) {
    EXPECT_GT(t, last);
    last = t;
    ++calls;
  });
  EXPECT_EQ(calls, 10u);  // 1e-10 / 1e-11
}

TEST(PhaseDynamics, ValidatesInputSizes) {
  const auto g = graph::path_graph(3);
  PhaseBatch batch(g, quiet_params(), 1);
  EXPECT_THROW(batch.set_phases(0, Phases{0.0}), std::invalid_argument);
  EXPECT_THROW(batch.set_edge_mask(0, Flags{1, 1, 1}), std::invalid_argument);
  EXPECT_THROW(batch.set_shil_phases(0, Phases{0.0}), std::invalid_argument);
  EXPECT_THROW(batch.set_edge_couplings(0, Phases{1.0}), std::invalid_argument);
  EXPECT_THROW(batch.set_detune(0, Phases{0.0}), std::invalid_argument);
  EXPECT_THROW(batch.set_shil_enable(0, Flags{1}), std::invalid_argument);
}

TEST(PhaseDynamics, PerOscillatorShilEnable) {
  const auto g = graph::Graph(2);
  PhaseBatch batch(g, quiet_params(), 1);
  batch.set_shil_active(0, true);
  batch.set_uniform_shil_phase(0, 0.0);
  batch.set_shil_enable(0, Flags{1, 0});
  batch.set_phases(0, Phases{0.8, 0.8});
  util::Rng rng(1);
  batch.run(10e-9, {&rng, 1});
  EXPECT_LT(phase::lock_residual(batch.phases(0)[0], 0.0, 2), 0.01);
  EXPECT_NEAR(batch.phases(0)[1], 0.8, 1e-9);
}

}  // namespace
