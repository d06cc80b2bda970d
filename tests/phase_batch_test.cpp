// Tests for the batched SoA phase engine: replica isolation, bit-identity
// against independent batches of one, CSR derivative correctness,
// the P_EN-pruned sliced gather (slice tails, padding, NaN reach), energy
// identities, and argument validation. The full machine-level equivalence
// gate lives in core_batch_equivalence_test.cpp.
#include "msropm/phase/batch.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "msropm/graph/builders.hpp"
#include "msropm/util/rng.hpp"
#include "msropm/util/vecmath.hpp"

namespace {

using namespace msropm;
using phase::GainRamp;
using phase::Integrator;
using phase::NetworkParams;
using phase::PhaseBatch;

constexpr double kPi = std::numbers::pi;

NetworkParams tuned_params(double noise = 2.0e3) {
  NetworkParams p;
  p.coupling_gain = 8.0e8;
  p.shil_gain = 1.6e9;
  p.noise_stddev = noise;
  p.dt = 2.0e-11;
  return p;
}

/// Give slot `slot` of the batch replica r's diverged state: phases, mask,
/// SHIL setup and detune all keyed off the replica id r, so the same r can
/// be placed in a wide batch or in a batch of one.
void configure_replica(PhaseBatch& batch, std::size_t slot, std::size_t r,
                       std::uint64_t seed) {
  util::Rng rng(seed);
  batch.randomize_phases(slot, rng);

  const std::size_t m = batch.graph().num_edges();
  std::vector<std::uint8_t> mask(m, 1);
  for (std::size_t e = r % 3; e < m; e += 3) mask[e] = 0;
  batch.set_edge_mask(slot, mask);

  batch.set_uniform_coupling(slot, -1.0);
  batch.set_couplings_active(slot, true);

  std::vector<double> psi(batch.size());
  for (std::size_t i = 0; i < psi.size(); ++i) {
    psi[i] = (i + r) % 2 == 0 ? 0.0 : kPi / 2;
  }
  batch.set_shil_phases(slot, psi);
  batch.set_shil_active(slot, true);
  batch.set_shil_level(slot, 0.5 + 0.1 * static_cast<double>(r % 4));

  std::vector<double> detune(batch.size());
  for (std::size_t i = 0; i < detune.size(); ++i) {
    detune[i] = 1.0e6 * static_cast<double>((i + r) % 5);
  }
  batch.set_detune(slot, detune);
}

/// Batch-of-R stepping must be bit-identical to R independent batches of one
/// consuming the same per-replica RNG streams — for Euler (with noise), for
/// RK4, and through a ramped run() window.
void expect_batch_matches_serial(std::size_t replicas, Integrator integrator,
                                 double noise) {
  const auto g = graph::kings_graph_square(5);
  NetworkParams params = tuned_params(noise);
  params.integrator = integrator;

  PhaseBatch batch(g, params, replicas);
  std::vector<PhaseBatch> serial;
  serial.reserve(replicas);
  for (std::size_t r = 0; r < replicas; ++r) serial.emplace_back(g, params, 1);

  for (std::size_t r = 0; r < replicas; ++r) {
    configure_replica(batch, r, r, /*seed=*/1000 + 7 * r);
    configure_replica(serial[r], 0, r, /*seed=*/1000 + 7 * r);
  }

  std::vector<util::Rng> batch_rngs, serial_rngs;
  for (std::size_t r = 0; r < replicas; ++r) {
    batch_rngs.emplace_back(42 + r);
    serial_rngs.emplace_back(42 + r);
  }

  // Raw steps.
  for (int s = 0; s < 25; ++s) {
    batch.step(batch_rngs);
    for (std::size_t r = 0; r < replicas; ++r) {
      serial[r].step({&serial_rngs[r], 1});
    }
  }
  for (std::size_t r = 0; r < replicas; ++r) {
    const auto theta = batch.phases(r);
    const auto ref = serial[r].phases(0);
    for (std::size_t i = 0; i < theta.size(); ++i) {
      ASSERT_EQ(theta[i], ref[i]) << "replica " << r << " node " << i;
    }
  }

  // A ramped run() window (exercises the integrator dispatch + SHIL ramp).
  const GainRamp ramp{0.0, 0.5};
  const double duration = 40.0 * params.dt;
  batch.run(duration, batch_rngs, &ramp);
  for (std::size_t r = 0; r < replicas; ++r) {
    serial[r].run(duration, {&serial_rngs[r], 1}, &ramp);
  }
  for (std::size_t r = 0; r < replicas; ++r) {
    const auto theta = batch.phases(r);
    const auto ref = serial[r].phases(0);
    for (std::size_t i = 0; i < theta.size(); ++i) {
      ASSERT_EQ(theta[i], ref[i]) << "replica " << r << " node " << i;
    }
    ASSERT_EQ(batch.coupling_energy(r), serial[r].coupling_energy(0));
    ASSERT_EQ(batch.shil_energy(r), serial[r].shil_energy(0));
  }
}

TEST(PhaseBatch, BatchOfOneMatchesSerialEuler) {
  expect_batch_matches_serial(1, Integrator::kEulerMaruyama, 2.0e3);
}

TEST(PhaseBatch, BatchOfThreeMatchesSerialEuler) {
  expect_batch_matches_serial(3, Integrator::kEulerMaruyama, 2.0e3);
}

TEST(PhaseBatch, BatchOfFortyMatchesSerialEuler) {
  expect_batch_matches_serial(40, Integrator::kEulerMaruyama, 2.0e3);
}

TEST(PhaseBatch, BatchOfThreeMatchesSerialRk4NoiseFree) {
  expect_batch_matches_serial(3, Integrator::kRk4, 0.0);
}

TEST(PhaseBatch, BatchOfThreeMatchesSerialRk4WithNoise) {
  // RK4 drift + Euler-Maruyama noise: the noise draws must still line up
  // per replica.
  expect_batch_matches_serial(3, Integrator::kRk4, 2.0e3);
}

/// run() steps replicas in lockstep when a per-step observer is given and
/// replica-major otherwise; both loop orders must give bit-identical
/// trajectories, with and without a SHIL ramp.
TEST(PhaseBatch, LockstepMatchesReplicaMajorRun) {
  const auto g = graph::kings_graph_square(5);
  const NetworkParams params = tuned_params(2.0e3);
  constexpr std::size_t kReplicas = 3;
  PhaseBatch lockstep(g, params, kReplicas);
  for (std::size_t r = 0; r < kReplicas; ++r) {
    configure_replica(lockstep, r, r, /*seed=*/3000 + 7 * r);
  }
  PhaseBatch replica_major = lockstep;

  std::vector<util::Rng> lockstep_rngs, major_rngs;
  for (std::size_t r = 0; r < kReplicas; ++r) {
    lockstep_rngs.emplace_back(77 + r);
    major_rngs.emplace_back(77 + r);
  }
  const GainRamp ramp{0.0, 0.5};
  const double duration = 40.0 * params.dt;
  std::size_t observed_steps = 0;
  const auto count_steps = [&observed_steps](double, const PhaseBatch&) {
    ++observed_steps;
  };
  for (const GainRamp* shil_ramp : {static_cast<const GainRamp*>(nullptr),
                                    &ramp}) {
    lockstep.run(duration, lockstep_rngs, shil_ramp, count_steps);
    replica_major.run(duration, major_rngs, shil_ramp);
    for (std::size_t r = 0; r < kReplicas; ++r) {
      const auto a = lockstep.phases(r);
      const auto b = replica_major.phases(r);
      for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i], b[i]) << "ramp " << (shil_ramp != nullptr)
                              << " replica " << r << " node " << i;
      }
      ASSERT_EQ(lockstep_rngs[r].state(), major_rngs[r].state());
    }
  }
  EXPECT_EQ(observed_steps, 80u);
}

/// A noisy window of S steps draws exactly S*N normals from each replica's
/// stream, whichever kernel path the replica takes, so later consumers of
/// the stream (the reinit randomize_phases) stay aligned with N normal()
/// calls per step.
void expect_draw_count(std::size_t replicas, Integrator integrator) {
  const auto g = graph::kings_graph_square(5);  // N = 25: odd, so the pair
                                                // cache carries across steps
  NetworkParams params = tuned_params(2.0e3);
  params.integrator = integrator;
  PhaseBatch batch(g, params, replicas);
  util::Rng setup(5);
  for (std::size_t r = 0; r < replicas; ++r) {
    batch.randomize_phases(r, setup);
    // Cover the fused gather path (r % 3 != 2) and the no-trig path.
    batch.set_couplings_active(r, r % 3 == 0);
    batch.set_shil_active(r, r % 3 == 1);
  }
  std::vector<util::Rng> rngs;
  for (std::size_t r = 0; r < replicas; ++r) rngs.emplace_back(500 + r);

  constexpr std::size_t kSteps = 37;
  batch.run(static_cast<double>(kSteps) * params.dt, rngs);

  for (std::size_t r = 0; r < replicas; ++r) {
    util::Rng reference(500 + r);
    for (std::size_t k = 0; k < kSteps * batch.size(); ++k) {
      (void)reference.normal();
    }
    EXPECT_EQ(rngs[r].state(), reference.state()) << "replica " << r;
    const double want = reference.normal();
    EXPECT_NEAR(rngs[r].normal(), want, 1e-14 * std::fabs(want))
        << "replica " << r << ": pair cache out of step";
  }
}

TEST(PhaseBatch, NoisyEulerWindowDrawsNNormalsPerStep) {
  expect_draw_count(1, Integrator::kEulerMaruyama);
  expect_draw_count(3, Integrator::kEulerMaruyama);
}

TEST(PhaseBatch, NoisyRk4WindowDrawsNNormalsPerStep) {
  expect_draw_count(1, Integrator::kRk4);
  expect_draw_count(3, Integrator::kRk4);
}

TEST(PhaseBatch, DerivativeIsNegativeEnergyGradient) {
  // dtheta_i = -dE/dtheta_i (scaled by the gains folded into E): check the
  // CSR gather against a central finite difference of coupling_energy.
  const auto g = graph::kings_graph_square(3);
  NetworkParams params = tuned_params(0.0);
  PhaseBatch batch(g, params, 2);
  util::Rng rng(7);
  const std::size_t r = 1;  // non-zero replica: exercises slice offsets
  batch.randomize_phases(r, rng);
  batch.set_uniform_coupling(r, -1.0);
  batch.set_couplings_active(r, true);

  std::vector<double> theta(batch.phases(r).begin(), batch.phases(r).end());
  std::vector<double> dtheta(theta.size());
  batch.derivative(r, theta, dtheta);

  const double h = 1e-6;
  for (std::size_t i = 0; i < theta.size(); ++i) {
    std::vector<double> plus = theta, minus = theta;
    plus[i] += h;
    minus[i] -= h;
    batch.set_phases(r, plus);
    const double e_plus = batch.coupling_energy(r);
    batch.set_phases(r, minus);
    const double e_minus = batch.coupling_energy(r);
    const double grad = (e_plus - e_minus) / (2.0 * h);
    // coupling_energy omits the Kc scale; derivative applies it.
    EXPECT_NEAR(dtheta[i], -params.coupling_gain * grad,
                1e-4 * params.coupling_gain);
    batch.set_phases(r, theta);
  }
}

/// The gather walks only each replica's P_EN-live CSR entries. Cutting edges
/// from the mask must give, bit for bit, what a fully live mask with J = 0 on
/// the same edges gives (there the entries stay in the walk as exact-zero
/// weights): the derivative, a noisy Euler window and an RK4 window. The
/// mask goes cut -> all live -> cut between windows, so every lazy rebuild
/// is exercised. The derivative is also checked against a reference sum in
/// structural CSR order (ascending edge id per node), which pins the order
/// of the live entries, not just their set.
TEST(PhaseBatch, PrunedGatherMatchesZeroWeightEntries) {
  const auto g = graph::kings_graph_square(6);
  const std::size_t n = g.num_nodes();
  const std::size_t m = g.num_edges();
  const auto edges = g.edges();
  const NetworkParams params = tuned_params(2.0e3);
  constexpr std::size_t kPruned = 0;
  constexpr std::size_t kZeroed = 1;
  PhaseBatch batch(g, params, 2);

  // Stage-2-style P_EN: a random bipartition (a stage-1 readout bit per
  // node) cuts every edge whose endpoints land on different sides.
  util::Rng side_rng(11);
  std::vector<int> side(n);
  for (auto& b : side) b = side_rng.uniform_phase() < kPi ? 0 : 1;
  std::vector<std::uint8_t> cut_mask(m, 1);
  std::vector<double> j_live(m), j_zeroed(m);
  std::size_t cut = 0;
  for (std::size_t e = 0; e < m; ++e) {
    j_live[e] = -1.0 - 0.25 * static_cast<double>(e % 3);
    j_zeroed[e] = j_live[e];
    if (side[edges[e].u] != side[edges[e].v]) {
      cut_mask[e] = 0;
      j_zeroed[e] = 0.0;
      ++cut;
    }
  }
  ASSERT_GT(cut, 0u);
  ASSERT_LT(cut, m);

  util::Rng setup(21);
  batch.randomize_phases(kPruned, setup);
  batch.set_phases(kZeroed, batch.phases(kPruned));
  std::vector<double> psi(n), detune(n);
  for (std::size_t i = 0; i < n; ++i) {
    psi[i] = side[i] == 0 ? 0.0 : kPi / 2;
    detune[i] = 1.0e6 * static_cast<double>(i % 5);
  }
  for (const std::size_t r : {kPruned, kZeroed}) {
    batch.set_shil_phases(r, psi);
    batch.set_shil_active(r, true);
    batch.set_shil_level(r, 0.7);
    batch.set_detune(r, detune);
  }
  const auto apply_cut = [&] {
    batch.set_edge_mask(kPruned, cut_mask);
    batch.set_edge_couplings(kPruned, j_live);
    batch.enable_all_edges(kZeroed);
    batch.set_edge_couplings(kZeroed, j_zeroed);
  };
  const auto apply_all_live = [&] {
    batch.enable_all_edges(kPruned);
    batch.set_edge_couplings(kZeroed, j_live);
  };

  std::vector<double> d_pruned(n), d_zeroed(n);
  const auto expect_same_derivative = [&](const char* when) {
    batch.derivative(kPruned, batch.phases(kPruned), d_pruned);
    batch.derivative(kZeroed, batch.phases(kZeroed), d_zeroed);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(d_pruned[i], d_zeroed[i]) << when << " node " << i;
    }
  };
  const auto expect_same_phases = [&](const char* when) {
    const auto a = batch.phases(kPruned);
    const auto b = batch.phases(kZeroed);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(a[i], b[i]) << when << " node " << i;
    }
  };

  // Reference for the cut derivative with SHIL off: the same sin/cos pass
  // and per-node sums in structural order, skipping cut edges.
  const auto expect_structural_order = [&] {
    batch.set_shil_active(kPruned, false);
    const auto theta = batch.phases(kPruned);
    batch.derivative(kPruned, theta, d_pruned);
    batch.set_shil_active(kPruned, true);
    std::vector<double> s(n), c(n);
    util::detail::sincos_array(theta.data(), s.data(), c.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      double acc_cos = 0.0;
      double acc_sin = 0.0;
      for (std::size_t e = 0; e < m; ++e) {
        if (!cut_mask[e] || (edges[e].u != i && edges[e].v != i)) continue;
        const std::size_t j = edges[e].u == i ? edges[e].v : edges[e].u;
        const double w = params.coupling_gain * j_live[e];
        acc_cos += w * c[j];
        acc_sin += w * s[j];
      }
      double want = detune[i];
      want -= s[i] * acc_cos - c[i] * acc_sin;
      ASSERT_EQ(d_pruned[i], want) << "node " << i;
    }
  };

  std::vector<util::Rng> rngs{util::Rng(31), util::Rng(31)};
  const double duration = 40.0 * params.dt;
  const auto rk4_window = [&] {
    for (int s = 0; s < 40; ++s) batch.step_rk4();
  };

  apply_cut();
  expect_same_derivative("cut");
  expect_structural_order();
  batch.run(duration, rngs);
  expect_same_phases("cut, noisy Euler");

  apply_all_live();
  expect_same_derivative("all live");
  rk4_window();
  expect_same_phases("all live, RK4");

  apply_cut();
  expect_same_derivative("cut again");
  expect_structural_order();
  rk4_window();
  expect_same_phases("cut again, RK4");
  batch.run(duration, rngs);
  expect_same_phases("cut again, noisy Euler");
  ASSERT_EQ(rngs[kPruned].state(), rngs[kZeroed].state());
}

/// Test-side model of one replica's coupled drift with SHIL off: the same
/// sincos pass as the engine, then per node a sum from +0.0 over its live
/// edges in structural order (ascending edge id), with the engine's term
/// order. Anything the sliced gather adds beyond that must be an exact zero.
struct StructuralReference {
  const graph::Graph* g;
  std::vector<std::uint8_t> mask;
  std::vector<double> j;
  std::vector<double> detune;
  double kc;

  std::vector<double> derivative(const std::vector<double>& theta) const {
    const std::size_t n = theta.size();
    const auto edges = g->edges();
    std::vector<double> s(n), c(n), acc_cos(n, 0.0), acc_sin(n, 0.0);
    util::detail::sincos_array(theta.data(), s.data(), c.data(), n);
    // Edges are canonical (u < v, lexicographic), so visiting them in id
    // order visits each node's entries in its CSR order.
    for (std::size_t e = 0; e < edges.size(); ++e) {
      if (!mask[e]) continue;
      const double w = kc * j[e];
      for (const auto& [i, nb] : {std::pair{edges[e].u, edges[e].v},
                                 std::pair{edges[e].v, edges[e].u}}) {
        acc_cos[i] += w * c[nb];
        acc_sin[i] += w * s[nb];
      }
    }
    std::vector<double> d(n);
    for (std::size_t i = 0; i < n; ++i) {
      d[i] = detune[i];
      d[i] -= s[i] * acc_cos[i] - c[i] * acc_sin[i];
    }
    return d;
  }

  void euler_step(std::vector<double>& theta, util::Rng& rng,
                  const NetworkParams& p) const {
    const std::size_t n = theta.size();
    std::vector<double> noise(n), scratch(util::Rng::normal_scratch_size(n));
    rng.fill_normal(noise, scratch);
    const double noise_scale = p.noise_stddev * std::sqrt(p.dt);
    const auto d = derivative(theta);
    for (std::size_t i = 0; i < n; ++i) {
      theta[i] += d[i] * p.dt;
      theta[i] += noise_scale * noise[i];
    }
  }

  void rk4_step(std::vector<double>& theta, double dt) const {
    const std::size_t n = theta.size();
    std::vector<double> tmp(n);
    const auto k1 = derivative(theta);
    for (std::size_t i = 0; i < n; ++i) tmp[i] = theta[i] + 0.5 * dt * k1[i];
    const auto k2 = derivative(tmp);
    for (std::size_t i = 0; i < n; ++i) tmp[i] = theta[i] + 0.5 * dt * k2[i];
    const auto k3 = derivative(tmp);
    for (std::size_t i = 0; i < n; ++i) tmp[i] = theta[i] + dt * k3[i];
    const auto k4 = derivative(tmp);
    for (std::size_t i = 0; i < n; ++i) {
      theta[i] += dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
    }
  }
};

/// A stage-2-style P_EN mask: a seeded bipartition cuts every edge whose
/// endpoints land on different sides, and node `isolated` loses every edge.
std::vector<std::uint8_t> bipartition_mask(const graph::Graph& g,
                                           std::uint64_t seed,
                                           std::size_t isolated) {
  util::Rng rng(seed);
  std::vector<int> side(g.num_nodes());
  for (auto& b : side) b = rng.uniform_phase() < kPi ? 0 : 1;
  const auto edges = g.edges();
  std::vector<std::uint8_t> mask(edges.size(), 1);
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const bool touches = edges[e].u == isolated || edges[e].v == isolated;
    if (touches || side[edges[e].u] != side[edges[e].v]) mask[e] = 0;
  }
  return mask;
}

/// The gather packs 4 nodes per slice, so the node count modulo 4 decides
/// whether the last slice is short. On graphs with N mod 4 in {1, 2, 3}, a
/// hub whose row is far longer than its slice neighbours' rows
/// (K_{1,9}), and a node with every entry cut, each replica's derivative, a
/// noisy Euler window and an RK4 window must equal the structural-order
/// reference bit for bit.
TEST(PhaseBatch, SlicedGatherMatchesStructuralOrderAtSliceEdges) {
  const std::vector<graph::Graph> graphs = {
      graph::kings_graph(5, 5), graph::kings_graph(5, 6),
      graph::kings_graph(3, 5), graph::complete_bipartite_graph(1, 9)};
  const NetworkParams params = tuned_params(2.0e3);
  constexpr std::size_t kReplicas = 2;
  for (const graph::Graph& g : graphs) {
    const std::size_t n = g.num_nodes();
    const std::size_t m = g.num_edges();
    SCOPED_TRACE("n = " + std::to_string(n));
    PhaseBatch batch(g, params, kReplicas);
    std::vector<StructuralReference> ref;
    std::vector<std::vector<double>> theta;
    std::vector<util::Rng> rngs, ref_rngs;
    for (std::size_t r = 0; r < kReplicas; ++r) {
      // Replica 0 isolates the last node (in the tail slice), replica 1 a
      // node of the first slice -- the hub of K_{1,9}.
      StructuralReference rr{&g, bipartition_mask(g, 50 + r, r == 0 ? n - 1 : 0),
                             std::vector<double>(m), std::vector<double>(n),
                             params.coupling_gain};
      for (std::size_t e = 0; e < m; ++e) {
        rr.j[e] = -1.0 - 0.25 * static_cast<double>((e + r) % 3);
      }
      for (std::size_t i = 0; i < n; ++i) {
        rr.detune[i] = 1.0e6 * static_cast<double>((i + r) % 5);
      }
      batch.set_edge_mask(r, rr.mask);
      batch.set_edge_couplings(r, rr.j);
      batch.set_detune(r, rr.detune);
      util::Rng setup(60 + r);
      batch.randomize_phases(r, setup);
      theta.emplace_back(batch.phases(r).begin(), batch.phases(r).end());
      ref.push_back(std::move(rr));
      rngs.emplace_back(70 + r);
      ref_rngs.emplace_back(70 + r);
    }
    const auto expect_phases = [&](const char* when) {
      for (std::size_t r = 0; r < kReplicas; ++r) {
        const auto got = batch.phases(r);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(got[i], theta[r][i]) << when << " replica " << r << " node " << i;
        }
      }
    };

    std::vector<double> d(n);
    for (std::size_t r = 0; r < kReplicas; ++r) {
      batch.derivative(r, theta[r], d);
      const auto want = ref[r].derivative(theta[r]);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(d[i], want[i]) << "derivative replica " << r << " node " << i;
      }
    }

    constexpr int kSteps = 30;
    batch.run(kSteps * params.dt, rngs);
    for (std::size_t r = 0; r < kReplicas; ++r) {
      for (int s = 0; s < kSteps; ++s) ref[r].euler_step(theta[r], ref_rngs[r], params);
    }
    expect_phases("noisy Euler");

    for (int s = 0; s < kSteps; ++s) batch.step_rk4();
    for (std::size_t r = 0; r < kReplicas; ++r) {
      for (int s = 0; s < kSteps; ++s) ref[r].rk4_step(theta[r], params.dt);
    }
    expect_phases("RK4");
  }
}

/// Pads point at their own node, so a NaN phase on node v reaches, after one
/// Euler step, exactly v and v's P_EN-live neighbours -- the same set a walk
/// over only the live entries reaches. A pad aimed anywhere else would leak
/// the NaN into every node padded with it.
TEST(PhaseBatch, NonFinitePhaseReachesOnlyLiveNeighbors) {
  const auto g = graph::kings_graph(3, 5);
  const std::size_t n = g.num_nodes();
  const auto edges = g.edges();
  const auto mask = bipartition_mask(g, 80, n - 1);
  const NetworkParams params = tuned_params(2.0e3);
  PhaseBatch batch(g, params, 1);
  batch.set_edge_mask(0, mask);
  util::Rng setup(81);
  batch.randomize_phases(0, setup);
  const std::vector<double> start(batch.phases(0).begin(), batch.phases(0).end());
  for (std::size_t v = 0; v < n; ++v) {
    std::vector<std::uint8_t> want_nan(n, 0);
    want_nan[v] = 1;
    for (std::size_t e = 0; e < edges.size(); ++e) {
      if (!mask[e]) continue;
      if (edges[e].u == v) want_nan[edges[e].v] = 1;
      if (edges[e].v == v) want_nan[edges[e].u] = 1;
    }
    std::vector<double> theta = start;
    theta[v] = std::numeric_limits<double>::quiet_NaN();
    batch.set_phases(0, theta);
    util::Rng rng(82);
    batch.step({&rng, 1});
    const auto got = batch.phases(0);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(std::isnan(got[i]), want_nan[i] != 0)
          << "NaN on node " << v << ", node " << i;
    }
  }
}

TEST(PhaseBatch, ReplicaStateIsIsolated) {
  // Mutating replica 0 must not disturb replica 1's trajectory.
  const auto g = graph::kings_graph_square(4);
  PhaseBatch batch(g, tuned_params(0.0), 2);
  util::Rng rng(3);
  batch.randomize_phases(0, rng);
  batch.randomize_phases(1, rng);
  batch.set_uniform_coupling(0, -1.0);
  batch.set_uniform_coupling(1, -1.0);
  batch.set_couplings_active(0, true);
  batch.set_couplings_active(1, true);

  const std::vector<double> before(batch.phases(1).begin(),
                                   batch.phases(1).end());
  std::vector<util::Rng> rngs{util::Rng(1), util::Rng(2)};
  batch.step(rngs);
  const std::vector<double> after(batch.phases(1).begin(),
                                  batch.phases(1).end());

  // Re-run replica 1 alone from the same state; replica 0 gets a different
  // mask/coupling setup this time.
  PhaseBatch redo(g, tuned_params(0.0), 2);
  redo.set_phases(1, before);
  redo.set_uniform_coupling(1, -1.0);
  redo.set_couplings_active(1, true);
  redo.disable_all_edges(0);
  redo.set_shil_active(0, true);
  redo.set_uniform_shil_phase(0, 1.0);
  std::vector<util::Rng> redo_rngs{util::Rng(99), util::Rng(2)};
  redo.step(redo_rngs);
  const auto redo_after = redo.phases(1);
  for (std::size_t i = 0; i < redo_after.size(); ++i) {
    EXPECT_EQ(redo_after[i], after[i]);
  }
}

TEST(PhaseBatch, ValidatesArguments) {
  const auto g = graph::kings_graph_square(3);
  PhaseBatch batch(g, tuned_params(), 2);
  EXPECT_THROW(batch.set_phases(0, std::vector<double>(3)),
               std::invalid_argument);
  EXPECT_THROW(batch.set_edge_mask(
                   0, std::vector<std::uint8_t>(g.num_edges() + 1, 1)),
               std::invalid_argument);
  EXPECT_THROW(batch.set_shil_phases(1, std::vector<double>(1)),
               std::invalid_argument);
  EXPECT_THROW(batch.set_detune(0, std::vector<double>(2)),
               std::invalid_argument);
  std::vector<util::Rng> wrong(1, util::Rng(1));
  EXPECT_THROW(batch.step(wrong), std::invalid_argument);
  // A window length that is NaN or infinite has no step count.
  std::vector<util::Rng> rngs(2, util::Rng(1));
  EXPECT_THROW(batch.run(std::nan(""), rngs), std::invalid_argument);
  EXPECT_THROW(batch.run(std::numeric_limits<double>::infinity(), rngs),
               std::invalid_argument);
  EXPECT_THROW(batch.run(-std::numeric_limits<double>::infinity(), rngs),
               std::invalid_argument);
  EXPECT_THROW(PhaseBatch(g, tuned_params(), 0), std::invalid_argument);

  // Every per-replica accessor checks its index (the batch has replicas 0, 1).
  EXPECT_THROW((void)batch.phases(2), std::out_of_range);
  EXPECT_THROW((void)batch.edge_mask(2), std::out_of_range);
  EXPECT_THROW((void)batch.shil_phases(2), std::out_of_range);
  EXPECT_THROW(batch.set_couplings_active(2, true), std::out_of_range);
  EXPECT_THROW((void)batch.couplings_active(2), std::out_of_range);
  EXPECT_THROW(batch.set_shil_active(2, true), std::out_of_range);
  EXPECT_THROW((void)batch.shil_active(2), std::out_of_range);
  EXPECT_THROW(batch.set_shil_level(2, 0.5), std::out_of_range);
  EXPECT_THROW((void)batch.shil_level(2), std::out_of_range);
}

}  // namespace
