// THE replica-independence gate: a MultiStagePottsMachine::solve_batch of R
// replicas must be bit-identical to R batches of one -- solve() calls
// consuming the same per-replica RNG streams -- in final colorings,
// per-stage bits/cuts/residuals, AND the full phase vectors at every stage
// boundary. A replica's trajectory may therefore never depend on the batch
// width or on its neighbours. Exercised across R in {1, 3, 40}, with and
// without jitter/mismatch, and for both integrators. Also gates
// core::run_iterations: summaries are invariant to batch_size and thread
// count, and the stop token truncates to a clean completed prefix.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "msropm/core/machine.hpp"
#include "msropm/core/runner.hpp"
#include "msropm/graph/builders.hpp"
#include "msropm/util/rng.hpp"
#include "msropm/util/stop_token.hpp"

namespace {

using namespace msropm;
using core::MsropmConfig;
using core::MsropmResult;
using core::MultiStagePottsMachine;

MsropmConfig machine_config(double noise, double mismatch_hz,
                            phase::Integrator integrator) {
  MsropmConfig config;
  config.num_colors = 4;
  config.schedule = core::StageSchedule::paper_default();
  config.network.coupling_gain = 8.0e8;
  config.network.shil_gain = 1.6e9;
  config.network.shil_order = 2;
  config.network.noise_stddev = noise;
  config.network.frequency_mismatch_stddev_hz = mismatch_hz;
  config.network.dt = 2.0e-11;
  config.network.integrator = integrator;
  config.shil_ramp = phase::GainRamp{0.0, 0.5};
  config.couplings_during_lock = true;
  return config;
}

/// Stage-boundary phase snapshots keyed by (stage, label) in callback order.
using Snapshots = std::vector<std::pair<std::string, std::vector<double>>>;

void expect_results_identical(const MsropmResult& a, const MsropmResult& b,
                              std::size_t replica) {
  ASSERT_EQ(a.colors.size(), b.colors.size());
  for (std::size_t i = 0; i < a.colors.size(); ++i) {
    ASSERT_EQ(a.colors[i], b.colors[i]) << "replica " << replica << " node " << i;
  }
  ASSERT_EQ(a.stages.size(), b.stages.size());
  for (std::size_t s = 0; s < a.stages.size(); ++s) {
    ASSERT_EQ(a.stages[s].bits, b.stages[s].bits) << "replica " << replica;
    ASSERT_EQ(a.stages[s].active_edges, b.stages[s].active_edges);
    ASSERT_EQ(a.stages[s].cut_edges, b.stages[s].cut_edges);
    // Bit-exact, not approximate: every replica must run the identical
    // instruction sequence at any batch width.
    ASSERT_EQ(a.stages[s].max_lock_residual, b.stages[s].max_lock_residual)
        << "replica " << replica << " stage " << s;
  }
  ASSERT_EQ(a.total_time_s, b.total_time_s);
}

void expect_batch_equals_singles(std::size_t replicas, double noise,
                                double mismatch_hz,
                                phase::Integrator integrator,
                                std::uint64_t seed) {
  const auto g = graph::kings_graph_square(7);  // the paper's 49-node fabric
  const MultiStagePottsMachine machine(
      g, machine_config(noise, mismatch_hz, integrator));

  // Reference: R independent solve() calls (batches of one), each capturing
  // its replica's phase vector at every stage boundary.
  std::vector<MsropmResult> single_results;
  std::vector<Snapshots> single_snaps(replicas);
  for (std::size_t r = 0; r < replicas; ++r) {
    util::Rng rng(seed + 17 * r);
    Snapshots& snaps = single_snaps[r];
    single_results.push_back(machine.solve(
        rng, [&snaps](unsigned stage, const char* label,
                      const phase::PhaseBatch& batch) {
          const auto theta = batch.phases(0);
          snaps.emplace_back(std::to_string(stage) + ":" + label,
                             std::vector<double>(theta.begin(), theta.end()));
        }));
  }

  // Batched run over the same streams.
  std::vector<util::Rng> rngs;
  for (std::size_t r = 0; r < replicas; ++r) rngs.emplace_back(seed + 17 * r);
  std::vector<Snapshots> batch_snaps(replicas);
  const std::vector<MsropmResult> batch_results = machine.solve_batch(
      rngs, [&batch_snaps](unsigned stage, const char* label,
                           const phase::PhaseBatch& batch) {
        for (std::size_t r = 0; r < batch.num_replicas(); ++r) {
          const auto theta = batch.phases(r);
          batch_snaps[r].emplace_back(
              std::to_string(stage) + ":" + label,
              std::vector<double>(theta.begin(), theta.end()));
        }
      });

  ASSERT_EQ(batch_results.size(), replicas);
  for (std::size_t r = 0; r < replicas; ++r) {
    expect_results_identical(single_results[r], batch_results[r], r);
    ASSERT_EQ(single_snaps[r].size(), batch_snaps[r].size());
    for (std::size_t k = 0; k < single_snaps[r].size(); ++k) {
      ASSERT_EQ(single_snaps[r][k].first, batch_snaps[r][k].first);
      const auto& ref = single_snaps[r][k].second;
      const auto& got = batch_snaps[r][k].second;
      ASSERT_EQ(ref.size(), got.size());
      for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(ref[i], got[i]) << "replica " << r << " boundary "
                                  << single_snaps[r][k].first << " node " << i;
      }
    }
  }
}

TEST(BatchEquivalence, BatchOfOneNoiseEuler) {
  expect_batch_equals_singles(1, 2.0e3, 0.0, phase::Integrator::kEulerMaruyama,
                             101);
}

TEST(BatchEquivalence, BatchOfThreeNoiseEuler) {
  expect_batch_equals_singles(3, 2.0e3, 0.0, phase::Integrator::kEulerMaruyama,
                             202);
}

TEST(BatchEquivalence, BatchOfFortyNoiseEuler) {
  expect_batch_equals_singles(40, 2.0e3, 0.0, phase::Integrator::kEulerMaruyama,
                             303);
}

TEST(BatchEquivalence, BatchOfThreeNoiselessEuler) {
  expect_batch_equals_singles(3, 0.0, 0.0, phase::Integrator::kEulerMaruyama,
                             404);
}

TEST(BatchEquivalence, BatchOfThreeMismatchEuler) {
  // Mismatch draws detune from each replica's stream BEFORE the initial
  // phases; the batch path must preserve that consumption order.
  expect_batch_equals_singles(3, 2.0e3, 2.0e6,
                             phase::Integrator::kEulerMaruyama, 505);
}

TEST(BatchEquivalence, BatchOfThreeNoiseRk4) {
  expect_batch_equals_singles(3, 2.0e3, 0.0, phase::Integrator::kRk4, 606);
}

TEST(BatchEquivalence, BatchOfThreeNoiselessRk4) {
  expect_batch_equals_singles(3, 0.0, 0.0, phase::Integrator::kRk4, 707);
}

// --- run_iterations invariance ---------------------------------------------

core::RunSummary run_with(const MultiStagePottsMachine& machine,
                          std::size_t batch_size, std::size_t threads,
                          std::size_t iterations = 12) {
  core::RunnerOptions options;
  options.iterations = iterations;
  options.seed = 99;
  options.batch_size = batch_size;
  options.num_threads = threads;
  return core::run_iterations(machine, options);
}

void expect_summaries_identical(const core::RunSummary& a,
                                const core::RunSummary& b) {
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    ASSERT_EQ(a.iterations[i].result.colors, b.iterations[i].result.colors);
    ASSERT_EQ(a.iterations[i].coloring_accuracy,
              b.iterations[i].coloring_accuracy);
    ASSERT_EQ(a.iterations[i].stage1_cut, b.iterations[i].stage1_cut);
  }
  ASSERT_EQ(a.best_index, b.best_index);
  ASSERT_EQ(a.best_accuracy, b.best_accuracy);
  ASSERT_EQ(a.mean_accuracy, b.mean_accuracy);
  ASSERT_EQ(a.worst_accuracy, b.worst_accuracy);
  ASSERT_EQ(a.exact_solutions, b.exact_solutions);
  ASSERT_EQ(a.completed, b.completed);
}

TEST(BatchEquivalence, RunIterationsInvariantToBatchSizeAndThreads) {
  const auto g = graph::kings_graph_square(5);
  const MultiStagePottsMachine machine(
      g, machine_config(2.0e3, 0.0, phase::Integrator::kEulerMaruyama));
  const core::RunSummary reference = run_with(machine, 1, 1);
  EXPECT_EQ(reference.completed, 12u);
  EXPECT_FALSE(reference.cancelled);
  expect_summaries_identical(reference, run_with(machine, 5, 1));
  expect_summaries_identical(reference, run_with(machine, 12, 1));
  expect_summaries_identical(reference, run_with(machine, 64, 1));
  expect_summaries_identical(reference, run_with(machine, 4, 3));
}

TEST(BatchEquivalence, RunIterationsBalancedWindowsInvariantToThreads) {
  // 13 iterations with batch_size 8 split into windows of 7+6 (1 thread),
  // 5+5+3 (3 threads) and 4+4+4+1 (4 threads): different partitions of the
  // index space, identical summaries.
  const auto g = graph::kings_graph_square(5);
  const MultiStagePottsMachine machine(
      g, machine_config(2.0e3, 0.0, phase::Integrator::kEulerMaruyama));
  const core::RunSummary reference = run_with(machine, 8, 1, 13);
  EXPECT_EQ(reference.completed, 13u);
  expect_summaries_identical(reference, run_with(machine, 8, 3, 13));
  expect_summaries_identical(reference, run_with(machine, 8, 4, 13));
}

TEST(BatchEquivalence, RunIterationsStopTokenTruncatesToPrefix) {
  const auto g = graph::kings_graph_square(5);
  const MultiStagePottsMachine machine(
      g, machine_config(2.0e3, 0.0, phase::Integrator::kEulerMaruyama));

  // Pre-tripped token: no iteration may run.
  util::StopSource source;
  source.request_stop();
  core::RunnerOptions options;
  options.iterations = 12;
  options.seed = 99;
  options.batch_size = 4;
  options.num_threads = 1;
  options.stop = source.token();
  const core::RunSummary none = core::run_iterations(machine, options);
  EXPECT_EQ(none.completed, 0u);
  EXPECT_TRUE(none.cancelled);
  EXPECT_TRUE(none.iterations.empty());
  EXPECT_EQ(none.mean_accuracy, 0.0);

  // An already-expired deadline behaves the same way.
  options.stop = util::StopToken::at_deadline(util::StopToken::Clock::now());
  const core::RunSummary expired = core::run_iterations(machine, options);
  EXPECT_EQ(expired.completed, 0u);
  EXPECT_TRUE(expired.cancelled);

  // An inert token completes everything; completed iterations match the
  // uncancelled reference prefix (iterations are keyed by (seed, index)).
  options.stop = util::StopToken();
  const core::RunSummary all = core::run_iterations(machine, options);
  EXPECT_EQ(all.completed, 12u);
  EXPECT_FALSE(all.cancelled);
  expect_summaries_identical(all, run_with(machine, 4, 1));
}

}  // namespace
