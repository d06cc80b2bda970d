// Workload paper_table1: the paper's headline experiment. The four Table 1
// King's instances (7x7, 20x20, 32x32, 46x46) at K = 4, each run through
// core::run_iterations with 40 iterations and the runner's default batch
// size on bench_threads() workers. A job is one instance's best-of-40 run.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "msropm/analysis/experiments.hpp"
#include "msropm/core/machine.hpp"
#include "msropm/core/runner.hpp"
#include "msropm/graph/coloring.hpp"
#include "msropm/phase/batch.hpp"

namespace perfbench {
namespace {

using namespace msropm;

constexpr std::size_t kIterations = 40;
// Paper Table 1, "Top accuracy" column, in paper_problems() order.
constexpr double kPaperTopAccuracy[] = {1.00, 0.98, 0.97, 0.97};

struct Instance {
  std::string label;  // "n49", ...
  std::unique_ptr<graph::Graph> graph;
  std::unique_ptr<core::MultiStagePottsMachine> machine;
};

std::vector<Instance> build_instances(const core::MsropmConfig& config) {
  std::vector<Instance> out;
  for (const auto& p : analysis::paper_problems()) {
    Instance inst;
    inst.label = std::to_string(p.nodes);
    inst.label.insert(0, 1, 'n');
    inst.graph = std::make_unique<graph::Graph>(analysis::build_paper_graph(p));
    inst.machine = std::make_unique<core::MultiStagePottsMachine>(*inst.graph, config);
    out.push_back(std::move(inst));
  }
  return out;
}

core::RunnerOptions runner_options(std::uint64_t seed, unsigned threads) {
  core::RunnerOptions opts;  // default batch size
  opts.iterations = kIterations;
  opts.seed = seed;
  opts.num_threads = threads;
  return opts;
}

/// Every check the workload makes on one best-of-40 run. Returns an empty
/// string when the run is correct, else what failed.
std::string check_summary(const core::RunSummary& s, const graph::Graph& g,
                          unsigned colors) {
  if (s.cancelled || s.completed != kIterations || s.iterations.size() != kIterations) {
    return "did not complete all 40 iterations";
  }
  double best = 0.0;
  std::size_t exact = 0;
  for (const auto& it : s.iterations) {
    const auto& c = it.result.colors;
    if (c.size() != g.num_nodes()) return "coloring has the wrong size";
    if (std::any_of(c.begin(), c.end(), [&](graph::Color x) { return x >= colors; })) {
      return "coloring uses a color outside the palette";
    }
    const double acc = graph::coloring_accuracy(g, c);
    if (acc != it.coloring_accuracy) return "reported accuracy disagrees with coloring";
    best = std::max(best, acc);
    if (acc >= 1.0) ++exact;
  }
  if (best != s.best_accuracy || exact != s.exact_solutions) {
    return "summary disagrees with its iterations";
  }
  if (graph::is_proper_coloring(g, s.best_coloring(), colors) != (best >= 1.0)) {
    return "best coloring's properness disagrees with its accuracy";
  }
  return {};
}

/// Per-instance quality of one pass; equal across passes (deterministic).
struct Quality {
  double best = 0.0;
  double mean = 0.0;
  std::size_t exact = 0;
  friend bool operator==(const Quality&, const Quality&) = default;
};

/// Time stage windows of one solve_batch call through the observer only.
struct StageSplit {
  double init_s = 0.0, anneal_s = 0.0, lock_s = 0.0, readout_reinit_s = 0.0;
  double final_readout_s = 0.0, solve_batch_s = 0.0;
  [[nodiscard]] double sum() const {
    return init_s + anneal_s + lock_s + readout_reinit_s + final_readout_s;
  }
};

StageSplit stage_split(const core::MultiStagePottsMachine& machine, std::uint64_t seed,
                       std::size_t replicas, Report& rep) {
  std::vector<util::Rng> rngs;
  for (std::size_t r = 0; r < replicas; ++r) rngs.emplace_back(derive_seed(seed, r));
  StageSplit s;
  auto last = Clock::now();
  const auto start = last;
  bool unknown_label = false;
  const core::BatchStageObserver observer = [&](unsigned, const char* label,
                                                const phase::PhaseBatch&) {
    const auto now = Clock::now();
    const double dt = std::chrono::duration<double>(now - last).count();
    last = now;
    const std::string l = label;
    if (l == "init") {
      s.init_s += dt;
    } else if (l == "anneal") {
      s.anneal_s += dt;
    } else if (l == "lock") {
      s.lock_s += dt;
    } else if (l == "reinit") {
      s.readout_reinit_s += dt;
    } else {
      unknown_label = true;
    }
  };
  const auto results = machine.solve_batch(rngs, observer);
  const auto end = Clock::now();
  s.final_readout_s = std::chrono::duration<double>(end - last).count();
  s.solve_batch_s = std::chrono::duration<double>(end - start).count();
  if (unknown_label) rep.fail("solve_batch observer reported an unknown stage label");
  if (results.size() != replicas) rep.fail("solve_batch returned the wrong replica count");
  if (std::abs(s.sum() - s.solve_batch_s) > 1e-9 * std::max(1.0, s.solve_batch_s)) {
    rep.fail("msropm stage intervals do not add up to the solve_batch wall");
  }
  return s;
}

/// Wall per oscillator-step of a direct PhaseBatch::run over one anneal
/// window (couplings on, SHIL off), median of `reps` windows.
double phase_ns_per_osc_step(const graph::Graph& g, phase::NetworkParams params,
                             std::size_t replicas, double window_s, std::uint64_t seed) {
  phase::PhaseBatch batch(g, params, replicas);
  std::vector<util::Rng> rngs;
  for (std::size_t r = 0; r < replicas; ++r) {
    rngs.emplace_back(derive_seed(seed, 100 + r));
    batch.set_uniform_coupling(r, -1.0);
    batch.set_couplings_active(r, true);
    batch.set_shil_active(r, false);
    batch.randomize_phases(r, rngs[r]);
  }
  const double steps = std::round(window_s / params.dt);
  std::vector<double> ns;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    batch.run(window_s, rngs);
    ns.push_back(seconds_since(t0) * 1e9 /
                 (steps * static_cast<double>(replicas * g.num_nodes())));
  }
  return median(ns);
}

}  // namespace

void run_paper_table1(const Args& args, Report& rep) {
  const unsigned threads = bench_threads();
  rep.set_threads(threads);
  const core::MsropmConfig config = analysis::default_machine_config();
  const std::uint64_t seed = derive_seed(args.seed, 1);
  const unsigned colors = config.num_colors;
  const double steps_per_iter = std::round(config.total_time_s() / config.network.dt);

  // --- setup: graphs + machines, repeated for a stable median -------------
  std::vector<Instance> instances;
  const double setup_s =
      median_setup_s(101, [&] { instances = build_instances(config); });
  double osc_steps_per_pass = 0.0;
  for (const auto& inst : instances) {
    osc_steps_per_pass += static_cast<double>(kIterations * inst.graph->num_nodes()) *
                          steps_per_iter;
  }

  std::vector<Quality> reference;  // pass 0's quality, which later passes must match
  std::vector<core::RunSummary> traced_summaries(instances.size());
  JobSamples samples;                          // untraced passes
  std::vector<std::vector<double>> traced_ms;  // traced passes
  auto pass = [&](bool traced) {
    std::vector<double> ms;
    std::vector<double> cpu_ms;
    std::vector<Quality> quality;
    for (std::size_t i = 0; i < instances.size(); ++i) {
      const auto& inst = instances[i];
      const double cpu0 = process_cpu_s();
      const auto t0 = Clock::now();
      auto summary = core::run_iterations(*inst.machine, runner_options(seed, threads));
      ms.push_back(seconds_since(t0) * 1e3);
      cpu_ms.push_back((process_cpu_s() - cpu0) * 1e3);
      const std::string err = check_summary(summary, *inst.graph, colors);
      rep.job(err.empty(), inst.label + ": " + err);
      quality.push_back({summary.best_accuracy, summary.mean_accuracy,
                         summary.exact_solutions});
      if (traced) traced_summaries[i] = std::move(summary);
    }
    if (reference.empty()) {
      reference = quality;
    } else if (quality != reference) {
      rep.fail("quality differs between passes of the same seed");
    }
    if (traced) {
      traced_ms.push_back(std::move(ms));
    } else {
      samples.wall_ms.push_back(std::move(ms));
      samples.cpu_ms.push_back(std::move(cpu_ms));
    }
  };

  if (!args.trace) {
    const auto passes = timed_passes(args.seconds, pass);
    const double wall_s = report_end_to_end(rep, setup_s, passes, samples);
    rep.info("osc_steps_per_s", osc_steps_per_pass / wall_s, "1/s");
  } else {
    // Traced passes keep the summaries and the per-call wall around each
    // run_iterations that feed the runner and msropm rows.
    measure_trace_overhead(rep, 2, pass);
    const std::vector<double> runner_ms = per_job_min(traced_ms);

    // graph: construction of the four King's graphs alone.
    rep.layer("graph.build_s", median_setup_s(15, [] {
                for (const auto& p : analysis::paper_problems()) {
                  (void)analysis::build_paper_graph(p);
                }
              }));

    // runner: per-size wall (fastest traced pass) and best accuracy.
    double iters_to_best = 0.0;
    double cut_fraction = 0.0;
    double max_residual = 0.0;
    for (std::size_t i = 0; i < instances.size(); ++i) {
      const auto& s = traced_summaries[i];
      rep.layer("runner.wall_s." + instances[i].label, runner_ms[i] / 1e3);
      rep.layer("runner.best_accuracy." + instances[i].label, s.best_accuracy);
      iters_to_best += static_cast<double>(s.best_index + 1);
      double cuts = 0.0;
      for (const auto& it : s.iterations) {
        cuts += static_cast<double>(it.stage1_cut);
        for (const auto& st : it.result.stages) {
          max_residual = std::max(max_residual, st.max_lock_residual);
        }
      }
      cut_fraction += cuts / static_cast<double>(s.iterations.size() *
                                                 instances[i].graph->num_edges());
    }
    const double sizes = static_cast<double>(instances.size());
    rep.layer("msropm.iters_to_best", iters_to_best / sizes);
    rep.layer("msropm.stage1_cut_fraction", cut_fraction / sizes);
    rep.layer("msropm.max_lock_residual", max_residual);

    // Parallel efficiency on the 1024-node instance: one worker vs all.
    const std::size_t mid = 2;
    const auto t1 = Clock::now();
    const auto serial = core::run_iterations(*instances[mid].machine, runner_options(seed, 1));
    const double serial_s = seconds_since(t1);
    if (!(Quality{serial.best_accuracy, serial.mean_accuracy, serial.exact_solutions} ==
          reference[mid])) {
      rep.fail("single-thread run disagrees with the multi-thread run");
    }
    rep.layer("runner.parallel_efficiency",
              serial_s / (static_cast<double>(threads) * runner_ms[mid] / 1e3));
    // Windows of batch_size iterations handed to min(threads, windows) workers.
    const auto opts = runner_options(seed, threads);
    const double windows = std::ceil(static_cast<double>(kIterations) /
                                     static_cast<double>(opts.batch_size));
    const double workers = std::min(static_cast<double>(threads), windows);
    rep.layer("runner.window_imbalance", std::ceil(windows / workers) / (windows / workers));

    // msropm: stage split of one default-size batch on the 2116-node graph.
    const auto& big = instances.back();
    const StageSplit split = stage_split(*big.machine, seed, opts.batch_size, rep);
    rep.layer("msropm.init_s", split.init_s);
    rep.layer("msropm.anneal_s", split.anneal_s);
    rep.layer("msropm.lock_s", split.lock_s);
    rep.layer("msropm.readout_reinit_s", split.readout_reinit_s);
    rep.layer("msropm.final_readout_s", split.final_readout_s);
    rep.layer("msropm.solve_batch_s", split.solve_batch_s);

    // phase: per oscillator-step cost of each window kind, from the split.
    const double n = static_cast<double>(big.graph->num_nodes());
    const double r = static_cast<double>(opts.batch_size);
    const double stages = static_cast<double>(config.num_stages());
    const double dt = config.network.dt;
    const auto steps = [&](double window_s) { return std::round(window_s / dt); };
    rep.layer("phase.ns_per_osc_step.anneal",
              split.anneal_s * 1e9 / (r * n * steps(config.schedule.anneal_s) * stages));
    rep.layer("phase.ns_per_osc_step.lock",
              split.lock_s * 1e9 / (r * n * steps(config.schedule.discretize_s) * stages));
    rep.layer("phase.ns_per_osc_step.reinit",
              split.readout_reinit_s * 1e9 /
                  (r * n * steps(config.schedule.reinit_s) * (stages - 1.0)));

    // phase: direct PhaseBatch::run with the tuned physics, noise on / off.
    phase::NetworkParams noiseless = config.network;
    noiseless.noise_stddev = 0.0;
    const double noisy_ns = phase_ns_per_osc_step(*big.graph, config.network,
                                                  opts.batch_size, config.schedule.anneal_s, seed);
    const double quiet_ns = phase_ns_per_osc_step(*big.graph, noiseless, opts.batch_size,
                                                  config.schedule.anneal_s, seed);
    rep.layer("phase.ns_per_osc_step.noisy", noisy_ns);
    rep.layer("phase.ns_per_osc_step.noiseless", quiet_ns);
    rep.layer("phase.noise_share", 1.0 - quiet_ns / noisy_ns);
    // Computed (not measured) bytes per Euler oscillator-step from the
    // PhaseBatch array sizes: per node the CSR offset (4 B), theta read +
    // write (16 B), sin/cos written and read back (32 B) and detune (8 B);
    // per adjacency entry the neighbor id (4 B), fused weight (8 B) and the
    // neighbor's sin and cos (16 B).
    const double degree = 2.0 * static_cast<double>(big.graph->num_edges()) / n;
    rep.layer("phase.computed_bytes_per_osc_step", 60.0 + 28.0 * degree);
  }

  // Table 1 quality and paper-fidelity rows (information, not a gate).
  double best_sum = 0.0;
  double mean_sum = 0.0;
  double exact = 0.0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const std::string& label = instances[i].label;
    best_sum += reference[i].best;
    mean_sum += reference[i].mean;
    exact += static_cast<double>(reference[i].exact);
    rep.info("fidelity.best_accuracy." + label, reference[i].best, "fraction");
    rep.info("fidelity.paper_accuracy." + label, kPaperTopAccuracy[i], "fraction");
    rep.info("fidelity.deviation." + label, reference[i].best - kPaperTopAccuracy[i],
             "fraction");
    std::fprintf(stderr, "paper_table1 %-6s best %.4f (paper %.2f, %+.4f) mean %.4f exact %zu/40\n",
                 label.c_str(), reference[i].best, kPaperTopAccuracy[i],
                 reference[i].best - kPaperTopAccuracy[i], reference[i].mean,
                 reference[i].exact);
  }
  const double sizes = static_cast<double>(std::max<std::size_t>(1, reference.size()));
  rep.info("best_accuracy_mean", best_sum / sizes, "fraction");
  rep.info("mean_accuracy", mean_sum / sizes, "fraction");
  rep.info("exact_solutions", exact, "count");
}

}  // namespace perfbench
