// Regenerates paper Table 1: "Statistics from the simulations".
//
//   Graph size | Search space | Iterations | Average power | Top accuracy
//
// for the four King's-graph instances (49 / 400 / 1024 / 2116 nodes) on the
// phase-domain MSROPM with the paper's 60 ns schedule. Each instance runs the
// paper's best-of-40 over a fixed list of seeds (7919 s + 3), so every
// accuracy is a sample rather than one draw. Power comes from the
// activity-based model (power/power_model.hpp); paper-reported values are
// printed alongside.
//
// This is the paper-fidelity gate. It emits bench_results/bench_table1.json
// (util::BenchJsonWriter) with one row per instance: the per-seed best and
// mean accuracies as sample arrays (plus the per-seed exact fraction on the
// 49-node row), the stage-1 cut fraction, the worst lock residual and the
// wall time. scripts/bench_diff.py judges the sample arrays against the
// committed reference with a one-sided Welch non-inferiority test, so a
// step-size, sampler or kernel change is accepted on solution quality, not
// bit-identity. Fig. 5(a) plots the accuracies of these same best-of-40
// runs, so its mean trace is covered too.
//
// Exit 1 when an instance's seed-mean top accuracy falls below what the
// paper prints for it (printed to 2 decimals, so below paper - 0.005).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "msropm/analysis/experiments.hpp"
#include "msropm/core/runner.hpp"
#include "msropm/power/power_model.hpp"
#include "msropm/util/bench_json.hpp"
#include "msropm/util/table.hpp"

using namespace msropm;

namespace {

constexpr std::size_t kIterations = 40;

// Seeds per instance, sized so that a change of equal quality passes the
// non-inferiority rule (99% one-sided Welch bound of new - reference above
// -margin) with ~99% probability: that needs margin >= (t + z)·σ·sqrt(2/n)
// ~ 4.7·σ·sqrt(2/n), σ being the per-seed spread at the reference. With the
// reference's σ: n49's exact fraction (a count over 40 iterations, σ 0.089
// against a 0.05 margin) needs n >= 141 and its mean accuracy (σ 0.0048
// against 0.005) n >= 41; n400's best accuracy (σ 0.0036) n >= 23; n1024
// and n2116 (σ <= 0.0017) n >= 6. The small rows are also the cheap ones.
constexpr std::size_t kSeeds[] = {160, 40, 10, 10};

std::uint64_t seed_for(std::size_t s) { return 7919 * s + 3; }

double mean_of(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

}  // namespace

int main() {
  std::printf("=== Table 1: Statistics from the simulations ===\n");
  std::printf("(best-of-%zu per seed, seeds 7919 s + 3, 60 ns schedule)\n\n",
              kIterations);

  const double paper_power_mw[] = {9.4, 60.3, 146.1, 283.4};
  const double paper_top_acc[] = {1.00, 0.98, 0.97, 0.97};
  const char* labels[] = {"n49", "n400", "n1024", "n2116"};

  util::TextTable table({"Graph size", "Search space", "Iterations", "Seeds",
                         "Avg power (model)", "Avg power (paper)",
                         "Top accuracy", "Top acc (paper)", "Mean acc",
                         "Exact solutions"});
  util::BenchJsonWriter json("bench_table1");
  json.meta("iterations", static_cast<double>(kIterations));

  const power::PowerModel power_model;
  bool below_paper = false;
  std::size_t row = 0;
  for (const auto& problem : analysis::paper_problems()) {
    const auto g = analysis::build_paper_graph(problem);
    const core::MultiStagePottsMachine machine(g, analysis::default_machine_config());

    const std::size_t seeds = kSeeds[row];
    std::vector<double> best(seeds), mean(seeds), exact(seeds);
    std::size_t exact_total = 0;
    double cut_fraction = 0.0;
    double max_residual = 0.0;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t s = 0; s < seeds; ++s) {
      core::RunnerOptions opts;
      opts.iterations = kIterations;
      opts.seed = seed_for(s);
      const auto summary = core::run_iterations(machine, opts);
      best[s] = summary.best_accuracy;
      mean[s] = summary.mean_accuracy;
      exact[s] = static_cast<double>(summary.exact_solutions) /
                 static_cast<double>(kIterations);
      exact_total += summary.exact_solutions;
      for (const auto& it : summary.iterations) {
        cut_fraction += static_cast<double>(it.stage1_cut) /
                        static_cast<double>(g.num_edges());
        for (const auto& stage : it.result.stages) {
          max_residual = std::max(max_residual, stage.max_lock_residual);
        }
      }
    }
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    cut_fraction /= static_cast<double>(seeds * kIterations);

    const double top = mean_of(best);
    if (top < paper_top_acc[row] - 0.005) below_paper = true;

    json.begin_row(labels[row]);
    json.metric("best_accuracy", top);
    json.metric("best_accuracy_samples", best);
    json.metric("mean_accuracy", mean_of(mean));
    json.metric("mean_accuracy_samples", mean);
    if (row == 0) {  // only the 49-node instance is solved exactly at all
      json.metric("exact_fraction", mean_of(exact));
      json.metric("exact_fraction_samples", exact);
    }
    json.metric("seeds", static_cast<std::uint64_t>(seeds));
    json.metric("exact_solutions", static_cast<std::uint64_t>(exact_total));
    json.metric("stage1_cut_fraction", cut_fraction);
    json.metric("max_lock_residual", max_residual);
    json.metric("paper_top_accuracy", paper_top_acc[row]);
    json.metric("wall_ms", wall_ms);

    const double power_mw =
        power_model.average_power_w(g.num_nodes(), g.num_edges()) * 1e3;
    table.add_row({problem.name,
                   util::format_pow(4, g.num_nodes()),
                   std::to_string(kIterations),
                   std::to_string(seeds),
                   util::format_double(power_mw, 1) + " mW",
                   util::format_double(paper_power_mw[row], 1) + " mW",
                   util::format_double(top, 3),
                   util::format_double(paper_top_acc[row], 2),
                   util::format_double(mean_of(mean), 3),
                   std::to_string(exact_total) + "/" +
                       std::to_string(seeds * kIterations)});
    ++row;
  }

  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Notes: search space 4^N as in the paper; top and mean accuracy are\n"
      "averaged over the seeds; power from the CV^2f model calibrated on the\n"
      "49- and 2116-node rows (400/1024 are predictions); a complete run is\n"
      "60 ns regardless of problem size.\n");
  const std::string path = json.write();
  if (!path.empty()) std::printf("wrote %s\n", path.c_str());
  if (below_paper) {
    std::fprintf(stderr,
                 "bench_table1: FAIL: a seed-mean top accuracy is below the "
                 "paper's printed value\n");
    return 1;
  }
  return 0;
}
