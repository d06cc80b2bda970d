// Ablation: multi-stage divide-and-color vs single-stage N-SHIL (the
// paper's Sec. 4.2 argument against the ROPM [14] mechanism: "The accuracy
// of the Potts machine [14] is lower than the MSROPM showing the handicap
// of the N-SHIL method").
//
// Both machines run on identical physics (same coupling gain, noise, total
// annealing budget) across instance sizes; only the discretization strategy
// differs: two cascaded order-2 SHIL stages vs one order-4 SHIL stage (the
// same MultiStagePottsMachine at shil_order = 4, which runs m = 1 stage).
// Both go through the best-of-N runner on the same seed.

#include <cstdio>

#include "msropm/analysis/experiments.hpp"
#include "msropm/core/runner.hpp"
#include "msropm/graph/builders.hpp"
#include "msropm/util/table.hpp"

using namespace msropm;

int main() {
  std::printf("=== Ablation: multi-stage (2x 2-SHIL) vs single-stage 4-SHIL ===\n");
  std::printf("(identical physics, 24 iterations per point, seed 7)\n\n");

  util::TextTable table({"instance", "MSROPM best", "MSROPM mean",
                         "4-SHIL best", "4-SHIL mean", "multi-stage gain"});

  for (std::size_t side : {7, 14, 20, 32}) {
    const auto g = graph::kings_graph_square(side);

    core::RunnerOptions opts;
    opts.iterations = 24;
    opts.seed = 7;

    // Multi-stage machine.
    core::MultiStagePottsMachine ms(g, analysis::default_machine_config());
    const auto ms_summary = core::run_iterations(ms, opts);

    // Single-stage 4-SHIL machine with a matched annealing budget (its one
    // anneal window gets both 20 ns windows of the two-stage flow) and the
    // [14]-style 0.4 SHIL ramp.
    auto cfg = analysis::default_machine_config();
    cfg.network.shil_order = 4;
    cfg.schedule.anneal_s = 40e-9;
    cfg.shil_ramp = phase::GainRamp{0.0, 0.4};
    core::MultiStagePottsMachine ss(g, cfg);
    const auto ss_summary = core::run_iterations(ss, opts);

    table.add_row({std::to_string(g.num_nodes()) + "-node",
                   util::format_double(ms_summary.best_accuracy, 3),
                   util::format_double(ms_summary.mean_accuracy, 3),
                   util::format_double(ss_summary.best_accuracy, 3),
                   util::format_double(ss_summary.mean_accuracy, 3),
                   util::format_double(
                       ms_summary.mean_accuracy - ss_summary.mean_accuracy, 3)});
  }

  std::printf("%s\n", table.render().c_str());
  std::printf("Expected shape: positive multi-stage gain at every size --\n"
              "cascaded binary discretization avoids the shallow lock basins\n"
              "of order-4 SHIL (the paper's Sec. 4.2 claim).\n");
  return 0;
}
