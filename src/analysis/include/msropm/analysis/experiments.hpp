#pragma once
// Shared experiment fixtures: the paper's benchmark instances and the tuned
// machine configuration every bench/test/example starts from. Keeping the
// physics tuning in one place makes the reproduction parameters auditable.

#include <cstddef>
#include <string>
#include <vector>

#include "msropm/core/machine.hpp"
#include "msropm/graph/graph.hpp"

namespace msropm::analysis {

/// One paper benchmark instance descriptor.
struct PaperProblem {
  std::string name;     // "49-node", ...
  std::size_t side;     // King's graph side length
  std::size_t nodes;    // side^2
};

/// The four Table-1 instances: 49 (7x7), 400 (20x20), 1024 (32x32),
/// 2116 (46x46) King's graphs with all edges active.
[[nodiscard]] std::vector<PaperProblem> paper_problems();

/// Build the King's-graph instance for a descriptor.
[[nodiscard]] graph::Graph build_paper_graph(const PaperProblem& p);

/// The tuned 4-coloring MSROPM configuration used throughout the
/// reproduction: core::design_point_config() (60 ns paper schedule;
/// coupling/SHIL/noise gains tuned once on the 49-node instance and then
/// frozen for all sizes, mirroring the paper's fixed design point).
[[nodiscard]] core::MsropmConfig default_machine_config();

/// Max-cut accuracy: achieved cut / reference cut (Fig. 5b normalization).
[[nodiscard]] double maxcut_accuracy(std::size_t achieved_cut,
                                     std::size_t reference_cut);

}  // namespace msropm::analysis
