#include "msropm/analysis/experiments.hpp"

#include "msropm/graph/builders.hpp"

namespace msropm::analysis {

std::vector<PaperProblem> paper_problems() {
  return {
      PaperProblem{"49-node", 7, 49},
      PaperProblem{"400-node", 20, 400},
      PaperProblem{"1024-node", 32, 1024},
      PaperProblem{"2116-node", 46, 2116},
  };
}

graph::Graph build_paper_graph(const PaperProblem& p) {
  return graph::kings_graph_square(p.side);
}

core::MsropmConfig default_machine_config() {
  return core::design_point_config();
}

double maxcut_accuracy(std::size_t achieved_cut, std::size_t reference_cut) {
  if (reference_cut == 0) return 1.0;
  return static_cast<double>(achieved_cut) / static_cast<double>(reference_cut);
}

}  // namespace msropm::analysis
