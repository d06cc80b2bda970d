#include "instances.hpp"

#include <algorithm>

#include "msropm/graph/builders.hpp"
#include "msropm/sat/incremental_coloring.hpp"
#include "msropm/util/rng.hpp"

namespace perfbench {

using namespace msropm;

std::vector<Instance> kings_family(std::size_t count, std::size_t min_side,
                                   std::size_t side_span, std::size_t jitter,
                                   std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Instance> out;
  out.reserve(count);
  const auto j_max = static_cast<std::int64_t>(jitter);
  for (std::size_t j = 0; j < count; ++j) {
    const std::size_t rows = min_side + j % side_span;
    const std::int64_t cols = std::max<std::int64_t>(
        2, static_cast<std::int64_t>(rows) + rng.uniform_int(-j_max, j_max));
    out.push_back({"kings",
                   std::make_unique<graph::Graph>(
                       graph::kings_graph(rows, static_cast<std::size_t>(cols))),
                   0});
  }
  return out;
}

std::vector<Instance> gnp_family(std::size_t count, std::size_t min_n, std::size_t n_span,
                                 double avg_degree, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Instance> out;
  out.reserve(count);
  for (std::size_t j = 0; j < count; ++j) {
    const std::size_t n = min_n + j % n_span;
    const double p = avg_degree / static_cast<double>(n - 1);
    out.push_back({"gnp", std::make_unique<graph::Graph>(graph::erdos_renyi(n, p, rng)), 0});
  }
  return out;
}

bool compute_references(std::vector<Instance>& instances, unsigned max_k) {
  sat::ChromaticSearchOptions from_scratch;
  from_scratch.incremental = false;
  from_scratch.presimplify = false;
  for (auto& inst : instances) {
    const graph::Graph& g = *inst.graph;
    if (inst.family == "kings") {
      // Grids of at least 2x2 contain a 4-clique and the 2x2 block pattern
      // 4-colors them; every generated grid has at least 2 rows and columns.
      inst.chromatic = 4;
      continue;
    }
    const auto out = sat::chromatic_search(g, max_k, from_scratch);
    if (!out.chromatic || out.incomplete) return false;
    inst.chromatic = *out.chromatic;
  }
  return true;
}

}  // namespace perfbench
