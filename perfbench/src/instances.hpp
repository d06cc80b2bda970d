#pragma once
// Seeded instance families of the exact_chromatic and portfolio_race
// workloads, and the reference chromatic numbers their answers are checked
// against.
//
// Sizes are stratified (job j gets the j-th size of a fixed cycle) and the
// seed draws the rest — the King's aspect-ratio jitter and the G(n,p) edges —
// so every seed yields the same mix of sizes and the per-run totals stay
// comparable across seeds.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "msropm/graph/graph.hpp"

namespace perfbench {

struct Instance {
  std::string family;  ///< "kings" or "gnp"
  std::unique_ptr<msropm::graph::Graph> graph;
  unsigned chromatic = 0;  ///< reference chi; 0 until references are computed
};

/// `count` King's grids; job j has min_side + (j mod side_span) rows and the
/// seed jitters the column count by up to +-jitter (never below 2).
[[nodiscard]] std::vector<Instance> kings_family(std::size_t count, std::size_t min_side,
                                                 std::size_t side_span, std::size_t jitter,
                                                 std::uint64_t seed);

/// `count` Erdos-Renyi G(n, p) graphs with n = min_n + (j mod n_span) and
/// p = avg_degree / (n - 1), near the 4/5-colorability threshold.
[[nodiscard]] std::vector<Instance> gnp_family(std::size_t count, std::size_t min_n,
                                               std::size_t n_span, double avg_degree,
                                               std::uint64_t seed);

/// Fill Instance::chromatic. King's grids use the closed form (4 for grids of
/// at least 2x2); G(n,p) graphs use the from-scratch plain CDCL sweep, a
/// different code path from the incremental, presimplified product default.
/// Returns false when some reference could not be decided.
[[nodiscard]] bool compute_references(std::vector<Instance>& instances, unsigned max_k);

}  // namespace perfbench
