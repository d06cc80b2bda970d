#pragma once
// The Multi-Stage ROSC Potts Machine (MSROPM) -- the paper's contribution --
// running on the phase-domain engine.
//
// One control sequence executes the full divide-and-color flow of
// Sec. 3.2/Fig. 3 (solve_batch() is its only implementation; solve() is a
// batch of one replica). The SHIL order q is config.network.shil_order (2
// at the paper's design point), and a K = q^m coloring runs m = log_q K
// stages:
//
//   init       : random oscillator phases (random startup instants + jitter)
//   stage k:
//     anneal   : couplings on within each current group (P_EN masks edges
//                across groups), SHIL off -> the fabric self-anneals toward
//                the max-cut ground state of every group in parallel
//     lock     : per-group phase-shifted order-q SHIL ramps in and
//                discretizes each group's phases at psi_g + 2*pi*d/q
//     readout  : the lock point of each oscillator is latched as digit d_k
//                (hardware: DFF bank; here: nearest_lock_index). P_EN and
//                SHIL_SEL registers are updated from the readout
//     reinit   : SHIL and couplings released; phases re-randomize (5 ns of
//                free running; group memory lives in the digital registers,
//                NOT in the phases -- the compute-in-memory property)
//   final      : after m stages the accumulated digits identify one of K
//                equally spaced phases = the Potts spin / color
//
// The stage-k SHIL offsets follow shil_plan.hpp. The single-stage N-SHIL
// ROPM of the paper's ref. [14] (Table 2, Sec. 4.2) is the case m = 1:
// shil_order = num_colors = N, one init / anneal / lock pass and no reinit.
// Stage-1 with all couplings active is exactly a max-cut solve of the whole
// graph; its cut is reported for the Fig. 5(b) correlation study.

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "msropm/core/schedule.hpp"
#include "msropm/core/shil_plan.hpp"
#include "msropm/graph/coloring.hpp"
#include "msropm/graph/graph.hpp"
#include "msropm/model/maxcut.hpp"
#include "msropm/phase/batch.hpp"
#include "msropm/util/rng.hpp"

namespace msropm::core {

struct MsropmConfig {
  unsigned num_colors = 4;                  ///< power of shil_order in [2, 128]
  phase::NetworkParams network{};           ///< physics; shil_order = q
  StageSchedule schedule{};                 ///< paper 60 ns timing
  phase::GainRamp shil_ramp{0.0, 0.4};      ///< SHIL ramp within lock window
  /// Short SHIL-assisted settling also anneals couplings; keep couplings on
  /// during the lock window (matches Fig. 3 where couplings stay on).
  bool couplings_during_lock = true;

  [[nodiscard]] unsigned num_stages() const {
    return stages_for_colors(num_colors, network.shil_order);
  }
  [[nodiscard]] double total_time_s() const {
    return schedule.total_time_s(num_stages());
  }
};

/// The tuned physics design point at `num_colors` colors on the paper's
/// 60 ns schedule: coupling, SHIL and noise gains tuned once on the 49-node
/// King's instance and then frozen for every size, mirroring the paper's
/// fixed hardware. The one source of these values for every caller.
[[nodiscard]] MsropmConfig design_point_config(unsigned num_colors = 4);

/// Per-stage observable outcome.
struct StageOutcome {
  std::vector<std::uint8_t> bits;   ///< readout digit per oscillator
  std::size_t active_edges = 0;     ///< couplings enabled during the anneal
  std::size_t cut_edges = 0;        ///< of those, cut by this stage's readout
  double max_lock_residual = 0.0;   ///< worst distance to a lock point [rad]
};

/// Result of one complete MSROPM run.
struct MsropmResult {
  graph::Coloring colors;               ///< final color per node
  std::vector<StageOutcome> stages;     ///< one per stage
  double total_time_s = 0.0;            ///< schedule time (60 ns for 2 stages)

  /// Stage-1 bipartition (the max-cut solution of the full graph).
  [[nodiscard]] model::CutAssignment stage1_cut() const;
};

/// Called once per stage boundary (for tracing/visualization) with the stage
/// index (0 for init, then 1..m), the phase label, and the whole replica
/// batch (per-replica phases via batch.phases(r)).
using BatchStageObserver =
    std::function<void(unsigned, const char*, const phase::PhaseBatch&)>;

class MultiStagePottsMachine {
 public:
  MultiStagePottsMachine(const graph::Graph& g, MsropmConfig config);

  [[nodiscard]] const MsropmConfig& config() const noexcept { return config_; }
  [[nodiscard]] const graph::Graph& graph() const noexcept { return *graph_; }

  /// One full multi-stage run with the given RNG (initial phases + jitter):
  /// solve_batch() over a single replica, returning its result.
  [[nodiscard]] MsropmResult solve(
      util::Rng& rng, const BatchStageObserver& observer = {}) const;

  /// Drive rngs.size() independent Monte-Carlo replicas through the full
  /// anneal/lock/readout/reinit stage schedule SIMULTANEOUSLY on one
  /// phase::PhaseBatch: readouts and the P_EN/SHIL_SEL register updates are
  /// applied per replica between the shared integration windows. Replica r
  /// reads only rngs[r] and its own state, so its trajectory, per-stage bits,
  /// and final coloring do not depend on the batch width or on the other
  /// replicas: a batch of R is bit-identical to R batches of one (hard-gated
  /// by tests/core_batch_equivalence_test.cpp). Returns one result per
  /// replica.
  [[nodiscard]] std::vector<MsropmResult> solve_batch(
      std::span<util::Rng> rngs, const BatchStageObserver& observer = {}) const;

 private:
  const graph::Graph* graph_;
  MsropmConfig config_;
};

}  // namespace msropm::core
