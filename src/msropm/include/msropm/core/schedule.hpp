#pragma once
// The MSROPM computation-cycle schedule (paper Sec. 4.1):
//
//   "The random initialization of the ROSC phases at startup and between two
//    stages is empirically set to last 5 ns ... The first (max-cut solving)
//    and second (4-coloring solving) coupled annealing stage free of SHIL
//    injection both last 20 ns ... 5 ns is allocated for stabilization and
//    phase-readout. A complete run of the MSROPM lasts 60 ns."
//
// Durations are fixed regardless of problem size -- the constant-time claim
// the paper inherits from OIM scaling arguments [6].

namespace msropm::core {

struct StageSchedule {
  double init_s = 5e-9;        ///< random initialization window
  double anneal_s = 20e-9;     ///< coupled self-annealing, SHIL off
  double discretize_s = 5e-9;  ///< SHIL injection, stabilization + readout
  double reinit_s = 5e-9;      ///< re-randomization between stages

  /// The paper's 60 ns two-stage schedule.
  [[nodiscard]] static StageSchedule paper_default() noexcept { return {}; }

  /// Total wall time of a run with the given number of stages:
  /// init + stages*(anneal + discretize) + (stages-1)*reinit.
  [[nodiscard]] double total_time_s(unsigned num_stages) const noexcept;

  /// Validity: all durations strictly positive and finite.
  [[nodiscard]] bool valid() const noexcept;
};

}  // namespace msropm::core
