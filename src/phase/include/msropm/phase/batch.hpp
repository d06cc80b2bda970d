#pragma once
// Phase-domain model of the coupled-ROSC fabric, integrated as a batch of
// independent replicas.
//
// Each ring oscillator reduces (Adler / Kuramoto reduction, the standard
// model of the OIM literature the paper builds on [6], [24]) to a single
// phase theta_i in the frame rotating at the free-running frequency
// f0 = 1.3 GHz:
//
//   dtheta_i/dt = d_i
//                 - Kc * sum_j J_ij * m_ij * sin(theta_i - theta_j)
//                 - Ks(t) * e_i * sin(order * (theta_i - psi_i))
//                 + sigma * xi_i(t)
//
//   d_i    : frequency detune (0 for matched oscillators)
//   J_ij   : per-edge coupling sign/weight; B2B inverters give J = -1
//   m_ij   : P_EN edge mask (1 = coupling on)
//   Kc     : coupling gain [rad/s]
//   Ks(t)  : SHIL injection gain [rad/s], possibly ramped
//   e_i    : per-oscillator SHIL enable (SHIL_EN & MUX)
//   psi_i  : per-oscillator SHIL phase offset (SHIL_SEL); order-2 SHIL locks
//            theta_i at {psi_i, psi_i + pi}
//   order  : sub-harmonic order (2 for the MSROPM; the ICCAD'24 ROPM [14]
//            uses order N directly)
//   xi     : unit white noise modeling oscillator jitter
//
// This is gradient flow on
//   E = - sum_ij J_ij m_ij cos(theta_i - theta_j)
//       - (Ks/order) sum_i e_i cos(order (theta_i - psi_i))
// scaled by Kc, so trajectories descend the (vector Potts) energy landscape.
// Integrators: Euler-Maruyama (stochastic, default) and RK4 (deterministic
// drift, for convergence tests).
//
// The paper's headline experiments are best-of-40 Monte-Carlo sweeps over the
// SAME graph: every iteration re-integrates the identical coupling network
// with nothing but a different RNG stream. PhaseBatch owns R replicas x N
// oscillators in flat contiguous arrays (`theta[r*N + i]`) and steps ALL
// replicas per call, so the graph is traversed once per batch instead of once
// per trajectory:
//
//   * The graph is converted ONCE into a CSR neighbor structure (per-node
//     adjacency with the edge id of each entry). The derivative is a gather /
//     accumulate per node -- no edge-list scatter, no per-edge mask branch:
//
//       sum_j J_ij m_ij sin(theta_i - theta_j)
//         = sin_i * sum_j w_ij cos_j  -  cos_i * sum_j w_ij sin_j
//
//     Each replica keeps a sliced-ELL copy of that CSR holding only its
//     P_EN-live entries (mask on), with fused weights w_ij = Kc * J_ij,
//     rebuilt lazily when a replica's couplings or mask change (once per
//     MSROPM stage). Slice s holds nodes 4s..4s+3; their live entries are
//     stored column-major, entry t of lane c at base[s] + 4t + c, so the
//     walk advances four independent accumulator chains (two lanes per
//     two-wide vector, element-wise the same IEEE operations) instead of one
//     dependent chain per node. A slice is as long as its longest live
//     row; shorter rows are padded with (neighbor = the node itself,
//     weight = +0.0). The last slice is short when N is not a multiple of 4:
//     its missing lanes are phantom nodes N..4S-1 whose sin/cos stay 0 and
//     whose sums are discarded.
//
//     Within a node the live entries keep the structural CSR order, so each
//     node sums exactly what a full walk would minus terms whose product is
//     an exact zero (cut entries and pads). That is bit-identical to walking
//     them: each accumulator starts at +0.0, and in round-to-nearest a sum
//     that starts at +0.0 is never -0.0, so adding (+-0.0) * cos_j never
//     changes it -- provided the phases (hence sin/cos) are finite; a NaN
//     or inf phase would have turned 0 * cos_j into NaN in the full walk.
//     A pad reads the node's own sin/cos, so a non-finite phase still
//     reaches exactly the node itself and its live neighbors: the node's
//     own result is already NaN through sin_i / cos_i.
//   * One sincos pass per replica-step fills the per-node sin/cos buffers;
//     the order-2 SHIL term reuses them through the double-angle identity
//     (other orders fall back to std::sin).
//   * One Rng::fill_normal block per noisy replica-step draws the N jitter
//     values before the node loop (same draws as N normal() calls).
//   * Per-replica edge masks, SHIL enables/phases, levels, and detune live as
//     SoA slices because replicas diverge after each stage readout.
//
// Determinism contract: replica r of a batch only ever reads replica-r state
// and rngs[r], with the identical per-replica instruction sequence at every
// batch width -- so a batch-of-R run is bit-identical to R batch-of-1 runs
// (hard-gated by tests/core_batch_equivalence_test.cpp). A single trajectory
// is a PhaseBatch of one replica: MultiStagePottsMachine::solve() is
// solve_batch() over one replica and solvers::NShilRopm steps a batch of one,
// so every caller shares this single implementation.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "msropm/graph/graph.hpp"
#include "msropm/util/rng.hpp"
#include "msropm/util/stop_token.hpp"

namespace msropm::phase {

/// Integration scheme used by run(). Euler-Maruyama is the paper's default;
/// RK4 integrates the drift with a 4th-order step (noise, when enabled, is
/// still added Euler-Maruyama style after the deterministic substep).
enum class Integrator : std::uint8_t { kEulerMaruyama, kRk4 };

/// Static parameters of a phase-domain simulation.
struct NetworkParams {
  double natural_frequency_hz = 1.3e9;  ///< paper Sec. 3.3 (reporting only)
  double coupling_gain = 8.0e8;         ///< Kc [rad/s]
  double shil_gain = 1.2e9;             ///< Ks at full strength [rad/s]
  unsigned shil_order = 2;              ///< 2 for MSROPM
  double noise_stddev = 1.5e3;          ///< sigma [rad/sqrt(s)]
  /// Process-variation model: per-oscillator free-running frequency offsets
  /// are drawn i.i.d. normal with this stddev [Hz] at machine init (0 =
  /// matched oscillators, the paper's nominal simulation).
  double frequency_mismatch_stddev_hz = 0.0;
  double dt = 1.0e-11;                  ///< integration step [s]
  Integrator integrator = Integrator::kEulerMaruyama;
};

/// Piecewise-linear gain envelope for SHIL ramp-in during a window.
struct GainRamp {
  double start_fraction = 0.0;  ///< ramp start within the window [0,1]
  double end_fraction = 0.3;    ///< full strength from here on
  [[nodiscard]] double value(double t_fraction) const noexcept;
};

class PhaseBatch {
 public:
  PhaseBatch(const graph::Graph& g, NetworkParams params,
             std::size_t num_replicas);

  [[nodiscard]] const graph::Graph& graph() const noexcept { return *graph_; }
  [[nodiscard]] const NetworkParams& params() const noexcept { return params_; }
  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] std::size_t num_replicas() const noexcept { return r_; }

  // --- state (replica r) -------------------------------------------------
  [[nodiscard]] std::span<const double> phases(std::size_t r) const {
    check_replica(r);
    return {theta_.data() + r * n_, n_};
  }
  void set_phases(std::size_t r, std::span<const double> phases);
  /// Random uniform phases in [0, 2pi): the paper's random initialization.
  void randomize_phases(std::size_t r, util::Rng& rng);
  /// Random normal perturbation of current phases (strength in rad).
  void perturb_phases(std::size_t r, util::Rng& rng, double stddev_rad);
  /// Phases of replica r wrapped into [0, 2pi).
  [[nodiscard]] std::vector<double> wrapped_phases(std::size_t r) const;

  // --- couplings (B2B / P_EN / L_EN) -------------------------------------
  void set_uniform_coupling(std::size_t r, double j);
  void set_edge_couplings(std::size_t r, std::span<const double> per_edge_j);
  void set_edge_mask(std::size_t r, std::span<const std::uint8_t> mask);
  void enable_all_edges(std::size_t r);
  void disable_all_edges(std::size_t r);
  [[nodiscard]] std::span<const std::uint8_t> edge_mask(std::size_t r) const {
    check_replica(r);
    return {edge_mask_.data() + r * m_, m_};
  }
  /// Global coupling enable (G_EN for B2B blocks).
  void set_couplings_active(std::size_t r, bool active) {
    check_replica(r);
    couplings_active_[r] = active ? 1 : 0;
  }
  [[nodiscard]] bool couplings_active(std::size_t r) const {
    check_replica(r);
    return couplings_active_[r] != 0;
  }

  // --- SHIL (SHIL_EN / SHIL_SEL) ------------------------------------------
  void set_shil_active(std::size_t r, bool active) {
    check_replica(r);
    shil_active_[r] = active ? 1 : 0;
  }
  [[nodiscard]] bool shil_active(std::size_t r) const {
    check_replica(r);
    return shil_active_[r] != 0;
  }
  void set_shil_enable(std::size_t r, std::span<const std::uint8_t> per_osc);
  void enable_all_shil(std::size_t r);
  void set_shil_phases(std::size_t r, std::span<const double> psi);
  void set_uniform_shil_phase(std::size_t r, double psi);
  [[nodiscard]] std::span<const double> shil_phases(std::size_t r) const {
    check_replica(r);
    return {shil_phase_.data() + r * n_, n_};
  }
  /// Instantaneous SHIL gain multiplier in [0,1] (ramp support).
  void set_shil_level(std::size_t r, double level);
  [[nodiscard]] double shil_level(std::size_t r) const {
    check_replica(r);
    return shil_level_[r];
  }

  // --- detune (oscillator mismatch) ---------------------------------------
  void set_detune(std::size_t r, std::span<const double> detune_rad_per_s);
  void clear_detune(std::size_t r);

  // --- dynamics ------------------------------------------------------------
  /// d(theta)/dt of replica r evaluated at `theta` under replica-r masks and
  /// gains. `theta` and `dtheta` must have size() elements.
  void derivative(std::size_t r, std::span<const double> theta,
                  std::span<double> dtheta) const;

  /// One Euler-Maruyama step of params.dt for every replica; rngs[r] supplies
  /// replica r's jitter (rngs.size() must equal num_replicas()).
  void step(std::span<util::Rng> rngs);
  /// One deterministic RK4 step of params.dt for every replica (noise off).
  void step_rk4();

  /// Integrate every replica for a duration [s] with params.integrator (a
  /// non-positive duration is a no-op; a NaN or infinite one throws
  /// std::invalid_argument). An optional ramp shapes the SHIL level across
  /// the window (scaling each replica's level set on entry); an optional
  /// observer is invoked after each step with the elapsed window time. An
  /// optional stop token is polled every 32 steps (along with the `step`
  /// fault site): when it fires the window ends early — state is a valid
  /// trajectory prefix, ramp levels are restored, and the batch stays fully
  /// usable — and run() returns false. A null/never-firing token changes
  /// nothing (bit-identical trajectories, the core determinism gate).
  bool run(double duration, std::span<util::Rng> rngs,
           const GainRamp* shil_ramp = nullptr,
           const std::function<void(double, const PhaseBatch&)>& observer = {},
           const util::StopToken* stop = nullptr);

  /// Replica r's energy E(theta) under its active mask (excludes SHIL term).
  [[nodiscard]] double coupling_energy(std::size_t r) const;
  /// Replica r's SHIL pinning energy term.
  [[nodiscard]] double shil_energy(std::size_t r) const;

 private:
  /// Nodes per slice of the sliced-ELL gather (the SIMD-friendly lane count
  /// of the four independent accumulator chains).
  static constexpr std::size_t kSliceLanes = 4;

  void check_replica(std::size_t r) const;
  /// Rebuild replica r's P_EN-live slices from the structural CSR, j_ and
  /// edge_mask_.
  void rebuild_slices(std::size_t r) const;
  /// Fill coupling_[i] with node i's coupling term
  /// sum_j w_ij sin(theta_i - theta_j) over replica r's live entries, from
  /// the sin_/cos_ snapshot (rebuilding the slices first if r is dirty). The
  /// one gather loop of the class.
  void gather_coupling(std::size_t r) const;
  void refresh_trig(const double* theta) const;
  void refresh_shil_trig(std::size_t r);
  /// The per-replica derivative kernel; theta/dtheta point at n_ doubles.
  void derivative_into(std::size_t r, const double* theta, double* dtheta) const;
  void euler_step_replica(std::size_t r, util::Rng& rng, double noise_scale);
  void rk4_step_replica(std::size_t r);

  const graph::Graph* graph_;
  NetworkParams params_;
  std::size_t n_ = 0;  ///< oscillators per replica
  std::size_t m_ = 0;  ///< edges
  std::size_t r_ = 0;  ///< replicas

  // CSR neighbor structure: structural, shared by all replicas, read only by
  // rebuild_slices. Entry k in [csr_offsets_[i], csr_offsets_[i+1]) is
  // neighbor csr_neighbor_[k] via edge csr_edge_[k].
  std::vector<std::uint32_t> csr_offsets_;   // n+1
  std::vector<std::uint32_t> csr_neighbor_;  // 2m
  std::vector<std::uint32_t> csr_edge_;      // 2m

  // Per-replica SoA state. Slice r of an N-array is [r*n_, (r+1)*n_), of an
  // M-array [r*m_, (r+1)*m_).
  std::vector<double> theta_;              // R*N
  std::vector<double> j_;                  // R*M
  std::vector<std::uint8_t> edge_mask_;    // R*M
  std::vector<std::uint8_t> shil_enable_;  // R*N
  std::vector<double> shil_phase_;         // R*N
  std::vector<double> shil_sin_;           // R*N: sin(order * psi)
  std::vector<double> shil_cos_;           // R*N: cos(order * psi)
  std::vector<double> detune_;             // R*N
  std::vector<std::uint8_t> couplings_active_;  // R
  std::vector<std::uint8_t> shil_active_;       // R
  std::vector<double> shil_level_;              // R

  // Per-replica P_EN-live sliced ELL, rebuilt lazily from the structural
  // CSR, j_ and edge_mask_ (mutable: derivative() is logically const and
  // rebuilds on first use). Replica r's slice s owns entries
  // [slice_base_[r*(S+1) + s], slice_base_[r*(S+1) + s + 1]) of the
  // slice_capacity_-entry slice r of slice_neighbor_ / slice_weight_
  // (w = Kc * J, pads w = +0.0), packed as a prefix. The capacity is the
  // all-live padded size, so a rebuild never allocates.
  std::size_t slices_ = 0;          ///< S = ceil(N / kSliceLanes)
  std::size_t slice_capacity_ = 0;  ///< entries per replica, all live
  mutable std::vector<std::uint32_t> slice_base_;      // R*(S+1)
  mutable std::vector<std::uint32_t> slice_neighbor_;  // R*capacity
  mutable std::vector<double> slice_weight_;           // R*capacity
  mutable std::vector<std::uint8_t> weights_dirty_;    // R

  // Per-node scratch (mutable: derivative() is logically const). Fully
  // rewritten before each per-replica use, so no state leaks across
  // replicas; sin_/cos_/coupling_ span the 4S slice lanes, and the phantom
  // lanes' sin/cos stay 0. All sized at construction, so the step kernels
  // never allocate.
  mutable std::vector<double> sin_, cos_, coupling_;
  mutable std::vector<double> k1_, k2_, k3_, k4_, tmp_;
  // SHIL levels saved across a ramped run() window.
  std::vector<double> saved_level_;  // R
  // One replica-step of N(0,1) jitter plus Rng::fill_normal's workspace.
  std::vector<double> noise_;          // N
  std::vector<double> noise_scratch_;  // Rng::normal_scratch_size(N)
};

/// Wrap an angle into [0, 2pi).
[[nodiscard]] double wrap_angle(double theta) noexcept;

/// Smallest absolute angular distance between two angles (in [0, pi]).
[[nodiscard]] double angular_distance(double a, double b) noexcept;

}  // namespace msropm::phase
