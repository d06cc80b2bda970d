// Paired A/B throughput bench for the batched SoA phase engine.
//
// Three engines step the same 40-replica workload on ablation-sized King's
// fabrics (20x20 / 32x32 / 46x46) across the machine's stage regimes
// (anneal: couplings only + noise; anneal_stage2: the same under a
// stage-2 P_EN mask that leaves ~30% of the couplings live; lock: couplings
// + SHIL, with and without noise):
//
//   legacy  -- the pre-refactor PhaseNetwork inner loops (edge-scatter
//              derivative, per-edge mask branch, separate per-node
//              sin/cos/SHIL-sin calls), embedded below verbatim so the
//              baseline cannot silently drift as the live engine evolves.
//   batch1  -- 40 independent PhaseBatch(R=1) instances: what a
//              single-trajectory caller (solve()) runs.
//   batch40 -- one PhaseBatch(R=40) driven through run(), i.e. the
//              replica-major batched path used by solve_batch.
//
// Hard gates (exit 1 on violation, so CI tracks the property):
//   1. batch-of-1 is never slower than the legacy engine on any row
//      (small tolerance for timer jitter).
//   2. batch-of-40 reaches >= 2x legacy serial throughput on at least one
//      ablation-sized fabric.
//   3. batch-of-40 `lock` takes at most 1.5x `lock_noiseless` on every
//      fabric: the same steps with and without jitter, so this bounds what
//      the Euler-Maruyama noise draw adds to a step.
//
// Results land in bench_results/bench_phase_batch.json via BenchJsonWriter.
//
// Usage: bench_phase_batch [--csv]

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "msropm/graph/builders.hpp"
#include "msropm/graph/graph.hpp"
#include "msropm/phase/batch.hpp"
#include "msropm/util/bench_json.hpp"
#include "msropm/util/rng.hpp"
#include "msropm/util/table.hpp"

namespace {

using namespace msropm;

// ---------------------------------------------------------------------------
// The pre-refactor engine, frozen. Inner loops (refresh_trig / derivative /
// step) are copied verbatim from src/phase/network.cpp as it stood before
// the PhaseBatch rewrite: edge-scatter coupling with a per-edge mask branch
// and separate std::sin/std::cos calls per node per step.
// ---------------------------------------------------------------------------
class LegacyNetwork {
 public:
  LegacyNetwork(const graph::Graph& g, phase::NetworkParams params)
      : graph_(&g),
        params_(params),
        theta_(g.num_nodes(), 0.0),
        j_(g.num_edges(), -1.0),
        edge_mask_(g.num_edges(), 1),
        shil_enable_(g.num_nodes(), 1),
        shil_phase_(g.num_nodes(), 0.0),
        detune_(g.num_nodes(), 0.0),
        sin_(g.num_nodes(), 0.0),
        cos_(g.num_nodes(), 0.0) {}

  void randomize_phases(util::Rng& rng) {
    for (double& t : theta_) t = rng.uniform_phase();
  }
  void set_couplings_active(bool b) noexcept { couplings_active_ = b; }
  void set_edge_mask(const std::vector<std::uint8_t>& mask) { edge_mask_ = mask; }
  void set_shil_active(bool b) noexcept { shil_active_ = b; }

  void refresh_trig(const std::vector<double>& theta) const {
    const std::size_t n = theta.size();
    for (std::size_t i = 0; i < n; ++i) {
      sin_[i] = std::sin(theta[i]);
      cos_[i] = std::cos(theta[i]);
    }
  }

  void derivative(const std::vector<double>& theta,
                  std::vector<double>& dtheta) const {
    const std::size_t n = theta.size();
    dtheta.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) dtheta[i] = detune_[i];

    if (couplings_active_) {
      refresh_trig(theta);
      const auto edges = graph_->edges();
      const double kc = params_.coupling_gain;
      for (std::size_t e = 0; e < edges.size(); ++e) {
        if (!edge_mask_[e]) continue;
        const auto u = edges[e].u;
        const auto v = edges[e].v;
        const double s = sin_[u] * cos_[v] - cos_[u] * sin_[v];
        const double w = kc * j_[e] * s;
        dtheta[u] -= w;
        dtheta[v] += w;
      }
    }

    if (shil_active_ && shil_level_ > 0.0) {
      const double ks = params_.shil_gain * shil_level_;
      const double order = static_cast<double>(params_.shil_order);
      for (std::size_t i = 0; i < n; ++i) {
        if (!shil_enable_[i]) continue;
        dtheta[i] -= ks * std::sin(order * (theta[i] - shil_phase_[i]));
      }
    }
  }

  void step(util::Rng& rng) {
    const double dt = params_.dt;
    derivative(theta_, k1_);
    const double noise_scale = params_.noise_stddev * std::sqrt(dt);
    for (std::size_t i = 0; i < theta_.size(); ++i) {
      theta_[i] += k1_[i] * dt;
      if (noise_scale > 0.0) theta_[i] += noise_scale * rng.normal();
    }
  }

  const std::vector<double>& phases() const noexcept { return theta_; }

 private:
  const graph::Graph* graph_;
  phase::NetworkParams params_;
  std::vector<double> theta_, j_;
  std::vector<std::uint8_t> edge_mask_, shil_enable_;
  std::vector<double> shil_phase_, detune_;
  bool couplings_active_ = true;
  bool shil_active_ = false;
  double shil_level_ = 1.0;
  mutable std::vector<double> sin_, cos_, k1_;
};

// ---------------------------------------------------------------------------

constexpr std::size_t kReplicas = 40;

struct Workload {
  std::size_t side;
  const char* regime;  // "anneal" | "anneal_stage2" | "lock" | "lock_noiseless"
  double noise;
  bool shil;
  int steps;
  bool stage2 = false;  // P_EN mask from stage2_mask() instead of all live
};

/// A stage-2 P_EN mask for a King's fabric, as solve_batch builds it after
/// stage 1: every edge whose endpoints read out different bits is cut. The
/// readout splits alternate columns (a 75% cut; the stage-1 anneal cuts ~72%
/// of the 46x46 Table 1 graph) with a seeded 5% of the nodes flipped, so
/// ~30% of the edges stay live, mostly vertical ones plus an irregular
/// remainder like a real readout's.
std::vector<std::uint8_t> stage2_mask(const graph::Graph& g, std::size_t side) {
  util::Rng rng(side);
  std::vector<int> bit(g.num_nodes());
  for (std::size_t i = 0; i < bit.size(); ++i) {
    bit[i] = static_cast<int>(i % side % 2);
    if (rng.uniform() < 0.05) bit[i] ^= 1;
  }
  const auto edges = g.edges();
  std::vector<std::uint8_t> mask(edges.size());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    mask[e] = bit[edges[e].u] == bit[edges[e].v] ? 1 : 0;
  }
  return mask;
}

phase::NetworkParams tuned_params(double noise) {
  phase::NetworkParams p;
  p.coupling_gain = 8.0e8;
  p.shil_gain = 1.6e9;
  p.noise_stddev = noise;
  p.dt = 2.0e-11;
  return p;
}

double seconds(const std::function<void()>& body) {
  const auto t0 = std::chrono::steady_clock::now();
  body();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct Measurement {
  double legacy_s = 1e100;
  double batch1_s = 1e100;
  double batch40_s = 1e100;
  // Keeps the optimizer honest: every engine's final phases fold into this.
  double checksum = 0.0;
};

/// Times one repetition of every engine on `w`, keeping the fastest time
/// of each engine seen so far in `best`.
void measure(const graph::Graph& g, const Workload& w,
             const std::vector<std::uint8_t>& mask, Measurement& best) {
  const phase::NetworkParams p = tuned_params(w.noise);
  // Legacy: 40 serial networks, stepped replica-major like the old runner.
  {
    std::vector<LegacyNetwork> nets;
    std::vector<util::Rng> rngs;
    nets.reserve(kReplicas);
    for (std::size_t r = 0; r < kReplicas; ++r) {
      nets.emplace_back(g, p);
      rngs.emplace_back(r + 1);
      nets[r].randomize_phases(rngs[r]);
      nets[r].set_couplings_active(true);
      nets[r].set_shil_active(w.shil);
      nets[r].set_edge_mask(mask);
    }
    best.legacy_s = std::min(best.legacy_s, seconds([&] {
      for (std::size_t r = 0; r < kReplicas; ++r) {
        for (int s = 0; s < w.steps; ++s) nets[r].step(rngs[r]);
      }
    }));
    for (const auto& net : nets) best.checksum += net.phases().front();
  }
  // Batch-of-1 x 40: the facade configuration.
  {
    std::vector<phase::PhaseBatch> nets;
    std::vector<util::Rng> rngs;
    nets.reserve(kReplicas);
    for (std::size_t r = 0; r < kReplicas; ++r) {
      nets.emplace_back(g, p, 1);
      rngs.emplace_back(r + 1);
      nets[r].randomize_phases(0, rngs[r]);
      nets[r].set_couplings_active(0, true);
      nets[r].set_shil_active(0, w.shil);
      nets[r].set_edge_mask(0, mask);
    }
    best.batch1_s = std::min(best.batch1_s, seconds([&] {
      for (std::size_t r = 0; r < kReplicas; ++r) {
        util::Rng* rng = &rngs[r];
        for (int s = 0; s < w.steps; ++s) nets[r].step({rng, 1});
      }
    }));
    for (const auto& net : nets) best.checksum += net.phases(0).front();
  }
  // Batch-of-40 through run(): the replica-major solve_batch path.
  {
    phase::PhaseBatch batch(g, p, kReplicas);
    std::vector<util::Rng> rngs;
    for (std::size_t r = 0; r < kReplicas; ++r) {
      rngs.emplace_back(r + 1);
      batch.randomize_phases(r, rngs[r]);
      batch.set_couplings_active(r, true);
      batch.set_shil_active(r, w.shil);
      batch.set_edge_mask(r, mask);
    }
    best.batch40_s = std::min(best.batch40_s, seconds([&] {
      batch.run(static_cast<double>(w.steps) * p.dt, rngs);
    }));
    best.checksum += batch.phases(0).front();
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool csv = argc > 1 && std::strcmp(argv[1], "--csv") == 0;

  const std::vector<Workload> workloads = {
      {20, "anneal", 2.0e3, false, 250},
      {20, "anneal_stage2", 2.0e3, false, 250, true},
      {20, "lock", 2.0e3, true, 250},
      {20, "lock_noiseless", 0.0, true, 250},
      {32, "anneal", 2.0e3, false, 160},
      {32, "anneal_stage2", 2.0e3, false, 160, true},
      {32, "lock", 2.0e3, true, 160},
      {32, "lock_noiseless", 0.0, true, 160},
      {46, "anneal", 2.0e3, false, 120},
      {46, "anneal_stage2", 2.0e3, false, 120, true},
      {46, "lock", 2.0e3, true, 120},
      {46, "lock_noiseless", 0.0, true, 120},
  };
  // Gate 3 divides two timings, so it needs more samples than gates 1-2: on
  // a shared 4-vCPU host best-of-3 let its ratio swing by +-25% between runs.
  constexpr int kReps = 7;
  // Timer-jitter allowance for gate 1; the measured margin is far larger.
  constexpr double kSlowdownTolerance = 1.05;
  constexpr double kBatchSpeedupGate = 2.0;
  constexpr double kNoiseOverheadGate = 1.5;

  util::TextTable table({"fabric", "regime", "steps", "legacy_ms", "batch1_ms",
                         "batch40_ms", "b1_speedup", "b40_speedup",
                         "b40_rsteps_per_s"});
  util::BenchJsonWriter json("bench_phase_batch");
  json.meta("replicas", static_cast<double>(kReplicas));
  json.meta("gate",
            "batch1 >= legacy on every row (1.05 jitter tolerance); "
            "batch40 >= 2x legacy on at least one fabric; "
            "batch40 lock <= 1.5x lock_noiseless on every fabric");

  bool batch1_ok = true;
  double best_b40_speedup = 0.0;
  std::string best_b40_row;
  // fabric -> regime -> batch40 seconds, for the noise-overhead gate.
  std::map<std::string, std::map<std::string, double>> b40_by_fabric;
  double sink = 0.0;

  // Repetitions are the outer loop: every row's best-of-kReps is taken
  // across the whole run, so a slow stretch of a shared host cannot land on
  // one regime of a fabric and spare its neighbour (gate 3 compares lock
  // with lock_noiseless).
  std::vector<graph::Graph> graphs;
  std::vector<std::vector<std::uint8_t>> masks;
  for (const Workload& w : workloads) {
    graphs.push_back(graph::kings_graph_square(w.side));
    masks.push_back(w.stage2 ? stage2_mask(graphs.back(), w.side)
                             : std::vector<std::uint8_t>(graphs.back().num_edges(), 1));
  }
  std::vector<Measurement> measured(workloads.size());
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t k = 0; k < workloads.size(); ++k) {
      measure(graphs[k], workloads[k], masks[k], measured[k]);
    }
  }

  for (std::size_t k = 0; k < workloads.size(); ++k) {
    const Workload& w = workloads[k];
    const graph::Graph& g = graphs[k];
    const Measurement& m = measured[k];
    sink += m.checksum;

    const std::string fabric =
        "kings_" + std::to_string(w.side) + "x" + std::to_string(w.side);
    const double b1_speedup = m.legacy_s / m.batch1_s;
    const double b40_speedup = m.legacy_s / m.batch40_s;
    const double rsteps = static_cast<double>(kReplicas) *
                          static_cast<double>(w.steps) / m.batch40_s;

    if (m.batch1_s > m.legacy_s * kSlowdownTolerance) batch1_ok = false;
    b40_by_fabric[fabric][w.regime] = m.batch40_s;
    if (b40_speedup > best_b40_speedup) {
      best_b40_speedup = b40_speedup;
      best_b40_row = fabric + "/" + w.regime;
    }

    table.add_row({fabric, w.regime, std::to_string(w.steps),
                   util::format_double(m.legacy_s * 1e3),
                   util::format_double(m.batch1_s * 1e3),
                   util::format_double(m.batch40_s * 1e3),
                   util::format_double(b1_speedup, 2),
                   util::format_double(b40_speedup, 2),
                   util::format_sci(rsteps)});

    json.begin_row(fabric + "/" + w.regime);
    json.metric("side", static_cast<std::uint64_t>(w.side));
    json.metric("nodes", static_cast<std::uint64_t>(g.num_nodes()));
    json.metric("edges", static_cast<std::uint64_t>(g.num_edges()));
    json.metric("live_edges", static_cast<std::uint64_t>(std::count(
                                  masks[k].begin(), masks[k].end(), 1)));
    json.metric("regime", w.regime);
    json.metric("noise_stddev", w.noise);
    json.metric("steps", static_cast<std::uint64_t>(w.steps));
    json.metric("legacy_ms", m.legacy_s * 1e3);
    json.metric("batch1_ms", m.batch1_s * 1e3);
    json.metric("batch40_ms", m.batch40_s * 1e3);
    json.metric("batch1_speedup", b1_speedup);
    json.metric("batch40_speedup", b40_speedup);
    json.metric("batch40_replica_steps_per_sec", rsteps);
  }

  json.meta("best_batch40_speedup", best_b40_speedup);
  json.meta("best_batch40_row", best_b40_row);
  double worst_noise_ratio = 0.0;
  std::string worst_noise_fabric;
  for (const auto& [fabric, regimes] : b40_by_fabric) {
    const double ratio = regimes.at("lock") / regimes.at("lock_noiseless");
    if (ratio > worst_noise_ratio) {
      worst_noise_ratio = ratio;
      worst_noise_fabric = fabric;
    }
  }
  json.meta("worst_batch40_noise_ratio", worst_noise_ratio);
  json.meta("worst_batch40_noise_fabric", worst_noise_fabric);

  std::printf("%s\n", csv ? table.render_csv().c_str()
                          : table.render().c_str());
  const std::string path = json.write();
  if (!path.empty()) std::printf("wrote %s\n", path.c_str());
  if (sink == 12345.6789) std::printf("\n");  // defeat dead-code elimination

  bool failed = false;
  if (!batch1_ok) {
    std::fprintf(stderr,
                 "FAIL: batch-of-1 slower than the pre-refactor engine on at "
                 "least one row\n");
    failed = true;
  }
  if (best_b40_speedup < kBatchSpeedupGate) {
    std::fprintf(stderr,
                 "FAIL: best batch-of-40 speedup %.2fx (%s) below the %.1fx "
                 "gate\n",
                 best_b40_speedup, best_b40_row.c_str(), kBatchSpeedupGate);
    failed = true;
  }
  if (worst_noise_ratio > kNoiseOverheadGate) {
    std::fprintf(stderr,
                 "FAIL: batch-of-40 lock is %.2fx lock_noiseless on %s, above "
                 "the %.1fx gate\n",
                 worst_noise_ratio, worst_noise_fabric.c_str(),
                 kNoiseOverheadGate);
    failed = true;
  }
  if (failed) return 1;
  std::printf(
      "gates passed: batch1 never slower; batch40 %.2fx on %s; noisy lock "
      "<= %.2fx noiseless\n",
      best_b40_speedup, best_b40_row.c_str(), worst_noise_ratio);
  return 0;
}
