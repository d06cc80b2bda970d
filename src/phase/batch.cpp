#include "msropm/phase/batch.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <numbers>
#include <stdexcept>

#include "msropm/obs/obs.hpp"
#include "msropm/util/fault_injector.hpp"
#include "msropm/util/vecmath.hpp"

namespace msropm::phase {

namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

// Two doubles in one SIMD register (SSE2 on x86-64).
using Pair = double __attribute__((vector_size(16)));

// One fused argument reduction for both outputs (cold paths only -- the hot
// per-step refresh goes through util::detail::sincos_array, which
// vectorizes).
inline void sin_cos(double x, double& s, double& c) {
#if defined(__GLIBC__)
  ::sincos(x, &s, &c);
#else
  s = std::sin(x);
  c = std::cos(x);
#endif
}

// Batched-stepping observability: one span per run() window plus replica
// throughput heartbeat gauges. All write-only behind obs::gate() -- the
// trajectory math never reads any of it (no-perturbation contract, pinned by
// the batch equivalence test which runs with obs both off and on).
struct PhaseMetrics {
  obs::MetricId t_batch_step = obs::timer("phase.batch_step");
  obs::MetricId c_steps = obs::counter("phase.steps");
  obs::MetricId c_replica_steps = obs::counter("phase.replica_steps");
  obs::MetricId g_hb_rate = obs::gauge("phase.hb.replica_steps_per_sec");
  obs::MetricId g_hb_replicas = obs::gauge("phase.hb.replicas");
};

const PhaseMetrics& pmetrics() {
  static const PhaseMetrics m;
  return m;
}

}  // namespace

double wrap_angle(double theta) noexcept {
  double w = std::fmod(theta, kTwoPi);
  if (w < 0.0) w += kTwoPi;
  return w;
}

double angular_distance(double a, double b) noexcept {
  double d = std::fabs(wrap_angle(a) - wrap_angle(b));
  return d > std::numbers::pi ? kTwoPi - d : d;
}

double GainRamp::value(double t_fraction) const noexcept {
  if (t_fraction <= start_fraction) return 0.0;
  if (t_fraction >= end_fraction) return 1.0;
  if (end_fraction <= start_fraction) return 1.0;
  return (t_fraction - start_fraction) / (end_fraction - start_fraction);
}

PhaseBatch::PhaseBatch(const graph::Graph& g, NetworkParams params,
                       std::size_t num_replicas)
    : graph_(&g),
      params_(params),
      n_(g.num_nodes()),
      m_(g.num_edges()),
      r_(num_replicas) {
  if (params_.dt <= 0.0) throw std::invalid_argument("PhaseBatch: dt > 0");
  if (params_.shil_order < 1) throw std::invalid_argument("PhaseBatch: order >= 1");
  if (r_ == 0) throw std::invalid_argument("PhaseBatch: num_replicas >= 1");

  // CSR: count directed entries per node, then fill (neighbor, edge id). The
  // edge list is canonical (u < v, lexicographic), so both the entry order
  // within a node and the weight layout are deterministic.
  csr_offsets_.assign(n_ + 1, 0);
  const auto edges = g.edges();
  for (const graph::Edge& e : edges) {
    ++csr_offsets_[e.u + 1];
    ++csr_offsets_[e.v + 1];
  }
  for (std::size_t i = 0; i < n_; ++i) csr_offsets_[i + 1] += csr_offsets_[i];
  csr_neighbor_.resize(2 * m_);
  csr_edge_.resize(2 * m_);
  std::vector<std::uint32_t> cursor(csr_offsets_.begin(), csr_offsets_.end() - 1);
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const auto u = edges[e].u;
    const auto v = edges[e].v;
    csr_neighbor_[cursor[u]] = v;
    csr_edge_[cursor[u]++] = static_cast<std::uint32_t>(e);
    csr_neighbor_[cursor[v]] = u;
    csr_edge_[cursor[v]++] = static_cast<std::uint32_t>(e);
  }

  theta_.assign(r_ * n_, 0.0);
  j_.assign(r_ * m_, -1.0);  // B2B inverters: anti-ferromagnetic
  edge_mask_.assign(r_ * m_, 1);
  shil_enable_.assign(r_ * n_, 1);
  shil_phase_.assign(r_ * n_, 0.0);
  shil_sin_.assign(r_ * n_, 0.0);
  shil_cos_.assign(r_ * n_, 1.0);
  detune_.assign(r_ * n_, 0.0);
  couplings_active_.assign(r_, 1);
  shil_active_.assign(r_, 0);
  shil_level_.assign(r_, 1.0);
  // Slice capacity: every slice as long as its longest structural row, the
  // all-live size. A live row is never longer than its structural row, so
  // every rebuild fits.
  slices_ = (n_ + kSliceLanes - 1) / kSliceLanes;
  const std::size_t lanes = slices_ * kSliceLanes;
  for (std::size_t s = 0; s < slices_; ++s) {
    std::uint32_t width = 0;
    for (std::size_t i = s * kSliceLanes; i < std::min(n_, (s + 1) * kSliceLanes);
         ++i) {
      width = std::max(width, csr_offsets_[i + 1] - csr_offsets_[i]);
    }
    slice_capacity_ += kSliceLanes * width;
  }
  slice_base_.assign(r_ * (slices_ + 1), 0);
  slice_neighbor_.assign(r_ * slice_capacity_, 0);
  slice_weight_.assign(r_ * slice_capacity_, 0.0);
  weights_dirty_.assign(r_, 1);
  sin_.assign(lanes, 0.0);
  cos_.assign(lanes, 0.0);
  coupling_.assign(lanes, 0.0);
  for (auto* k : {&k1_, &k2_, &k3_, &k4_, &tmp_}) k->assign(n_, 0.0);
  saved_level_.assign(r_, 0.0);
  noise_.assign(n_, 0.0);
  noise_scratch_.assign(util::Rng::normal_scratch_size(n_), 0.0);
}

void PhaseBatch::check_replica(std::size_t r) const {
  if (r >= r_) throw std::out_of_range("PhaseBatch: replica index out of range");
}

void PhaseBatch::set_phases(std::size_t r, std::span<const double> phases) {
  check_replica(r);
  if (phases.size() != n_) {
    throw std::invalid_argument("PhaseBatch::set_phases: size mismatch");
  }
  std::copy(phases.begin(), phases.end(), theta_.begin() + r * n_);
}

void PhaseBatch::randomize_phases(std::size_t r, util::Rng& rng) {
  check_replica(r);
  double* theta = theta_.data() + r * n_;
  for (std::size_t i = 0; i < n_; ++i) theta[i] = rng.uniform_phase();
}

void PhaseBatch::perturb_phases(std::size_t r, util::Rng& rng, double stddev_rad) {
  check_replica(r);
  double* theta = theta_.data() + r * n_;
  for (std::size_t i = 0; i < n_; ++i) theta[i] += rng.normal(0.0, stddev_rad);
}

std::vector<double> PhaseBatch::wrapped_phases(std::size_t r) const {
  check_replica(r);
  const double* theta = theta_.data() + r * n_;
  std::vector<double> w(n_);
  for (std::size_t i = 0; i < n_; ++i) w[i] = wrap_angle(theta[i]);
  return w;
}

void PhaseBatch::set_uniform_coupling(std::size_t r, double j) {
  check_replica(r);
  std::fill_n(j_.begin() + r * m_, m_, j);
  weights_dirty_[r] = 1;
}

void PhaseBatch::set_edge_couplings(std::size_t r,
                                    std::span<const double> per_edge_j) {
  check_replica(r);
  if (per_edge_j.size() != m_) {
    throw std::invalid_argument("PhaseBatch::set_edge_couplings: size mismatch");
  }
  std::copy(per_edge_j.begin(), per_edge_j.end(), j_.begin() + r * m_);
  weights_dirty_[r] = 1;
}

void PhaseBatch::set_edge_mask(std::size_t r, std::span<const std::uint8_t> mask) {
  check_replica(r);
  if (mask.size() != m_) {
    throw std::invalid_argument("PhaseBatch::set_edge_mask: size mismatch");
  }
  std::copy(mask.begin(), mask.end(), edge_mask_.begin() + r * m_);
  weights_dirty_[r] = 1;
}

void PhaseBatch::enable_all_edges(std::size_t r) {
  check_replica(r);
  std::fill_n(edge_mask_.begin() + r * m_, m_, std::uint8_t{1});
  weights_dirty_[r] = 1;
}

void PhaseBatch::disable_all_edges(std::size_t r) {
  check_replica(r);
  std::fill_n(edge_mask_.begin() + r * m_, m_, std::uint8_t{0});
  weights_dirty_[r] = 1;
}

void PhaseBatch::set_shil_enable(std::size_t r,
                                 std::span<const std::uint8_t> per_osc) {
  check_replica(r);
  if (per_osc.size() != n_) {
    throw std::invalid_argument("PhaseBatch::set_shil_enable: size mismatch");
  }
  std::copy(per_osc.begin(), per_osc.end(), shil_enable_.begin() + r * n_);
}

void PhaseBatch::enable_all_shil(std::size_t r) {
  check_replica(r);
  std::fill_n(shil_enable_.begin() + r * n_, n_, std::uint8_t{1});
}

void PhaseBatch::refresh_shil_trig(std::size_t r) {
  const double order = static_cast<double>(params_.shil_order);
  const double* psi = shil_phase_.data() + r * n_;
  double* s = shil_sin_.data() + r * n_;
  double* c = shil_cos_.data() + r * n_;
  for (std::size_t i = 0; i < n_; ++i) {
    sin_cos(order * psi[i], s[i], c[i]);
  }
}

void PhaseBatch::set_shil_phases(std::size_t r, std::span<const double> psi) {
  check_replica(r);
  if (psi.size() != n_) {
    throw std::invalid_argument("PhaseBatch::set_shil_phases: size mismatch");
  }
  std::copy(psi.begin(), psi.end(), shil_phase_.begin() + r * n_);
  refresh_shil_trig(r);
}

void PhaseBatch::set_uniform_shil_phase(std::size_t r, double psi) {
  check_replica(r);
  std::fill_n(shil_phase_.begin() + r * n_, n_, psi);
  refresh_shil_trig(r);
}

void PhaseBatch::set_shil_level(std::size_t r, double level) {
  check_replica(r);
  shil_level_[r] = std::clamp(level, 0.0, 1.0);
}

void PhaseBatch::set_detune(std::size_t r,
                            std::span<const double> detune_rad_per_s) {
  check_replica(r);
  if (detune_rad_per_s.size() != n_) {
    throw std::invalid_argument("PhaseBatch::set_detune: size mismatch");
  }
  std::copy(detune_rad_per_s.begin(), detune_rad_per_s.end(),
            detune_.begin() + r * n_);
}

void PhaseBatch::clear_detune(std::size_t r) {
  check_replica(r);
  std::fill_n(detune_.begin() + r * n_, n_, 0.0);
}

void PhaseBatch::rebuild_slices(std::size_t r) const {
  // Pack replica r's P_EN-live entries, with fused weights Kc * J_e, into
  // 4-node slices: node i = 4s + c keeps its live entries in structural CSR
  // order as lane c of slice s, entry t at base[s] + 4t + c. Lanes shorter
  // than the slice's longest live row are padded with the node itself at
  // weight +0.0, which leaves every finite sum bit-identical and keeps a
  // non-finite phase from reaching any node it does not couple to (the
  // argument in batch.hpp). Phantom lanes past n_ pad the same way and read
  // the zero sin/cos of their own phantom slot.
  const double kc = params_.coupling_gain;
  const double* j = j_.data() + r * m_;
  const std::uint8_t* mask = edge_mask_.data() + r * m_;
  std::uint32_t* base = slice_base_.data() + r * (slices_ + 1);
  std::uint32_t* neighbor = slice_neighbor_.data() + r * slice_capacity_;
  double* w = slice_weight_.data() + r * slice_capacity_;
  base[0] = 0;
  for (std::size_t s = 0; s < slices_; ++s) {
    const std::uint32_t b = base[s];
    std::uint32_t len[kSliceLanes] = {};
    for (std::size_t c = 0; c < kSliceLanes; ++c) {
      const std::size_t i = s * kSliceLanes + c;
      if (i >= n_) break;
      for (std::uint32_t k = csr_offsets_[i]; k < csr_offsets_[i + 1]; ++k) {
        const std::uint32_t e = csr_edge_[k];
        if (!mask[e]) continue;
        neighbor[b + kSliceLanes * len[c] + c] = csr_neighbor_[k];
        w[b + kSliceLanes * len[c] + c] = kc * j[e];
        ++len[c];
      }
    }
    const std::uint32_t width = *std::max_element(len, len + kSliceLanes);
    for (std::size_t c = 0; c < kSliceLanes; ++c) {
      for (std::uint32_t t = len[c]; t < width; ++t) {
        neighbor[b + kSliceLanes * t + c] =
            static_cast<std::uint32_t>(s * kSliceLanes + c);
        w[b + kSliceLanes * t + c] = 0.0;
      }
    }
    base[s + 1] = b + static_cast<std::uint32_t>(kSliceLanes) * width;
  }
  weights_dirty_[r] = 0;
}

void PhaseBatch::gather_coupling(std::size_t r) const {
  // sum_j w_ij sin(theta_i - theta_j)
  //   = sin_i * sum_j w_ij cos_j - cos_i * sum_j w_ij sin_j,
  // four nodes at a time: the lanes' accumulator chains are independent, so
  // their adds overlap instead of serialising one node's row.
  if (weights_dirty_[r]) rebuild_slices(r);
  const std::uint32_t* base = slice_base_.data() + r * (slices_ + 1);
  const std::uint32_t* neighbor = slice_neighbor_.data() + r * slice_capacity_;
  const double* w = slice_weight_.data() + r * slice_capacity_;
  static_assert(kSliceLanes == 4, "the walk pairs lanes (0, 1) and (2, 3)");
  for (std::size_t s = 0; s < slices_; ++s) {
    // Lanes (0, 1) and (2, 3) share a two-wide vector. Vector mul/add is the
    // scalar IEEE operation per element, so each lane's sum is exactly the
    // scalar chain.
    Pair acc_cos01 = {}, acc_cos23 = {}, acc_sin01 = {}, acc_sin23 = {};
    for (std::uint32_t k = base[s]; k < base[s + 1]; k += kSliceLanes) {
      const std::uint32_t* nb = neighbor + k;
      Pair w01, w23;
      std::memcpy(&w01, w + k, sizeof w01);
      std::memcpy(&w23, w + k + 2, sizeof w23);
      acc_cos01 += w01 * Pair{cos_[nb[0]], cos_[nb[1]]};
      acc_cos23 += w23 * Pair{cos_[nb[2]], cos_[nb[3]]};
      acc_sin01 += w01 * Pair{sin_[nb[0]], sin_[nb[1]]};
      acc_sin23 += w23 * Pair{sin_[nb[2]], sin_[nb[3]]};
    }
    const double acc_cos[kSliceLanes] = {acc_cos01[0], acc_cos01[1],
                                         acc_cos23[0], acc_cos23[1]};
    const double acc_sin[kSliceLanes] = {acc_sin01[0], acc_sin01[1],
                                         acc_sin23[0], acc_sin23[1]};
    for (std::size_t c = 0; c < kSliceLanes; ++c) {
      const std::size_t i = s * kSliceLanes + c;
      coupling_[i] = sin_[i] * acc_cos[c] - cos_[i] * acc_sin[c];
    }
  }
}

void PhaseBatch::refresh_trig(const double* theta) const {
  // The per-step hot spot on ablation-sized fabrics: one bulk sincos pass,
  // SIMD-dispatched (see util/vecmath.hpp for the determinism contract).
  util::detail::sincos_array(theta, sin_.data(), cos_.data(), n_);
}

void PhaseBatch::derivative_into(std::size_t r, const double* theta,
                                 double* dtheta) const {
  const bool couple = couplings_active_[r] != 0;
  const bool shil = shil_active_[r] != 0 && shil_level_[r] > 0.0;
  const bool order2 = params_.shil_order == 2;

  const double* detune = detune_.data() + r * n_;
  for (std::size_t i = 0; i < n_; ++i) dtheta[i] = detune[i];

  if (couple || (shil && order2)) refresh_trig(theta);

  if (couple) {
    gather_coupling(r);
    for (std::size_t i = 0; i < n_; ++i) dtheta[i] -= coupling_[i];
  }

  if (shil) {
    const double ks = params_.shil_gain * shil_level_[r];
    const std::uint8_t* enable = shil_enable_.data() + r * n_;
    if (order2) {
      // sin(2(theta - psi)) = sin(2 theta) cos(2 psi) - cos(2 theta) sin(2 psi)
      // with sin(2 theta) = 2 sin cos and cos(2 theta) = cos^2 - sin^2 from
      // the per-node pass above; sin/cos(2 psi) are cached per replica.
      const double* ps = shil_sin_.data() + r * n_;
      const double* pc = shil_cos_.data() + r * n_;
      for (std::size_t i = 0; i < n_; ++i) {
        if (!enable[i]) continue;
        const double s2 = 2.0 * sin_[i] * cos_[i];
        const double c2 = cos_[i] * cos_[i] - sin_[i] * sin_[i];
        dtheta[i] -= ks * (s2 * pc[i] - c2 * ps[i]);
      }
    } else {
      const double order = static_cast<double>(params_.shil_order);
      const double* psi = shil_phase_.data() + r * n_;
      for (std::size_t i = 0; i < n_; ++i) {
        if (!enable[i]) continue;
        dtheta[i] -= ks * std::sin(order * (theta[i] - psi[i]));
      }
    }
  }
}

void PhaseBatch::derivative(std::size_t r, std::span<const double> theta,
                            std::span<double> dtheta) const {
  check_replica(r);
  if (theta.size() != n_ || dtheta.size() != n_) {
    throw std::invalid_argument("PhaseBatch::derivative: size mismatch");
  }
  derivative_into(r, theta.data(), dtheta.data());
}

void PhaseBatch::euler_step_replica(std::size_t r, util::Rng& rng,
                                    double noise_scale) {
  // Fused Euler-Maruyama update: the gather reads only the pre-step sin/cos
  // snapshot (never theta itself), so theta can be advanced in place without
  // materializing the k1 derivative buffer. Term order matches
  // derivative_into exactly -- derivative() and the RK4 path go through it,
  // and bit-identity across batch widths requires identical per-replica FP
  // sequences, not identical buffers.
  double* theta = theta_.data() + r * n_;
  const double dt = params_.dt;
  const bool couple = couplings_active_[r] != 0;
  const bool shil = shil_active_[r] != 0 && shil_level_[r] > 0.0;
  const bool order2 = params_.shil_order == 2;
  const double* detune = detune_.data() + r * n_;
  // The replica-step's jitter as one block, drawn before the node loop; the
  // per-node update below keeps its term order (drift, then noise).
  const bool noisy = noise_scale > 0.0;
  if (noisy) rng.fill_normal(noise_, noise_scratch_);
  const double* noise = noise_.data();

  if (!couple && !(shil && order2)) {
    // No trig snapshot needed (the generic-order SHIL path takes raw theta).
    if (shil) {
      const double ks = params_.shil_gain * shil_level_[r];
      const double order = static_cast<double>(params_.shil_order);
      const std::uint8_t* enable = shil_enable_.data() + r * n_;
      const double* psi = shil_phase_.data() + r * n_;
      for (std::size_t i = 0; i < n_; ++i) {
        double d = detune[i];
        if (enable[i]) d -= ks * std::sin(order * (theta[i] - psi[i]));
        theta[i] += d * dt;
        if (noisy) theta[i] += noise_scale * noise[i];
      }
    } else {
      for (std::size_t i = 0; i < n_; ++i) {
        theta[i] += detune[i] * dt;
        if (noisy) theta[i] += noise_scale * noise[i];
      }
    }
    return;
  }

  refresh_trig(theta);
  if (couple) gather_coupling(r);
  const double ks = shil ? params_.shil_gain * shil_level_[r] : 0.0;
  const std::uint8_t* enable = shil_enable_.data() + r * n_;
  const double* ps = shil_sin_.data() + r * n_;
  const double* pc = shil_cos_.data() + r * n_;
  const double* psi = shil_phase_.data() + r * n_;
  const double order = static_cast<double>(params_.shil_order);

  for (std::size_t i = 0; i < n_; ++i) {
    double d = detune[i];
    if (couple) d -= coupling_[i];
    if (shil && enable[i]) {
      if (order2) {
        const double s2 = 2.0 * sin_[i] * cos_[i];
        const double c2 = cos_[i] * cos_[i] - sin_[i] * sin_[i];
        d -= ks * (s2 * pc[i] - c2 * ps[i]);
      } else {
        d -= ks * std::sin(order * (theta[i] - psi[i]));
      }
    }
    theta[i] += d * dt;
    if (noisy) theta[i] += noise_scale * noise[i];
  }
}

void PhaseBatch::rk4_step_replica(std::size_t r) {
  double* theta = theta_.data() + r * n_;
  const double dt = params_.dt;
  derivative_into(r, theta, k1_.data());
  for (std::size_t i = 0; i < n_; ++i) tmp_[i] = theta[i] + 0.5 * dt * k1_[i];
  derivative_into(r, tmp_.data(), k2_.data());
  for (std::size_t i = 0; i < n_; ++i) tmp_[i] = theta[i] + 0.5 * dt * k2_[i];
  derivative_into(r, tmp_.data(), k3_.data());
  for (std::size_t i = 0; i < n_; ++i) tmp_[i] = theta[i] + dt * k3_[i];
  derivative_into(r, tmp_.data(), k4_.data());
  for (std::size_t i = 0; i < n_; ++i) {
    theta[i] += dt / 6.0 * (k1_[i] + 2.0 * k2_[i] + 2.0 * k3_[i] + k4_[i]);
  }
}

void PhaseBatch::step(std::span<util::Rng> rngs) {
  if (rngs.size() != r_) {
    throw std::invalid_argument("PhaseBatch::step: one Rng per replica");
  }
  const double noise_scale = params_.noise_stddev * std::sqrt(params_.dt);
  for (std::size_t r = 0; r < r_; ++r) euler_step_replica(r, rngs[r], noise_scale);
}

void PhaseBatch::step_rk4() {
  for (std::size_t r = 0; r < r_; ++r) rk4_step_replica(r);
}

bool PhaseBatch::run(double duration, std::span<util::Rng> rngs,
                     const GainRamp* shil_ramp,
                     const std::function<void(double, const PhaseBatch&)>& observer,
                     const util::StopToken* stop) {
  if (!std::isfinite(duration)) {
    throw std::invalid_argument("PhaseBatch::run: duration must be finite");
  }
  if (duration <= 0.0) return true;
  if (rngs.size() != r_) {
    throw std::invalid_argument("PhaseBatch::run: one Rng per replica");
  }
  const double dt = params_.dt;
  // ceil with a relative guard so that duration = k*dt yields exactly k steps
  // despite the quotient landing epsilon above the integer.
  auto steps = static_cast<std::size_t>(std::ceil(duration / dt - 1e-9));
  if (steps == 0) steps = 1;

  // Window span + throughput heartbeat: write-only observability, gated so a
  // disabled build/run never touches a clock.
  const std::uint32_t obs_gate = obs::gate();
  obs::Span span("phase.batch_step",
                 obs_gate != 0 ? pmetrics().t_batch_step : obs::kNoMetric);
  std::chrono::steady_clock::time_point obs_t0;
  if (obs_gate != 0) {
    span.arg("replicas", static_cast<std::uint64_t>(r_));
    span.arg("steps", static_cast<std::uint64_t>(steps));
    span.arg("oscillators", static_cast<std::uint64_t>(n_));
    obs_t0 = std::chrono::steady_clock::now();
  }

  const bool euler = params_.integrator == Integrator::kEulerMaruyama;
  const double noise_scale = params_.noise_stddev * std::sqrt(dt);
  if (shil_ramp != nullptr) {
    std::copy(shil_level_.begin(), shil_level_.end(), saved_level_.begin());
  }
  const auto step_one = [&](std::size_t r, std::size_t s) {
    if (shil_ramp != nullptr) {
      const double frac = static_cast<double>(s) / static_cast<double>(steps);
      set_shil_level(r, saved_level_[r] * shil_ramp->value(frac));
    }
    if (euler) {
      euler_step_replica(r, rngs[r], noise_scale);
    } else {
      rk4_step_replica(r);
      if (noise_scale > 0.0) {
        rngs[r].fill_normal(noise_, noise_scratch_);
        double* theta = theta_.data() + r * n_;
        for (std::size_t i = 0; i < n_; ++i) {
          theta[i] += noise_scale * noise_[i];
        }
      }
    }
  };
  // Stop/fault poll, every 32 steps so the gate cost is off the step path.
  // With no token and no armed injector this is a counter test + two
  // predictable branches per 32 steps — trajectories stay bit-identical.
  bool interrupted = false;
  const auto should_break = [&](std::size_t s) {
    if ((s & 31u) != 0) return false;
    if (stop != nullptr && stop->stop_requested()) return true;
    return util::fault::fire(util::FaultSite::kBatchStep);
  };
  if (observer) {
    // Observer sees the whole batch after each step, so steps must advance in
    // lockstep across replicas.
    for (std::size_t s = 0; s < steps; ++s) {
      if (should_break(s)) {
        interrupted = true;
        break;
      }
      for (std::size_t r = 0; r < r_; ++r) step_one(r, s);
      observer(static_cast<double>(s + 1) * dt, *this);
    }
  } else {
    // Replica-major: replica r's whole window runs back-to-back, keeping its
    // state and fused weights cache-hot across steps. Replica r only ever
    // touches replica-r state and rngs[r], so the trajectories are
    // bit-identical to the lockstep order (gated at R > 1 by
    // PhaseBatch.LockstepMatchesReplicaMajorRun in phase_batch_test).
    for (std::size_t r = 0; r < r_ && !interrupted; ++r) {
      for (std::size_t s = 0; s < steps; ++s) {
        if (should_break(s)) {
          interrupted = true;
          break;
        }
        step_one(r, s);
      }
    }
  }
  if (shil_ramp != nullptr) {
    std::copy(saved_level_.begin(), saved_level_.end(), shil_level_.begin());
  }

  if (obs_gate != 0) {
    const double elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - obs_t0)
            .count();
    const auto replica_steps = static_cast<std::uint64_t>(steps) * r_;
    obs::add(pmetrics().c_steps, steps);
    obs::add(pmetrics().c_replica_steps, replica_steps);
    if (elapsed_s > 0.0) {
      const double rate = static_cast<double>(replica_steps) / elapsed_s;
      obs::set_gauge(pmetrics().g_hb_rate, rate);
      obs::set_gauge(pmetrics().g_hb_replicas, static_cast<double>(r_));
      obs::trace_counter("phase.hb.replica_steps_per_sec", rate);
    }
  }
  return !interrupted;
}

double PhaseBatch::coupling_energy(std::size_t r) const {
  check_replica(r);
  // One sincos pass per node, then cos(theta_u - theta_v) via the angle-
  // addition identity -- no per-edge std::cos (mirrors derivative_into).
  const double* theta = theta_.data() + r * n_;
  refresh_trig(theta);
  const double* j = j_.data() + r * m_;
  const std::uint8_t* mask = edge_mask_.data() + r * m_;
  const auto edges = graph_->edges();
  double e = 0.0;
  for (std::size_t k = 0; k < edges.size(); ++k) {
    if (!mask[k]) continue;
    const auto u = edges[k].u;
    const auto v = edges[k].v;
    e -= j[k] * (cos_[u] * cos_[v] + sin_[u] * sin_[v]);
  }
  return e;
}

double PhaseBatch::shil_energy(std::size_t r) const {
  check_replica(r);
  if (!shil_active(r)) return 0.0;
  const double ks = params_.shil_gain * shil_level_[r];
  const double order = static_cast<double>(params_.shil_order);
  const double* theta = theta_.data() + r * n_;
  const std::uint8_t* enable = shil_enable_.data() + r * n_;
  double e = 0.0;
  if (params_.shil_order == 2) {
    // cos(2(theta - psi)) = cos(2 theta) cos(2 psi) + sin(2 theta) sin(2 psi)
    // from the shared per-node sincos pass (see coupling_energy).
    refresh_trig(theta);
    const double* ps = shil_sin_.data() + r * n_;
    const double* pc = shil_cos_.data() + r * n_;
    for (std::size_t i = 0; i < n_; ++i) {
      if (!enable[i]) continue;
      const double s2 = 2.0 * sin_[i] * cos_[i];
      const double c2 = cos_[i] * cos_[i] - sin_[i] * sin_[i];
      e -= ks / order * (c2 * pc[i] + s2 * ps[i]);
    }
  } else {
    const double* psi = shil_phase_.data() + r * n_;
    for (std::size_t i = 0; i < n_; ++i) {
      if (!enable[i]) continue;
      e -= ks / order * std::cos(order * (theta[i] - psi[i]));
    }
  }
  return e;
}

}  // namespace msropm::phase
