#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <ctime>
#include <stdexcept>
#include <thread>

#include "msropm/obs/obs.hpp"

namespace perfbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double calibration_ms(int reps) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    double acc = 0.0;
    for (int i = 0; i < 1'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc += std::sin(static_cast<double>(x & 0xffffu) * 1e-4);
    }
    volatile double sink = acc;
    (void)sink;
    ms.push_back(seconds_since(t0) * 1e3);
  }
  return median(std::move(ms));
}

unsigned bench_threads() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose) {
  // splitmix64 finalizer over the pair.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + purpose * 0xd1b54a32d192ed03ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

const std::vector<std::pair<std::string, std::string>>& per_layer_table() {
  static const auto table = [] {
    std::vector<std::pair<std::string, std::string>> t = {
        {"graph.build_s", "s"},
        {"runner.wall_s.n49", "s"},
        {"runner.wall_s.n400", "s"},
        {"runner.wall_s.n1024", "s"},
        {"runner.wall_s.n2116", "s"},
        {"runner.best_accuracy.n49", "fraction"},
        {"runner.best_accuracy.n400", "fraction"},
        {"runner.best_accuracy.n1024", "fraction"},
        {"runner.best_accuracy.n2116", "fraction"},
        {"runner.parallel_efficiency", "ratio"},
        {"runner.window_imbalance", "ratio"},
        {"msropm.init_s", "s"},
        {"msropm.anneal_s", "s"},
        {"msropm.lock_s", "s"},
        {"msropm.readout_reinit_s", "s"},
        {"msropm.final_readout_s", "s"},
        {"msropm.solve_batch_s", "s"},
        {"msropm.iters_to_best", "count"},
        {"msropm.stage1_cut_fraction", "fraction"},
        {"msropm.max_lock_residual", "rad"},
        {"phase.ns_per_osc_step.anneal", "ns"},
        {"phase.ns_per_osc_step.lock", "ns"},
        {"phase.ns_per_osc_step.reinit", "ns"},
        {"phase.ns_per_osc_step.noisy", "ns"},
        {"phase.ns_per_osc_step.noiseless", "ns"},
        {"phase.noise_share", "fraction"},
        {"phase.computed_bytes_per_osc_step", "B"},
    };
    for (const char* fam : {"kings", "gnp"}) {
      const std::string f = fam;
      for (const char* s : {"clique_s", "encode_s", "presimplify_s", "ingest_s",
                            "search_s", "decode_verify_s", "chromatic_search_s"}) {
        t.emplace_back("sat." + std::string(s) + "." + f, "s");
      }
      t.emplace_back("sat.unattributed_share." + f, "fraction");
      for (const char* c : {"conflicts", "decisions", "propagations", "learnts",
                            "solve_calls"}) {
        t.emplace_back("sat." + std::string(c) + "." + f, "count");
      }
      t.emplace_back("sat.arena_peak_words." + f, "words");
      t.emplace_back("sat.props_per_s." + f, "1/s");
      t.emplace_back("sat.conflicts_per_s." + f, "1/s");
      t.emplace_back("sat.clause_reduction." + f, "fraction");
    }
    for (const char* c : {"attempts_ran", "attempts_cancelled", "attempts_skipped"}) {
      t.emplace_back("portfolio." + std::string(c), "count");
    }
    for (const char* s : {"dsatur", "cdcl", "cdcl-pre", "tabucol", "sa"}) {
      t.emplace_back("portfolio.attempt_ms." + std::string(s), "ms");
    }
    for (const char* s : {"dsatur", "cdcl", "cdcl-pre", "tabucol", "sa"}) {
      t.emplace_back("portfolio.wins." + std::string(s), "count");
    }
    t.emplace_back("portfolio.useful_share", "fraction");
    t.emplace_back("trace.untraced_wall_s", "s");
    t.emplace_back("trace.traced_wall_s", "s");
    t.emplace_back("trace.overhead_share", "fraction");
    return t;
  }();
  return table;
}

void Report::e2e(const std::string& name, double value, const std::string& unit) {
  e2e_.emplace_back(name, Row{value, unit});
}

void Report::layer(const std::string& name, double value) {
  const auto& t = per_layer_table();
  const bool known = std::any_of(t.begin(), t.end(),
                                 [&](const auto& row) { return row.first == name; });
  if (!known) throw std::logic_error("unknown per-layer metric " + name);
  layer_[name] = value;
}

void Report::info(const std::string& name, double value, const std::string& unit) {
  info_.emplace_back(name, Row{value, unit});
}

void Report::job(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (errors_.size() < 16) errors_.push_back(what);
  }
}

void Report::fail(const std::string& what) { errors_.push_back(what); }

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metric_json(const std::string& name, double value, const std::string& unit) {
  std::string out = "\"";
  out += json_escape(name);
  out += "\": {\"value\": ";
  out += json_number(value);
  out += ", \"unit\": \"";
  out += json_escape(unit);
  out += "\"}";
  return out;
}

}  // namespace

void Report::print(const Args& args) const {
  const std::string rev = MSROPM_GIT_REV;
  // git describe --dirty at configure time; "unknown" outside a git checkout.
  const bool dirty = rev.size() >= 6 && rev.compare(rev.size() - 6, 6, "-dirty") == 0;
  const char* dirty_json = rev == "unknown" ? "null" : (dirty ? "true" : "false");
#if defined(MSROPM_OBS_DISABLED)
  const bool obs_compiled = false;
#else
  const bool obs_compiled = true;
#endif

  std::string detail = "{\"detail\": {\"workload\": \"" + json_escape(args.workload) +
                       "\", \"mode\": \"" + (args.trace ? "trace" : "end_to_end") + "\"";
  detail += ", \"provenance\": {\"git_rev\": \"" + json_escape(rev) + "\"";
  detail += std::string(", \"dirty\": ") + dirty_json;
  detail += ", \"compiler\": \"" + json_escape(PERFBENCH_COMPILER) + "\"";
  detail += ", \"build_type\": \"" + json_escape(MSROPM_BUILD_TYPE) + "\"";
  detail += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  detail += ", \"threads\": " + std::to_string(threads_);
  detail += ", \"seed\": " + std::to_string(args.seed);
  detail += ", \"seconds\": " + json_number(args.seconds);
  detail += std::string(", \"obs_compiled_in\": ") + (obs_compiled ? "true" : "false");
  detail += ", \"obs_gate\": " + std::to_string(msropm::obs::gate()) + "}";
  detail += ", \"rows\": {";
  bool first = true;
  for (const auto& [name, row] : info_) {
    detail += (first ? "" : ", ") + metric_json(name, row.value, row.unit);
    first = false;
  }
  detail += "}, \"errors\": [";
  first = true;
  for (const auto& e : errors_) {
    detail += (first ? "\"" : ", \"") + json_escape(e) + "\"";
    first = false;
  }
  detail += "]}}";
  std::printf("%s\n", detail.c_str());

  std::string result = std::string("{\"correct\": ") + (correct() ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted_) +
                       ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
  first = true;
  if (args.trace) {
    for (const auto& [name, unit] : per_layer_table()) {
      const auto it = layer_.find(name);
      const double v = it == layer_.end() ? 0.0 : it->second;
      result += (first ? "" : ", ") + metric_json(name, v, unit);
      first = false;
    }
  } else {
    for (const auto& [name, row] : e2e_) {
      result += (first ? "" : ", ") + metric_json(name, row.value, row.unit);
      first = false;
    }
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
}

std::vector<double> per_job_min(const std::vector<std::vector<double>>& samples) {
  std::vector<double> out = samples.empty() ? std::vector<double>{} : samples.front();
  for (const auto& pass : samples) {
    for (std::size_t j = 0; j < out.size(); ++j) out[j] = std::min(out[j], pass.at(j));
  }
  return out;
}

double report_end_to_end(Report& rep, double setup_s, const std::vector<PassTimes>& passes,
                         const JobSamples& jobs) {
  std::vector<double> wall;
  std::vector<double> cpu;
  for (const auto& p : passes) {
    wall.push_back(p.wall_s);
    cpu.push_back(p.cpu_s);
  }
  const std::vector<double> job_ms = per_job_min(jobs.wall_ms);
  double wall_s = *std::min_element(wall.begin(), wall.end());
  double cpu_s = *std::min_element(cpu.begin(), cpu.end());
  if (!jobs.cpu_ms.empty()) {
    const std::vector<double> job_cpu_ms = per_job_min(jobs.cpu_ms);
    wall_s = std::accumulate(job_ms.begin(), job_ms.end(), 0.0) / 1e3;
    cpu_s = std::accumulate(job_cpu_ms.begin(), job_cpu_ms.end(), 0.0) / 1e3;
  }
  const auto jobs_per_pass = static_cast<double>(job_ms.size());
  rep.e2e("setup_s", setup_s, "s");
  rep.e2e("wall_s", wall_s, "s");
  rep.e2e("cpu_s", cpu_s, "s");
  rep.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  rep.e2e("jobs_per_s", jobs_per_pass / wall_s, "1/s");
  rep.e2e("job_p50_ms", quantile(job_ms, 0.5), "ms");
  rep.e2e("job_p90_ms", quantile(job_ms, 0.9), "ms");
  rep.info("passes", static_cast<double>(passes.size()), "count");
  rep.info("jobs_per_pass", jobs_per_pass, "count");
  rep.info("job_latency_samples", jobs_per_pass * static_cast<double>(passes.size()), "count");
  rep.info("wall_s_fastest_pass", *std::min_element(wall.begin(), wall.end()), "s");
  rep.info("wall_s_median_pass", median(wall), "s");
  rep.info("wall_s_slowest_pass", *std::max_element(wall.begin(), wall.end()), "s");
  return wall_s;
}

}  // namespace perfbench
