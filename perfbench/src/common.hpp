#pragma once
// Shared plumbing of the end-to-end benchmark: arguments, clocks, robust
// statistics, the per-layer metric table and the result report.
//
// Output protocol (stdout): one "detail" JSON line (provenance, the
// workload-specific end-to-end rows, paper-fidelity rows, sample counts),
// then, as the LAST line, the result object with exactly the keys
// correct / attempted / failed / metrics. With --trace 0 `metrics` holds the
// end-to-end metrics, with --trace 1 the per-layer metrics. Human-readable
// progress goes to stderr.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;  ///< length of the timed phase
  bool trace = false;     ///< per-layer run instead of the end-to-end run
};

[[nodiscard]] double seconds_since(Clock::time_point t0);
/// User + system CPU of the whole process (all threads), in seconds.
[[nodiscard]] double process_cpu_s();
/// Peak resident set size of the process so far, in MiB.
[[nodiscard]] double peak_rss_mb();
/// Wall time in ms of a fixed single-threaded scalar loop that runs no
/// program code: an indicator of how fast the machine was during the run, for
/// telling program changes from machine noise. Median of `reps` loops.
[[nodiscard]] double calibration_ms(int reps);
/// Worker threads the parallel workloads use: min(4, hardware threads).
[[nodiscard]] unsigned bench_threads();

[[nodiscard]] double median(std::vector<double> v);
/// Linear-interpolation quantile (position q * (n - 1) in sorted order).
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// Stable 64-bit stream id for a (seed, purpose) pair, so each workload part
/// draws from its own reproducible stream.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose);

/// Run `setup` `reps` times and return the median wall time in seconds. The
/// repetitions rebuild identical inputs from the seed; the caller keeps the
/// last one.
template <typename F>
double median_setup_s(int reps, F&& setup) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    setup();
    t.push_back(seconds_since(t0));
  }
  return median(std::move(t));
}

/// Wall and CPU of one timed pass over a workload's job set.
struct PassTimes {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// Drive untraced passes (`pass(false)`) until `budget_s` is used up: the
/// first pass always runs, a later one only while the elapsed time plus the
/// previous pass still fits. Returns the per-pass times in order.
template <typename F>
std::vector<PassTimes> timed_passes(double budget_s, F&& pass) {
  std::vector<PassTimes> out;
  const auto start = Clock::now();
  for (;;) {
    if (!out.empty() && seconds_since(start) + out.back().wall_s > budget_s) break;
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    pass(false);
    out.push_back({seconds_since(t0), process_cpu_s() - cpu0});
  }
  return out;
}

/// Names and units of every per-layer metric, in report order. A workload
/// fills the rows of the layers it exercises; the rows of idle layers stay 0.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_table();

class Report {
 public:
  /// A contract end-to-end metric (final line with --trace 0).
  void e2e(const std::string& name, double value, const std::string& unit);
  /// A per-layer metric; the name must be in per_layer_table().
  void layer(const std::string& name, double value);
  /// A workload-specific end-to-end row printed on the detail line only.
  void info(const std::string& name, double value, const std::string& unit);

  /// Count one answered job; `ok` false records a failed check.
  void job(bool ok, const std::string& what);
  /// A failed check that is not tied to one job (still fails the run).
  void fail(const std::string& what);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] bool correct() const { return failed_ == 0 && errors_.empty(); }

  /// Worker threads the workload ran with (recorded in the provenance).
  void set_threads(unsigned n) { threads_ = n; }

  /// Print the detail line and the result line to stdout.
  void print(const Args& args) const;

 private:
  struct Row {
    double value = 0.0;
    std::string unit;
  };
  std::vector<std::pair<std::string, Row>> e2e_;
  std::vector<std::pair<std::string, Row>> info_;
  std::map<std::string, double> layer_;
  std::vector<std::string> errors_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  unsigned threads_ = 1;
};

/// The traced run's overhead rows: `rounds` alternating untraced
/// (`pass(false)`) and traced (`pass(true)`) passes, the fastest of each, and
/// traced / untraced - 1. A traced pass keeps what the per-layer rows need.
template <typename F>
void measure_trace_overhead(Report& rep, int rounds, F&& pass) {
  double fastest[2] = {1e300, 1e300};
  for (int i = 0; i < rounds; ++i) {
    for (const bool traced : {false, true}) {
      const auto t0 = Clock::now();
      pass(traced);
      fastest[traced] = std::min(fastest[traced], seconds_since(t0));
    }
  }
  rep.layer("trace.untraced_wall_s", fastest[0]);
  rep.layer("trace.traced_wall_s", fastest[1]);
  rep.layer("trace.overhead_share", fastest[1] / fastest[0] - 1.0);
}

/// Per-job samples of the untraced passes, indexed [pass][job].
struct JobSamples {
  std::vector<std::vector<double>> wall_ms;
  /// Process CPU per job; left empty when a pass runs its jobs concurrently.
  std::vector<std::vector<double>> cpu_ms;
};

/// Contract end-to-end rows shared by all workloads; returns wall_s.
///
/// Other tenants of the machine only ever add time, so the time rows use each
/// job's fastest repetition: job latencies are the per-job minimum across
/// passes. When the jobs of a pass run one after another, wall_s and cpu_s
/// are the sums of the per-job minimum wall and CPU (the pass without
/// interference); when they run concurrently, wall_s and cpu_s are the
/// fastest pass. The detail line also carries the fastest, median and
/// slowest pass wall.
double report_end_to_end(Report& rep, double setup_s, const std::vector<PassTimes>& passes,
                         const JobSamples& jobs);

/// Per-job minimum across passes: samples[p][j] is job j's value in pass p.
[[nodiscard]] std::vector<double> per_job_min(
    const std::vector<std::vector<double>>& samples);

void run_paper_table1(const Args& args, Report& rep);
void run_exact_chromatic(const Args& args, Report& rep);
void run_portfolio_race(const Args& args, Report& rep);

}  // namespace perfbench
