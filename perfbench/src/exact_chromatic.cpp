// Workload exact_chromatic: the paper's grading path. Single-threaded
// sat::chromatic_search with product defaults (incremental + presimplify)
// over two seeded families:
//   - King's grids: clique-tight, zero conflicts, so construction (clique,
//     encode, presimplify, ingest) dominates;
//   - near-threshold G(n,p): conflict-heavy, so search dominates.
// A job is one chi query. Answers are checked against references computed
// after set-up and before the timed phase.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "instances.hpp"
#include "msropm/graph/coloring.hpp"
#include "msropm/sat/coloring_encoder.hpp"
#include "msropm/sat/incremental_coloring.hpp"
#include "msropm/sat/solver.hpp"

namespace perfbench {
namespace {

using namespace msropm;

constexpr unsigned kMaxK = 12;
const char* const kFamilies[] = {"kings", "gnp"};

std::vector<Instance> build_jobs(std::uint64_t seed) {
  // 132 King's grids, rows 8..40 (four times each), columns rows +- 3.
  std::vector<Instance> jobs = kings_family(132, 8, 33, 3, derive_seed(seed, 20));
  // 800 G(n,p) graphs, n = 64..80, average degree 8.5 (chi 4 or 5).
  auto gnp = gnp_family(800, 64, 17, 8.5, derive_seed(seed, 21));
  for (auto& g : gnp) jobs.push_back(std::move(g));
  return jobs;
}

/// Solver statistics summed over one family's jobs in one pass.
struct FamilyCounts {
  std::uint64_t conflicts = 0, decisions = 0, propagations = 0, learnts = 0;
  std::uint64_t solve_calls = 0, arena_peak_words = 0;
  double wall_s = 0.0;
  [[nodiscard]] bool same_counts(const FamilyCounts& o) const {
    return conflicts == o.conflicts && decisions == o.decisions &&
           propagations == o.propagations && learnts == o.learnts &&
           solve_calls == o.solve_calls && arena_peak_words == o.arena_peak_words;
  }
};

/// Time the public construction and search calls chromatic_search is built
/// from, replayed on one family: greedy_clique, encode_coloring, Solver
/// construction (split into presimplify and ingest), Solver::solve at chi
/// (and chi - 1 when the clique bound is below chi), decode + verify.
void replay_layers(const std::vector<Instance>& jobs, const std::string& family,
                   const FamilyCounts& counts, Report& rep) {
  double clique_s = 0.0, encode_s = 0.0, presimplify_s = 0.0, ingest_s = 0.0;
  double search_s = 0.0, decode_s = 0.0, reduction = 0.0;
  std::size_t solvers = 0;
  sat::SolverOptions profile = sat::exact_coloring_solver_options();
  profile.presimplify = true;
  for (const auto& job : jobs) {
    if (job.family != family) continue;
    const graph::Graph& g = *job.graph;
    auto t0 = Clock::now();
    const auto clique = sat::greedy_clique(g);
    clique_s += seconds_since(t0);
    const unsigned lb = std::max<unsigned>(2, static_cast<unsigned>(clique.size()));
    std::vector<unsigned> ks = {job.chromatic};
    if (lb < job.chromatic) ks.insert(ks.begin(), job.chromatic - 1);
    for (const unsigned k : ks) {
      t0 = Clock::now();
      const auto enc = sat::encode_coloring(g, k);
      encode_s += seconds_since(t0);
      t0 = Clock::now();
      sat::Solver solver(enc.cnf, profile);
      const double ctor_s = seconds_since(t0);
      const double pre_s = solver.preprocess_stats() ? solver.preprocess_stats()->seconds : 0.0;
      presimplify_s += pre_s;
      ingest_s += ctor_s - pre_s;
      if (solver.preprocess_stats()) reduction += solver.preprocess_stats()->clause_reduction();
      ++solvers;
      t0 = Clock::now();
      const auto result = solver.solve();
      search_s += seconds_since(t0);
      const bool expect_sat = k >= job.chromatic;
      if (result != (expect_sat ? sat::SolveResult::kSat : sat::SolveResult::kUnsat)) {
        rep.fail("replayed solve disagrees with the reference chi");
      }
      if (result == sat::SolveResult::kSat) {
        t0 = Clock::now();
        const auto coloring = enc.decode(solver.model());
        const bool ok = graph::is_proper_coloring(g, coloring, k);
        decode_s += seconds_since(t0);
        if (!ok) rep.fail("replayed model decodes to an improper coloring");
      }
    }
  }
  const std::string f = "." + family;
  const double attributed = clique_s + encode_s + presimplify_s + ingest_s + search_s + decode_s;
  rep.layer("sat.clique_s" + f, clique_s);
  rep.layer("sat.encode_s" + f, encode_s);
  rep.layer("sat.presimplify_s" + f, presimplify_s);
  rep.layer("sat.ingest_s" + f, ingest_s);
  rep.layer("sat.search_s" + f, search_s);
  rep.layer("sat.decode_verify_s" + f, decode_s);
  rep.layer("sat.chromatic_search_s" + f, counts.wall_s);
  rep.layer("sat.unattributed_share" + f, 1.0 - attributed / counts.wall_s);
  rep.layer("sat.conflicts" + f, static_cast<double>(counts.conflicts));
  rep.layer("sat.decisions" + f, static_cast<double>(counts.decisions));
  rep.layer("sat.propagations" + f, static_cast<double>(counts.propagations));
  rep.layer("sat.learnts" + f, static_cast<double>(counts.learnts));
  rep.layer("sat.solve_calls" + f, static_cast<double>(counts.solve_calls));
  rep.layer("sat.arena_peak_words" + f, static_cast<double>(counts.arena_peak_words));
  rep.layer("sat.props_per_s" + f, static_cast<double>(counts.propagations) / counts.wall_s);
  rep.layer("sat.conflicts_per_s" + f, static_cast<double>(counts.conflicts) / counts.wall_s);
  rep.layer("sat.clause_reduction" + f,
            solvers ? reduction / static_cast<double>(solvers) : 0.0);
}

}  // namespace

void run_exact_chromatic(const Args& args, Report& rep) {
  rep.set_threads(1);
  std::vector<Instance> jobs;
  const double setup_s = median_setup_s(9, [&] { jobs = build_jobs(args.seed); });
  // References: outside set-up and outside the timed phase.
  if (!compute_references(jobs, kMaxK)) {
    rep.fail("a reference chromatic number could not be decided");
    return;
  }

  JobSamples samples;  // untraced passes
  std::vector<FamilyCounts> first_counts;  // pass 0, which later passes must repeat
  std::vector<FamilyCounts> traced_counts;  // fastest family walls of the traced passes
  auto pass = [&](bool traced) {
    std::vector<double> ms(jobs.size());
    std::vector<double> cpu_ms(jobs.size());
    std::vector<FamilyCounts> counts(2);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const Instance& job = jobs[j];
      const double cpu0 = process_cpu_s();
      const auto t0 = Clock::now();
      const auto out = sat::chromatic_search(*job.graph, kMaxK);
      const double s = seconds_since(t0);
      ms[j] = s * 1e3;
      cpu_ms[j] = (process_cpu_s() - cpu0) * 1e3;
      const bool ok = out.chromatic && *out.chromatic == job.chromatic && !out.incomplete &&
                      graph::is_proper_coloring(*job.graph, out.coloring, job.chromatic);
      rep.job(ok, job.family + " job " + std::to_string(j) + ": wrong or undecided chi");
      FamilyCounts& c = counts[job.family == "kings" ? 0 : 1];
      c.conflicts += out.stats.conflicts;
      c.decisions += out.stats.decisions;
      c.propagations += out.stats.propagations;
      c.learnts += out.stats.learnt_clauses;
      c.solve_calls += out.solve_calls;
      c.arena_peak_words = std::max<std::uint64_t>(c.arena_peak_words,
                                                   out.stats.arena_peak_words);
      c.wall_s += s;
    }
    if (first_counts.empty()) {
      first_counts = counts;
    } else if (!counts[0].same_counts(first_counts[0]) ||
               !counts[1].same_counts(first_counts[1])) {
      rep.fail("solver counts differ between passes of the same seed");
    }
    if (!traced) {
      samples.wall_ms.push_back(std::move(ms));
      samples.cpu_ms.push_back(std::move(cpu_ms));
    } else if (traced_counts.empty()) {
      traced_counts = counts;
    } else {
      for (std::size_t f = 0; f < 2; ++f) {
        traced_counts[f].wall_s = std::min(traced_counts[f].wall_s, counts[f].wall_s);
      }
    }
  };

  if (!args.trace) {
    const auto passes = timed_passes(args.seconds, pass);
    report_end_to_end(rep, setup_s, passes, samples);
    const auto per_job = per_job_min(samples.wall_ms);
    for (const char* fam : kFamilies) {
      std::vector<double> ms;
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        if (jobs[j].family == fam) ms.push_back(per_job[j]);
      }
      rep.info(std::string("job_p50_ms.") + fam, quantile(ms, 0.5), "ms");
      rep.info(std::string("job_p90_ms.") + fam, quantile(ms, 0.9), "ms");
    }
  } else {
    measure_trace_overhead(rep, 3, pass);
    rep.layer("graph.build_s", median_setup_s(3, [&] { (void)build_jobs(args.seed); }));
    replay_layers(jobs, "kings", traced_counts[0], rep);
    replay_layers(jobs, "gnp", traced_counts[1], rep);
  }
  for (std::size_t f = 0; f < 2; ++f) {
    const std::string fam = kFamilies[f];
    rep.info("sat_conflicts." + fam, static_cast<double>(first_counts[f].conflicts), "count");
    rep.info("sat_propagations." + fam, static_cast<double>(first_counts[f].propagations),
             "count");
  }
}

}  // namespace perfbench
