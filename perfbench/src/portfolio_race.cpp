// Workload portfolio_race: portfolio::run_portfolio_batch with the default
// strategy lineup, the instance-major (racing) schedule and bench_threads()
// workers over a seeded mix of K-coloring decisions:
//   - King's grids at K = 4 (SAT) and K = 3 (UNSAT),
//   - G(n,p) graphs at K = chi (SAT) and K = chi - 1 (UNSAT).
// Many short, cancellable, concurrent solves racing heuristics: the only
// workload that exercises scheduling, cancellation and thread contention.
// A job is one instance; its latency is the wall time of its winning attempt.

#include <algorithm>
#include <string>
#include <vector>

#include "common.hpp"
#include "instances.hpp"
#include "msropm/graph/coloring.hpp"
#include "msropm/portfolio/portfolio.hpp"

namespace perfbench {
namespace {

using namespace msropm;

constexpr unsigned kMaxK = 12;
const char* const kStrategies[] = {"dsatur", "cdcl", "cdcl-pre", "tabucol", "sa"};

struct Decision {
  const Instance* instance = nullptr;
  unsigned k = 0;
  bool colorable = false;  ///< reference verdict
};

std::vector<Instance> build_instances(std::uint64_t seed) {
  // 160 King's grids, rows 16..55 (four times each), columns rows +- 3.
  std::vector<Instance> out = kings_family(160, 16, 40, 3, derive_seed(seed, 30));
  // 320 G(n,p) graphs, n = 60..91 (ten times each), average degree 8.5.
  auto gnp = gnp_family(320, 60, 32, 8.5, derive_seed(seed, 31));
  for (auto& g : gnp) out.push_back(std::move(g));
  return out;
}

/// Alternate SAT (K = chi) and UNSAT (K = chi - 1) decisions; the parity
/// flips every 20 instances so both verdicts cover every size of the cycle.
/// Needs references.
std::vector<Decision> decisions_for(const std::vector<Instance>& instances) {
  std::vector<Decision> out;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Instance& inst = instances[i];
    const unsigned chi = inst.chromatic;
    const unsigned k = ((i + i / 20) % 2 == 0 || chi <= 2) ? chi : chi - 1;
    out.push_back({&inst, k, k >= chi});
  }
  return out;
}

}  // namespace

void run_portfolio_race(const Args& args, Report& rep) {
  const unsigned threads = bench_threads();
  rep.set_threads(threads);
  std::vector<Instance> instances;
  const double setup_s = median_setup_s(9, [&] { instances = build_instances(args.seed); });
  // References (and the K of each decision): outside set-up and timing.
  if (!compute_references(instances, kMaxK)) {
    rep.fail("a reference chromatic number could not be decided");
    return;
  }
  const std::vector<Decision> decisions = decisions_for(instances);
  std::vector<portfolio::PortfolioJob> jobs;
  for (const auto& d : decisions) jobs.push_back({d.instance->graph.get(), d.k});

  portfolio::PortfolioOptions options;  // default lineup
  options.num_workers = threads;
  options.master_seed = derive_seed(args.seed, 32);

  JobSamples samples;  // untraced passes; jobs run concurrently, so no per-job CPU
  std::vector<portfolio::PortfolioResult> traced_results;  // last traced pass
  auto pass = [&](bool traced) {
    auto results =
        portfolio::run_portfolio_batch(jobs, options, portfolio::Schedule::kInstanceMajor);
    std::vector<double> ms(jobs.size(), 0.0);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const auto& r = results.at(j);
      const Decision& d = decisions[j];
      bool ok = r.winner >= 0 &&
                r.verdict == (d.colorable ? portfolio::Verdict::kColored
                                          : portfolio::Verdict::kUnsat);
      if (ok && d.colorable) {
        ok = r.coloring && graph::is_proper_coloring(*d.instance->graph, *r.coloring, d.k);
      }
      if (r.winner >= 0) {
        ms[j] = r.outcomes.at(static_cast<std::size_t>(r.winner)).millis;
      }
      rep.job(ok, d.instance->family + " K=" + std::to_string(d.k) + " job " +
                      std::to_string(j) + ": wrong or undecided verdict");
    }
    if (traced) {
      traced_results = std::move(results);
    } else {
      samples.wall_ms.push_back(std::move(ms));
    }
  };

  if (!args.trace) {
    const auto passes = timed_passes(args.seconds, pass);
    report_end_to_end(rep, setup_s, passes, samples);
    return;
  }

  measure_trace_overhead(rep, 3, pass);
  rep.layer("graph.build_s", median_setup_s(3, [&] { (void)build_instances(args.seed); }));

  double ran = 0.0, cancelled = 0.0, skipped = 0.0, useful_ms = 0.0, all_ms = 0.0;
  std::vector<double> attempt_ms(std::size(kStrategies), 0.0);
  std::vector<double> wins(std::size(kStrategies), 0.0);
  const auto slot_of = [](portfolio::StrategyKind kind) {
    const std::string name = portfolio::to_string(kind);
    const auto* it = std::find(std::begin(kStrategies), std::end(kStrategies), name);
    return static_cast<std::size_t>(it - std::begin(kStrategies));
  };
  for (const auto& r : traced_results) {
    for (std::size_t s = 0; s < r.outcomes.size(); ++s) {
      const auto& o = r.outcomes[s];
      const std::size_t slot = slot_of(o.kind);
      if (slot >= attempt_ms.size()) {
        rep.fail("portfolio ran a strategy outside the default lineup");
        continue;
      }
      if (!o.ran) {
        skipped += 1.0;
        continue;
      }
      ran += 1.0;
      if (o.cancelled) cancelled += 1.0;
      attempt_ms[slot] += o.millis;
      all_ms += o.millis;
      if (static_cast<int>(s) == r.winner) {
        wins[slot] += 1.0;
        useful_ms += o.millis;
      }
    }
  }
  rep.layer("portfolio.attempts_ran", ran);
  rep.layer("portfolio.attempts_cancelled", cancelled);
  rep.layer("portfolio.attempts_skipped", skipped);
  for (std::size_t s = 0; s < std::size(kStrategies); ++s) {
    rep.layer(std::string("portfolio.attempt_ms.") + kStrategies[s], attempt_ms[s]);
    rep.layer(std::string("portfolio.wins.") + kStrategies[s], wins[s]);
  }
  rep.layer("portfolio.useful_share", all_ms > 0.0 ? useful_ms / all_ms : 0.0);
}

}  // namespace perfbench
