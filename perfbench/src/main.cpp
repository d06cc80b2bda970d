// perfbench: the end-to-end benchmark of the MSROPM reproduction.
//
//   perfbench --workload paper_table1|exact_chromatic|portfolio_race
//             --seed N --seconds S --trace 0|1
//
// Exit code 0 when every answer checked out, 1 when a check failed (the
// result line is still printed, with "correct": false), 2 on a usage error.
// See perfbench/README.md for the workloads and the metric map.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload paper_table1|exact_chromatic|"
               "portfolio_race --seed N --seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || args.seconds <= 0.0) return usage();

  perfbench::Report rep;
  const double calibration_before = perfbench::calibration_ms(5);
  try {
    if (args.workload == "paper_table1") {
      perfbench::run_paper_table1(args, rep);
    } else if (args.workload == "exact_chromatic") {
      perfbench::run_exact_chromatic(args, rep);
    } else if (args.workload == "portfolio_race") {
      perfbench::run_portfolio_race(args, rep);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    rep.fail(std::string("exception: ") + e.what());
  }
  rep.info("calibration_ms", 0.5 * (calibration_before + perfbench::calibration_ms(5)),
           "ms");
  const double attempted = static_cast<double>(rep.attempted());
  rep.info("failed_fraction",
           attempted > 0 ? static_cast<double>(rep.failed()) / attempted : 1.0,
           "fraction");
  rep.print(args);
  return rep.correct() && rep.attempted() > 0 ? 0 : 1;
}
