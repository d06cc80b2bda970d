// Tests for the MSROPM stage schedule.
#include "msropm/core/schedule.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace {

using msropm::core::StageSchedule;

TEST(Schedule, PaperDefaultIs60ns) {
  const auto s = StageSchedule::paper_default();
  // 5 init + 2*(20 anneal + 5 lock) + 1*5 reinit = 60 ns (paper Sec. 4.1).
  EXPECT_NEAR(s.total_time_s(2), 60e-9, 1e-15);
}

TEST(Schedule, SingleStageIs30ns) {
  const auto s = StageSchedule::paper_default();
  EXPECT_NEAR(s.total_time_s(1), 30e-9, 1e-15);
}

TEST(Schedule, ThreeStageExtension) {
  // 8-coloring: one more anneal+lock window plus one more reinit.
  const auto s = StageSchedule::paper_default();
  EXPECT_NEAR(s.total_time_s(3), 90e-9, 1e-15);
}

TEST(Schedule, ZeroStages) {
  EXPECT_DOUBLE_EQ(StageSchedule::paper_default().total_time_s(0), 0.0);
}

TEST(Schedule, TotalIsIndependentOfProblemSize) {
  // The constant-time property: nothing in the schedule depends on n.
  const auto s = StageSchedule::paper_default();
  const double t = s.total_time_s(2);
  EXPECT_DOUBLE_EQ(t, s.total_time_s(2));
}

TEST(Schedule, Validity) {
  StageSchedule s;
  EXPECT_TRUE(s.valid());
  s.anneal_s = 0.0;
  EXPECT_FALSE(s.valid());
  s = StageSchedule{};
  s.init_s = -1e-9;
  EXPECT_FALSE(s.valid());
  // A NaN or infinite window has no step count in the phase integrator.
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    for (double StageSchedule::*window :
         {&StageSchedule::init_s, &StageSchedule::anneal_s,
          &StageSchedule::discretize_s, &StageSchedule::reinit_s}) {
      s = StageSchedule{};
      s.*window = bad;
      EXPECT_FALSE(s.valid()) << bad;
    }
  }
}

TEST(Schedule, CustomDurations) {
  StageSchedule s;
  s.init_s = 1e-9;
  s.anneal_s = 2e-9;
  s.discretize_s = 3e-9;
  s.reinit_s = 4e-9;
  // 1 + 3*(2+3) + 2*4 = 24 ns.
  EXPECT_NEAR(s.total_time_s(3), 24e-9, 1e-15);
}

}  // namespace
