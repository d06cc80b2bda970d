#include "msropm/core/schedule.hpp"

#include <cmath>
#include <initializer_list>

namespace msropm::core {

double StageSchedule::total_time_s(unsigned num_stages) const noexcept {
  if (num_stages == 0) return 0.0;
  return init_s +
         static_cast<double>(num_stages) * (anneal_s + discretize_s) +
         static_cast<double>(num_stages - 1) * reinit_s;
}

bool StageSchedule::valid() const noexcept {
  for (const double window : {init_s, anneal_s, discretize_s, reinit_s}) {
    if (!std::isfinite(window) || window <= 0.0) return false;
  }
  return true;
}

}  // namespace msropm::core
