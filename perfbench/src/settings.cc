// The engine settings every workload runs under, set field by field so
// that a changed library default cannot change what is measured.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "workloads.h"

namespace perfbench {

using namespace reoptdb;

ReoptOptions BenchReopt(ReoptMode mode) {
  ReoptOptions o;
  o.mode = mode;
  o.mu = 0.05;
  o.theta1 = 0.05;
  o.theta2 = 0.2;
  o.max_plan_switches = 2;
  o.mid_execution_memory = false;
  o.histogram_buckets = 50;
  o.reservoir_capacity = 1024;
  o.max_reopt_failures = 2;
  o.deadline_ms = 0;
  o.stats_churn_theta = 0;
  o.fault_inject_after_switch = false;
  o.batch_size = 1024;
  return o;
}

std::string DescribeSettings() {
  const ReoptOptions r = BenchReopt(ReoptMode::kFull);
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "build=%s NDEBUG=1; reopt: mu=%g theta1=%g theta2=%g "
      "max_plan_switches=%d mid_execution_memory=%d histogram_buckets=%d "
      "reservoir_capacity=%zu max_reopt_failures=%d deadline_ms=%g "
      "stats_churn_theta=%g batch_size=%zu",
      PERFBENCH_BUILD_TYPE, r.mu, r.theta1, r.theta2, r.max_plan_switches,
      r.mid_execution_memory ? 1 : 0, r.histogram_buckets,
      r.reservoir_capacity, r.max_reopt_failures, r.deadline_ms,
      r.stats_churn_theta, r.batch_size);
  return buf;
}

int RoundsFor(int seconds, double nominal_round_s, int min_rounds) {
  return std::max(min_rounds,
                  static_cast<int>(std::lround(seconds / nominal_round_s)));
}

}  // namespace perfbench
