#include "stats/replication.h"

#include <cassert>
#include <cmath>
#include <iterator>
#include <numeric>

namespace bufq {

double Summary::relative_half_width() const {
  return mean != 0.0 ? std::abs(half_width_95 / mean) : 0.0;
}

double t_critical_95(std::size_t df) {
  // Two-sided 95% quantiles of the t distribution; beyond the table the
  // normal approximation is within 0.5%.
  static constexpr double kTable[] = {
      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
      2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
      2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
  };
  assert(df >= 1);
  if (df <= std::size(kTable)) return kTable[df - 1];
  return 1.960;
}

Summary summarize(const std::vector<double>& samples) {
  assert(!samples.empty());
  const auto n = samples.size();
  const double mean = std::accumulate(samples.begin(), samples.end(), 0.0) /
                      static_cast<double>(n);
  if (n == 1) return Summary{mean, 0.0, 1};
  double ss = 0.0;
  for (double x : samples) ss += (x - mean) * (x - mean);
  const double stddev = std::sqrt(ss / static_cast<double>(n - 1));
  const double half = t_critical_95(n - 1) * stddev / std::sqrt(static_cast<double>(n));
  return Summary{mean, half, n};
}

}  // namespace bufq
