// Confidence intervals.  The paper averages 5 independent simulation runs
// and reports 95% confidence intervals; this module supplies the Student-t
// half-widths.  The replication itself (seeding, fan-out, folding) is the
// sweep engine's job: see expt/sweep.h.
#pragma once

#include <cstddef>
#include <vector>

namespace bufq {

/// Mean, sample stddev and 95% Student-t half-width of a sample.
struct Summary {
  double mean{0.0};
  double stddev{0.0};
  double ci95{0.0};
  std::size_t n{0};
};

/// Two-sided 95% Student-t critical value for `df` degrees of freedom.
[[nodiscard]] double t_critical_95(std::size_t df);

/// Sample mean / stddev / CI.  n == 1 yields a zero stddev and half-width.
[[nodiscard]] Summary summarize(const std::vector<double>& samples);

}  // namespace bufq
