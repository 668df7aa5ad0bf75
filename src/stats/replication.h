// Confidence intervals.  The paper averages 5 independent simulation runs
// and reports 95% confidence intervals; this module supplies the Student-t
// half-widths.  The replication itself (seeding, fan-out, folding) is the
// sweep engine's job: see expt/sweep.h.
#pragma once

#include <cstddef>
#include <vector>

namespace bufq {

/// Mean and 95% confidence half-width of a sample.
struct Summary {
  double mean{0.0};
  double half_width_95{0.0};
  std::size_t n{0};

  [[nodiscard]] double lower() const { return mean - half_width_95; }
  [[nodiscard]] double upper() const { return mean + half_width_95; }
  /// Half-width as a fraction of the mean (the paper quotes "within 2%").
  [[nodiscard]] double relative_half_width() const;
};

/// Two-sided 95% Student-t critical value for `df` degrees of freedom.
[[nodiscard]] double t_critical_95(std::size_t df);

/// Sample mean / CI.  n == 1 yields a zero half-width.
[[nodiscard]] Summary summarize(const std::vector<double>& samples);

}  // namespace bufq
