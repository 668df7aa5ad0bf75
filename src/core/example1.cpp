#include "core/example1.h"

#include <cassert>
#include <cmath>

#include "core/analysis.h"

namespace bufq {

Example1Dynamics::Example1Dynamics(Rate link_rate, Rate rho1, ByteSize total_buffer)
    : link_rate_{link_rate}, rho1_{rho1} {
  assert(link_rate.bps() > 0.0);
  assert(rho1.bps() > 0.0 && rho1 < link_rate);
  assert(total_buffer.count() > 0);
  b1_ = prop1_threshold_bytes(total_buffer, rho1, link_rate);
  b2_ = static_cast<double>(total_buffer.count()) - b1_;
}

std::vector<Example1Interval> Example1Dynamics::intervals(int count) const {
  assert(count >= 0);
  std::vector<Example1Interval> result;
  result.reserve(static_cast<std::size_t>(count));
  const double r = link_rate_.bps() / 8.0;    // bytes/s
  const double rho = rho1_.bps() / 8.0;       // bytes/s
  double start = 0.0;
  double l = b2_ / r;  // l_1 = B2 / R
  for (int i = 1; i <= count; ++i) {
    const double rate2_bytes = b2_ / l;  // R_i^2 = B2 / l_i
    const double rate1_bytes = r - rate2_bytes;
    result.push_back(Example1Interval{
        .index = i,
        .start_s = start,
        .end_s = start + l,
        .length_s = l,
        .rate_flow1_bps = rate1_bytes * 8.0,
        .rate_flow2_bps = rate2_bytes * 8.0,
        .q1_end_bytes = rho * l,
    });
    start += l;
    l = (rho / r) * l + b2_ / r;  // l_{i+1} = (rho1/R) l_i + B2/R
  }
  return result;
}

Example1Limits Example1Dynamics::limits() const {
  const double r = link_rate_.bps() / 8.0;
  const double rho = rho1_.bps() / 8.0;
  return Example1Limits{
      .interval_length_s = b2_ / (r - rho),
      .rate_flow1_bps = rho1_.bps(),
      .rate_flow2_bps = link_rate_.bps() - rho1_.bps(),
  };
}

int Example1Dynamics::intervals_to_converge(double tolerance, int max_intervals) const {
  assert(tolerance > 0.0);
  const double r = link_rate_.bps() / 8.0;
  const double rho = rho1_.bps() / 8.0;
  double l = b2_ / r;
  for (int i = 1; i <= max_intervals; ++i) {
    const double rate1 = r - b2_ / l;
    if (std::abs(rate1 - rho) <= tolerance * rho) return i;
    l = (rho / r) * l + b2_ / r;
  }
  return max_intervals;
}

}  // namespace bufq
