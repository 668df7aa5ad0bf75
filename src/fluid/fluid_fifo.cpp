#include "fluid/fluid_fifo.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace bufq {

FluidFifoSim::FluidFifoSim(double link_rate_Bps, std::vector<double> thresholds, double dt)
    : link_rate_{link_rate_Bps}, thresholds_{std::move(thresholds)}, dt_{dt} {
  assert(link_rate_ > 0.0);
  assert(dt_ > 0.0);
  const std::size_t n = thresholds_.size();
  assert(n > 0);
  rates_.resize(n);
  greedy_.assign(n, false);
  occupancy_.assign(n, 0.0);
  max_occupancy_.assign(n, 0.0);
  delivered_.assign(n, 0.0);
  dropped_.assign(n, 0.0);
}

void FluidFifoSim::set_arrival(std::size_t flow, RateFn rate) {
  assert(flow < rates_.size());
  rates_[flow] = std::move(rate);
}

void FluidFifoSim::add_burst(std::size_t flow, double t, double bytes) {
  assert(flow < rates_.size());
  assert(t >= now_);
  assert(bytes >= 0.0);
  bursts_.insert({t, {flow, bytes}});
}

void FluidFifoSim::set_greedy(std::size_t flow) {
  assert(flow < rates_.size());
  greedy_[flow] = true;
}

double FluidFifoSim::occupancy(std::size_t flow) const {
  assert(flow < occupancy_.size());
  return occupancy_[flow];
}

double FluidFifoSim::max_occupancy(std::size_t flow) const {
  assert(flow < max_occupancy_.size());
  return max_occupancy_[flow];
}

double FluidFifoSim::delivered(std::size_t flow) const {
  assert(flow < delivered_.size());
  return delivered_[flow];
}

double FluidFifoSim::dropped(std::size_t flow) const {
  assert(flow < dropped_.size());
  return dropped_[flow];
}

double FluidFifoSim::total_occupancy() const {
  double sum = 0.0;
  for (double q : occupancy_) sum += q;
  return sum;
}

void FluidFifoSim::admit(std::size_t flow, double bytes, Slug& tail) {
  if (bytes <= 0.0) return;
  const double room = thresholds_[flow] - occupancy_[flow];
  const double taken = std::clamp(bytes, 0.0, std::max(room, 0.0));
  double refused = bytes - taken;
  // Sub-microbyte refusals are floating-point dust from the proportional
  // drain, not losses.
  if (refused < 1e-6) refused = 0.0;
  if (taken > 0.0) {
    tail.per_flow[flow] += taken;
    tail.total += taken;
    occupancy_[flow] += taken;
    max_occupancy_[flow] = std::max(max_occupancy_[flow], occupancy_[flow]);
  }
  dropped_[flow] += refused;
}

void FluidFifoSim::drain(double bytes) {
  double budget = bytes;
  while (budget > 0.0 && !queue_.empty()) {
    Slug& head = queue_.front();
    if (head.total <= budget) {
      for (std::size_t f = 0; f < head.per_flow.size(); ++f) {
        delivered_[f] += head.per_flow[f];
        occupancy_[f] -= head.per_flow[f];
      }
      budget -= head.total;
      queue_.pop_front();
    } else {
      const double frac = budget / head.total;
      for (std::size_t f = 0; f < head.per_flow.size(); ++f) {
        const double part = head.per_flow[f] * frac;
        delivered_[f] += part;
        occupancy_[f] -= part;
        head.per_flow[f] -= part;
      }
      head.total -= budget;
      budget = 0.0;
    }
  }
  // Clamp negative dust from repeated proportional splits.
  for (double& q : occupancy_) {
    if (q < 0.0 && q > -1e-6) q = 0.0;
  }
}

void FluidFifoSim::step() {
  const double t_next = now_ + dt_;

  // 1. Serve R*dt bytes in FIFO order.
  drain(link_rate_ * dt_);

  // 2. Rate-driven arrivals over (now, t_next], appended as one tail slug.
  Slug tail;
  tail.per_flow.assign(thresholds_.size(), 0.0);
  for (std::size_t f = 0; f < rates_.size(); ++f) {
    if (rates_[f]) admit(f, rates_[f](now_) * dt_, tail);
  }

  // 3. Scheduled bursts due in (now, t_next].
  while (!bursts_.empty() && bursts_.begin()->first <= t_next) {
    const auto [flow, bytes] = bursts_.begin()->second;
    admit(flow, bytes, tail);
    bursts_.erase(bursts_.begin());
  }

  // 4. Greedy flows top up to their threshold.
  for (std::size_t f = 0; f < greedy_.size(); ++f) {
    if (greedy_[f]) admit(f, thresholds_[f] - occupancy_[f], tail);
  }

  if (tail.total > 0.0) queue_.push_back(std::move(tail));
  now_ = t_next;
}

void FluidFifoSim::run_until(double t_end) {
  assert(t_end >= now_);
  while (now_ + dt_ <= t_end + 1e-12) step();
}

}  // namespace bufq
