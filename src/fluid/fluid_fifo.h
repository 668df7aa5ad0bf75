// Fluid-model FIFO multiplexer, used to validate Propositions 1 and 2
// numerically in the exact setting in which they are proved.
//
// The paper's proofs work with infinitesimal bits served FIFO.  We model
// the queue as an ordered sequence of "slugs": contiguous chunks of fluid,
// each knowing how many bytes of each flow it contains.  Per step of
// length dt the link drains R*dt bytes from the front (proportionally to
// a slug's composition) and each flow appends its arrivals as a new slug
// at the tail, subject to its buffer-occupancy threshold — arrivals that
// would exceed the threshold are dropped and counted.
//
// Flows can be:
//   - rate-driven: a time-varying arrival rate plus optional instantaneous
//     bursts (to reproduce the sigma-dump adversary of the Note after
//     Proposition 2);
//   - greedy: the flow tops its occupancy up to its threshold at every
//     step, the adversary of Example 1 ("Q2(t) = B2 for all t").
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>

namespace bufq {

class FluidFifoSim {
 public:
  /// Arrival rate in bytes/second as a function of time (seconds).
  using RateFn = std::function<double(double)>;

  /// `thresholds[i]` is flow i's maximum buffer occupancy in bytes; the
  /// link serves `link_rate_Bps` bytes/second.
  FluidFifoSim(double link_rate_Bps, std::vector<double> thresholds, double dt = 1e-5);

  /// Installs a rate-driven arrival process for `flow`.
  void set_arrival(std::size_t flow, RateFn rate);

  /// Injects `bytes` instantaneously at time `t` (on top of any rate).
  void add_burst(std::size_t flow, double t, double bytes);

  /// Marks `flow` greedy: at every step it fills its occupancy back up to
  /// its threshold.
  void set_greedy(std::size_t flow);

  /// Advances the simulation to absolute time `t_end`.
  void run_until(double t_end);

  [[nodiscard]] double now() const { return now_; }
  [[nodiscard]] double occupancy(std::size_t flow) const;
  [[nodiscard]] double max_occupancy(std::size_t flow) const;
  [[nodiscard]] double delivered(std::size_t flow) const;
  [[nodiscard]] double dropped(std::size_t flow) const;
  [[nodiscard]] double total_occupancy() const;

 private:
  struct Slug {
    std::vector<double> per_flow;
    double total{0.0};
  };

  void step();
  void admit(std::size_t flow, double bytes, Slug& tail);
  void drain(double bytes);

  double link_rate_;
  std::vector<double> thresholds_;
  double dt_;
  double now_{0.0};

  std::vector<RateFn> rates_;
  std::vector<bool> greedy_;
  std::multimap<double, std::pair<std::size_t, double>> bursts_;  // t -> (flow, bytes)

  std::deque<Slug> queue_;
  std::vector<double> occupancy_;
  std::vector<double> max_occupancy_;
  std::vector<double> delivered_;
  std::vector<double> dropped_;
};

}  // namespace bufq
