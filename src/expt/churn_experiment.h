// Experiment pipeline for flow churn: where run_experiment() wires a
// *fixed* flow set, this runner lets the ChurnDriver admit and tear down
// flows while the simulation is running, and reports the teletraffic
// metrics the paper's admission story implies — blocking probability,
// achieved utilization, and guarantee violations.  It runs on the same
// RunHarness lifecycle as the single-link and fabric runs (run-private
// checker and metrics, warmup snapshot, settle at the horizon).
#pragma once

#include <cstdint>

#include "admission/admission_controller.h"
#include "admission/churn_driver.h"
#include "stats/collector.h"
#include "util/units.h"

namespace bufq {

/// End-to-end scheme under churn: the admission scheme also picks the
/// scheduler (FIFO or per-flow WFQ) and the per-packet manager
/// (thresholds, or holes/headroom sharing under kFifoSharing).
using ChurnScheme = admission::Scheme;

struct ChurnConfig {
  Rate link_rate;
  ByteSize buffer;
  ChurnScheme scheme{ChurnScheme::kFifoThreshold};
  /// Headroom H for ChurnScheme::kFifoSharing.
  ByteSize headroom{ByteSize::kilobytes(100.0)};
  /// Concurrent-flow ceiling: FlowTable slots (and WFQ classes).
  std::size_t max_flows{1024};
  admission::ChurnDriver::Config churn;
  /// Counters before this instant are discarded.
  Time warmup{Time::seconds(2)};
  /// Measured interval.
  Time duration{Time::seconds(20)};
  std::uint64_t seed{1};
};

struct ChurnResult {
  admission::ChurnDriver::Counters counters;
  /// Aggregate byte/packet counters over the measured interval.
  FlowCounters traffic;
  Time interval{Time::zero()};
  double blocking_probability{0.0};
  /// Delivered bits / link capacity over the measured interval.
  double utilization{0.0};
  double mean_active_flows{0.0};
  double mean_reserved_utilization{0.0};
  /// Flows still holding or draining when the horizon was reached.
  std::size_t active_at_end{0};
  /// Invariant audit of this run alone (see ExperimentResult).
  std::uint64_t checks_run{0};
  std::uint64_t check_violations{0};
};

/// Runs one churn experiment to completion.  Throws std::invalid_argument
/// for an empty flow mix, a non-positive duration or max_flows == 0.
[[nodiscard]] ChurnResult run_churn_experiment(const ChurnConfig& config);

}  // namespace bufq
