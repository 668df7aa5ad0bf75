// One-stop experiment pipeline: wires sources -> (shapers) -> offered-
// traffic tap -> scheduler+buffer-manager -> link -> stats, runs a warmup
// plus a measured interval, and returns per-flow steady-state counters.
// Every simulation figure of the paper is a sweep over these runs.
//
// This header also holds the scheme vocabulary every multiplexer shares —
// which discipline serves the queue and which buffer manager admits into
// it — and build_port, the one builder that turns a scheme into a
// multiplexer's manager and discipline.  The single-link run and every
// fabric hop build their ports with it; the CLIs parse scheme names here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/buffer_manager.h"
#include "core/flow_spec.h"
#include "obs/metrics.h"
#include "sim/packet.h"
#include "sim/queue_discipline.h"
#include "traffic/sources.h"
#include "stats/collector.h"
#include "traffic/profile.h"
#include "util/units.h"

namespace bufq {

enum class SchedulerKind {
  kFifo,    ///< single FIFO queue
  kWfq,     ///< per-flow WFQ, weights = token rates
  kHybrid,  ///< k FIFO queues under WFQ (Section 4)
};

enum class ManagerKind {
  kNone,              ///< shared tail drop ("no buffer management")
  kThreshold,         ///< fixed-partition thresholds (Section 3.2)
  kSharing,           ///< buffer sharing with holes/headroom (Section 3.3)
  kSelectiveSharing,  ///< Section 5 extension: only regulated flows borrow
  kDynamicThreshold,  ///< Choudhury-Hahne DT (the paper's reference [1])
  kRed,               ///< RED (reference [3]) — congestion signaling baseline
  kFred,              ///< Flow RED (reference [5]) — per-flow RED baseline
};

struct SchemeConfig {
  SchedulerKind scheduler{SchedulerKind::kFifo};
  ManagerKind manager{ManagerKind::kThreshold};
  /// Headroom H for the sharing managers (the paper's default is 2 MB).
  ByteSize headroom{ByteSize::megabytes(2.0)};
  /// Flow grouping for SchedulerKind::kHybrid; ignored otherwise.
  std::vector<std::vector<FlowId>> groups{};
  /// DT multiplier for kDynamicThreshold.
  double dt_alpha{1.0};
};

/// Scheme names as the CLIs spell them: fifo | wfq | hybrid, and
/// none | threshold | sharing | selective | dt | red | fred, where
/// `taildrop` is a second name for `none`.  An unknown name throws
/// std::invalid_argument("unknown --scheduler '<name>'"), or --manager.
[[nodiscard]] SchedulerKind parse_scheduler(const std::string& name);
[[nodiscard]] ManagerKind parse_manager(const std::string& name);
[[nodiscard]] const char* to_string(SchedulerKind kind);
[[nodiscard]] const char* to_string(ManagerKind kind);

/// One multiplexer as build_port sees it.
struct PortSpec {
  ByteSize buffer;
  Rate rate;
  /// The (sigma, rho) envelope of every flow, by flow id.
  const std::vector<FlowSpec>& flows;
  /// Per-flow thresholds in bytes, as a planner provisioned them.  Empty:
  /// derived from `flows` by Prop. 2, scaled to fill the buffer for
  /// kThreshold and exact for the sharing managers.
  std::vector<std::int64_t> thresholds{};
  /// kSelectiveSharing: one flag per flow, set for the flows that may
  /// borrow (the regulated ones).
  std::vector<bool> may_borrow{};
  /// kRed/kFred: seed of the early-drop stream.
  std::uint64_t seed{0};
  /// kFred: packet size L; a flow below 2L is never early-dropped.
  std::int64_t packet_bytes{0};
};

/// A multiplexer's buffer manager and the discipline that serves it; the
/// discipline refers to the manager.
struct PortPipeline {
  std::unique_ptr<BufferManager> manager;
  std::unique_ptr<QueueDiscipline> discipline;
};

/// Builds `scheme` for `port`.  Throws std::invalid_argument for a hybrid
/// scheme without a grouping or with a manager other than kThreshold or
/// kSharing.
[[nodiscard]] PortPipeline build_port(const SchemeConfig& scheme, PortSpec port);

/// The discipline half of build_port for kFifo or kWfq over `manager`.
/// WFQ weights are the flows' token rates, floored at 1 b/s: a
/// best-effort flow with rho = 0 still needs a class.
[[nodiscard]] std::unique_ptr<QueueDiscipline> build_discipline(
    SchedulerKind scheduler, BufferManager& manager, Rate rate,
    const std::vector<FlowSpec>& flows);

struct ExperimentConfig {
  Rate link_rate;
  ByteSize buffer;
  std::vector<TrafficProfile> flows;
  SchemeConfig scheme;
  /// Transient discarded before measurement starts.
  Time warmup{Time::seconds(5)};
  /// Measured interval.
  Time duration{Time::seconds(20)};
  std::uint64_t seed{1};
  std::int64_t packet_bytes{500};
  /// When true, per-flow queueing-delay statistics are collected over the
  /// measured interval (slightly more work per delivery).
  bool record_delays{false};
  /// ON-period law for every source (robustness experiments swap the
  /// paper's exponential bursts for heavy-tailed or deterministic ones).
  BurstDistribution burst_distribution{BurstDistribution::kExponential};
  double pareto_shape{1.5};
};

/// Per-flow delay digest for the measured interval.
struct DelaySummary {
  double mean_s{0.0};
  double max_s{0.0};
  double p50_s{0.0};
  double p99_s{0.0};
  std::uint64_t packets{0};
};

struct ExperimentResult {
  /// Counter deltas over the measured interval, per flow.
  std::vector<FlowCounters> per_flow;
  /// Filled only when ExperimentConfig::record_delays was set.
  std::vector<DelaySummary> delays;
  Time interval{Time::zero()};
  /// Invariant audit of this run (src/check): every run executes under its
  /// own ScopedChecker, so these count exactly this run's checks — both
  /// stay zero in builds without BUFQ_ENABLE_CHECKS.
  std::uint64_t checks_run{0};
  std::uint64_t check_violations{0};
  /// Observability snapshot of this run (src/obs): every run executes under
  /// its own ScopedMetrics, so these are exactly this run's counters,
  /// gauges and histograms.  Includes the wall-clock `sim.wall_ns` counter
  /// and so is NOT deterministic across machines; event-count and occupancy
  /// metrics within it are seed-deterministic.
  obs::RegistrySnapshot metrics;

  [[nodiscard]] double aggregate_throughput_mbps() const;
  [[nodiscard]] double utilization(Rate link_rate) const;
  [[nodiscard]] double flow_throughput_mbps(FlowId flow) const;
  /// Dropped/offered bytes aggregated over a set of flows.
  [[nodiscard]] double loss_ratio(const std::vector<FlowId>& flows) const;
};

/// Extracts the (sigma, rho) envelopes the buffer managers need.
[[nodiscard]] std::vector<FlowSpec> flow_specs(const std::vector<TrafficProfile>& flows);

/// Runs one experiment to completion.
[[nodiscard]] ExperimentResult run_experiment(const ExperimentConfig& config);

/// When run_experiment_with_checkpoint snapshots.  `events` > 0 wins:
/// checkpoint once that many events (lifetime count) have dispatched.
/// Otherwise the snapshot is taken at simulated time `at`; Time::zero()
/// defaults to the end of warmup.  Either way the trigger never schedules
/// an event of its own, so the trajectory is identical to an untriggered
/// run.
struct CheckpointTrigger {
  std::uint64_t events{0};
  Time at{Time::zero()};
};

/// A completed run plus the mid-run snapshot it took along the way.
struct CheckpointedRun {
  ExperimentResult result;
  /// Serialized checkpoint (see sim/checkpoint.h for the format).
  std::vector<std::byte> checkpoint;
  /// Where the snapshot was taken.
  std::uint64_t events_at_checkpoint{0};
  Time time_at_checkpoint{Time::zero()};
};

/// Scenario fingerprint of a configuration: every field that shapes the
/// event trajectory is mixed in, so restoring a checkpoint into a
/// different scenario throws CheckpointScenarioError instead of silently
/// diverging.
[[nodiscard]] std::uint64_t experiment_fingerprint(const ExperimentConfig& config);

/// Runs the experiment to completion like run_experiment, but snapshots
/// the entire simulation state when `trigger` fires.  The returned result
/// is bit-identical to run_experiment(config).
[[nodiscard]] CheckpointedRun run_experiment_with_checkpoint(
    const ExperimentConfig& config, const CheckpointTrigger& trigger = {});

/// Restores `checkpoint` into a freshly built pipeline for `config` and
/// runs to completion.  The result is bit-identical to the run that wrote
/// the checkpoint.  Throws a CheckpointError subclass on corruption,
/// version skew, or a scenario mismatch.
[[nodiscard]] ExperimentResult resume_experiment(const ExperimentConfig& config,
                                                 std::span<const std::byte> checkpoint);

}  // namespace bufq
