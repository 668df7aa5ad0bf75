// The run lifecycle every simulation family shares.  The paper's method
// (Section 3) is many independent runs of one measured interval; this
// harness is that interval, written once:
//
//   * refusing a non-positive duration or a negative warmup before the
//     model is built;
//   * a run-private check::ScopedChecker and obs::ScopedMetrics (a
//     RunScope), constructed before the Simulator and the model so every
//     handle resolves against them;
//   * the warmup snapshot event and its (time, seq) re-arm on restore;
//   * settling the model's lazy state before each read: at the warmup
//     snapshot, before a checkpoint and at the horizon;
//   * the checkpoint trigger (an event count or a simulated time);
//   * how a run meets a checkpoint — plain, snapshot to a file, resume
//     from one, or snapshot and restore into a fresh harness — as one
//     CheckpointRequest, parsed from the CLIs' shared flags and run by
//     run_request over any family's harness;
//   * checkpoint framing: simulator, then the model's components, then the
//     harness section (warmup state), `registry` and `checker`, then the
//     trailing-bytes and re-armed-event-count audits;
//   * finish(): sim.wall_ns, per-flow warmup deltas and the DelaySummary
//     assembly.
//
// A scenario family supplies only a RunModel: its components, their
// save/restore, a stats snapshot and a delay recorder.  The families are
// the single-link pipeline, the serial fabric, the sharded fabric (whose
// model runs per-shard clocks on worker threads and hands the warmup
// barrier back to the harness's clock) and flow churn.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "check/invariants.h"
#include "obs/metrics.h"
#include "sim/checkpoint.h"
#include "sim/link.h"
#include "sim/simulator.h"
#include "stats/collector.h"
#include "stats/delay.h"
#include "util/units.h"

namespace bufq {

class Flags;

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

/// When a run snapshots.  `events` > 0 wins: checkpoint once that many
/// events (lifetime count) have dispatched.  Otherwise the snapshot is
/// taken at simulated time `at`, which must not be negative; Time::zero()
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

/// How a run meets a checkpoint.
enum class CheckpointMode {
  kOff,        ///< a plain run
  kRoundtrip,  ///< snapshot mid-run, restore into a fresh harness, and
               ///< return the *resumed* result — byte-identical to kOff
               ///< while the checkpoint layer is deterministic
  kWrite,      ///< snapshot mid-run into `path`, return the uninterrupted
               ///< result (warm-start producer)
  kRead,       ///< restore from `path` instead of replaying the warmup
               ///< (warm-start consumer)
};

/// One run's checkpoint request.  In SweepOptions it is the sweep's
/// policy, and `path` is the directory of every run's file.
struct CheckpointRequest {
  CheckpointMode mode{CheckpointMode::kOff};
  CheckpointTrigger trigger;
  /// Checkpoint file (kWrite / kRead); unused otherwise.
  std::string path;
};

/// Reads the checkpoint flags every CLI shares:
///   --checkpoint-out=PATH  kWrite to PATH
///   --checkpoint-in=PATH   kRead from PATH
///   --checkpoint-roundtrip kRoundtrip
///   --checkpoint-events=N / --checkpoint-at=SECS  the trigger
/// Throws std::invalid_argument when more than one mode flag is given,
/// when a trigger flag comes without --checkpoint-out or
/// --checkpoint-roundtrip (the only modes that snapshot), and for a
/// negative trigger.
[[nodiscard]] CheckpointRequest parse_checkpoint_request(const Flags& flags);

/// Per-flow counter deltas `at_end - at_warmup`, computed in place in
/// `at_end`.  Both snapshots hold the same flows: every per-flow table is
/// sized when the run is built.
[[nodiscard]] std::vector<FlowCounters> per_flow_deltas(
    std::vector<FlowCounters> at_end, const std::vector<FlowCounters>& at_warmup);

/// One DelaySummary per flow of `delays`, in flow order.
[[nodiscard]] std::vector<DelaySummary> summarize_delays(const DelayRecorder& delays);

/// The scenario-specific half of a run.  The model's constructor builds
/// and starts its components (scheduling their first events); the harness
/// then arms its warmup snapshot.  save_state / restore_state walk the
/// model's components in registry order.
class RunModel : public Checkpointable {
 public:
  RunModel() = default;
  RunModel(const RunModel&) = delete;
  RunModel& operator=(const RunModel&) = delete;

  /// Per-flow counters now (read at the warmup snapshot and at the end).
  [[nodiscard]] virtual std::vector<FlowCounters> stats_snapshot() const = 0;
  /// Delays of the measured interval; summarized when the run records
  /// delays.
  [[nodiscard]] virtual const DelayRecorder& delays() const = 0;

  /// Runs the model from the clock's present to `horizon`, inclusive.
  /// `sim` is the harness's clock, on the harness's thread and inside its
  /// checker and metrics scope; its calendar holds the warmup snapshot,
  /// which must fire at its instant.  The default runs the model on that
  /// clock.
  virtual void run(Simulator& sim, Time horizon) { sim.run_until(horizon); }

  /// Brings state the model keeps lazily (a LazyLink's departures) up to
  /// `t` before the harness reads or saves it: everything that ended
  /// before `t`, and with `through` also what ends exactly at `t` — for a
  /// clock that has run every event at `t`.  The default keeps no lazy
  /// state.
  virtual void settle(Time /*t*/, bool /*through*/) {}
};

/// RunModel::settle for a model whose only lazy state is `link`.
void settle_link(LazyLink& link, Time t, bool through);

/// A run's private invariant checker and metrics registry: while alive,
/// BUFQ_CHECK sites and metric handles on the constructing thread resolve
/// against them, so no two pool or shard workers share a mutable sink;
/// their tallies fold into the enclosing scopes on destruction.  Open it
/// before the Simulator and the model.  One per RunHarness, and one per
/// shard of a sharded run, on the shard's thread.
struct RunScope {
  check::ScopedChecker checker;
  obs::ScopedMetrics metrics;
};

/// What the harness needs to know about a run besides its model.
struct RunSpec {
  Time warmup{Time::zero()};
  Time duration{Time::zero()};
  bool record_delays{false};
  /// Name of the harness checkpoint section.
  const char* section{""};
  /// Scenario fingerprint written into, and required of, checkpoints.
  std::uint64_t fingerprint{0};
};

class RunHarness {
 public:
  /// Builds the model inside the run's checker/metrics scope; the factory
  /// receives the run's simulator and registry.
  using ModelFactory =
      std::function<std::unique_ptr<RunModel>(Simulator&, obs::MetricsRegistry&)>;

  /// Throws std::invalid_argument, before the model is built, for a
  /// non-positive duration or a negative warmup.
  RunHarness(const RunSpec& spec, const ModelFactory& build);
  // Scheduled events capture `this`.
  RunHarness(const RunHarness&) = delete;
  RunHarness& operator=(const RunHarness&) = delete;

  [[nodiscard]] obs::MetricsRegistry& registry() { return scope_.metrics.registry(); }

  /// Runs the model to the horizon (RunModel::run) and assembles the
  /// result.
  [[nodiscard]] ExperimentResult finish();

  /// Runs until `trigger` fires, snapshots, then finishes.  The trigger
  /// schedules nothing, so the result equals finish() on a fresh harness.
  /// Throws std::invalid_argument for a negative time trigger, before any
  /// event runs.
  [[nodiscard]] CheckpointedRun finish_with_checkpoint(const CheckpointTrigger& trigger);

  /// Restores `checkpoint` into this freshly built run, then finishes.
  /// Throws a CheckpointError subclass on corruption, version skew or a
  /// scenario mismatch.
  [[nodiscard]] ExperimentResult resume(std::span<const std::byte> checkpoint);

 private:
  /// The warmup snapshot event, shared by the first arming and the re-arm.
  auto warmup_action();
  [[nodiscard]] std::vector<std::byte> save() const;
  void restore(std::span<const std::byte> blob);

  RunSpec spec_;
  RunScope scope_;
  Simulator sim_;
  std::unique_ptr<RunModel> model_;
  Time horizon_;
  std::vector<FlowCounters> at_warmup_;
  bool warmup_pending_{false};
  std::uint64_t warmup_seq_{0};
};

/// Runs `request` over fresh harnesses from `make_harness`: finish() for
/// kOff, finish_with_checkpoint for kWrite (then writes the file), resume()
/// from the file for kRead, and for kRoundtrip a snapshot restored into a
/// second harness.  The one place the four modes are told apart.
[[nodiscard]] ExperimentResult run_request(const CheckpointRequest& request,
                                           const std::function<RunHarness()>& make_harness);

}  // namespace bufq
