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
#include <vector>

#include "check/invariants.h"
#include "expt/experiment.h"
#include "obs/metrics.h"
#include "sim/checkpoint.h"
#include "sim/link.h"
#include "sim/simulator.h"
#include "stats/collector.h"
#include "stats/delay.h"
#include "util/units.h"

namespace bufq {

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

}  // namespace bufq
