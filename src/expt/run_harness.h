// The run lifecycle every simulation family shares.  The paper's method
// (Section 3) is many independent runs of one measured interval; this
// harness is that interval, written once:
//
//   * a run-private check::ScopedChecker and obs::ScopedMetrics,
//     constructed before the Simulator and the model so every handle
//     resolves against them;
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
// A scenario family (the single-link pipeline, the fabric, flow churn)
// supplies only a RunModel: its components, their save/restore, a stats
// snapshot and a delay recorder.
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
/// `at_end`.  A flow missing from `at_warmup` (no snapshot entry yet)
/// counts from zero.
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

  /// Brings state the model keeps lazily (a LazyLink's departures) up to
  /// `t` before the harness reads or saves it: everything that ended
  /// before `t`, and with `through` also what ends exactly at `t` — for a
  /// clock that has run every event at `t`.  The default keeps no lazy
  /// state.
  virtual void settle(Time /*t*/, bool /*through*/) {}
};

/// RunModel::settle for a model whose only lazy state is `link`.
void settle_link(LazyLink& link, Time t, bool through);

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

  RunHarness(const RunSpec& spec, const ModelFactory& build);
  // Scheduled events capture `this`.
  RunHarness(const RunHarness&) = delete;
  RunHarness& operator=(const RunHarness&) = delete;

  [[nodiscard]] obs::MetricsRegistry& registry() { return metrics_.registry(); }

  /// Runs to the horizon and assembles the result.
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
  // Confine the invariant audit and the metrics to this run: BUFQ_CHECK
  // sites and metric handles resolve against these run-private sinks (no
  // shared sink between pool workers), which is why they precede the
  // simulator and the model; tallies fold into the enclosing scopes on
  // destruction.
  check::ScopedChecker checker_;
  obs::ScopedMetrics metrics_;
  Simulator sim_;
  std::unique_ptr<RunModel> model_;
  Time horizon_;
  std::vector<FlowCounters> at_warmup_;
  bool warmup_pending_{false};
  std::uint64_t warmup_seq_{0};
};

}  // namespace bufq
