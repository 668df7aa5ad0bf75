#include "expt/run_harness.h"

#include <cassert>
#include <chrono>
#include <string>

#include "util/annotations.h"

namespace bufq {

std::vector<FlowCounters> per_flow_deltas(std::vector<FlowCounters> at_end,
                                          const std::vector<FlowCounters>& at_warmup) {
  for (std::size_t f = 0; f < at_end.size() && f < at_warmup.size(); ++f) {
    at_end[f] = at_end[f] - at_warmup[f];
  }
  return at_end;
}

std::vector<DelaySummary> summarize_delays(const DelayRecorder& delays) {
  std::vector<DelaySummary> summaries;
  summaries.reserve(delays.flow_count());
  for (std::size_t f = 0; f < delays.flow_count(); ++f) {
    const auto flow = static_cast<FlowId>(f);
    summaries.push_back(DelaySummary{
        .mean_s = delays.mean_delay(flow).to_seconds(),
        .max_s = delays.max_delay(flow).to_seconds(),
        .p50_s = delays.quantile(flow, 0.50).to_seconds(),
        .p99_s = delays.quantile(flow, 0.99).to_seconds(),
        .packets = delays.count(flow),
    });
  }
  return summaries;
}

void settle_link(LazyLink& link, Time t, bool through) {
  if (through) {
    link.advance_through(t);
  } else {
    link.advance_to(t);
  }
}

auto RunHarness::warmup_action() {
  const auto snap_warmup = [this] {
    model_->settle(sim_.now(), false);
    at_warmup_ = model_->stats_snapshot();
    warmup_pending_ = false;
  };
  return snap_warmup;
}

RunHarness::RunHarness(const RunSpec& spec, const ModelFactory& build)
    : spec_{spec},
      model_{build(sim_, metrics_.registry())},
      horizon_{spec.warmup + spec.duration} {
  assert(spec.duration > Time::zero());
  warmup_pending_ = true;
  warmup_seq_ = sim_.at(spec.warmup, warmup_action());
}

ExperimentResult RunHarness::finish() {
  BUFQ_LINT_SUPPRESS("determinism-wall-clock", "sim.wall_ns is a wall-only metric excluded from the CSV determinism contract");
  const auto wall_start = std::chrono::steady_clock::now();
  sim_.run_until(horizon_);
  model_->settle(horizon_, true);
  BUFQ_LINT_SUPPRESS("determinism-wall-clock", "sim.wall_ns is a wall-only metric excluded from the CSV determinism contract");
  const auto wall_end = std::chrono::steady_clock::now();
  const auto wall_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(wall_end - wall_start).count();
  registry().counter("sim.wall_ns").add(static_cast<std::uint64_t>(wall_ns));

  ExperimentResult result;
  result.interval = spec_.duration;
  result.checks_run = checker_.checker().checks_run();
  result.check_violations = checker_.checker().violation_count();
  result.metrics = registry().snapshot();
  result.per_flow = per_flow_deltas(model_->stats_snapshot(), at_warmup_);
  if (spec_.record_delays) result.delays = summarize_delays(model_->delays());
  return result;
}

CheckpointedRun RunHarness::finish_with_checkpoint(const CheckpointTrigger& trigger) {
  // Runs until the trigger without scheduling anything: an event-count
  // trigger stops between events, a time trigger uses run_until's clock
  // advance, so the trajectory is exactly that of an uninterrupted run.
  // The model settles to the snapshot instant first: through it after
  // run_until (every event at it has run), only before it between events.
  if (trigger.events > 0) {
    sim_.run_events_until(trigger.events, horizon_);
    model_->settle(sim_.now(), false);
  } else {
    const Time at = trigger.at == Time::zero() ? spec_.warmup : trigger.at;
    sim_.run_until(at > horizon_ ? horizon_ : at);
    model_->settle(sim_.now(), true);
  }
  CheckpointedRun run;
  run.checkpoint = save();
  run.events_at_checkpoint = sim_.events_processed();
  run.time_at_checkpoint = sim_.now();
  run.result = finish();
  return run;
}

ExperimentResult RunHarness::resume(std::span<const std::byte> checkpoint) {
  restore(checkpoint);
  return finish();
}

std::vector<std::byte> RunHarness::save() const {
  CheckpointWriter w;
  sim_.save_state(w);
  model_->save_state(w);

  w.begin_section(spec_.section);
  save_flow_counters(w, at_warmup_);
  w.write_bool(warmup_pending_);
  w.write_u64(warmup_seq_);
  w.end_section();

  w.begin_section("registry");
  save_registry_snapshot(w, metrics_.registry().snapshot());
  w.end_section();

  w.begin_section("checker");
  w.write_u64(checker_.checker().checks_run());
  w.write_u64(checker_.checker().violation_count());
  w.end_section();

  return w.finish(spec_.fingerprint);
}

// Mirrors save(): restoring the simulator empties the calendar, every
// component rebuilds its state and re-arms its events, the registry is
// overwritten *after* the rebuilds (so construction-time recordings cannot
// double-count), the checker tallies come last, and the re-armed event
// count must match the snapshot's.
void RunHarness::restore(std::span<const std::byte> blob) {
  CheckpointReader r{blob};
  r.require_scenario(spec_.fingerprint);

  const std::uint64_t expected_pending = sim_.restore_state(r);
  model_->restore_state(r);

  r.begin_section(spec_.section);
  at_warmup_ = load_flow_counters(r);
  warmup_pending_ = r.read_bool();
  warmup_seq_ = r.read_u64();
  if (warmup_pending_) sim_.rearm(spec_.warmup, warmup_seq_, warmup_action());
  r.end_section();

  r.begin_section("registry");
  metrics_.registry().restore(load_registry_snapshot(r));
  r.end_section();

  r.begin_section("checker");
  const std::uint64_t checks_run = r.read_u64();
  const std::uint64_t violations = r.read_u64();
  r.end_section();
  checker_.checker().restore_tallies(checks_run, violations);

  if (!r.exhausted()) {
    throw CheckpointFormatError("checkpoint has trailing bytes after the last section");
  }
  if (sim_.events_pending() != expected_pending) {
    throw CheckpointError("restore re-armed " + std::to_string(sim_.events_pending()) +
                          " events, checkpoint recorded " + std::to_string(expected_pending));
  }
}

}  // namespace bufq
