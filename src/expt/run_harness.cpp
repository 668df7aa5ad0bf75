#include "expt/run_harness.h"

#include <cassert>
#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/annotations.h"
#include "util/flags.h"

namespace bufq {
namespace {

/// A time trigger before zero would run the clock backwards.
void require_valid_trigger(const CheckpointTrigger& trigger) {
  if (trigger.at < Time::zero()) {
    throw std::invalid_argument("a checkpoint time trigger must not be negative, got " +
                                trigger.at.to_string());
  }
}

}  // namespace

double ExperimentResult::aggregate_throughput_mbps() const {
  std::int64_t delivered = 0;
  for (const auto& c : per_flow) delivered += c.delivered_bytes;
  return static_cast<double>(delivered) * 8.0 / interval.to_seconds() * 1e-6;
}

double ExperimentResult::utilization(Rate link_rate) const {
  return aggregate_throughput_mbps() / link_rate.mbps();
}

double ExperimentResult::flow_throughput_mbps(FlowId flow) const {
  assert(flow >= 0 && static_cast<std::size_t>(flow) < per_flow.size());
  const auto& c = per_flow[static_cast<std::size_t>(flow)];
  return static_cast<double>(c.delivered_bytes) * 8.0 / interval.to_seconds() * 1e-6;
}

double ExperimentResult::loss_ratio(const std::vector<FlowId>& flows) const {
  std::int64_t offered = 0;
  std::int64_t dropped = 0;
  for (FlowId f : flows) {
    assert(f >= 0 && static_cast<std::size_t>(f) < per_flow.size());
    offered += per_flow[static_cast<std::size_t>(f)].offered_bytes;
    dropped += per_flow[static_cast<std::size_t>(f)].dropped_bytes;
  }
  return offered > 0 ? static_cast<double>(dropped) / static_cast<double>(offered) : 0.0;
}

CheckpointRequest parse_checkpoint_request(const Flags& flags) {
  const auto checkpoint_out = flags.get("checkpoint-out");
  const auto checkpoint_in = flags.get("checkpoint-in");
  const bool roundtrip = flags.get_bool("checkpoint-roundtrip", false);
  if (static_cast<int>(checkpoint_out.has_value()) + static_cast<int>(checkpoint_in.has_value()) +
          static_cast<int>(roundtrip) >
      1) {
    throw std::invalid_argument(
        "--checkpoint-out, --checkpoint-in and --checkpoint-roundtrip are mutually exclusive");
  }
  CheckpointRequest request;
  if (checkpoint_out) {
    request.mode = CheckpointMode::kWrite;
    request.path = *checkpoint_out;
  } else if (checkpoint_in) {
    request.mode = CheckpointMode::kRead;
    request.path = *checkpoint_in;
  } else if (roundtrip) {
    request.mode = CheckpointMode::kRoundtrip;
  }
  const bool snapshots =
      request.mode == CheckpointMode::kWrite || request.mode == CheckpointMode::kRoundtrip;
  if (!snapshots && (flags.get("checkpoint-events") || flags.get("checkpoint-at"))) {
    throw std::invalid_argument(
        "--checkpoint-events and --checkpoint-at need --checkpoint-out or "
        "--checkpoint-roundtrip");
  }
  request.trigger.events = flags.get_count("checkpoint-events", 0);
  request.trigger.at = Time::from_seconds(flags.get_double("checkpoint-at", 0.0));
  require_valid_trigger(request.trigger);
  return request;
}

std::vector<FlowCounters> per_flow_deltas(std::vector<FlowCounters> at_end,
                                          const std::vector<FlowCounters>& at_warmup) {
  assert(at_end.size() == at_warmup.size());
  for (std::size_t f = 0; f < at_end.size(); ++f) at_end[f] = at_end[f] - at_warmup[f];
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
    : spec_{spec}, horizon_{spec.warmup + spec.duration} {
  if (spec.duration <= Time::zero() || spec.warmup < Time::zero()) {
    throw std::invalid_argument("a run needs a positive duration and a non-negative warmup, got "
                                "duration " + spec.duration.to_string() + " and warmup " +
                                spec.warmup.to_string());
  }
  model_ = build(sim_, scope_.metrics.registry());
  warmup_pending_ = true;
  warmup_seq_ = sim_.at(spec.warmup, warmup_action());
}

ExperimentResult RunHarness::finish() {
  BUFQ_LINT_SUPPRESS("determinism-wall-clock", "sim.wall_ns is a wall-only metric excluded from the CSV determinism contract");
  const auto wall_start = std::chrono::steady_clock::now();
  model_->run(sim_, horizon_);
  model_->settle(horizon_, true);
  BUFQ_LINT_SUPPRESS("determinism-wall-clock", "sim.wall_ns is a wall-only metric excluded from the CSV determinism contract");
  const auto wall_end = std::chrono::steady_clock::now();
  const auto wall_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(wall_end - wall_start).count();
  registry().counter("sim.wall_ns").add(static_cast<std::uint64_t>(wall_ns));

  ExperimentResult result;
  result.interval = spec_.duration;
  result.checks_run = scope_.checker.checker().checks_run();
  result.check_violations = scope_.checker.checker().violation_count();
  result.metrics = registry().snapshot();
  result.per_flow = per_flow_deltas(model_->stats_snapshot(), at_warmup_);
  if (spec_.record_delays) result.delays = summarize_delays(model_->delays());
  return result;
}

CheckpointedRun RunHarness::finish_with_checkpoint(const CheckpointTrigger& trigger) {
  require_valid_trigger(trigger);
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
  save_registry_snapshot(w, scope_.metrics.registry().snapshot());
  w.end_section();

  w.begin_section("checker");
  w.write_u64(scope_.checker.checker().checks_run());
  w.write_u64(scope_.checker.checker().violation_count());
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
  if (!warmup_pending_ && at_warmup_.size() != model_->stats_snapshot().size()) {
    throw CheckpointFormatError("warmup snapshot does not match the model's flows");
  }

  r.begin_section("registry");
  scope_.metrics.registry().restore(load_registry_snapshot(r));
  r.end_section();

  r.begin_section("checker");
  const std::uint64_t checks_run = r.read_u64();
  const std::uint64_t violations = r.read_u64();
  r.end_section();
  scope_.checker.checker().restore_tallies(checks_run, violations);

  if (!r.exhausted()) {
    throw CheckpointFormatError("checkpoint has trailing bytes after the last section");
  }
  if (sim_.events_pending() != expected_pending) {
    throw CheckpointError("restore re-armed " + std::to_string(sim_.events_pending()) +
                          " events, checkpoint recorded " + std::to_string(expected_pending));
  }
}

ExperimentResult run_request(const CheckpointRequest& request,
                             const std::function<RunHarness()>& make_harness) {
  switch (request.mode) {
    case CheckpointMode::kOff:
      break;
    case CheckpointMode::kRoundtrip: {
      const std::vector<std::byte> checkpoint =
          make_harness().finish_with_checkpoint(request.trigger).checkpoint;
      return make_harness().resume(checkpoint);
    }
    case CheckpointMode::kWrite: {
      CheckpointedRun run = make_harness().finish_with_checkpoint(request.trigger);
      write_checkpoint_file(request.path, run.checkpoint);
      return std::move(run.result);
    }
    case CheckpointMode::kRead: {
      const std::vector<std::byte> checkpoint = read_checkpoint_file(request.path);
      return make_harness().resume(checkpoint);
    }
  }
  return make_harness().finish();
}

}  // namespace bufq
