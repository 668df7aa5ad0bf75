#include "fabric/parallel_engine.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <exception>
#include <memory>
#include <utility>
#include <vector>

#include "check/invariants.h"
#include "expt/run_harness.h"
#include "sim/parallel.h"
#include "sim/shard.h"
#include "sim/simulator.h"
#include "traffic/sources.h"
#include "util/annotations.h"
#include "util/task_pool.h"

namespace bufq::fabric {
namespace {

/// The tail end of a cut link: receives what the port "transmits onto the
/// wire" and stamps it into the channel with the arrival time the serial
/// wire would have delivered it at.  The kEventClock check mirrors the
/// schedule-time check the serial wire's sim_.reserve() call performs,
/// keeping the checker tally identical.
class BoundarySender final : public PacketSink {
 public:
  BoundarySender(Simulator& sim, BoundaryChannel& channel, std::int32_t dst_shard, LinkId link,
                 Time propagation)
      : sim_{sim},
        channel_{channel},
        dst_shard_{dst_shard},
        link_{link},
        propagation_{propagation} {}

  void accept(const Packet& packet) override {
    const Time arrive = sim_.now() + propagation_;
    BUFQ_CHECK(arrive >= sim_.now(), check::Invariant::kEventClock, packet.flow, sim_.now(),
               arrive.to_seconds(), sim_.now().to_seconds(),
               "boundary arrival scheduled in the past");
    channel_.emit(dst_shard_, arrive, link_, packet);
  }

 private:
  Simulator& sim_;
  BoundaryChannel& channel_;
  std::int32_t dst_shard_;
  LinkId link_;
  Time propagation_;
};

/// What a finished shard hands back to the merge step.
struct ShardOutcome {
  std::vector<FlowCounters> at_end;
  DelayRecorder delays{0};
  std::uint64_t events{0};
  std::uint64_t boundary_delivered{0};
  std::uint64_t stall_windows{0};
};

/// One shard's slice of the scenario: a private Simulator, the scoped
/// Fabric, and the sources whose ingress node lives here.  Constructed
/// ON the worker thread so every metric/checker handle resolves against
/// that thread's scoped registries.  Sources come from the serial run's
/// builder, so the per-shard event trajectory is the serial trajectory
/// restricted to this shard.
class ShardModel {
 public:
  ShardModel(const FabricConfig& config, const FabricScenario& sc, const ShardPlan& plan,
             std::int32_t shard, BoundaryChannel& channel)
      : senders_{make_senders(sim_, channel, sc, plan, shard)},
        scope_{&plan.node_shard, shard,
               [this](LinkId l) { return senders_[static_cast<std::size_t>(l)].get(); }},
        fabric_{sim_, sc.topo, sc.routes, sc.plan, sc.bindings, config.scheme, &scope_} {
    fabric_.set_measure_from(config.warmup);
    sources_ = make_fabric_sources(sim_, fabric_, config, sc, [&](FlowId flow) {
      const NodeId src = sc.bindings[static_cast<std::size_t>(flow)].src;
      return plan.node_shard[static_cast<std::size_t>(src)] == shard;
    });

    if (shard == 0) {
      // Serial runs carry exactly one warmup event (the stats snapshot).
      // The sharded run snapshots at the warmup barrier instead, so shard
      // 0 schedules a no-op at the same instant to keep the merged
      // sim.events count — and the at() check tally — identical.
      const auto warmup_parity = [] {};
      static_cast<void>(sim_.at(config.warmup, warmup_parity));
    }
  }

  /// Executes one lookahead window: interleave boundary deliveries (in
  /// their stamped (time, src_shard, seq) order) with local events, then
  /// run out the window — exclusive for interior windows, inclusive for
  /// the drain round (matching serial run_until(horizon)).
  void run_window(const ParallelCoordinator::Window& w) {
    const std::uint64_t before = sim_.events_processed();
    for (const BoundaryEvent& ev : w.incoming) {
      if (ev.time > sim_.now()) sim_.run_until(ev.time - Time::nanoseconds(1));
      sim_.dispatch_external(ev.time,
                             [&] { fabric_.arrival_sink(ev.dest).accept(ev.packet); });
      ++boundary_delivered_;
    }
    sim_.run_until(w.final ? w.end : w.end - Time::nanoseconds(1));
    if (sim_.events_processed() == before && w.incoming.empty()) ++stall_windows_;
  }

  /// Warmup-barrier hook: the serial snapshot point, reproduced exactly
  /// (all events < warmup applied, none at >= warmup).
  [[nodiscard]] std::vector<FlowCounters> stats_snapshot() const {
    return fabric_.stats().snapshot();
  }

  [[nodiscard]] ShardOutcome collect() const {
    ShardOutcome out;
    out.at_end = fabric_.stats().snapshot();
    out.delays = fabric_.delays();
    out.events = sim_.events_processed();
    out.boundary_delivered = boundary_delivered_;
    out.stall_windows = stall_windows_;
    return out;
  }

 private:
  static std::vector<std::unique_ptr<BoundarySender>> make_senders(Simulator& sim,
                                                                   BoundaryChannel& channel,
                                                                   const FabricScenario& sc,
                                                                   const ShardPlan& plan,
                                                                   std::int32_t shard) {
    std::vector<std::unique_ptr<BoundarySender>> senders(sc.topo.link_count());
    for (const LinkId l : plan.cut_links) {
      const TopoLink& link = sc.topo.link(l);
      if (plan.node_shard[static_cast<std::size_t>(link.from)] != shard) continue;
      senders[static_cast<std::size_t>(l)] = std::make_unique<BoundarySender>(
          sim, channel, plan.node_shard[static_cast<std::size_t>(link.to)], l,
          link.params.propagation);
    }
    return senders;
  }

  Simulator sim_;
  std::vector<std::unique_ptr<BoundarySender>> senders_;  ///< by LinkId, cut links with tail here
  FabricShardScope scope_;
  Fabric fabric_;
  std::vector<std::unique_ptr<Source>> sources_;
  std::uint64_t boundary_delivered_{0};
  std::uint64_t stall_windows_{0};
};

/// Per-shard result slot, pre-sized by the main thread; each worker
/// writes only its own slot (plus the warmup hook, which runs inside the
/// barrier with every worker parked).
struct Slot {
  std::unique_ptr<ShardModel> model;
  std::vector<FlowCounters> at_warmup;
  ShardOutcome out;
  obs::RegistrySnapshot metrics;
  std::uint64_t checks_run{0};
  std::uint64_t violations{0};
  std::exception_ptr error;
};

void accumulate(std::vector<FlowCounters>& into, const std::vector<FlowCounters>& from) {
  if (into.size() < from.size()) into.resize(from.size());
  for (std::size_t f = 0; f < from.size(); ++f) into[f] += from[f];
}

}  // namespace

ParallelViability parallel_viability(const FabricConfig& config, const ShardPlan& plan) {
  if (plan.shards < 2) {
    return {false, "partition collapses to a single shard"};
  }
  if (plan.zero_lookahead) {
    return {false, "a cross-shard link has zero propagation delay (no conservative lookahead)"};
  }
  if (plan.cut_links.empty() || plan.lookahead <= Time::zero()) {
    return {false, "no cross-shard links to derive a lookahead from"};
  }
  if (config.warmup <= Time::zero()) {
    return {false, "parallel runs need a positive warmup (the warmup barrier is the stats sync point)"};
  }
  if (config.duration <= Time::zero()) {
    return {false, "duration must be positive"};
  }
  return {true, ""};
}

ExperimentResult run_parallel_fabric_experiment(const FabricConfig& config,
                                                const FabricScenario& sc,
                                                const ShardPlan& plan) {
  assert(parallel_viability(config, plan).viable);

  // Same confinement discipline as the serial engine: a run-private
  // checker and registry on the calling thread for run-level metrics;
  // each shard adds its own thread-confined pair on its worker.
  check::ScopedChecker run_checker;
  obs::ScopedMetrics run_metrics;
  publish_plan_gauges(run_metrics.registry(), sc.plan);

  const Time horizon = config.warmup + config.duration;
  const auto shard_count = static_cast<std::size_t>(plan.shards);
  std::vector<Slot> slots(shard_count);

  ParallelCoordinator::Config cc;
  cc.shards = plan.shards;
  cc.lookahead = plan.lookahead;
  cc.horizon = horizon;
  cc.sync_point = config.warmup;
  ParallelCoordinator coord{cc, [&] {
                              for (auto& slot : slots) {
                                if (slot.model != nullptr) {
                                  slot.at_warmup = slot.model->stats_snapshot();
                                }
                              }
                            }};

  BUFQ_LINT_SUPPRESS("determinism-wall-clock", "sim.wall_ns is a wall-only metric excluded from the determinism contract");
  const auto wall_start = std::chrono::steady_clock::now();

  // Exactly one thread per shard: shard workers live at the barrier for
  // the whole run, so they must not share threads (a worker parked in
  // arrive_and_wait() would starve the shard whose turn it is holding).
  parallel_for(shard_count, shard_count, [&](std::size_t s) {
    Slot& slot = slots[s];
    const auto shard = static_cast<std::int32_t>(s);
    check::ScopedChecker shard_checker;
    {
      obs::ScopedMetrics shard_metrics;
      try {
        slot.model =
            std::make_unique<ShardModel>(config, sc, plan, shard, coord.channel(shard));
      } catch (...) {
        slot.error = std::current_exception();
      }
      // A failed shard still arrives at the next barrier, flagging its
      // failure, which ends the run there for every shard; so the loop
      // body only ever runs while this shard's model is healthy.
      ParallelCoordinator::Window window;
      while (coord.next_window(shard, window, slot.error != nullptr)) {
        try {
          slot.model->run_window(window);
        } catch (...) {
          slot.error = std::current_exception();
        }
      }
      if (slot.error == nullptr) slot.out = slot.model->collect();
      slot.model.reset();  // tear down on the owning thread, scopes still live
      slot.metrics = shard_metrics.registry().snapshot();
    }
    slot.checks_run = shard_checker.checker().checks_run();
    slot.violations = shard_checker.checker().violation_count();
  });

  BUFQ_LINT_SUPPRESS("determinism-wall-clock", "sim.wall_ns is a wall-only metric excluded from the determinism contract");
  const auto wall_end = std::chrono::steady_clock::now();

  // The lowest-numbered failing shard's exception, unchanged in type.
  for (const Slot& slot : slots) {
    if (slot.error != nullptr) std::rethrow_exception(slot.error);
  }

  // Run-level metrics, published from the main thread in deterministic
  // order before merging the shard snapshots.
  auto& reg = run_metrics.registry();
  const auto wall_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(wall_end - wall_start).count();
  reg.counter("sim.wall_ns").add(static_cast<std::uint64_t>(wall_ns));
  reg.counter("parallel.windows").add(coord.windows());
  reg.counter("parallel.boundary_events").add(coord.boundary_events());
  std::uint64_t stalls = 0;
  for (const Slot& slot : slots) stalls += slot.out.stall_windows;
  reg.counter("parallel.horizon_stalls").add(stalls);
  for (std::size_t s = 0; s < shard_count; ++s) {
    reg.counter("parallel.shard." + std::to_string(s) + ".events").add(slots[s].out.events);
  }

  ExperimentResult result;
  result.interval = config.duration;
  result.checks_run = run_checker.checker().checks_run();
  result.check_violations = run_checker.checker().violation_count();
  for (const Slot& slot : slots) {
    result.checks_run += slot.checks_run;
    result.check_violations += slot.violations;
  }
  result.metrics = reg.snapshot();
  for (const Slot& slot : slots) result.metrics.merge(slot.metrics);

  const std::size_t flow_count = sc.plan.flows.size();
  std::vector<FlowCounters> at_end(flow_count);
  std::vector<FlowCounters> at_warmup(flow_count);
  for (const Slot& slot : slots) {
    accumulate(at_end, slot.out.at_end);
    accumulate(at_warmup, slot.at_warmup);
  }
  result.per_flow = per_flow_deltas(std::move(at_end), at_warmup);

  if (config.record_delays) {
    DelayRecorder delays{flow_count};
    for (const Slot& slot : slots) delays.merge(slot.out.delays);
    result.delays = summarize_delays(delays);
  }
  return result;
}

}  // namespace bufq::fabric
