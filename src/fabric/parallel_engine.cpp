#include "fabric/parallel_engine.h"

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "check/invariants.h"
#include "sim/checkpoint.h"
#include "sim/parallel.h"
#include "sim/shard.h"
#include "sim/simulator.h"
#include "util/task_pool.h"

namespace bufq::fabric {
namespace {

constexpr const char* kNoCheckpoint =
    "a sharded run cannot checkpoint: per-shard calendars and boundary-channel state are not "
    "serialized";

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

/// Boundary senders by LinkId for the cut links whose tail is in `shard`.
std::vector<std::unique_ptr<BoundarySender>> make_senders(Simulator& sim,
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

/// Executes one lookahead window on a shard's clock: interleave boundary
/// deliveries (in their stamped (time, src_shard, seq) order) with local
/// events, then run out the window — exclusive for interior windows,
/// inclusive for the drain round (matching serial run_until(horizon)).
/// Returns false for a stall: a window with nothing to do.
bool run_window(Simulator& sim, Fabric& fabric, const ParallelCoordinator::Window& w) {
  const std::uint64_t before = sim.events_processed();
  for (const BoundaryEvent& ev : w.incoming) {
    if (ev.time > sim.now()) sim.run_until(ev.time - Time::nanoseconds(1));
    sim.dispatch_external(ev.time, [&] { fabric.arrival_sink(ev.dest).accept(ev.packet); });
  }
  sim.run_until(w.final ? w.end : w.end - Time::nanoseconds(1));
  return sim.events_processed() != before || !w.incoming.empty();
}

/// Hands the warmup barrier to the harness's thread.  The coordinator's
/// sync hook runs on the last shard to reach the warmup barrier, with
/// every other shard asleep in it, and parks (kParked) until the harness's
/// thread has run the harness's warmup event over the stopped shards
/// (kReleased).  A run that ends before the barrier — a shard failed —
/// reaches kOver instead; so does every run, once its shards leave.
class WarmupHandoff {
 public:
  enum class Stage { kRunning, kParked, kReleased, kOver };

  void enter(Stage stage) {
    const std::lock_guard<std::mutex> lock{mu_};
    stage_ = stage;
    cv_.notify_all();
  }

  /// Waits until the stage is no longer `stage`; returns the new one.
  Stage await_past(Stage stage) {
    std::unique_lock<std::mutex> lock{mu_};
    cv_.wait(lock, [&] { return stage_ != stage; });
    return stage_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  Stage stage_{Stage::kRunning};
};

/// The sharded run make_sharded_fabric_model returns.
class ShardedFabricModel final : public RunModel {
 public:
  ShardedFabricModel(const FabricConfig& config, const FabricScenario& sc, ShardPlan plan,
                     obs::MetricsRegistry& registry)
      : config_{config},
        sc_{sc},
        plan_{std::move(plan)},
        registry_{registry},
        shards_(static_cast<std::size_t>(plan_.shards)),
        delays_{sc.plan.flows.size()} {}

  /// The shards' counters summed: live at the warmup barrier, their end
  /// state once run() has returned.
  [[nodiscard]] std::vector<FlowCounters> stats_snapshot() const override {
    std::vector<FlowCounters> total(sc_.plan.flows.size());
    for (const Shard& shard : shards_) {
      const std::vector<FlowCounters> part =
          shard.model != nullptr ? shard.model->stats_snapshot() : shard.at_end;
      for (std::size_t f = 0; f < part.size(); ++f) total[f] += part[f];
    }
    return total;
  }
  [[nodiscard]] const DelayRecorder& delays() const override { return delays_; }

  void run(Simulator& sim, Time horizon) override;

  void save_state(CheckpointWriter& /*w*/) const override {
    throw CheckpointShardingError(kNoCheckpoint);
  }
  void restore_state(CheckpointReader& /*r*/) override {
    throw CheckpointShardingError(kNoCheckpoint);
  }

 private:
  /// One shard.  Its clock, scopes and FabricModel live on the shard's
  /// worker thread; what the harness's thread folds after the join is
  /// left here.
  struct Shard {
    std::unique_ptr<FabricModel> model;  ///< between build and teardown
    std::vector<FlowCounters> at_end;
    DelayRecorder delays{0};
    obs::RegistrySnapshot metrics;
    check::InvariantChecker checker;
    std::exception_ptr error;
  };

  void run_shard(std::int32_t id, ParallelCoordinator& coord);

  FabricConfig config_;
  const FabricScenario& sc_;
  ShardPlan plan_;
  obs::MetricsRegistry& registry_;
  std::vector<Shard> shards_;
  DelayRecorder delays_;
};

void ShardedFabricModel::run(Simulator& sim, Time horizon) {
  const auto n = static_cast<std::size_t>(plan_.shards);
  using Stage = WarmupHandoff::Stage;
  WarmupHandoff handoff;
  ParallelCoordinator coord{{.shards = plan_.shards,
                             .lookahead = plan_.lookahead,
                             .horizon = horizon,
                             .sync_point = config_.warmup},
                            [&handoff] {
                              handoff.enter(Stage::kParked);
                              static_cast<void>(handoff.await_past(Stage::kParked));
                            }};
  std::exception_ptr warmup_error;
  // Exactly one thread per shard: shard workers live at the barrier for
  // the whole run, so they must not share threads (a worker parked in
  // arrive_and_wait() would starve the shard whose turn it is holding).
  parallel_for(
      n, n,
      [&](std::size_t s) {
        run_shard(static_cast<std::int32_t>(s), coord);
        handoff.enter(Stage::kOver);
      },
      [&] {
        if (handoff.await_past(Stage::kRunning) != Stage::kParked) return;
        // Caught, not propagated: the barrier stays parked until released.
        try {
          sim.run_until(config_.warmup);
        } catch (...) {
          warmup_error = std::current_exception();
        }
        handoff.enter(Stage::kReleased);
      });

  // The fold, on the harness's thread into the harness's sinks, in shard
  // order.  Checker tallies fold even for a failed run, as a serial run's
  // scope would fold them.
  obs::RegistrySnapshot folded = registry_.snapshot();
  for (const Shard& shard : shards_) {
    check::InvariantChecker::current().absorb(shard.checker);
    folded.merge(shard.metrics);
  }
  folded.counters["parallel.windows"] += coord.windows();
  folded.counters["parallel.boundary_events"] += coord.boundary_events();
  registry_.restore(folded);
  // The lowest-numbered failing shard's exception, unchanged in type.
  for (const Shard& shard : shards_) {
    if (shard.error != nullptr) std::rethrow_exception(shard.error);
  }
  if (warmup_error != nullptr) std::rethrow_exception(warmup_error);
  for (const Shard& shard : shards_) delays_.merge(shard.delays);
  sim.run_until(horizon);
}

void ShardedFabricModel::run_shard(std::int32_t id, ParallelCoordinator& coord) {
  Shard& shard = shards_[static_cast<std::size_t>(id)];
  RunScope run;
  Simulator sim;
  const auto senders = make_senders(sim, coord.channel(id), sc_, plan_, id);
  const FabricShardScope scope{&plan_.node_shard, id, [&senders](LinkId l) {
                                 return senders[static_cast<std::size_t>(l)].get();
                               }};
  try {
    shard.model = std::make_unique<FabricModel>(config_, sc_, sim, &scope);
  } catch (...) {
    shard.error = std::current_exception();
  }
  // A failed shard still arrives at the next barrier, flagging its
  // failure, which ends the run there for every shard; so the loop body
  // only ever runs while this shard's model is healthy.
  std::uint64_t stalls = 0;
  ParallelCoordinator::Window window;
  while (coord.next_window(id, window, shard.error != nullptr)) {
    try {
      if (!run_window(sim, shard.model->fabric(), window)) ++stalls;
    } catch (...) {
      shard.error = std::current_exception();
    }
  }
  if (shard.error == nullptr) {
    shard.at_end = shard.model->stats_snapshot();
    shard.delays = shard.model->delays();
  }
  shard.model.reset();  // tear down on the owning thread, scopes still live
  obs::MetricsRegistry& registry = run.metrics.registry();
  registry.counter("parallel.horizon_stalls").add(stalls);
  registry.counter("parallel.shard." + std::to_string(id) + ".events").add(sim.events_processed());
  shard.metrics = registry.snapshot();
  // The tallies reach the harness's checker through shard.checker, so the
  // scope hands nothing to this thread's enclosing checker.
  shard.checker.absorb(run.checker.checker());
  run.checker.checker().clear();
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
  return {true, ""};
}

std::unique_ptr<RunModel> make_sharded_fabric_model(const FabricConfig& config,
                                                    const FabricScenario& sc, ShardPlan plan,
                                                    obs::MetricsRegistry& registry) {
  return std::make_unique<ShardedFabricModel>(config, sc, std::move(plan), registry);
}

}  // namespace bufq::fabric
