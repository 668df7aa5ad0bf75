#include "fabric/scenario.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>

#include "fabric/parallel_engine.h"
#include "fabric/shard_plan.h"
#include "sim/checkpoint.h"
#include "util/rng.h"

namespace bufq::fabric {

const char* to_string(FabricTopologyKind kind) {
  switch (kind) {
    case FabricTopologyKind::kParkingLot:
      return "parking_lot";
    case FabricTopologyKind::kLeafSpine:
      return "leaf_spine";
    case FabricTopologyKind::kFatTree:
      return "fat_tree";
    case FabricTopologyKind::kWanRing:
      return "wan_ring";
  }
  return "unknown";
}

namespace {

/// Host-pair cross traffic for the multi-path shapes: host i sends to the
/// host "half the population away", a fixed derangement that forces most
/// pairs through the fabric tier.
void bind_host_pairs(const std::vector<NodeId>& hosts, FabricScenario& sc) {
  const std::size_t n = hosts.size();
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t peer = (i + n / 2) % n;
    if (peer == i) peer = (i + 1) % n;
    const auto flow = static_cast<FlowId>(sc.bindings.size());
    sc.bindings.push_back(FlowBinding{.flow = flow,
                                      .src = hosts[i],
                                      .dst = hosts[peer],
                                      .spec = FlowSpec{Rate::zero(), ByteSize::zero()},
                                      .guaranteed = false});
    sc.cross.push_back(flow);
  }
}

void require_shape(bool ok, const char* rule, int got) {
  if (!ok) throw std::invalid_argument(std::string{rule} + ", got " + std::to_string(got));
}

}  // namespace

FabricScenario build_fabric_scenario(const FabricConfig& config) {
  require_fabric_scheme(config.scheme);
  const LinkParams lp{config.link_rate, config.propagation, config.buffer};
  FabricScenario sc;
  const FlowSpec premium_spec{config.premium_rate,
                              ByteSize::bytes(2 * config.packet_bytes)};

  switch (config.topology) {
    case FabricTopologyKind::kParkingLot: {
      require_shape(config.size >= 2, "parking_lot needs size >= 2", config.size);
      ParkingLotFabric f = make_parking_lot(config.size, lp, lp);
      sc.bindings.push_back(FlowBinding{
          .flow = 0, .src = f.routers.front(), .dst = f.sink, .spec = premium_spec,
          .guaranteed = true});
      // One greedy cross flow per managed link of the premium path: flow j
      // enters at r_j, leaves one hop later (the last one at the sink).
      for (std::size_t j = 0; j + 1 < f.routers.size(); ++j) {
        const auto flow = static_cast<FlowId>(sc.bindings.size());
        sc.bindings.push_back(FlowBinding{.flow = flow,
                                          .src = f.routers[j],
                                          .dst = f.exit_hosts[j],
                                          .spec = FlowSpec{Rate::zero(), ByteSize::zero()},
                                          .guaranteed = false});
        sc.cross.push_back(flow);
      }
      const auto last = static_cast<FlowId>(sc.bindings.size());
      sc.bindings.push_back(FlowBinding{.flow = last,
                                        .src = f.routers.back(),
                                        .dst = f.sink,
                                        .spec = FlowSpec{Rate::zero(), ByteSize::zero()},
                                        .guaranteed = false});
      sc.cross.push_back(last);
      sc.topo = std::move(f.topo);
      break;
    }
    case FabricTopologyKind::kLeafSpine: {
      require_shape(config.size >= 2, "leaf_spine needs size >= 2", config.size);
      require_shape(config.hosts_per_leaf >= 1, "leaf_spine needs hosts_per_leaf >= 1",
                    config.hosts_per_leaf);
      LeafSpineFabric f = make_leaf_spine(config.size, config.size, config.hosts_per_leaf, lp, lp);
      sc.bindings.push_back(FlowBinding{.flow = 0,
                                        .src = f.hosts.front(),
                                        .dst = f.hosts.back(),
                                        .spec = premium_spec,
                                        .guaranteed = true});
      bind_host_pairs(f.hosts, sc);
      sc.topo = std::move(f.topo);
      break;
    }
    case FabricTopologyKind::kFatTree: {
      require_shape(config.size >= 2 && config.size % 2 == 0, "fat_tree needs an even size >= 2",
                    config.size);
      FatTreeFabric f = make_fat_tree(config.size, lp, lp);
      sc.bindings.push_back(FlowBinding{.flow = 0,
                                        .src = f.hosts.front(),
                                        .dst = f.hosts.back(),
                                        .spec = premium_spec,
                                        .guaranteed = true});
      bind_host_pairs(f.hosts, sc);
      sc.topo = std::move(f.topo);
      break;
    }
    case FabricTopologyKind::kWanRing: {
      require_shape(config.size >= 3, "wan_ring needs size >= 3", config.size);
      WanRingFabric f = make_wan_ring(config.size, lp, lp);
      sc.bindings.push_back(
          FlowBinding{.flow = 0,
                      .src = f.hosts.front(),
                      .dst = f.hosts[static_cast<std::size_t>(config.size) / 2],
                      .spec = premium_spec,
                      .guaranteed = true});
      bind_host_pairs(f.hosts, sc);
      sc.topo = std::move(f.topo);
      break;
    }
  }

  sc.routes = RouteTable::shortest_paths(sc.topo);
  sc.plan = plan_fabric(sc.topo, sc.routes, sc.bindings, ByteSize::bytes(config.packet_bytes),
                        config.seed);
  return sc;
}

namespace {

/// Builds and starts the sources of the flows `lives_here` accepts, in the
/// one construction order serial and sharded runs share: the premium CBR
/// source, then the cross flows in binding order (all built, then all
/// started).  ON-OFF sources fork the seed's stream by flow id, so a
/// source's arrival process is a pure function of (seed, flow), never of
/// the shard layout.
std::vector<std::unique_ptr<Source>> make_fabric_sources(
    Simulator& sim, Fabric& fabric, const FabricConfig& config, const FabricScenario& sc,
    const std::function<bool(FlowId)>& lives_here) {
  const Rng master{config.seed};
  std::vector<std::unique_ptr<Source>> sources;
  sources.reserve(sc.bindings.size());
  if (lives_here(sc.premium)) {
    sources.push_back(std::make_unique<CbrSource>(sim, fabric.ingress(sc.premium), sc.premium,
                                                  config.premium_rate, config.packet_bytes));
  }
  for (const FlowId flow : sc.cross) {
    if (!lives_here(flow)) continue;
    if (config.topology == FabricTopologyKind::kParkingLot) {
      // The chain analogue of Example 1's greedy flow: full-load arrivals
      // at every hop, so the premium reservation is what keeps it
      // lossless.
      sources.push_back(std::make_unique<CbrSource>(sim, fabric.ingress(flow), flow,
                                                       config.link_rate * config.load,
                                                       config.packet_bytes));
    } else {
      MarkovOnOffSource::Params p;
      p.flow = flow;
      p.peak_rate = config.link_rate;
      // 50 KB mean bursts at line rate; duty cycle = load / 2 so each
      // pair averages load * link_rate / 2.
      const double mean_on_s = 50e3 * 8.0 / config.link_rate.bps();
      const double duty = std::clamp(config.load / 2.0, 0.01, 0.95);
      p.mean_on = Time::from_seconds(mean_on_s);
      p.mean_off = Time::from_seconds(mean_on_s * (1.0 - duty) / duty);
      p.packet_bytes = config.packet_bytes;
      sources.push_back(std::make_unique<MarkovOnOffSource>(
          sim, fabric.ingress(flow), p, master.fork(static_cast<std::uint64_t>(flow))));
    }
  }
  for (const auto& source : sources) source->start();
  return sources;
}

/// Exports the planner's verdict so sweep extractors (and the bench JSON)
/// can compare measured p100 against it without re-planning.
void publish_plan_gauges(obs::MetricsRegistry& registry, const ProvisionPlan& plan) {
  registry.gauge("fabric.premium_delay_bound_us")
      .set(std::llround(plan.flows[0].delay_bound_s * 1e6));
  registry.gauge("fabric.plan_feasible").set(plan.feasible ? 1 : 0);
}

}  // namespace

FabricModel::FabricModel(const FabricConfig& config, const FabricScenario& sc, Simulator& sim,
                         const FabricShardScope* scope)
    : fabric_{sim, sc.topo, sc.routes, sc.plan, sc.bindings, config.scheme, scope} {
  fabric_.set_measure_from(config.warmup);
  sources_ = make_fabric_sources(sim, fabric_, config, sc, [&](FlowId flow) {
    return scope == nullptr || scope->holds(sc.bindings[static_cast<std::size_t>(flow)].src);
  });
}

void FabricModel::save_state(CheckpointWriter& w) const {
  fabric_.save_state(w);
  for (const auto& source : sources_) source->save_state(w);
}

void FabricModel::restore_state(CheckpointReader& r) {
  fabric_.restore_state(r);
  for (const auto& source : sources_) source->restore_state(r);
}

namespace {

/// The harness of one run over `sc`, which must outlive it.  Its factory
/// picks the engine: sharded when asked for and viable, else serial.
RunHarness fabric_harness(const FabricConfig& config, const FabricScenario& sc) {
  if (config.shards < 1) {
    throw std::invalid_argument("a fabric run needs shards >= 1, got " +
                                std::to_string(config.shards));
  }
  return RunHarness{
      RunSpec{.warmup = config.warmup,
              .duration = config.duration,
              .record_delays = config.record_delays,
              .section = "fabric",
              .fingerprint = fabric_fingerprint(config)},
      [&](Simulator& sim, obs::MetricsRegistry& registry) -> std::unique_ptr<RunModel> {
        publish_plan_gauges(registry, sc.plan);
        if (config.shards > 1) {
          ShardPlan plan = shard_plan(sc.topo, config.shards);
          const ParallelViability viability = parallel_viability(config, plan);
          if (viability.viable) {
            return make_sharded_fabric_model(config, sc, std::move(plan), registry);
          }
          // Loud fallback, never a silent wrong answer: conservative
          // windows need positive lookahead on every cut link.
          std::fprintf(stderr,
                       "bufq: --shards=%d requested for %s/size=%d but the run falls back to "
                       "the serial engine: %s\n",
                       config.shards, to_string(config.topology), config.size,
                       viability.reason.c_str());
          // Counted so sweeps and benches can alert on silent de-scaling.
          registry.counter("parallel.serial_fallback").add();
        }
        return std::make_unique<FabricModel>(config, sc, sim);
      }};
}

}  // namespace

std::uint64_t fabric_fingerprint(const FabricConfig& config) {
  FingerprintHasher h;
  h.mix_string("fabric");
  h.mix_u64(static_cast<std::uint64_t>(config.topology));
  h.mix_i64(config.size);
  h.mix_u64(static_cast<std::uint64_t>(config.scheme.scheduler));
  h.mix_u64(static_cast<std::uint64_t>(config.scheme.manager));
  h.mix_f64(config.link_rate.bps());
  h.mix_i64(config.buffer.count());
  h.mix_time(config.propagation);
  h.mix_f64(config.load);
  h.mix_f64(config.premium_rate.bps());
  h.mix_time(config.warmup);
  h.mix_time(config.duration);
  h.mix_u64(config.seed);
  h.mix_i64(config.packet_bytes);
  h.mix_bool(config.record_delays);
  // hosts_per_leaf shapes the topology, so it is part of the scenario
  // identity; shards is an execution strategy with a bit-identical-output
  // contract, so it deliberately is not.
  h.mix_i64(config.hosts_per_leaf);
  return h.digest();
}

ExperimentResult run_fabric_experiment(const FabricConfig& config) {
  const FabricScenario sc = build_fabric_scenario(config);
  return fabric_harness(config, sc).finish();
}

CheckpointedRun run_fabric_experiment_with_checkpoint(const FabricConfig& config,
                                                      const CheckpointTrigger& trigger) {
  if (config.shards > 1) {
    throw CheckpointShardingError(
        "checkpointing a sharded run (--shards=" + std::to_string(config.shards) +
        ") is not supported: per-shard calendars and boundary-channel state are not "
        "serialized; run serial (shards=1) to checkpoint");
  }
  const FabricScenario sc = build_fabric_scenario(config);
  return fabric_harness(config, sc).finish_with_checkpoint(trigger);
}

ExperimentResult resume_fabric_experiment(const FabricConfig& config,
                                          std::span<const std::byte> checkpoint) {
  if (config.shards > 1) {
    throw CheckpointShardingError(
        "resuming into a sharded run (--shards=" + std::to_string(config.shards) +
        ") is not supported; resume serial (shards=1)");
  }
  const FabricScenario sc = build_fabric_scenario(config);
  return fabric_harness(config, sc).resume(checkpoint);
}

std::map<std::string, double> fabric_metrics(const ExperimentResult& result) {
  std::map<std::string, double> m;
  m["premium_mbps"] = result.flow_throughput_mbps(0);
  m["premium_loss"] =
      result.per_flow.empty() ? 0.0 : result.per_flow.front().loss_ratio();
  m["premium_p100_delay_ms"] =
      result.delays.empty() ? 0.0 : result.delays.front().max_s * 1e3;
  double bound_us = 0.0;
  if (const auto it = result.metrics.gauges.find("fabric.premium_delay_bound_us");
      it != result.metrics.gauges.end()) {
    bound_us = static_cast<double>(it->second.last);
  }
  m["premium_delay_bound_ms"] = bound_us * 1e-3;
  m["agg_mbps"] = result.aggregate_throughput_mbps();
  std::vector<FlowId> cross;
  for (std::size_t f = 1; f < result.per_flow.size(); ++f) {
    cross.push_back(static_cast<FlowId>(f));
  }
  m["cross_loss"] = cross.empty() ? 0.0 : result.loss_ratio(cross);
  return m;
}

SweepCase fabric_sweep_case(std::string label,
                            std::vector<std::pair<std::string, std::string>> params,
                            const FabricConfig& config) {
  SweepCase c;
  c.label = std::move(label);
  c.params = std::move(params);
  c.runner = [config](std::uint64_t seed) {
    FabricConfig run = config;
    run.seed = seed;
    return run_fabric_experiment(run);
  };
  c.checkpoint_runner = [config](std::uint64_t seed, const SweepCheckpointRequest& request) {
    FabricConfig run = config;
    run.seed = seed;
    return run_checkpoint_request(run, request, run_fabric_experiment,
                                  run_fabric_experiment_with_checkpoint,
                                  resume_fabric_experiment);
  };
  return c;
}

}  // namespace bufq::fabric
