// Unit tests for the parallel-engine building blocks: the deterministic
// topology partitioner (fabric/shard_plan), the conservative-lookahead
// window coordinator (sim/parallel), viability gating with its serial
// fallback, the sharded run's errors and audit, and the checkpoint x
// sharding rejection.  The end-to-end
// bit-identical contract lives in parallel_diff_test.cpp.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "check/invariants.h"
#include "expt/run_harness.h"
#include "fabric/parallel_engine.h"
#include "fabric/scenario.h"
#include "fabric/shard_plan.h"
#include "fabric/topology.h"
#include "sim/checkpoint.h"
#include "sim/parallel.h"
#include "sim/shard.h"
#include "sim/simulator.h"
#include "util/task_pool.h"
#include "util/units.h"

namespace bufq::fabric {
namespace {

LinkParams link_ms(int prop_ms) {
  LinkParams lp;
  lp.propagation = Time::milliseconds(prop_ms);
  return lp;
}

TEST(ShardPlan, IsDeterministicAndClamped) {
  const LeafSpineFabric f = make_leaf_spine(4, 4, 2, link_ms(1), link_ms(1));
  const ShardPlan a = shard_plan(f.topo, 4);
  const ShardPlan b = shard_plan(f.topo, 4);
  EXPECT_EQ(a.node_shard, b.node_shard);
  EXPECT_EQ(a.cut_links, b.cut_links);
  EXPECT_EQ(a.lookahead, b.lookahead);

  // 8 switches total: requests beyond that clamp.
  EXPECT_EQ(shard_plan(f.topo, 64).shards, 8);
  EXPECT_EQ(shard_plan(f.topo, 0).shards, 1);
}

TEST(ShardPlan, BalancesLeafSpineAndPinsHosts) {
  const LeafSpineFabric f = make_leaf_spine(4, 4, 2, link_ms(1), link_ms(1));
  const ShardPlan plan = shard_plan(f.topo, 4);
  ASSERT_EQ(plan.shards, 4);

  // Round-robin over BFS order lands exactly two switches per shard.
  std::vector<int> switches_per_shard(4, 0);
  for (NodeId n = 0; n < static_cast<NodeId>(f.topo.node_count()); ++n) {
    if (!f.topo.node(n).host) {
      ++switches_per_shard[static_cast<std::size_t>(
          plan.node_shard[static_cast<std::size_t>(n)])];
    }
  }
  for (const int count : switches_per_shard) EXPECT_EQ(count, 2);

  // Every host shares its edge switch's shard, so host links are not cut.
  for (const NodeId host : f.hosts) {
    const LinkId uplink = f.topo.out_links(host).front();
    const NodeId edge = f.topo.link(uplink).to;
    EXPECT_EQ(plan.node_shard[static_cast<std::size_t>(host)],
              plan.node_shard[static_cast<std::size_t>(edge)]);
  }
}

TEST(ShardPlan, CutLinksCrossShardsAndSetLookahead) {
  const LeafSpineFabric f = make_leaf_spine(4, 4, 2, link_ms(3), link_ms(3));
  const ShardPlan plan = shard_plan(f.topo, 4);
  ASSERT_FALSE(plan.cut_links.empty());
  for (std::size_t i = 1; i < plan.cut_links.size(); ++i) {
    EXPECT_LT(plan.cut_links[i - 1], plan.cut_links[i]);
  }
  for (const LinkId l : plan.cut_links) {
    const TopoLink& link = f.topo.link(l);
    EXPECT_NE(plan.node_shard[static_cast<std::size_t>(link.from)],
              plan.node_shard[static_cast<std::size_t>(link.to)]);
    EXPECT_GE(link.params.propagation, plan.lookahead);
  }
  EXPECT_EQ(plan.lookahead, Time::milliseconds(3));
  EXPECT_FALSE(plan.zero_lookahead);
}

TEST(ShardPlan, ZeroPropagationCutFlagsZeroLookahead) {
  const LeafSpineFabric f = make_leaf_spine(2, 2, 1, link_ms(0), link_ms(0));
  const ShardPlan plan = shard_plan(f.topo, 2);
  EXPECT_TRUE(plan.zero_lookahead);
  EXPECT_EQ(plan.lookahead, Time::zero());
}

TEST(ShardPlan, SingleShardHasNoCut) {
  const ParkingLotFabric f = make_parking_lot(3, link_ms(1), link_ms(1));
  const ShardPlan plan = shard_plan(f.topo, 1);
  EXPECT_EQ(plan.shards, 1);
  EXPECT_TRUE(plan.cut_links.empty());
  // zero_lookahead specifically flags zero-propagation *cut* links; a
  // single shard has no cut at all and its lookahead is simply zero.
  EXPECT_FALSE(plan.zero_lookahead);
  EXPECT_EQ(plan.lookahead, Time::zero());
}

// --- coordinator ---------------------------------------------------------

TEST(ParallelCoordinator, WindowScheduleIsAPureFunctionOfConfig) {
  ParallelCoordinator::Config cfg;
  cfg.shards = 1;
  cfg.lookahead = Time::milliseconds(2);
  cfg.horizon = Time::milliseconds(5);
  cfg.sync_point = Time::milliseconds(3);
  ParallelCoordinator coord{cfg};

  std::vector<Time> ends;
  std::vector<bool> finals;
  ParallelCoordinator::Window w;
  while (coord.next_window(0, w)) {
    ends.push_back(w.end);
    finals.push_back(w.final);
  }
  // [0,2) [2,3) sync [3,5) then the inclusive drain round at 5.
  const std::vector<Time> expected{Time::milliseconds(2), Time::milliseconds(3),
                                   Time::milliseconds(5), Time::milliseconds(5)};
  EXPECT_EQ(ends, expected);
  const std::vector<bool> expected_final{false, false, false, true};
  EXPECT_EQ(finals, expected_final);
  EXPECT_EQ(coord.windows(), 4u);
}

TEST(ParallelCoordinator, FiresSyncHookExactlyAtSyncPoint) {
  ParallelCoordinator::Config cfg;
  cfg.shards = 1;
  cfg.lookahead = Time::milliseconds(2);
  cfg.horizon = Time::milliseconds(6);
  cfg.sync_point = Time::milliseconds(3);
  std::vector<Time> fired;
  Time covered = Time::zero();  // end of the last window the shard ran
  ParallelCoordinator coord{cfg, [&] { fired.push_back(covered); }};
  ParallelCoordinator::Window w;
  while (coord.next_window(0, w)) covered = w.end;
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired.front(), Time::milliseconds(3));
}

TEST(ParallelCoordinator, ZeroSyncPointForcesNoEdgeAndNeverFires) {
  ParallelCoordinator::Config cfg;
  cfg.shards = 1;
  cfg.lookahead = Time::milliseconds(2);
  cfg.horizon = Time::milliseconds(6);
  int fired = 0;
  ParallelCoordinator coord{cfg, [&] { ++fired; }};
  std::vector<Time> ends;
  ParallelCoordinator::Window w;
  while (coord.next_window(0, w)) ends.push_back(w.end);
  const std::vector<Time> expected{Time::milliseconds(2), Time::milliseconds(4),
                                   Time::milliseconds(6), Time::milliseconds(6)};
  EXPECT_EQ(ends, expected);
  EXPECT_EQ(fired, 0);
}

// Equal-timestamp ordering property: shards 0 and 1 both emit to shard 2
// with identical arrival stamps; shard 2 must observe them sorted by
// (time, src_shard, seq) — lower src shard first, then emission order.
TEST(ParallelCoordinator, DeliversEqualTimestampsInSrcShardSeqOrder) {
  ParallelCoordinator::Config cfg;
  cfg.shards = 3;
  cfg.lookahead = Time::milliseconds(1);
  cfg.horizon = Time::milliseconds(4);
  ParallelCoordinator coord{cfg};

  std::vector<BoundaryEvent> seen_by_2;
  auto worker = [&](std::int32_t shard) {
    ParallelCoordinator::Window w;
    while (coord.next_window(shard, w)) {
      if (shard == 2) {
        seen_by_2.insert(seen_by_2.end(), w.incoming.begin(), w.incoming.end());
      } else if (!w.final) {
        // Both producers stamp the identical arrival time w.end.
        for (int k = 0; k < 3; ++k) {
          Packet p;
          p.flow = shard;
          coord.channel(shard).emit(2, w.end, /*dest=*/0, p);
        }
      }
    }
  };
  std::thread t0{worker, 0};
  std::thread t1{worker, 1};
  std::thread t2{worker, 2};
  t0.join();
  t1.join();
  t2.join();

  // 4 interior windows * 2 producers * 3 events; the emissions stamped at
  // the horizon are delivered by the drain round (time <= horizon).
  ASSERT_EQ(seen_by_2.size(), 24u);
  EXPECT_EQ(coord.boundary_events(), 24u);
  for (std::size_t i = 1; i < seen_by_2.size(); ++i) {
    EXPECT_FALSE(boundary_before(seen_by_2[i], seen_by_2[i - 1]))
        << "boundary events out of (time, src_shard, seq) order at " << i;
  }
  // Within one timestamp both sources appear, shard 0 first.
  EXPECT_EQ(seen_by_2[0].src_shard, 0);
  EXPECT_EQ(seen_by_2[0].seq, 0u);
  EXPECT_EQ(seen_by_2[3].src_shard, 1);
}

// Boundary events due after the next window wait until their own: each
// is delivered once, in the window [start, end) that holds its time (the
// drain round for the horizon itself), while both shards write each
// other's outboxes every window; emissions past the horizon are counted
// but never delivered.
TEST(ParallelCoordinator, DeliversEachBoundaryEventInTheWindowItIsDueIn) {
  ParallelCoordinator::Config cfg;
  cfg.shards = 2;
  cfg.lookahead = Time::milliseconds(1);
  cfg.horizon = Time::milliseconds(5);
  ParallelCoordinator coord{cfg};

  std::vector<std::vector<Time>> seen(2);
  std::vector<int> misplaced(2, 0);
  parallel_for(2, 2, [&](std::size_t s) {
    const auto shard = static_cast<std::int32_t>(s);
    ParallelCoordinator::Window w;
    Time start = Time::zero();
    while (coord.next_window(shard, w)) {
      for (const BoundaryEvent& ev : w.incoming) {
        seen[s].push_back(ev.time);
        const bool inside = start <= ev.time && (w.final ? ev.time <= w.end : ev.time < w.end);
        if (!inside) ++misplaced[s];
      }
      if (!w.final) {
        for (const Time ahead : {Time::zero(), Time::microseconds(1500), Time::milliseconds(3)}) {
          coord.channel(shard).emit(1 - shard, w.end + ahead, /*dest=*/0, Packet{});
        }
      }
      start = w.end;
    }
  });

  // Emitted at each interior window's end e in 1..5 ms: e, e + 1.5 and
  // e + 3 ms; those up to the horizon arrive, in time order.
  std::vector<Time> expected;
  for (std::int64_t e = 1; e <= 5; ++e) {
    for (const Time t : {Time::milliseconds(e), Time::milliseconds(e) + Time::microseconds(1500),
                         Time::milliseconds(e + 3)}) {
      if (t <= cfg.horizon) expected.push_back(t);
    }
  }
  std::sort(expected.begin(), expected.end());
  for (std::size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(seen[s], expected) << "shard " << s;
    EXPECT_EQ(misplaced[s], 0) << "shard " << s;
  }
  EXPECT_EQ(coord.boundary_events(), 30u);  // 5 windows x 3 events x 2 shards
}

// A shard that fails on its first call must end the run for its peer at
// that barrier rather than leave it simulating 10^5 windows to the
// horizon.  Counts, not wall time: each worker tallies its calls.
TEST(ParallelCoordinator, FailedShardEndsEveryShardAtTheNextBarrier) {
  ParallelCoordinator::Config cfg;
  cfg.shards = 2;
  cfg.lookahead = Time::milliseconds(1);
  cfg.horizon = Time::seconds(100);
  ParallelCoordinator coord{cfg};

  std::vector<int> calls(2, 0);
  parallel_for(2, 2, [&coord, &calls](std::size_t s) {
    const auto shard = static_cast<std::int32_t>(s);
    ParallelCoordinator::Window w;
    int& mine = calls[s];
    while (true) {
      ++mine;
      if (!coord.next_window(shard, w, /*failed=*/shard == 0)) break;
    }
  });

  EXPECT_LE(calls[0], 2);
  EXPECT_LE(calls[1], 2);
  EXPECT_LE(coord.windows(), 2u);
}

// --- viability + fallback ------------------------------------------------

FabricConfig small_config() {
  FabricConfig config;
  config.topology = FabricTopologyKind::kParkingLot;
  config.size = 3;
  config.warmup = Time::milliseconds(50);
  config.duration = Time::milliseconds(100);
  return config;
}

ParallelViability viability_of(const FabricConfig& config) {
  const FabricScenario sc = build_fabric_scenario(config);
  return parallel_viability(config, shard_plan(sc.topo, config.shards));
}

TEST(ParallelViability, GatesOnShardsLookaheadAndWarmup) {
  FabricConfig config = small_config();
  config.shards = 2;
  EXPECT_TRUE(viability_of(config).viable);

  FabricConfig serial = config;
  serial.shards = 1;
  EXPECT_FALSE(viability_of(serial).viable);

  FabricConfig no_warmup = config;
  no_warmup.warmup = Time::zero();
  EXPECT_FALSE(viability_of(no_warmup).viable);

  FabricConfig zero_prop = config;
  zero_prop.propagation = Time::zero();
  EXPECT_FALSE(viability_of(zero_prop).viable);
}

TEST(ParallelFallback, ZeroLookaheadRunsSerialWithCounter) {
  FabricConfig config = small_config();
  config.shards = 2;
  config.propagation = Time::zero();  // cut links have no lookahead
  const ExperimentResult result = run_fabric_experiment(config);
  const auto it = result.metrics.counters.find("parallel.serial_fallback");
  ASSERT_NE(it, result.metrics.counters.end());
  EXPECT_EQ(it->second, 1u);
  // No parallel diagnostics on a serial run.
  EXPECT_EQ(result.metrics.counters.count("parallel.windows"), 0u);
}

TEST(ParallelRun, PublishesWindowDiagnostics) {
  FabricConfig config = small_config();
  config.shards = 2;
  const ExperimentResult result = run_fabric_experiment(config);
  EXPECT_EQ(result.metrics.counters.count("parallel.serial_fallback"), 0u);
  ASSERT_NE(result.metrics.counters.find("parallel.windows"),
            result.metrics.counters.end());
  EXPECT_GT(result.metrics.counters.at("parallel.windows"), 0u);
  EXPECT_NE(result.metrics.counters.find("parallel.boundary_events"),
            result.metrics.counters.end());
  EXPECT_NE(result.metrics.counters.find("parallel.shard.0.events"),
            result.metrics.counters.end());
  EXPECT_NE(result.metrics.counters.find("parallel.shard.1.events"),
            result.metrics.counters.end());
}

TEST(ParallelRun, ShardFailureKeepsItsExceptionType) {
  FabricConfig config = small_config();
  config.shards = 2;
  const FabricScenario sc = build_fabric_scenario(config);
  const ShardPlan plan = shard_plan(sc.topo, config.shards);
  ASSERT_TRUE(parallel_viability(config, plan).viable);
  // build_fabric_scenario refuses RED itself, so only the shards' Fabric
  // constructors see it: each throws std::invalid_argument on its worker.
  config.scheme.manager = ManagerKind::kRed;
  RunHarness harness{RunSpec{.warmup = config.warmup, .duration = config.duration},
                     [&](Simulator&, obs::MetricsRegistry& registry) {
                       return make_sharded_fabric_model(config, sc, plan, registry);
                     }};
  EXPECT_THROW(static_cast<void>(harness.finish()), std::invalid_argument);
}

TEST(ParallelRun, ShardCountBelowOneIsRefused) {
  FabricConfig config = small_config();
  config.shards = 0;
  EXPECT_THROW(static_cast<void>(run_fabric_experiment(config)), std::invalid_argument);
  config.shards = -3;
  EXPECT_THROW(static_cast<void>(run_fabric_experiment(config)), std::invalid_argument);
}

TEST(ParallelRun, AuditFoldsOnceIntoTheEnclosingChecker) {
  if (!BUFQ_CHECKS_ENABLED) GTEST_SKIP() << "the run audit needs -DBUFQ_CHECKS=ON";
  // The shards audit on their own threads; their tallies reach the
  // harness's checker, and through it the enclosing one, exactly once.
  FabricConfig config = small_config();
  const ExperimentResult serial = run_fabric_experiment(config);
  config.shards = 2;
  const std::uint64_t global_before = check::InvariantChecker::global().checks_run();
  check::ScopedChecker enclosing;
  const ExperimentResult sharded = run_fabric_experiment(config);
  EXPECT_GT(sharded.checks_run, 0u);
  EXPECT_EQ(sharded.checks_run, serial.checks_run);
  EXPECT_EQ(enclosing.checker().checks_run(), sharded.checks_run);
  // Nothing bypassed the enclosing checker on a worker thread.
  EXPECT_EQ(check::InvariantChecker::global().checks_run(), global_before);
}

// --- checkpoint x sharding -----------------------------------------------

/// A checkpoint file path under the test temp dir, with no file there.
std::string fresh_checkpoint_path(const char* name) {
  std::string path = testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

CheckpointRequest request(CheckpointMode mode, const std::string& path) {
  return CheckpointRequest{.mode = mode, .trigger = {}, .path = path};
}

// Every mode that meets a checkpoint refuses a sharded config before any
// event runs: write mode leaves no file behind, and read mode refuses
// before it looks for its file.
TEST(CheckpointSharding, CheckpointOfShardedRunThrowsTypedError) {
  FabricConfig config = small_config();
  config.shards = 2;
  const std::string path = fresh_checkpoint_path("bufq_sharded_request.bufq");
  for (const CheckpointMode mode :
       {CheckpointMode::kRoundtrip, CheckpointMode::kWrite, CheckpointMode::kRead}) {
    EXPECT_THROW(static_cast<void>(run_fabric_experiment(config, request(mode, path))),
                 CheckpointShardingError)
        << "mode " << static_cast<int>(mode);
    EXPECT_FALSE(std::ifstream{path}.good()) << "mode " << static_cast<int>(mode);
  }
}

TEST(CheckpointSharding, ResumeIntoShardedConfigThrowsTypedError) {
  FabricConfig config = small_config();
  const std::string path = fresh_checkpoint_path("bufq_serial_snapshot.bufq");
  const ExperimentResult written =
      run_fabric_experiment(config, request(CheckpointMode::kWrite, path));
  FabricConfig sharded = config;
  sharded.shards = 2;
  EXPECT_THROW(
      static_cast<void>(run_fabric_experiment(sharded, request(CheckpointMode::kRead, path))),
      CheckpointShardingError);
  // The same file restores fine serially — the rejection is about
  // sharding, not the checkpoint.
  const ExperimentResult resumed =
      run_fabric_experiment(config, request(CheckpointMode::kRead, path));
  EXPECT_EQ(resumed.per_flow.size(), written.per_flow.size());
}

}  // namespace
}  // namespace bufq::fabric
