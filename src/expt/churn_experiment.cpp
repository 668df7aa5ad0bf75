#include "expt/churn_experiment.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "admission/dynamic_manager.h"
#include "admission/flow_table.h"
#include "expt/experiment.h"
#include "sched/wfq.h"
#include "sim/link.h"
#include "sim/simulator.h"

namespace bufq {

ChurnResult run_churn_experiment(const ChurnConfig& config) {
  if (config.churn.mix.empty() || config.duration <= Time::zero() || config.max_flows == 0) {
    throw std::invalid_argument(
        "churn needs a non-empty flow mix, a positive duration and max_flows > 0");
  }

  Simulator sim;
  admission::FlowTable table{config.max_flows};
  admission::AdmissionController controller{{
      .scheme = config.scheme,
      .link_rate = config.link_rate,
      .buffer = config.buffer,
      .headroom = config.scheme == ChurnScheme::kFifoSharing ? config.headroom
                                                             : ByteSize::zero(),
  }};

  // Per-packet manager: WFQ gets sigma-sized private allocations (its
  // thresholds are the controller's sigma thresholds), the FIFO schemes
  // get Prop-2 thresholds with or without the sharing pools.
  admission::DynamicBufferManager manager{
      config.buffer, table,
      config.scheme == ChurnScheme::kFifoSharing
          ? admission::DynamicBufferManager::Policy::kSharing
          : admission::DynamicBufferManager::Policy::kThreshold,
      config.scheme == ChurnScheme::kFifoSharing ? config.headroom : ByteSize::zero()};

  // One WFQ class per table slot, all of weight 1 until the admit hook
  // rebinds a slot to its flow's token rate.  A FIFO reads no envelopes.
  const bool per_slot = config.scheme == ChurnScheme::kWfq;
  const std::unique_ptr<QueueDiscipline> discipline =
      build_discipline(per_slot ? SchedulerKind::kWfq : SchedulerKind::kFifo, manager,
                       config.link_rate, std::vector<FlowSpec>(per_slot ? config.max_flows : 0));
  auto* const wfq = dynamic_cast<WfqScheduler*>(discipline.get());

  // A LazyLink files no completion events: each arrival settles it, the
  // driver settles it before reading FlowTable occupancy or rebinding a
  // WFQ weight, and the warmup and end snapshots settle it too.
  LazyLink link{sim, *discipline, config.link_rate};
  StatsCollector stats{config.max_flows};
  link.set_delivery_handler([&](const Packet& p, Time t) { stats.on_delivered(p, t); });
  OfferedTrafficTap tap{stats, link};

  auto churn = config.churn;
  churn.max_concurrent = std::min(churn.max_concurrent, config.max_flows);
  Rng master{config.seed};
  admission::ChurnDriver driver{sim, controller, table, tap, churn, master.fork(0)};
  driver.set_settle_hook([&] { link.advance_to(sim.now()); });
  if (wfq != nullptr) {
    driver.set_admit_hook([wfq](FlowId slot, const TrafficProfile& profile) {
      wfq->set_class_weight(static_cast<std::size_t>(slot), profile.token_rate.bps());
    });
  }
  discipline->set_drop_handler([&](const Packet& p, Time t) {
    stats.on_dropped(p, t);
    driver.record_drop(p, t);
  });

  driver.start();

  std::vector<FlowCounters> at_warmup;
  const auto snap_warmup = [&] {
    link.advance_to(sim.now());
    at_warmup = stats.snapshot();
  };
  sim.at(config.warmup, snap_warmup);
  const Time horizon = config.warmup + config.duration;
  sim.run_until(horizon);
  link.advance_through(horizon);

  ChurnResult result;
  result.counters = driver.counters();
  result.traffic = StatsCollector::total_delta(at_warmup, stats.snapshot());
  result.interval = config.duration;
  result.blocking_probability = driver.counters().blocking_probability();
  result.utilization = static_cast<double>(result.traffic.delivered_bytes) * 8.0 /
                       (config.link_rate.bps() * config.duration.to_seconds());
  result.mean_active_flows = driver.mean_active_flows();
  result.mean_reserved_utilization = driver.mean_reserved_utilization();
  result.active_at_end = table.active_count();
  return result;
}

}  // namespace bufq
