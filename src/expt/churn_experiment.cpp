#include "expt/churn_experiment.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <vector>

#include "admission/dynamic_manager.h"
#include "admission/flow_table.h"
#include "sched/fifo.h"
#include "sched/wfq.h"
#include "sim/link.h"
#include "sim/simulator.h"

namespace bufq {

ChurnResult run_churn_experiment(const ChurnConfig& config) {
  assert(!config.churn.mix.empty());
  assert(config.duration > Time::zero());
  assert(config.max_flows > 0);

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

  std::unique_ptr<QueueDiscipline> discipline;
  WfqScheduler* wfq = nullptr;
  if (config.scheme == ChurnScheme::kWfq) {
    // One class per table slot; weights are rebound as slots are recycled.
    auto sched = std::make_unique<WfqScheduler>(manager, config.link_rate,
                                                std::vector<double>(config.max_flows, 1.0));
    wfq = sched.get();
    discipline = std::move(sched);
  } else {
    discipline = std::make_unique<FifoScheduler>(manager);
  }

  Link link{sim, *discipline, config.link_rate};
  StatsCollector stats{config.max_flows};
  link.set_delivery_handler([&](const Packet& p, Time t) { stats.on_delivered(p, t); });
  OfferedTrafficTap tap{stats, link};

  auto churn = config.churn;
  churn.max_concurrent = std::min(churn.max_concurrent, config.max_flows);
  Rng master{config.seed};
  admission::ChurnDriver driver{sim, controller, table, tap, churn, master.fork(0)};
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
  const auto snap_warmup = [&] { at_warmup = stats.snapshot(); };
  sim.at(config.warmup, snap_warmup);
  sim.run_until(config.warmup + config.duration);

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
