#include "expt/churn_experiment.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "admission/dynamic_manager.h"
#include "admission/flow_table.h"
#include "expt/experiment.h"
#include "expt/run_harness.h"
#include "sched/wfq.h"
#include "sim/link.h"

namespace bufq {
namespace {

constexpr const char* kRefusal = "churn runs cannot checkpoint";

/// The driver's limits: at most one holding flow per FlowTable slot.
admission::ChurnDriver::Config driver_config(const ChurnConfig& config) {
  auto churn = config.churn;
  churn.max_concurrent = std::min(churn.max_concurrent, config.max_flows);
  return churn;
}

/// One link under flow churn as a RunModel.  Construction builds the
/// pipeline and files the driver's first arrival; the harness then files
/// its warmup snapshot.  A LazyLink files no completion events: each
/// arrival settles it, the driver settles it before reading FlowTable
/// occupancy or rebinding a WFQ weight, and the harness settles it before
/// each read.  The driver's flow population is not serializable, so churn
/// runs refuse checkpoints.
class ChurnModel final : public RunModel {
 public:
  ChurnModel(const ChurnConfig& config, Simulator& sim)
      : table_{config.max_flows},
        controller_{{
            .scheme = config.scheme,
            .link_rate = config.link_rate,
            .buffer = config.buffer,
            .headroom = config.scheme == ChurnScheme::kFifoSharing ? config.headroom
                                                                   : ByteSize::zero(),
        }},
        // WFQ gets sigma-sized private allocations (its thresholds are the
        // controller's sigma thresholds), the FIFO schemes get Prop-2
        // thresholds with or without the sharing pools.
        manager_{config.buffer, table_,
                 config.scheme == ChurnScheme::kFifoSharing
                     ? admission::DynamicBufferManager::Policy::kSharing
                     : admission::DynamicBufferManager::Policy::kThreshold,
                 config.scheme == ChurnScheme::kFifoSharing ? config.headroom
                                                            : ByteSize::zero()},
        // One WFQ class per table slot, all of weight 1 until the admit
        // hook rebinds a slot to its flow's token rate.  A FIFO reads no
        // envelopes.
        discipline_{build_discipline(
            config.scheme == ChurnScheme::kWfq ? SchedulerKind::kWfq : SchedulerKind::kFifo,
            manager_, config.link_rate,
            std::vector<FlowSpec>(config.scheme == ChurnScheme::kWfq ? config.max_flows : 0))},
        link_{sim, *discipline_, config.link_rate},
        stats_{config.max_flows},
        tap_{stats_, link_},
        driver_{sim, controller_, table_, tap_, driver_config(config), Rng{config.seed}.fork(0)} {
    link_.set_delivery_handler([this](const Packet& p, Time t) { stats_.on_delivered(p, t); });
    driver_.set_settle_hook([this, &sim] { link_.advance_to(sim.now()); });
    if (auto* const wfq = dynamic_cast<WfqScheduler*>(discipline_.get())) {
      driver_.set_admit_hook([wfq](FlowId slot, const TrafficProfile& profile) {
        wfq->set_class_weight(static_cast<std::size_t>(slot), profile.token_rate.bps());
      });
    }
    discipline_->set_drop_handler([this](const Packet& p, Time t) {
      stats_.on_dropped(p, t);
      driver_.record_drop(p, t);
    });
    driver_.start();
  }

  [[nodiscard]] std::vector<FlowCounters> stats_snapshot() const override {
    return stats_.snapshot();
  }
  [[nodiscard]] const DelayRecorder& delays() const override { return delays_; }
  void settle(Time t, bool through) override { settle_link(link_, t, through); }

  void save_state(CheckpointWriter& /*w*/) const override { throw CheckpointError(kRefusal); }
  void restore_state(CheckpointReader& /*r*/) override { throw CheckpointError(kRefusal); }

  [[nodiscard]] const admission::ChurnDriver& driver() const { return driver_; }
  [[nodiscard]] std::size_t active_flows() const { return table_.active_count(); }

 private:
  admission::FlowTable table_;
  admission::AdmissionController controller_;
  admission::DynamicBufferManager manager_;
  std::unique_ptr<QueueDiscipline> discipline_;
  LazyLink link_;
  StatsCollector stats_;
  OfferedTrafficTap tap_;
  admission::ChurnDriver driver_;
  DelayRecorder delays_{0};
};

}  // namespace

ChurnResult run_churn_experiment(const ChurnConfig& config) {
  if (config.churn.mix.empty() || config.duration <= Time::zero() || config.max_flows == 0) {
    throw std::invalid_argument(
        "churn needs a non-empty flow mix, a positive duration and max_flows > 0");
  }

  const ChurnModel* model = nullptr;
  RunHarness harness{RunSpec{.warmup = config.warmup, .duration = config.duration},
                     [&](Simulator& sim, obs::MetricsRegistry&) {
                       auto built = std::make_unique<ChurnModel>(config, sim);
                       model = built.get();
                       return built;
                     }};
  const ExperimentResult run = harness.finish();

  ChurnResult result;
  result.counters = model->driver().counters();
  for (const FlowCounters& flow : run.per_flow) result.traffic += flow;
  result.interval = config.duration;
  result.blocking_probability = result.counters.blocking_probability();
  result.utilization = static_cast<double>(result.traffic.delivered_bytes) * 8.0 /
                       (config.link_rate.bps() * config.duration.to_seconds());
  result.mean_active_flows = model->driver().mean_active_flows();
  result.mean_reserved_utilization = model->driver().mean_reserved_utilization();
  result.active_at_end = model->active_flows();
  result.checks_run = run.checks_run;
  result.check_violations = run.check_violations;
  return result;
}

}  // namespace bufq
