#include "expt/experiment.h"

#include <cassert>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/buffer_manager.h"
#include "core/dynamic_threshold.h"
#include "core/red.h"
#include "core/sharing.h"
#include "core/threshold.h"
#include "expt/run_harness.h"
#include "sched/fifo.h"
#include "sched/hybrid.h"
#include "sched/wfq.h"
#include "sim/checkpoint.h"
#include "sim/link.h"
#include "sim/simulator.h"
#include "stats/delay.h"
#include "traffic/shaper.h"
#include "traffic/sources.h"
#include "util/rng.h"

namespace bufq {

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

std::vector<FlowSpec> flow_specs(const std::vector<TrafficProfile>& flows) {
  std::vector<FlowSpec> specs;
  specs.reserve(flows.size());
  for (const auto& f : flows) {
    specs.push_back(FlowSpec{.rho = f.token_rate, .sigma = f.bucket});
  }
  return specs;
}

namespace {

/// RED/FRED: EWMA thresholds as fractions of the buffer, and the drop
/// probability at the upper one.
constexpr double kRedMinFraction = 0.25;
constexpr double kRedMaxFraction = 0.75;
constexpr double kRedMaxP = 0.1;

/// The scheduler/manager pair for a scheme, with ownership of both.
struct Pipeline {
  std::unique_ptr<BufferManager> manager;
  std::unique_ptr<QueueDiscipline> discipline;
};

Pipeline build_pipeline(const ExperimentConfig& config) {
  const auto specs = flow_specs(config.flows);
  const std::size_t n = specs.size();
  Pipeline p;

  if (config.scheme.scheduler == SchedulerKind::kHybrid) {
    if (config.scheme.groups.empty()) {
      throw std::invalid_argument("hybrid scheme requires a flow grouping");
    }
    HybridBuilder builder{config.link_rate, config.buffer, specs, config.scheme.groups};
    std::unique_ptr<CompositeBufferManager> manager;
    switch (config.scheme.manager) {
      case ManagerKind::kThreshold:
        manager = builder.make_threshold_manager();
        break;
      case ManagerKind::kSharing:
        manager = builder.make_sharing_manager(config.scheme.headroom);
        break;
      case ManagerKind::kNone:
      case ManagerKind::kSelectiveSharing:
      case ManagerKind::kDynamicThreshold:
      case ManagerKind::kRed:
      case ManagerKind::kFred:
        throw std::invalid_argument(
            "hybrid scheme supports kThreshold or kSharing per-queue management");
    }
    p.discipline = builder.make_scheduler(*manager);
    p.manager = std::move(manager);
    return p;
  }

  switch (config.scheme.manager) {
    case ManagerKind::kNone:
      p.manager = std::make_unique<TailDropManager>(config.buffer, n);
      break;
    case ManagerKind::kThreshold:
      p.manager = std::make_unique<ThresholdManager>(config.buffer, config.link_rate, specs);
      break;
    case ManagerKind::kSharing:
      p.manager = std::make_unique<BufferSharingManager>(config.buffer, config.link_rate, specs,
                                                         config.scheme.headroom);
      break;
    case ManagerKind::kSelectiveSharing: {
      // Conformant (regulated) flows may adapt into the excess space;
      // unregulated ones are held to their reservation.
      std::vector<bool> may_borrow;
      may_borrow.reserve(n);
      for (const auto& f : config.flows) may_borrow.push_back(f.regulated);
      p.manager = std::make_unique<BufferSharingManager>(config.buffer, config.link_rate, specs,
                                                         config.scheme.headroom,
                                                         ThresholdScaling::kExact,
                                                         std::move(may_borrow));
      break;
    }
    case ManagerKind::kDynamicThreshold:
      p.manager = std::make_unique<DynamicThresholdManager>(config.buffer, n,
                                                            config.scheme.dt_alpha);
      break;
    case ManagerKind::kRed: {
      const auto b = static_cast<double>(config.buffer.count());
      p.manager = std::make_unique<RedManager>(
          config.buffer, n,
          RedParams{.weight = 0.002,
                    .min_threshold = static_cast<std::int64_t>(b * kRedMinFraction),
                    .max_threshold = static_cast<std::int64_t>(b * kRedMaxFraction),
                    .max_p = kRedMaxP},
          Rng{config.seed ^ 0x0ED0ull});
      break;
    }
    case ManagerKind::kFred: {
      const auto b = static_cast<double>(config.buffer.count());
      p.manager = std::make_unique<FredManager>(
          config.buffer, n,
          FredParams{
              .red = RedParams{.weight = 0.002,
                               .min_threshold = static_cast<std::int64_t>(b * kRedMinFraction),
                               .max_threshold = static_cast<std::int64_t>(b * kRedMaxFraction),
                               .max_p = kRedMaxP},
              .min_q = 2 * config.packet_bytes,
              .strike_limit = 1},
          Rng{config.seed ^ 0xF4EDull});
      break;
    }
  }

  if (config.scheme.scheduler == SchedulerKind::kFifo) {
    p.discipline = std::make_unique<FifoScheduler>(*p.manager);
  } else {
    std::vector<double> weights;
    weights.reserve(n);
    for (const auto& s : specs) weights.push_back(s.rho.bps());
    p.discipline =
        std::make_unique<WfqScheduler>(*p.manager, config.link_rate, std::move(weights));
  }
  return p;
}

/// The single-multiplexer pipeline as a RunModel.  Construction wires the
/// exact event sequence run_experiment always produced: sources are built
/// (forking the master RNG in flow order) and started in flow order; the
/// harness then schedules the warmup snapshot.  The link is a LazyLink: it
/// files no completion events, every arrival settles it, and the harness
/// settles it before each read.
class ExperimentModel final : public RunModel {
 public:
  ExperimentModel(const ExperimentConfig& config, Simulator& sim)
      : config_{config},
        pipeline_{build_pipeline(config)},
        link_{sim, *pipeline_.discipline, config.link_rate},
        stats_{config.flows.size()},
        delays_{config.flows.size()},
        tap_{stats_, link_},
        master_{config.seed} {
    assert(!config.flows.empty());
    link_.set_delivery_handler([this](const Packet& p, Time t) {
      stats_.on_delivered(p, t);
      if (config_.record_delays && t >= config_.warmup) delays_.record(p, t);
    });
    pipeline_.discipline->set_drop_handler(
        [this](const Packet& p, Time t) { stats_.on_dropped(p, t); });

    // Sources and shapers; regulated flows pass through a leaky bucket
    // with their declared profile before being offered to the multiplexer.
    shapers_.reserve(config.flows.size());
    sources_.reserve(config.flows.size());
    for (std::size_t f = 0; f < config.flows.size(); ++f) {
      const auto& profile = config.flows[f];
      PacketSink* entry = &tap_;
      if (profile.regulated) {
        shapers_.push_back(std::make_unique<LeakyBucketShaper>(
            sim, tap_, profile.bucket, profile.token_rate, profile.peak_rate));
        entry = shapers_.back().get();
      }
      auto params = MarkovOnOffSource::params_from_profile(static_cast<FlowId>(f), profile,
                                                           config.packet_bytes);
      params.on_distribution = config.burst_distribution;
      params.pareto_shape = config.pareto_shape;
      sources_.push_back(
          std::make_unique<MarkovOnOffSource>(sim, *entry, params, master_.fork(f)));
      sources_.back()->start();
    }
  }

  [[nodiscard]] std::vector<FlowCounters> stats_snapshot() const override {
    return stats_.snapshot();
  }
  [[nodiscard]] const DelayRecorder& delays() const override { return delays_; }

  void settle(Time t, bool through) override {
    if (through) {
      link_.advance_through(t);
    } else {
      link_.advance_to(t);
    }
  }

  /// Registry order: manager, discipline, link, stats, delays, shapers,
  /// sources.
  void save_state(CheckpointWriter& w) const override {
    pipeline_.manager->save_state(w);
    pipeline_.discipline->save_state(w);
    link_.save_state(w);
    stats_.save_state(w);
    delays_.save_state(w);
    for (std::size_t i = 0; i < shapers_.size(); ++i) shapers_[i]->save_state(w, i);
    for (const auto& source : sources_) source->save_state(w);
  }

  void restore_state(CheckpointReader& r) override {
    pipeline_.manager->restore_state(r);
    pipeline_.discipline->restore_state(r);
    link_.restore_state(r);
    stats_.restore_state(r);
    delays_.restore_state(r);
    for (std::size_t i = 0; i < shapers_.size(); ++i) shapers_[i]->restore_state(r, i);
    for (const auto& source : sources_) source->restore_state(r);
  }

 private:
  const ExperimentConfig& config_;
  Pipeline pipeline_;
  LazyLink link_;
  StatsCollector stats_;
  DelayRecorder delays_;
  OfferedTrafficTap tap_;
  Rng master_;
  std::vector<std::unique_ptr<LeakyBucketShaper>> shapers_;
  std::vector<std::unique_ptr<MarkovOnOffSource>> sources_;
};

RunHarness experiment_harness(const ExperimentConfig& config) {
  return RunHarness{
      RunSpec{.warmup = config.warmup,
              .duration = config.duration,
              .record_delays = config.record_delays,
              .section = "expt",
              .fingerprint = experiment_fingerprint(config)},
      [&config](Simulator& sim, obs::MetricsRegistry&) {
        return std::make_unique<ExperimentModel>(config, sim);
      }};
}

}  // namespace

std::uint64_t experiment_fingerprint(const ExperimentConfig& config) {
  FingerprintHasher h;
  h.mix_string("expt");
  h.mix_f64(config.link_rate.bps());
  h.mix_i64(config.buffer.count());
  h.mix_u64(config.flows.size());
  for (const auto& f : config.flows) {
    h.mix_f64(f.peak_rate.bps());
    h.mix_f64(f.avg_rate.bps());
    h.mix_i64(f.bucket.count());
    h.mix_f64(f.token_rate.bps());
    h.mix_i64(f.mean_burst.count());
    h.mix_bool(f.regulated);
  }
  h.mix_u64(static_cast<std::uint64_t>(config.scheme.scheduler));
  h.mix_u64(static_cast<std::uint64_t>(config.scheme.manager));
  h.mix_i64(config.scheme.headroom.count());
  h.mix_u64(config.scheme.groups.size());
  for (const auto& group : config.scheme.groups) {
    h.mix_u64(group.size());
    for (const FlowId flow : group) h.mix_i64(flow);
  }
  h.mix_f64(config.scheme.dt_alpha);
  h.mix_time(config.warmup);
  h.mix_time(config.duration);
  h.mix_u64(config.seed);
  h.mix_i64(config.packet_bytes);
  h.mix_bool(config.record_delays);
  h.mix_u64(static_cast<std::uint64_t>(config.burst_distribution));
  h.mix_f64(config.pareto_shape);
  return h.digest();
}

ExperimentResult run_experiment(const ExperimentConfig& config) {
  return experiment_harness(config).finish();
}

CheckpointedRun run_experiment_with_checkpoint(const ExperimentConfig& config,
                                               const CheckpointTrigger& trigger) {
  return experiment_harness(config).finish_with_checkpoint(trigger);
}

ExperimentResult resume_experiment(const ExperimentConfig& config,
                                   std::span<const std::byte> checkpoint) {
  return experiment_harness(config).resume(checkpoint);
}

}  // namespace bufq
