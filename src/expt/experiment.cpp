#include "expt/experiment.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

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

/// CLI names, indexed by enum value.
constexpr const char* kSchedulerNames[] = {"fifo", "wfq", "hybrid"};
constexpr const char* kManagerNames[] = {"none", "threshold", "sharing", "selective",
                                         "dt",   "red",       "fred"};

template <typename Kind, std::size_t N>
Kind parse_name(const char* const (&names)[N], const std::string& name, const char* flag) {
  for (std::size_t i = 0; i < N; ++i) {
    if (name == names[i]) return static_cast<Kind>(i);
  }
  throw std::invalid_argument(std::string{"unknown --"} + flag + " '" + name + "'");
}

/// RED/FRED: EWMA thresholds at a quarter and three quarters of the
/// buffer, with RED's default weight and drop probability.
RedParams red_params(ByteSize buffer) {
  const auto b = static_cast<double>(buffer.count());
  return RedParams{.min_threshold = static_cast<std::int64_t>(b * 0.25),
                   .max_threshold = static_cast<std::int64_t>(b * 0.75)};
}

std::unique_ptr<BufferManager> build_manager(const SchemeConfig& scheme, PortSpec& port) {
  const std::size_t n = port.flows.size();
  const auto thresholds = [&port](ThresholdScaling scaling) {
    return port.thresholds.empty()
               ? compute_thresholds(port.flows, port.buffer, port.rate, scaling)
               : std::move(port.thresholds);
  };
  switch (scheme.manager) {
    case ManagerKind::kNone:
      return std::make_unique<TailDropManager>(port.buffer, n);
    case ManagerKind::kThreshold:
      return std::make_unique<ThresholdManager>(port.buffer,
                                                thresholds(ThresholdScaling::kScaleToFill));
    case ManagerKind::kSharing:
    case ManagerKind::kSelectiveSharing: {
      // Plain sharing passes no flags: every flow borrows.
      const bool selective = scheme.manager == ManagerKind::kSelectiveSharing;
      return std::make_unique<BufferSharingManager>(
          port.buffer, thresholds(ThresholdScaling::kExact), scheme.headroom,
          selective ? std::move(port.may_borrow) : std::vector<bool>{});
    }
    case ManagerKind::kDynamicThreshold:
      return std::make_unique<DynamicThresholdManager>(port.buffer, n, scheme.dt_alpha);
    case ManagerKind::kRed:
      return std::make_unique<RedManager>(port.buffer, n, red_params(port.buffer),
                                          Rng{port.seed ^ 0x0ED0ull});
    case ManagerKind::kFred:
      return std::make_unique<FredManager>(
          port.buffer, n,
          FredParams{.red = red_params(port.buffer), .min_q = 2 * port.packet_bytes},
          Rng{port.seed ^ 0xF4EDull});
  }
  return nullptr;  // unreachable
}

}  // namespace

SchedulerKind parse_scheduler(const std::string& name) {
  return parse_name<SchedulerKind>(kSchedulerNames, name, "scheduler");
}

ManagerKind parse_manager(const std::string& name) {
  if (name == "taildrop") return ManagerKind::kNone;
  return parse_name<ManagerKind>(kManagerNames, name, "manager");
}

const char* to_string(SchedulerKind k) { return kSchedulerNames[static_cast<std::size_t>(k)]; }

const char* to_string(ManagerKind k) { return kManagerNames[static_cast<std::size_t>(k)]; }

PortPipeline build_port(const SchemeConfig& scheme, PortSpec port) {
  if (scheme.scheduler != SchedulerKind::kHybrid) {
    auto manager = build_manager(scheme, port);
    auto discipline = build_discipline(scheme.scheduler, *manager, port.rate, port.flows);
    return {std::move(manager), std::move(discipline)};
  }
  if (scheme.groups.empty()) throw std::invalid_argument("hybrid scheme requires a flow grouping");
  if (scheme.manager != ManagerKind::kThreshold && scheme.manager != ManagerKind::kSharing) {
    throw std::invalid_argument(
        "hybrid scheme supports kThreshold or kSharing per-queue management");
  }
  const HybridBuilder builder{port.rate, port.buffer, port.flows, scheme.groups};
  std::unique_ptr<BufferManager> manager = scheme.manager == ManagerKind::kThreshold
                                               ? builder.make_threshold_manager()
                                               : builder.make_sharing_manager(scheme.headroom);
  auto discipline = builder.make_scheduler(*manager);
  return {std::move(manager), std::move(discipline)};
}

std::unique_ptr<QueueDiscipline> build_discipline(SchedulerKind scheduler,
                                                  BufferManager& manager, Rate rate,
                                                  const std::vector<FlowSpec>& flows) {
  if (scheduler == SchedulerKind::kFifo) return std::make_unique<FifoScheduler>(manager);
  std::vector<double> weights;
  weights.reserve(flows.size());
  for (const FlowSpec& f : flows) weights.push_back(std::max(f.rho.bps(), 1.0));
  return std::make_unique<WfqScheduler>(manager, rate, std::move(weights));
}

namespace {

/// The one multiplexer of the run, built from the flows' declared
/// envelopes; only regulated flows may borrow under selective sharing.
PortPipeline build_experiment_port(const ExperimentConfig& config) {
  const std::vector<FlowSpec> specs = flow_specs(config.flows);
  std::vector<bool> regulated;
  for (const auto& f : config.flows) regulated.push_back(f.regulated);
  return build_port(config.scheme, PortSpec{.buffer = config.buffer,
                                            .rate = config.link_rate,
                                            .flows = specs,
                                            .may_borrow = std::move(regulated),
                                            .seed = config.seed,
                                            .packet_bytes = config.packet_bytes});
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
        pipeline_{build_experiment_port(config)},
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
  PortPipeline pipeline_;
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
