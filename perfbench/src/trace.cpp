#include "trace.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>

#include "admission/admission_controller.h"
#include "admission/churn_driver.h"
#include "admission/dynamic_manager.h"
#include "admission/flow_table.h"
#include "check/invariants.h"
#include "core/buffer_manager.h"
#include "core/sharing.h"
#include "core/threshold.h"
#include "fabric/fabric.h"
#include "sched/fifo.h"
#include "sched/hybrid.h"
#include "sched/wfq.h"
#include "sim/link.h"
#include "sim/simulator.h"
#include "stats/collector.h"
#include "traffic/shaper.h"
#include "traffic/sources.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using bufq::FlowId;
using bufq::Packet;
using bufq::Time;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Current resident set size, from /proc/self/statm.
std::int64_t resident_bytes() {
  std::ifstream statm{"/proc/self/statm"};
  std::int64_t size_pages = 0;
  std::int64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<std::int64_t>(sysconf(_SC_PAGESIZE));
}

/// Each traced run advances the simulator in this many run_until slices.
constexpr std::int64_t kSlices = 100;

void run_in_slices(bufq::Simulator& sim, Time horizon) {
  for (std::int64_t i = 1; i <= kSlices; ++i) {
    const Span span{SpanKind::kSimSlice};
    sim.run_until(Time::nanoseconds(horizon.ns() * i / kSlices));
  }
}

bufq::obs::RegistrySnapshot snapshot_metrics(bufq::obs::ScopedMetrics& scope) {
  const Span span{SpanKind::kObsSnapshot};
  bufq::obs::RegistrySnapshot folded;
  folded.merge(scope.registry().snapshot());
  return folded;
}

std::uint64_t offered_packets(const std::vector<bufq::FlowCounters>& counters) {
  std::uint64_t total = 0;
  for (const auto& c : counters) total += c.offered_packets;
  return total;
}

class TimedSink final : public bufq::PacketSink {
 public:
  TimedSink(bufq::PacketSink& inner, SpanKind kind) : inner_{inner}, kind_{kind} {}

  void accept(const Packet& packet) override {
    const Span span{kind_};
    inner_.accept(packet);
  }

 private:
  bufq::PacketSink& inner_;
  SpanKind kind_;
};

class TimedManager final : public bufq::BufferManager {
 public:
  explicit TimedManager(bufq::BufferManager& inner) : inner_{inner} {}

  bool try_admit(FlowId flow, std::int64_t bytes, Time now) override {
    const Span span{SpanKind::kAdmit};
    const bool admitted = inner_.try_admit(flow, bytes, now);
    if (Tracer* tracer = Tracer::active(); tracer != nullptr && admitted) ++tracer->admits_ok;
    return admitted;
  }
  void release(FlowId flow, std::int64_t bytes, Time now) override {
    const Span span{SpanKind::kRelease};
    inner_.release(flow, bytes, now);
  }
  [[nodiscard]] std::int64_t occupancy(FlowId flow) const override {
    return inner_.occupancy(flow);
  }
  [[nodiscard]] std::int64_t total_occupancy() const override {
    return inner_.total_occupancy();
  }
  [[nodiscard]] bufq::ByteSize capacity() const override { return inner_.capacity(); }
  void save_state(bufq::CheckpointWriter& w) const override { inner_.save_state(w); }
  void restore_state(bufq::CheckpointReader& r) override { inner_.restore_state(r); }

 private:
  bufq::BufferManager& inner_;
};

class TimedDiscipline final : public bufq::QueueDiscipline {
 public:
  explicit TimedDiscipline(bufq::QueueDiscipline& inner) : inner_{inner} {}

  bool enqueue(const Packet& packet, Time now) override {
    const Span span{SpanKind::kEnqueue};
    const bool queued = inner_.enqueue(packet, now);
    if (Tracer* tracer = Tracer::active(); tracer != nullptr && !queued) {
      ++tracer->enqueues_refused;
    }
    return queued;
  }
  std::optional<Packet> dequeue(Time now) override {
    const Span span{SpanKind::kDequeue};
    return inner_.dequeue(now);
  }
  [[nodiscard]] bool empty() const override { return inner_.empty(); }
  [[nodiscard]] std::int64_t backlog_bytes() const override { return inner_.backlog_bytes(); }
  void set_drop_handler(DropHandler handler) override {
    inner_.set_drop_handler(std::move(handler));
  }
  void save_state(bufq::CheckpointWriter& w) const override { inner_.save_state(w); }
  void restore_state(bufq::CheckpointReader& r) override { inner_.restore_state(r); }

 private:
  bufq::QueueDiscipline& inner_;
};

/// The manager and discipline build_pipeline() in expt/experiment.cpp
/// makes for a scheme, with a TimedManager between them.  Members are
/// declared so that destruction runs discipline, wrapper, manager.
struct Multiplexer {
  std::unique_ptr<bufq::BufferManager> manager;
  std::unique_ptr<TimedManager> timed_manager;
  std::unique_ptr<bufq::QueueDiscipline> discipline;
};

Multiplexer build_multiplexer(const bufq::ExperimentConfig& config) {
  using bufq::ManagerKind;
  const std::vector<bufq::FlowSpec> specs = bufq::flow_specs(config.flows);
  Multiplexer m;
  if (config.scheme.scheduler == bufq::SchedulerKind::kHybrid) {
    const bufq::HybridBuilder builder{config.link_rate, config.buffer, specs,
                                      config.scheme.groups};
    if (config.scheme.manager == ManagerKind::kThreshold) {
      m.manager = builder.make_threshold_manager();
    } else if (config.scheme.manager == ManagerKind::kSharing) {
      m.manager = builder.make_sharing_manager(config.scheme.headroom);
    } else {
      throw std::invalid_argument("the traced hybrid pipeline takes thresholds or sharing");
    }
    m.timed_manager = std::make_unique<TimedManager>(*m.manager);
    m.discipline = builder.make_scheduler(*m.timed_manager);
    return m;
  }
  switch (config.scheme.manager) {
    case ManagerKind::kNone:
      m.manager = std::make_unique<bufq::TailDropManager>(config.buffer, specs.size());
      break;
    case ManagerKind::kThreshold:
      m.manager = std::make_unique<bufq::ThresholdManager>(config.buffer, config.link_rate, specs);
      break;
    case ManagerKind::kSharing:
      m.manager = std::make_unique<bufq::BufferSharingManager>(config.buffer, config.link_rate,
                                                               specs, config.scheme.headroom);
      break;
    default:
      throw std::invalid_argument("the traced pipeline covers the paper_sweep managers only");
  }
  m.timed_manager = std::make_unique<TimedManager>(*m.manager);
  if (config.scheme.scheduler == bufq::SchedulerKind::kFifo) {
    m.discipline = std::make_unique<bufq::FifoScheduler>(*m.timed_manager);
  } else {
    std::vector<double> weights;
    weights.reserve(specs.size());
    for (const auto& s : specs) weights.push_back(s.rho.bps());
    m.discipline = std::make_unique<bufq::WfqScheduler>(*m.timed_manager, config.link_rate,
                                                        std::move(weights));
  }
  return m;
}

}  // namespace

std::string_view layer_of(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRun:
    case SpanKind::kSetup:
    case SpanKind::kCollect:
      return "expt";
    case SpanKind::kSimSlice:
      return "sim";
    case SpanKind::kShaper:
      return "traffic";
    case SpanKind::kStatsIngress:
    case SpanKind::kStatsRecord:
      return "stats";
    case SpanKind::kEnqueue:
    case SpanKind::kDequeue:
      return "sched";
    case SpanKind::kAdmit:
    case SpanKind::kRelease:
      return "core";
    case SpanKind::kNetIngress:
      return "net";
    case SpanKind::kFabricPlan:
    case SpanKind::kFabricBuild:
      return "fabric";
    case SpanKind::kObsSnapshot:
      return "obs";
    case SpanKind::kCount:
      break;
  }
  return "unknown";
}

Tracer::Tracer() {
  stack_.reserve(64);
  // Empty spans nested in a parent: each measures `inner` ns of itself and
  // costs the parent `outer` ns more.  Calibrated with both costs at zero.
  constexpr std::int64_t kSpans = 200000;
  begin(SpanKind::kRun);
  for (std::int64_t i = 0; i < kSpans; ++i) {
    begin(SpanKind::kSimSlice);
    end();
  }
  const std::int64_t parent = now_ns() - stack_.back().start;
  stack_.clear();
  inner_cost_ = total_[index(SpanKind::kSimSlice)] / kSpans;
  outer_cost_ = std::max<std::int64_t>(0, parent / kSpans - inner_cost_);
  self_.fill(0);
  total_.fill(0);
  count_.fill(0);
  top_ = 0;
  trace_ = 0;
}

void Tracer::begin(SpanKind kind) { stack_.push_back(Frame{kind, now_ns(), 0}); }

void Tracer::end() {
  const std::int64_t stop = now_ns();
  const Frame frame = stack_.back();
  stack_.pop_back();
  const std::int64_t duration = stop - frame.start;
  const std::size_t k = index(frame.kind);
  self_[k] += duration - frame.child - inner_cost_;
  total_[k] += duration;
  ++count_[k];
  trace_ += inner_cost_;
  if (stack_.empty()) {
    top_ += duration;
  } else {
    stack_.back().child += duration + outer_cost_;
    trace_ += outer_cost_;
  }
}

std::int64_t Tracer::layer_self_ns(std::string_view layer) const {
  std::int64_t sum = 0;
  for (std::size_t k = 0; k < kKinds; ++k) {
    if (layer_of(static_cast<SpanKind>(k)) == layer) sum += self_[k];
  }
  return sum;
}

TracedRun traced_experiment(const bufq::ExperimentConfig& config, bool metrics_on) {
  const Span run{SpanKind::kRun};
  TracedRun out;
  // Same confinement as ExperimentEngine: checker and registry first, so
  // every component's handles resolve against them.
  bufq::check::ScopedChecker checker;
  std::optional<bufq::obs::ScopedMetrics> metrics;
  if (metrics_on) metrics.emplace();

  std::optional<Span> setup{std::in_place, SpanKind::kSetup};
  bufq::Simulator sim;
  Multiplexer mux = build_multiplexer(config);
  TimedDiscipline queue{*mux.discipline};
  bufq::Link link{sim, queue, config.link_rate};
  bufq::StatsCollector stats{config.flows.size()};
  link.set_delivery_handler([&stats](const Packet& p, Time t) {
    const Span span{SpanKind::kStatsRecord};
    stats.on_delivered(p, t);
  });
  queue.set_drop_handler([&stats](const Packet& p, Time t) {
    const Span span{SpanKind::kStatsRecord};
    stats.on_dropped(p, t);
  });
  bufq::OfferedTrafficTap tap{stats, link};
  TimedSink ingress{tap, SpanKind::kStatsIngress};
  bufq::Rng master{config.seed};
  std::vector<std::unique_ptr<bufq::LeakyBucketShaper>> shapers;
  std::vector<std::unique_ptr<TimedSink>> shaper_entries;
  std::vector<std::unique_ptr<bufq::MarkovOnOffSource>> sources;
  shapers.reserve(config.flows.size());
  shaper_entries.reserve(config.flows.size());
  sources.reserve(config.flows.size());
  for (std::size_t f = 0; f < config.flows.size(); ++f) {
    const bufq::TrafficProfile& profile = config.flows[f];
    bufq::PacketSink* entry = &ingress;
    if (profile.regulated) {
      shapers.push_back(std::make_unique<bufq::LeakyBucketShaper>(
          sim, ingress, profile.bucket, profile.token_rate, profile.peak_rate));
      shaper_entries.push_back(std::make_unique<TimedSink>(*shapers.back(), SpanKind::kShaper));
      entry = shaper_entries.back().get();
    }
    auto params = bufq::MarkovOnOffSource::params_from_profile(static_cast<FlowId>(f), profile,
                                                               config.packet_bytes);
    params.on_distribution = config.burst_distribution;
    params.pareto_shape = config.pareto_shape;
    sources.push_back(
        std::make_unique<bufq::MarkovOnOffSource>(sim, *entry, params, master.fork(f)));
    sources.back()->start();
  }
  std::vector<bufq::FlowCounters> at_warmup;
  sim.at(config.warmup, [&stats, &at_warmup] { at_warmup = stats.snapshot(); });
  setup.reset();

  run_in_slices(sim, config.warmup + config.duration);

  const Span collect{SpanKind::kCollect};
  const std::vector<bufq::FlowCounters> at_end = stats.snapshot();
  out.output.per_flow.reserve(at_end.size());
  for (std::size_t f = 0; f < at_end.size(); ++f) {
    out.output.per_flow.push_back(at_end[f] - at_warmup[f]);
  }
  out.output.check_violations = checker.checker().violation_count();
  out.offered_packets = offered_packets(at_end);
  if (metrics) out.metrics = snapshot_metrics(*metrics);
  return out;
}

TracedRun traced_fabric(const bufq::fabric::FabricConfig& config, bool metrics_on) {
  if (config.topology == bufq::fabric::FabricTopologyKind::kParkingLot) {
    throw std::invalid_argument("the traced fabric pipeline covers the host-pair shapes");
  }
  const Span run{SpanKind::kRun};
  TracedRun out;
  bufq::check::ScopedChecker checker;
  std::optional<bufq::obs::ScopedMetrics> metrics;
  if (metrics_on) metrics.emplace();

  std::optional<Span> setup{std::in_place, SpanKind::kSetup};
  const bufq::fabric::FabricScenario sc = [&config] {
    const Span span{SpanKind::kFabricPlan};
    return bufq::fabric::build_fabric_scenario(config);
  }();
  bufq::Simulator sim;
  std::optional<bufq::fabric::Fabric> fabric;
  {
    const std::int64_t rss_before = resident_bytes();
    const Span span{SpanKind::kFabricBuild};
    fabric.emplace(sim, sc.topo, sc.routes, sc.plan, sc.bindings, config.scheme);
    if (Tracer* tracer = Tracer::active()) {
      tracer->fabric_build_rss_bytes += resident_bytes() - rss_before;
    }
  }
  fabric->set_measure_from(config.warmup);
  bufq::Rng master{config.seed};
  std::vector<std::unique_ptr<TimedSink>> entries;
  std::vector<std::unique_ptr<bufq::Source>> sources;
  entries.reserve(sc.bindings.size());
  sources.reserve(sc.bindings.size());
  const auto entry = [&](FlowId flow) -> bufq::PacketSink& {
    entries.push_back(std::make_unique<TimedSink>(fabric->ingress(flow), SpanKind::kNetIngress));
    return *entries.back();
  };
  // FabricEngine's cast: a CBR premium flow, then ON-OFF host pairs with
  // 50 KB line-rate bursts at duty load / 2.
  sources.push_back(std::make_unique<bufq::CbrSource>(sim, entry(sc.premium), sc.premium,
                                                      config.premium_rate, config.packet_bytes));
  for (const FlowId flow : sc.cross) {
    bufq::MarkovOnOffSource::Params p;
    p.flow = flow;
    p.peak_rate = config.link_rate;
    const double mean_on_s = 50e3 * 8.0 / config.link_rate.bps();
    const double duty = std::clamp(config.load / 2.0, 0.01, 0.95);
    p.mean_on = Time::from_seconds(mean_on_s);
    p.mean_off = Time::from_seconds(mean_on_s * (1.0 - duty) / duty);
    p.packet_bytes = config.packet_bytes;
    sources.push_back(std::make_unique<bufq::MarkovOnOffSource>(
        sim, entry(flow), p, master.fork(static_cast<std::uint64_t>(flow))));
  }
  for (const auto& source : sources) source->start();
  std::vector<bufq::FlowCounters> at_warmup;
  bufq::fabric::Fabric& fab = *fabric;
  sim.at(config.warmup, [&fab, &at_warmup] { at_warmup = fab.stats().snapshot(); });
  setup.reset();

  run_in_slices(sim, config.warmup + config.duration);

  const Span collect{SpanKind::kCollect};
  const std::vector<bufq::FlowCounters> at_end = fab.stats().snapshot();
  out.output.per_flow.reserve(at_end.size());
  for (std::size_t f = 0; f < at_end.size(); ++f) {
    out.output.per_flow.push_back(at_end[f] -
                                  (f < at_warmup.size() ? at_warmup[f] : bufq::FlowCounters{}));
  }
  out.output.check_violations = checker.checker().violation_count();
  out.output.lossless = {sc.premium};
  out.offered_packets = offered_packets(at_end);
  if (metrics) {
    out.metrics = snapshot_metrics(*metrics);
    out.output.extra = {counter_of(out.metrics, "fabric.egress_audit"),
                        counter_of(out.metrics, "sim.events")};
  }
  return out;
}

TracedRun traced_churn(const bufq::ChurnConfig& config, bool metrics_on) {
  if (config.scheme != bufq::ChurnScheme::kFifoThreshold) {
    throw std::invalid_argument("the traced churn pipeline covers FIFO + thresholds");
  }
  const Span run{SpanKind::kRun};
  TracedRun out;
  std::optional<bufq::obs::ScopedMetrics> metrics;
  if (metrics_on) metrics.emplace();

  std::optional<Span> setup{std::in_place, SpanKind::kSetup};
  bufq::Simulator sim;
  bufq::admission::FlowTable table{config.max_flows};
  bufq::admission::AdmissionController controller{{
      .scheme = bufq::admission::Scheme::kFifoThreshold,
      .link_rate = config.link_rate,
      .buffer = config.buffer,
      .headroom = bufq::ByteSize::zero(),
  }};
  bufq::admission::DynamicBufferManager manager{
      config.buffer, table, bufq::admission::DynamicBufferManager::Policy::kThreshold,
      bufq::ByteSize::zero()};
  TimedManager timed_manager{manager};
  bufq::FifoScheduler fifo{timed_manager};
  TimedDiscipline queue{fifo};
  bufq::Link link{sim, queue, config.link_rate};
  bufq::StatsCollector stats{config.max_flows};
  link.set_delivery_handler([&stats](const Packet& p, Time t) {
    const Span span{SpanKind::kStatsRecord};
    stats.on_delivered(p, t);
  });
  bufq::OfferedTrafficTap tap{stats, link};
  TimedSink ingress{tap, SpanKind::kStatsIngress};
  auto churn = config.churn;
  churn.max_concurrent = std::min(churn.max_concurrent, config.max_flows);
  bufq::Rng master{config.seed};
  bufq::admission::ChurnDriver driver{sim, controller, table, ingress, churn, master.fork(0)};
  queue.set_drop_handler([&stats, &driver](const Packet& p, Time t) {
    const Span span{SpanKind::kStatsRecord};
    stats.on_dropped(p, t);
    driver.record_drop(p, t);
  });
  driver.start();
  std::vector<bufq::FlowCounters> at_warmup;
  sim.at(config.warmup, [&stats, &at_warmup] { at_warmup = stats.snapshot(); });
  setup.reset();

  run_in_slices(sim, config.warmup + config.duration);

  const Span collect{SpanKind::kCollect};
  const std::vector<bufq::FlowCounters> at_end = stats.snapshot();
  out.output.per_flow = {bufq::StatsCollector::total_delta(at_warmup, at_end)};
  out.output.extra = churn_words(driver.counters(), table.active_count());
  out.output.conformant_drops = driver.counters().conformant_drops;
  out.offered_packets = offered_packets(at_end);
  if (metrics) out.metrics = snapshot_metrics(*metrics);
  return out;
}

}  // namespace perfbench
