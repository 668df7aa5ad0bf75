#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <exception>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>

#include "core/analysis.h"
#include "expt/figures.h"
#include "expt/sweep.h"
#include "expt/workloads.h"
#include "util.h"

namespace perfbench {

namespace {

using bufq::ByteSize;
using bufq::Rate;
using bufq::Time;

// paper_sweep: the paper's runs (5 s warmup + 20 s) cut to 0.5 s + 2.5 s
// so a round of the whole grid (120 runs) takes about a second and the
// per-run expt/obs overhead stays visible.  The buffers bracket the eq. 10
// bound (about 1.9 MB for Table 1) from below and above.
constexpr double kPaperWarmupS = 0.5;
constexpr double kPaperDurationS = 2.5;
constexpr double kPaperBuffersMb[] = {0.5, 1.0, 2.0};

// leaf_spine: bench_parallel_engine's scenario at a 0.1 s horizon, so a
// run holds several rounds and their median rides out host noise.
constexpr double kLeafWarmupS = 0.03;
constexpr double kLeafDurationS = 0.07;

// churn: warmup long enough for the flow population to reach steady state
// (mean holding time 1 s).
constexpr double kChurnWarmupS = 1.5;
constexpr double kChurnDurationS = 1.5;

/// A warmup or duration of `seconds`, or 1 us in a set-up-only round.
Time phase(Horizon horizon, double seconds) {
  return horizon == Horizon::kFull ? Time::from_seconds(seconds) : Time::microseconds(1);
}

void paper_round(std::uint64_t seed, Horizon horizon, Round& round) {
  const std::vector<PaperCase> grid = paper_grid(horizon);
  std::vector<bufq::SweepCase> cases;
  cases.reserve(grid.size());
  for (const PaperCase& pc : grid) {
    bufq::SweepCase c;
    c.label = pc.label;
    c.params = {{"case", pc.label}};
    c.config = pc.config;
    // jobs = 1 runs every case on this thread, so the timing vector needs
    // no synchronization.
    c.runner = [config = pc.config, &round](std::uint64_t run_seed) {
      bufq::ExperimentConfig run = config;
      run.seed = run_seed;
      const double start = now_seconds();
      bufq::ExperimentResult result = bufq::run_experiment(run);
      round.run_ms.push_back((now_seconds() - start) * 1e3);
      return result;
    };
    cases.push_back(std::move(c));
  }
  bufq::SweepOptions options;
  options.jobs = 1;
  options.replications = kPaperReplications;
  options.base_seed = seed;
  options.seed_mode = bufq::SeedMode::kSharedAcrossCases;
  const auto extract = [](const bufq::ExperimentResult& r) {
    return std::map<std::string, double>{{"throughput_mbps", r.aggregate_throughput_mbps()}};
  };
  bufq::SweepResult result = bufq::run_sweep(std::move(cases), extract, options);
  for (std::size_t i = 0; i < result.rows.size(); ++i) {
    bufq::SweepRow& row = result.rows[i];
    RunOutput out;
    out.per_flow = std::move(row.per_flow);
    out.check_violations = row.check_violations;
    out.error = row.error;
    if (grid[i].lossless) out.lossless = bufq::table1_conformant_flows();
    round.outputs.push_back(std::move(out));
    round.metrics.merge(row.obs_metrics);
    round.case_seeds.push_back(row.seeds);
    round.sim_seconds += (grid[i].config.warmup + grid[i].config.duration).to_seconds() *
                         static_cast<double>(kPaperReplications);
  }
  round.runs = grid.size() * kPaperReplications;
}

void fabric_round(std::uint64_t seed, int shards, Horizon horizon, Round& round) {
  const bufq::fabric::FabricConfig config = leaf_spine_config(seed, shards, horizon);
  round.runs = 1;
  round.sim_seconds = (config.warmup + config.duration).to_seconds();
  const double start = now_seconds();
  bufq::ExperimentResult result = bufq::fabric::run_fabric_experiment(config);
  round.run_ms.push_back((now_seconds() - start) * 1e3);
  RunOutput out;
  out.per_flow = std::move(result.per_flow);
  out.check_violations = result.check_violations;
  out.extra = {counter_of(result.metrics, "fabric.egress_audit"),
               counter_of(result.metrics, "sim.events")};
  out.lossless = {0};  // the premium flow: planner-provisioned, lossless by Prop. 2
  if (shards > 1 && counter_of(result.metrics, "parallel.serial_fallback") != 0) {
    out.error = "the sharded run fell back to the serial engine";
  }
  round.outputs.push_back(std::move(out));
  round.metrics = std::move(result.metrics);
}

void churn_round(std::uint64_t seed, Horizon horizon, bool with_metrics, Round& round) {
  const bufq::ChurnConfig config = churn_config(seed, horizon);
  round.runs = 1;
  round.sim_seconds = (config.warmup + config.duration).to_seconds();
  std::optional<bufq::obs::ScopedMetrics> scope;
  if (with_metrics) scope.emplace();
  const double start = now_seconds();
  const bufq::ChurnResult result = bufq::run_churn_experiment(config);
  round.run_ms.push_back((now_seconds() - start) * 1e3);
  RunOutput out;
  out.per_flow = {result.traffic};
  out.extra = churn_words(result.counters, result.active_at_end);
  out.conformant_drops = result.counters.conformant_drops;
  round.outputs.push_back(std::move(out));
  round.churn = result.counters;
  if (scope) round.metrics = scope->registry().snapshot();
}

}  // namespace

Kind kind_of(std::string_view workload) {
  if (workload == "paper_sweep") return Kind::kPaperSweep;
  if (workload == "leaf_spine") return Kind::kLeafSpine;
  if (workload == "leaf_spine_sharded") return Kind::kLeafSpineSharded;
  if (workload == "churn") return Kind::kChurn;
  throw std::invalid_argument("unknown workload '" + std::string{workload} + "'");
}

const char* scenario_of(Kind kind) {
  switch (kind) {
    case Kind::kPaperSweep:
      return "paper_sweep";
    case Kind::kLeafSpine:
    case Kind::kLeafSpineSharded:
      return "leaf_spine";
    case Kind::kChurn:
      return "churn";
  }
  return "unknown";
}

std::uint64_t digest_of(const std::vector<RunOutput>& outputs) {
  Digest d;
  d.mix(outputs.size());
  for (const RunOutput& o : outputs) {
    d.mix(o.per_flow.size());
    for (const bufq::FlowCounters& c : o.per_flow) {
      d.mix_signed(c.offered_bytes);
      d.mix_signed(c.delivered_bytes);
      d.mix_signed(c.dropped_bytes);
      d.mix(c.offered_packets);
      d.mix(c.delivered_packets);
      d.mix(c.dropped_packets);
    }
    d.mix(o.check_violations);
    d.mix(o.extra.size());
    for (const std::uint64_t word : o.extra) d.mix(word);
    d.mix(o.error.empty() ? 0 : 1);
  }
  return d.value();
}

std::string guarantee_failure(const std::vector<RunOutput>& outputs) {
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    const RunOutput& o = outputs[i];
    const std::string where = "output " + std::to_string(i) + ": ";
    if (!o.error.empty()) return where + o.error;
    if (o.check_violations != 0) {
      return where + std::to_string(o.check_violations) + " invariant violations";
    }
    for (const bufq::FlowId flow : o.lossless) {
      const auto f = static_cast<std::size_t>(flow);
      if (f < o.per_flow.size() && o.per_flow[f].dropped_packets != 0) {
        return where + "protected flow " + std::to_string(flow) + " lost " +
               std::to_string(o.per_flow[f].dropped_packets) + " packets";
      }
    }
    if (o.conformant_drops != 0) {
      return where + std::to_string(o.conformant_drops) + " drops of admitted conformant flows";
    }
  }
  return {};
}

void accumulate(std::vector<bufq::FlowCounters>& into,
                const std::vector<bufq::FlowCounters>& from) {
  if (into.size() < from.size()) into.resize(from.size());
  for (std::size_t f = 0; f < from.size(); ++f) {
    into[f].offered_bytes += from[f].offered_bytes;
    into[f].delivered_bytes += from[f].delivered_bytes;
    into[f].dropped_bytes += from[f].dropped_bytes;
    into[f].offered_packets += from[f].offered_packets;
    into[f].delivered_packets += from[f].delivered_packets;
    into[f].dropped_packets += from[f].dropped_packets;
  }
}

std::vector<std::uint64_t> churn_words(const bufq::admission::ChurnDriver::Counters& counters,
                                       std::size_t active_at_end) {
  return {counters.arrivals,           counters.admitted,
          counters.rejected_bandwidth, counters.rejected_buffer,
          counters.rejected_capacity,  counters.departures,
          counters.reaped,             counters.conformant_drops,
          counters.nonconformant_drops, active_at_end};
}

std::uint64_t counter_of(const bufq::obs::RegistrySnapshot& snapshot, const std::string& name) {
  const auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

std::vector<PaperCase> paper_grid(Horizon horizon) {
  using bufq::ManagerKind;
  using bufq::SchedulerKind;
  struct Scheme {
    const char* name;
    SchedulerKind scheduler;
    ManagerKind manager;
  };
  static constexpr Scheme kSchemes[] = {
      {"fifo+none", SchedulerKind::kFifo, ManagerKind::kNone},
      {"fifo+thresholds", SchedulerKind::kFifo, ManagerKind::kThreshold},
      {"fifo+sharing", SchedulerKind::kFifo, ManagerKind::kSharing},
      {"wfq+none", SchedulerKind::kWfq, ManagerKind::kNone},
      {"wfq+thresholds", SchedulerKind::kWfq, ManagerKind::kThreshold},
      {"wfq+sharing", SchedulerKind::kWfq, ManagerKind::kSharing},
      {"hybrid+thresholds", SchedulerKind::kHybrid, ManagerKind::kThreshold},
      {"hybrid+sharing", SchedulerKind::kHybrid, ManagerKind::kSharing},
  };
  const std::vector<bufq::TrafficProfile> flows = bufq::table1_flows();
  const double eq10_bytes =
      bufq::fifo_min_buffer_bytes(bufq::flow_specs(flows), bufq::paper_link_rate())
          .value_or(std::numeric_limits<double>::infinity());
  std::vector<PaperCase> grid;
  for (const double buffer_mb : kPaperBuffersMb) {
    for (const Scheme& s : kSchemes) {
      PaperCase c;
      c.label = std::string{s.name} + "@" + std::to_string(buffer_mb).substr(0, 3) + "MB";
      c.config.link_rate = bufq::paper_link_rate();
      c.config.buffer = ByteSize::megabytes(buffer_mb);
      c.config.flows = flows;
      c.config.scheme =
          bufq::make_scheme(s.scheduler, s.manager, ByteSize::megabytes(2.0),
                            s.scheduler == SchedulerKind::kHybrid
                                ? bufq::case1_groups()
                                : std::vector<std::vector<bufq::FlowId>>{});
      c.config.warmup = phase(horizon, kPaperWarmupS);
      c.config.duration = phase(horizon, kPaperDurationS);
      c.config.packet_bytes = bufq::kPaperPacketBytes;
      c.config.record_delays = false;
      c.lossless = s.scheduler == SchedulerKind::kFifo && s.manager == ManagerKind::kThreshold &&
                   static_cast<double>(c.config.buffer.count()) >= eq10_bytes;
      grid.push_back(std::move(c));
    }
  }
  return grid;
}

bufq::fabric::FabricConfig leaf_spine_config(std::uint64_t seed, int shards, Horizon horizon) {
  bufq::fabric::FabricConfig c;
  c.topology = bufq::fabric::FabricTopologyKind::kLeafSpine;
  c.size = 8;
  c.hosts_per_leaf = 8;
  c.scheme.scheduler = bufq::fabric::FabricScheduler::kFifo;
  c.scheme.manager = bufq::fabric::FabricManager::kThreshold;
  c.link_rate = Rate::megabits_per_second(480.0);
  c.load = 1.0;
  c.warmup = phase(horizon, kLeafWarmupS);
  c.duration = phase(horizon, kLeafDurationS);
  c.seed = seed;
  c.record_delays = false;
  c.shards = shards;
  return c;
}

bufq::ChurnConfig churn_config(std::uint64_t seed, Horizon horizon) {
  // Conformant flows reserve 1 Mb/s with a 16 KB bucket; one arrival in
  // ten is an unregulated flow declaring the same envelope while sending
  // twice its rate in 5x bursts, so the thresholds have traffic to police.
  const bufq::TrafficProfile conformant{.peak_rate = Rate::megabits_per_second(8.0),
                                        .avg_rate = Rate::megabits_per_second(1.0),
                                        .bucket = ByteSize::kilobytes(16.0),
                                        .token_rate = Rate::megabits_per_second(1.0),
                                        .mean_burst = ByteSize::kilobytes(16.0),
                                        .regulated = true};
  const bufq::TrafficProfile aggressive{.peak_rate = Rate::megabits_per_second(8.0),
                                        .avg_rate = Rate::megabits_per_second(2.0),
                                        .bucket = ByteSize::kilobytes(16.0),
                                        .token_rate = Rate::megabits_per_second(1.0),
                                        .mean_burst = ByteSize::kilobytes(80.0),
                                        .regulated = false};
  bufq::ChurnConfig c;
  c.link_rate = Rate::gigabits_per_second(2.4);
  c.buffer = ByteSize::megabytes(180.0);
  c.scheme = bufq::ChurnScheme::kFifoThreshold;
  c.max_flows = 4096;
  c.churn.arrival_rate_hz = 2000.0;
  c.churn.mean_holding = Time::seconds(1);
  c.churn.mix = {{.profile = conformant, .weight = 9.0}, {.profile = aggressive, .weight = 1.0}};
  c.warmup = phase(horizon, kChurnWarmupS);
  c.duration = phase(horizon, kChurnDurationS);
  c.seed = seed;
  return c;
}

Round run_round(Kind kind, std::uint64_t seed, int shards, Horizon horizon,
                bool churn_metrics) {
  Round round;
  const double wall_start = now_seconds();
  const double cpu_start = process_cpu_seconds();
  try {
    switch (kind) {
      case Kind::kPaperSweep:
        paper_round(seed, horizon, round);
        break;
      case Kind::kLeafSpine:
      case Kind::kLeafSpineSharded:
        fabric_round(seed, shards, horizon, round);
        break;
      case Kind::kChurn:
        churn_round(seed, horizon, churn_metrics, round);
        break;
    }
  } catch (const std::exception& e) {
    RunOutput failed;
    failed.error = e.what();
    round.outputs.push_back(std::move(failed));
    round.runs = std::max<std::size_t>(round.runs, 1);
  }
  round.wall_s = now_seconds() - wall_start;
  round.cpu_s = process_cpu_seconds() - cpu_start;
  round.digest = digest_of(round.outputs);
  return round;
}

double now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace perfbench
