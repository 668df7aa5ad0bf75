// --trace 1: the per-layer ledger.
//
// One invocation makes four passes over the same runs (one round of the
// workload at --seed):
//   - untraced: the library entry point itself, read through the
//     RegistrySnapshot each run exports;
//   - traced: the pipelines rebuilt from public classes with spans at
//     every layer boundary (trace.h); it must reproduce the untraced
//     digest, which shows the wrappers change nothing;
//   - plain, twice: the traced pass's pipelines with tracing off, with and
//     without a ScopedMetrics, for the metrics overhead.
// Fabric workloads trace first, so the Fabric constructor's RSS growth is
// the process's first and not memory recycled from an earlier run.
// Standalone probes cover the calendar, the barrier and admission.
#include <cmath>
#include <functional>
#include <stdexcept>

#include "bench.h"
#include "expt/workloads.h"
#include "probes.h"
#include "trace.h"

namespace perfbench {

namespace {

constexpr std::size_t kBarrierParties = 4;
constexpr std::size_t kBarrierRounds = 2000;
/// churn's resident-flow count, where the admission probe runs.
constexpr std::size_t kAdmissionResident = 1700;
constexpr std::size_t kAdmissionDecisions = 500'000;
/// The spans must cover the traced wall time to within this share.
constexpr double kMaxUnaccountedFrac = 0.05;

/// One pipeline run, folded into output `output` of its pass.
struct Job {
  std::size_t output;
  std::function<TracedRun(bool metrics_on)> run;
};

struct Pass {
  std::vector<RunOutput> outputs;
  bufq::obs::RegistrySnapshot metrics;
  std::uint64_t offered_packets{0};
  std::size_t runs{0};
  double wall_s{0.0};
};

Pass run_pass(const std::vector<Job>& jobs, std::vector<RunOutput> outputs, bool metrics_on) {
  Pass pass;
  pass.outputs = std::move(outputs);
  const double start = now_seconds();
  for (const Job& job : jobs) {
    RunOutput& out = pass.outputs[job.output];
    ++pass.runs;
    try {
      TracedRun r = job.run(metrics_on);
      accumulate(out.per_flow, r.output.per_flow);
      out.check_violations += r.output.check_violations;
      out.conformant_drops += r.output.conformant_drops;
      out.extra.insert(out.extra.end(), r.output.extra.begin(), r.output.extra.end());
      if (out.lossless.empty()) out.lossless = r.output.lossless;
      pass.metrics.merge(r.metrics);
      pass.offered_packets += r.offered_packets;
    } catch (const std::exception& e) {
      if (out.error.empty()) out.error = e.what();
    }
  }
  pass.wall_s = now_seconds() - start;
  return pass;
}

/// The workload's round as traceable jobs, plus the empty outputs they
/// fold into.  paper_sweep replays the replication seeds its run_sweep
/// round derived.
std::vector<Job> make_jobs(Kind kind, std::uint64_t seed, const Round& untraced,
                           std::vector<RunOutput>& outputs) {
  std::vector<Job> jobs;
  switch (kind) {
    case Kind::kPaperSweep: {
      const std::vector<PaperCase> grid = paper_grid(Horizon::kFull);
      outputs.resize(grid.size());
      for (std::size_t p = 0; p < grid.size(); ++p) {
        if (grid[p].lossless) outputs[p].lossless = bufq::table1_conformant_flows();
        for (const std::uint64_t run_seed : untraced.case_seeds.at(p)) {
          bufq::ExperimentConfig config = grid[p].config;
          config.seed = run_seed;
          jobs.push_back({p, [config](bool m) { return traced_experiment(config, m); }});
        }
      }
      break;
    }
    case Kind::kLeafSpine:
    case Kind::kLeafSpineSharded: {
      outputs.resize(1);
      const auto config = leaf_spine_config(seed, 1, Horizon::kFull);
      jobs.push_back({0, [config](bool m) { return traced_fabric(config, m); }});
      break;
    }
    case Kind::kChurn: {
      outputs.resize(1);
      const auto config = churn_config(seed, Horizon::kFull);
      jobs.push_back({0, [config](bool m) { return traced_churn(config, m); }});
      break;
    }
  }
  return jobs;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// max / mean of parallel.shard.N.events; 0 for an unsharded run.
double shard_imbalance(const bufq::obs::RegistrySnapshot& s) {
  double max = 0.0;
  double sum = 0.0;
  std::size_t shards = 0;
  for (const auto& [name, value] : s.counters) {
    if (name.starts_with("parallel.shard.") && name.ends_with(".events")) {
      max = std::max(max, static_cast<double>(value));
      sum += static_cast<double>(value);
      ++shards;
    }
  }
  return shards > 0 ? ratio(max, sum / static_cast<double>(shards)) : 0.0;
}

}  // namespace

Report trace_workload(const Args& args) {
  const Kind kind = kind_of(args.workload);
  const bool fabric = kind == Kind::kLeafSpine || kind == Kind::kLeafSpineSharded;
  Report report;
  Tracer tracer;

  Round untraced;
  if (!fabric) untraced = run_round(kind, args.seed, shards_for(args), Horizon::kFull, true);
  std::vector<RunOutput> empty_outputs;
  const std::vector<Job> jobs = make_jobs(kind, args.seed, untraced, empty_outputs);
  Pass traced;
  {
    const Tracer::Scope scope{tracer};
    traced = run_pass(jobs, empty_outputs, true);
  }
  if (fabric) untraced = run_round(kind, args.seed, shards_for(args), Horizon::kFull, true);
  const Pass plain_off = run_pass(jobs, empty_outputs, false);
  const Pass plain_on = run_pass(jobs, empty_outputs, true);

  report.attempted = untraced.runs + traced.runs + plain_off.runs + plain_on.runs;
  if (const std::string why = guarantee_failure(untraced.outputs); !why.empty()) {
    report.fail(untraced.runs, "untraced: " + why);
  } else if (const auto mismatch = reference_mismatch(args, kind, untraced.digest)) {
    report.fail(untraced.runs, *mismatch);
  }
  const std::uint64_t traced_digest = digest_of(traced.outputs);
  if (const std::string why = guarantee_failure(traced.outputs); !why.empty()) {
    report.fail(traced.runs, "traced: " + why);
  } else if (traced_digest != untraced.digest) {
    report.fail(traced.runs, "traced digest " + hex64(traced_digest) +
                                 " differs from the untraced " + hex64(untraced.digest));
  }
  if (digest_of(plain_on.outputs) != untraced.digest) {
    report.fail(plain_on.runs, "the span-free pipelines' digest differs from the untraced run");
  }
  if (const std::string why = guarantee_failure(plain_off.outputs); !why.empty()) {
    report.fail(plain_off.runs, "without metrics: " + why);
  }
  const double traced_ns = traced.wall_s * 1e9;
  const double unaccounted = ratio(traced_ns - static_cast<double>(tracer.top_ns()), traced_ns);
  if (std::abs(unaccounted) > kMaxUnaccountedFrac) {
    report.fail(traced.runs, "spans cover only " + std::to_string(1.0 - unaccounted) +
                                 " of the traced wall time");
  }

  // Calendar probe at the workload's median depth and gap mix.
  const bufq::obs::RegistrySnapshot& snap = untraced.metrics;
  const auto depth_hist = snap.histograms.find("sim.calendar_depth");
  const double depth_p50 =
      depth_hist == snap.histograms.end() ? 0.0 : depth_hist->second.percentile(0.5);
  const double depth_p99 =
      depth_hist == snap.histograms.end() ? 0.0 : depth_hist->second.percentile(0.99);
  const double events = static_cast<double>(counter_of(snap, "sim.events"));
  const auto depth = static_cast<std::size_t>(std::max(1.0, std::round(depth_p50)));
  std::vector<std::int64_t> gaps;
  if (fabric) {
    const auto config = leaf_spine_config(args.seed, 1, Horizon::kFull);
    gaps = bimodal_gaps(config.link_rate.transmission_time(config.packet_bytes).ns(),
                        config.propagation.ns(), args.seed);
  } else {
    const double mean_event_gap_ns = ratio(untraced.sim_seconds * 1e9, events);
    gaps = uniform_gaps(static_cast<double>(depth) * mean_event_gap_ns, args.seed);
  }
  const CalendarProbe calendar = probe_calendar(depth, gaps);
  const double barrier_ns = probe_barrier_ns(kBarrierParties, kBarrierRounds);
  const double decision_ns =
      probe_admission_ns(kAdmissionResident, kAdmissionDecisions, args.seed);

  const double run_until_ns = static_cast<double>(counter_of(snap, "sim.wall_ns"));
  const double measured_wall_s = run_until_ns > 0.0 ? run_until_ns * 1e-9 : untraced.wall_s;
  const double traced_events = static_cast<double>(counter_of(traced.metrics, "sim.events"));
  const auto self = [&tracer](SpanKind k) { return static_cast<double>(tracer.self_ns(k)); };
  const auto spans = [&tracer](SpanKind k) { return static_cast<double>(tracer.count(k)); };
  const auto total_ms = [&tracer](SpanKind k) {
    return static_cast<double>(tracer.total_ns(k)) * 1e-6;
  };
  const double sched_ops = spans(SpanKind::kEnqueue) + spans(SpanKind::kDequeue);
  const auto wire_gauge = snap.gauges.find("net.wire_packets");
  const double top_ns = static_cast<double>(tracer.top_ns());
  const auto snapshot_count = [&snap](const char* name) {
    return static_cast<double>(counter_of(snap, name));
  };

  auto& m = report.metrics;
  m.push_back({"sim.events", events, "count"});
  m.push_back({"sim.events_per_s", ratio(events, measured_wall_s), "1/s"});
  m.push_back({"sim.calendar_depth_p50", depth_p50, "count"});
  m.push_back({"sim.calendar_depth_p99", depth_p99, "count"});
  m.push_back({"sim.self_ns_per_event", ratio(self(SpanKind::kSimSlice), traced_events), "ns"});
  m.push_back({"sim.calendar.hold_ns", calendar.hold_ns, "ns"});
  m.push_back({"sim.calendar.width_shift", static_cast<double>(calendar.width_shift), "count"});
  m.push_back({"sim.calendar.buckets", static_cast<double>(calendar.buckets), "count"});
  m.push_back({"traffic.packets", static_cast<double>(traced.offered_packets), "count"});
  m.push_back({"traffic.shaper_ns_per_packet",
               ratio(self(SpanKind::kShaper), spans(SpanKind::kShaper)), "ns"});
  m.push_back({"sched.ops", sched_ops, "count"});
  m.push_back({"sched.self_ns_per_op",
               ratio(self(SpanKind::kEnqueue) + self(SpanKind::kDequeue), sched_ops), "ns"});
  m.push_back({"sched.drop_frac",
               ratio(static_cast<double>(tracer.enqueues_refused), spans(SpanKind::kEnqueue)),
               "ratio"});
  m.push_back({"core.admit_ns", ratio(self(SpanKind::kAdmit), spans(SpanKind::kAdmit)), "ns"});
  m.push_back(
      {"core.release_ns", ratio(self(SpanKind::kRelease), spans(SpanKind::kRelease)), "ns"});
  m.push_back({"core.admit_ok_frac",
               ratio(static_cast<double>(tracer.admits_ok), spans(SpanKind::kAdmit)), "ratio"});
  m.push_back({"stats.ingress_ns_per_packet",
               ratio(self(SpanKind::kStatsIngress), spans(SpanKind::kStatsIngress)), "ns"});
  m.push_back({"fabric.plan_ms",
               ratio(total_ms(SpanKind::kFabricPlan), spans(SpanKind::kFabricPlan)), "ms"});
  m.push_back({"fabric.build_ms",
               ratio(total_ms(SpanKind::kFabricBuild), spans(SpanKind::kFabricBuild)), "ms"});
  m.push_back({"fabric.build_rss_mb",
               ratio(static_cast<double>(tracer.fabric_build_rss_bytes) * 1e-6,
                     spans(SpanKind::kFabricBuild)),
               "MB"});
  m.push_back({"net.ingress_ns_per_packet",
               ratio(self(SpanKind::kNetIngress), spans(SpanKind::kNetIngress)), "ns"});
  m.push_back({"net.drops", snapshot_count("net.drops"), "count"});
  m.push_back({"net.wire_packets_max",
               wire_gauge == snap.gauges.end() ? 0.0
                                               : static_cast<double>(wire_gauge->second.max),
               "count"});
  m.push_back({"parallel.windows", snapshot_count("parallel.windows"), "count"});
  m.push_back({"parallel.boundary_events", snapshot_count("parallel.boundary_events"), "count"});
  m.push_back({"parallel.horizon_stalls", snapshot_count("parallel.horizon_stalls"), "count"});
  m.push_back({"parallel.shard_imbalance", shard_imbalance(snap), "ratio"});
  m.push_back({"util.barrier_ns", barrier_ns, "ns"});
  m.push_back({"admission.arrivals", static_cast<double>(untraced.churn.arrivals), "count"});
  m.push_back({"admission.admit_frac",
               ratio(static_cast<double>(untraced.churn.admitted),
                     static_cast<double>(untraced.churn.arrivals)),
               "ratio"});
  m.push_back({"admission.decision_ns", decision_ns, "ns"});
  m.push_back({"obs.snapshot_us",
               ratio(total_ms(SpanKind::kObsSnapshot) * 1e3, spans(SpanKind::kObsSnapshot)),
               "us"});
  m.push_back({"obs.overhead_frac", ratio(plain_on.wall_s, plain_off.wall_s) - 1.0, "ratio"});
  m.push_back({"expt.run_overhead_ms",
               ratio((top_ns - static_cast<double>(tracer.total_ns(SpanKind::kSimSlice))) * 1e-6,
                     static_cast<double>(traced.runs)),
               "ms"});
  m.push_back({"expt.runs", static_cast<double>(traced.runs), "count"});
  m.push_back({"trace.overhead_frac", ratio(traced.wall_s, untraced.wall_s) - 1.0, "ratio"});
  m.push_back({"trace.unaccounted_frac", unaccounted, "ratio"});
  for (const std::string_view layer : kLedgerLayers) {
    const double layer_ns = static_cast<double>(tracer.layer_self_ns(layer));
    m.push_back({"ledger." + std::string{layer} + ".self_frac", ratio(layer_ns, top_ns), "ratio"});
    report.notes.push_back("ledger " + std::string{layer} + ": " +
                           std::to_string(ratio(layer_ns, traced_events)) +
                           " ns per traced event");
  }
  m.push_back({"ledger.trace.self_frac", ratio(static_cast<double>(tracer.trace_ns()), top_ns),
               "ratio"});
  report.notes.push_back(args.workload + " seed " + std::to_string(args.seed) + ": digest " +
                         hex64(untraced.digest) + " (untraced), " + hex64(traced_digest) +
                         " (traced); calendar probe at depth " + std::to_string(depth));
  report.notes.push_back("fail_frac " + std::to_string(report.failed) + "/" +
                         std::to_string(report.attempted));
  return report;
}

}  // namespace perfbench
