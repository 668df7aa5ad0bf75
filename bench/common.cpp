#include "common.h"

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <utility>

#include "obs/export.h"
#include "util/csv.h"
#include "util/task_pool.h"

namespace bufq::bench {

BenchOptions parse_options(int argc, const char* const* argv,
                           std::vector<double> default_buffers_mb) {
  BenchOptions options;
  try {
    Flags flags{argc, argv};
    options.seeds = flags.get_count("replications", flags.get_count("seeds", 5));
    options.base_seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    options.warmup = Time::from_seconds(flags.get_double("warmup", 5.0));
    options.duration = Time::from_seconds(flags.get_double("duration", 20.0));
    options.buffers_mb = flags.get_list<double>("buffers", std::move(default_buffers_mb));
    options.jobs = flags.get_count("jobs", default_thread_count());
    options.progress = flags.get_bool("progress", false);
    options.metrics_out = flags.get("metrics-out").value_or("");
    options.checkpoint = parse_checkpoint_request(flags);
    const auto unknown = flags.unused();
    if (!unknown.empty()) {
      throw std::invalid_argument(
          "unknown flag --" + unknown.front() +
          " (supported: --seeds --replications --seed --warmup --duration --buffers --jobs "
          "--progress --metrics-out --checkpoint-out --checkpoint-in --checkpoint-roundtrip "
          "--checkpoint-events --checkpoint-at)");
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
  return options;
}

SweepOptions sweep_options(const BenchOptions& options) {
  SweepOptions sweep;
  sweep.jobs = options.jobs == 0 ? default_thread_count() : options.jobs;
  sweep.replications = options.seeds;
  sweep.base_seed = options.base_seed;
  // Common random numbers: every grid point sees the same seed set, which
  // sharpens scheme-vs-scheme comparisons at a fixed replication budget.
  sweep.seed_mode = SeedMode::kSharedAcrossCases;
  sweep.progress = options.progress ? &std::cerr : nullptr;
  sweep.checkpoint = options.checkpoint;
  return sweep;
}

int report_sweep_errors(const SweepResult& result) {
  bool violated = false;
  for (const SweepRow& row : result.rows) {
    if (!row.error.empty()) {
      std::cerr << "error: case " << row.index << " (" << row.label << "): " << row.error
                << "\n";
    }
    // Zero unless checks are compiled in (-DBUFQ_CHECKS=ON).
    if (row.check_violations != 0) {
      std::cerr << "error: case " << row.index << " (" << row.label
                << "): " << row.check_violations << " invariant violations\n";
      violated = true;
    }
  }
  return result.ok() && !violated ? 0 : 1;
}

std::map<std::string, Summary> replicate(
    ExperimentConfig config, const BenchOptions& options,
    const std::function<std::map<std::string, double>(const ExperimentResult&)>& extract) {
  config.warmup = options.warmup;
  config.duration = options.duration;

  SweepCase single;
  single.label = "replicate";
  single.config = std::move(config);

  const SweepResult result = run_sweep({std::move(single)}, extract, sweep_options(options));

  const SweepRow& row = result.rows.front();
  if (!row.error.empty()) {
    throw std::runtime_error("replication failed: " + row.error);
  }
  return row.metrics;
}

namespace {

void print_profile_table(std::ostream& out, const std::vector<TrafficProfile>& flows,
                         const char* title) {
  out << title << "\n";
  TextTable table{{"flow", "peak(Mb/s)", "avg(Mb/s)", "bucket(KB)", "tokenrate(Mb/s)",
                   "burst(KB)", "regulated"}};
  for (std::size_t f = 0; f < flows.size(); ++f) {
    const auto& p = flows[f];
    table.row({std::to_string(f), format_double(p.peak_rate.mbps()),
               format_double(p.avg_rate.mbps()), format_double(p.bucket.kb()),
               format_double(p.token_rate.mbps()), format_double(p.mean_burst.kb()),
               p.regulated ? "yes" : "no"});
  }
  table.print(out);
  out << "\n";
}

}  // namespace

void print_table1(std::ostream& out) {
  print_profile_table(out, table1_flows(), "# Table 1 workload (9 flows, 48 Mb/s link)");
}

void print_table2(std::ostream& out) {
  print_profile_table(out, table2_flows(), "# Table 2 workload (30 flows, 48 Mb/s link)");
}

void print_banner(std::ostream& out, const std::string& figure, const std::string& what,
                  const BenchOptions& options) {
  out << "# " << figure << ": " << what << "\n";
  out << "# seeds=" << options.seeds << " base_seed=" << options.base_seed
      << " warmup=" << options.warmup.to_seconds() << "s"
      << " duration=" << options.duration.to_seconds() << "s\n";
}

int run_figure_main(int figure, int argc, const char* const* argv) {
  const auto options = parse_options(argc, argv, figure_default_buffers_mb(figure));

  FigureParams params;
  params.buffers_mb = options.buffers_mb;
  params.warmup = options.warmup;
  params.duration = options.duration;
  FigureSweep fig = make_figure_sweep(figure, params);

  print_banner(std::cout, fig.name, fig.what, options);
  if (fig.print_workload) {
    (fig.workload_table == 2 ? print_table2 : print_table1)(std::cout);
  }
  const SweepOptions sweep = sweep_options(options);
  std::cerr << "# jobs=" << sweep.jobs << " runs=" << fig.cases.size() * options.seeds << "\n";

  const SweepResult result = run_sweep(std::move(fig.cases), fig.extract, sweep);

  CsvWriter csv{std::cout, fig.columns};
  for (const SweepRow& row : result.rows) {
    csv.row(fig.format_row(row));
  }

  if (!options.metrics_out.empty()) {
    obs::BenchReport report;
    report.bench = fig.name;
    for (const SweepRow& row : result.rows) report.snapshot.merge(row.obs_metrics);
    const auto events = report.snapshot.counters.find("sim.events");
    const auto wall = report.snapshot.counters.find("sim.wall_ns");
    if (events != report.snapshot.counters.end() && wall != report.snapshot.counters.end() &&
        wall->second > 0) {
      report.derived["events_per_sec"] =
          static_cast<double>(events->second) / (static_cast<double>(wall->second) * 1e-9);
    }
    try {
      obs::write_bench_json_file(options.metrics_out, report);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  }

  return report_sweep_errors(result);
}

}  // namespace bufq::bench
