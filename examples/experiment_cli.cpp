// General-purpose experiment driver: run any workload x scheme x buffer
// combination from the command line and get the full per-flow report.
//
//   ./experiment_cli --workload=table1 --scheduler=fifo --manager=sharing
//                    --buffer_mb=1.0 --headroom_kb=300 --seeds=5
//                    --duration=20 --delays=true
//
// Flags:
//   --workload    table1 | table2                    (default table1)
//   --scheduler   fifo | wfq | hybrid                (default fifo)
//   --manager     none | threshold | sharing | selective | dt | red | fred
//                 (taildrop = none)                  (default threshold)
//   --buffer_mb   total buffer in MB                 (default 1.0)
//   --headroom_kb sharing headroom in KB             (default 300)
//   --dt_alpha    dynamic-threshold multiplier       (default 1.0)
//   --seeds       replications                       (default 5)
//   --warmup, --duration  seconds                    (default 5 / 20)
//   --delays      also report per-flow delays        (default false)
//   --checkpoint-out=DIR   snapshot each replication mid-run into DIR
//                          (files ckpt_case0_rep<r>.bufq, the sweep's names)
//   --checkpoint-in=DIR    resume each replication from DIR (skips warmup)
//   --checkpoint-roundtrip snapshot + restore in-process; the report must
//                          match a plain run exactly
//   --checkpoint-events=N / --checkpoint-at=SECS  when to snapshot
//                          (default: end of warmup)
//
// The replications are one case of the sweep engine (expt/sweep.h): seeds
// derive from SeedSequence(1), and they run on every hardware thread with
// a report independent of the thread count.
#include <cstdio>
#include <iostream>
#include <map>
#include <stdexcept>
#include <utility>

#include "expt/experiment.h"
#include "expt/sweep.h"
#include "expt/workloads.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/task_pool.h"

namespace {

using namespace bufq;

// Built via += rather than operator+ chains to sidestep a GCC 12
// -Wrestrict false positive (gcc bug 105651).
std::string flow_key(std::size_t f, const char* suffix) {
  std::string key = "f";
  key += std::to_string(f);
  key += suffix;
  return key;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Flags flags{argc, argv};
    const std::string workload = flags.get_string("workload", "table1");

    ExperimentConfig config;
    config.link_rate = paper_link_rate();
    config.buffer = ByteSize::megabytes(flags.get_double("buffer_mb", 1.0));
    config.scheme.scheduler = parse_scheduler(flags.get_string("scheduler", "fifo"));
    config.scheme.manager = parse_manager(flags.get_string("manager", "threshold"));
    config.scheme.headroom = ByteSize::kilobytes(flags.get_double("headroom_kb", 300.0));
    config.scheme.dt_alpha = flags.get_double("dt_alpha", 1.0);
    config.warmup = Time::from_seconds(flags.get_double("warmup", 5.0));
    config.duration = Time::from_seconds(flags.get_double("duration", 20.0));
    config.record_delays = flags.get_bool("delays", false);
    const std::size_t seeds = flags.get_count("seeds", 5);

    const SweepCheckpoint checkpoint = parse_sweep_checkpoint(flags);

    std::vector<FlowId> conformant;
    if (workload == "table1") {
      config.flows = table1_flows();
      conformant = table1_conformant_flows();
      if (config.scheme.scheduler == SchedulerKind::kHybrid) {
        config.scheme.groups = case1_groups();
      }
    } else if (workload == "table2") {
      config.flows = table2_flows();
      conformant = table2_conformant_flows();
      if (config.scheme.scheduler == SchedulerKind::kHybrid) {
        config.scheme.groups = case2_groups();
      }
    } else {
      throw std::invalid_argument("unknown --workload '" + workload + "'");
    }

    const auto unknown = flags.unused();
    if (!unknown.empty()) {
      throw std::invalid_argument("unknown flag --" + unknown.front());
    }

    // Per-flow metrics across replications.
    const bool with_delays = config.record_delays;
    const std::size_t flow_count = config.flows.size();
    const MetricExtractor extract = [&](const ExperimentResult& result) {
      std::map<std::string, double> m;
      m["agg_mbps"] = result.aggregate_throughput_mbps();
      m["conformant_loss"] = result.loss_ratio(conformant);
      for (std::size_t f = 0; f < flow_count; ++f) {
        const auto id = static_cast<FlowId>(f);
        m[flow_key(f, "_mbps")] = result.flow_throughput_mbps(id);
        m[flow_key(f, "_loss")] = result.per_flow[f].loss_ratio();
        if (with_delays) {
          m[flow_key(f, "_delay_ms")] = result.delays[f].mean_s * 1e3;
        }
      }
      return m;
    };
    SweepCase single;
    single.label = workload;
    single.config = config;
    SweepOptions options;
    options.jobs = default_thread_count();
    options.replications = seeds;
    options.base_seed = 1;
    options.checkpoint = checkpoint;
    const SweepResult result = run_sweep({std::move(single)}, extract, options);
    const SweepRow& row = result.rows.front();
    if (!row.error.empty()) throw std::runtime_error(row.error);
    const auto& metrics = row.metrics;

    // Printed only after the run, so a refused run leaves stdout empty.
    std::printf("workload=%s scheduler=%s manager=%s buffer=%s seeds=%zu\n\n",
                workload.c_str(), to_string(config.scheme.scheduler),
                to_string(config.scheme.manager),
                config.buffer.to_string().c_str(), seeds);

    TextTable table{with_delays
                        ? std::vector<std::string>{"flow", "reserved(Mb/s)",
                                                   "goodput(Mb/s)", "ci95", "loss%",
                                                   "mean delay(ms)"}
                        : std::vector<std::string>{"flow", "reserved(Mb/s)",
                                                   "goodput(Mb/s)", "ci95", "loss%"}};
    for (std::size_t f = 0; f < config.flows.size(); ++f) {
      const auto& mbps = metrics.at(flow_key(f, "_mbps"));
      const auto& loss = metrics.at(flow_key(f, "_loss"));
      std::vector<std::string> cells{
          std::to_string(f), format_double(config.flows[f].token_rate.mbps()),
          format_double(mbps.mean), format_double(mbps.ci95),
          format_double(loss.mean * 100.0)};
      if (with_delays) {
        cells.push_back(format_double(metrics.at(flow_key(f, "_delay_ms")).mean));
      }
      table.row(std::move(cells));
    }
    table.print(std::cout);

    const auto& agg = metrics.at("agg_mbps");
    std::printf("\naggregate: %.2f +- %.2f Mb/s (utilization %.1f%%), conformant loss %.4f%%\n",
                agg.mean, agg.ci95, agg.mean / config.link_rate.mbps() * 100.0,
                metrics.at("conformant_loss").mean * 100.0);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
