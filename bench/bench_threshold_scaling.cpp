// Ablation of the paper's footnote 5: when the buffer exceeds the sum of
// analytic thresholds, should the thresholds be scaled up to fully
// partition it?  Compares kScaleToFill vs kExact on the Table 1 workload
// across buffer sizes (the difference only exists for large buffers,
// where scaling hands the slack to whoever can use it — mostly the
// aggressive flows).
#include <iostream>
#include <memory>
#include <utility>
#include <vector>

#include "common.h"
#include "core/threshold.h"
#include "expt/run_harness.h"
#include "sched/fifo.h"
#include "sim/link.h"
#include "sim/simulator.h"
#include "stats/collector.h"
#include "traffic/shaper.h"
#include "traffic/sources.h"
#include "util/csv.h"

namespace {

using namespace bufq;
using namespace bufq::bench;

/// Local pipeline so the scaling mode can be toggled (the standard
/// ExperimentConfig always uses the paper's kScaleToFill).  Returns the
/// measured interval's per-flow counter deltas.
ExperimentResult run_with_scaling(ThresholdScaling scaling, ByteSize buffer,
                                  const BenchOptions& options, std::uint64_t seed) {
  const auto flows = table1_flows();
  const auto specs = flow_specs(flows);
  Simulator sim;
  ThresholdManager manager{buffer, paper_link_rate(), specs, scaling};
  FifoScheduler fifo{manager};
  Link link{sim, fifo, paper_link_rate()};
  StatsCollector stats{flows.size()};
  link.set_delivery_handler([&](const Packet& p, Time t) { stats.on_delivered(p, t); });
  fifo.set_drop_handler([&](const Packet& p, Time t) { stats.on_dropped(p, t); });
  OfferedTrafficTap tap{stats, link};

  Rng master{seed};
  std::vector<std::unique_ptr<LeakyBucketShaper>> shapers;
  std::vector<std::unique_ptr<MarkovOnOffSource>> sources;
  for (std::size_t f = 0; f < flows.size(); ++f) {
    PacketSink* entry = &tap;
    if (flows[f].regulated) {
      shapers.push_back(std::make_unique<LeakyBucketShaper>(
          sim, tap, flows[f].bucket, flows[f].token_rate, flows[f].peak_rate));
      entry = shapers.back().get();
    }
    sources.push_back(std::make_unique<MarkovOnOffSource>(
        sim, *entry,
        MarkovOnOffSource::params_from_profile(static_cast<FlowId>(f), flows[f]),
        master.fork(f)));
    sources.back()->start();
  }

  std::vector<FlowCounters> at_warmup;
  sim.at(options.warmup, [&] { at_warmup = stats.snapshot(); });
  sim.run_until(options.warmup + options.duration);

  ExperimentResult result;
  result.interval = options.duration;
  result.per_flow = per_flow_deltas(stats.snapshot(), at_warmup);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = parse_options(argc, argv, {0.5, 1.0, 2.0, 3.0, 5.0, 8.0});
  refuse_checkpoints(options);
  print_banner(std::cout, "Footnote 5 ablation",
               "threshold scale-to-fill vs exact analytic thresholds", options);

  std::vector<SweepCase> cases;
  for (double buffer_mb : options.buffers_mb) {
    for (auto [name, scaling] :
         {std::pair{"scale-to-fill", ThresholdScaling::kScaleToFill},
          std::pair{"exact", ThresholdScaling::kExact}}) {
      SweepCase c;
      c.label = name;
      c.params = {{"buffer_mb", format_double(buffer_mb)}};
      c.runner = [scaling, buffer = ByteSize::megabytes(buffer_mb), &options](std::uint64_t seed) {
        return run_with_scaling(scaling, buffer, options, seed);
      };
      cases.push_back(std::move(c));
    }
  }
  const auto conformant = table1_conformant_flows();
  const SweepResult result = run_sweep(
      std::move(cases),
      [&conformant](const ExperimentResult& r) {
        return std::map<std::string, double>{
            {"throughput_mbps", r.aggregate_throughput_mbps()},
            {"conformant_loss", r.loss_ratio(conformant)},
        };
      },
      sweep_options(options));

  CsvWriter csv{std::cout,
                {"buffer_mb", "scaling", "throughput_mbps", "conformant_loss"}};
  for (const SweepRow& row : result.rows) {
    if (!row.error.empty()) continue;
    csv.row({row.params[0].second, row.label,
             format_double(row.metrics.at("throughput_mbps").mean),
             format_double(row.metrics.at("conformant_loss").mean)});
  }
  return report_sweep_errors(result);
}
