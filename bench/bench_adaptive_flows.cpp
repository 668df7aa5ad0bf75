// Adaptive (AIMD) traffic under different buffer-management schemes — the
// operational question behind the paper's Section 5 proposal: which
// manager lets congestion-responsive flows use idle capacity without
// letting non-adaptive blasters take over?
//
// Four AIMD flows (reservation 4 Mb/s each) share the link with two
// non-adaptive greedy flows (reservation 2 Mb/s each); total reservation
// 20 of 48 Mb/s.  For each manager we report the adaptive and
// non-adaptive goodput and the adaptive flows' loss (which AIMD pays for
// with rate collapses).
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "core/dynamic_threshold.h"
#include "core/red.h"
#include "core/sharing.h"
#include "core/threshold.h"
#include "sched/fifo.h"
#include "sim/link.h"
#include "sim/simulator.h"
#include "traffic/aimd.h"
#include "traffic/sources.h"
#include "util/csv.h"

namespace {

using namespace bufq;
using namespace bufq::bench;

constexpr std::size_t kAdaptive = 4;
constexpr std::size_t kBlasters = 2;
constexpr std::size_t kFlows = kAdaptive + kBlasters;
constexpr std::int64_t kPkt = 500;

std::unique_ptr<BufferManager> make_manager(const std::string& name, ByteSize buffer,
                                            Rate link, std::uint64_t seed) {
  const std::vector<FlowSpec> specs{
      {Rate::megabits_per_second(4.0), ByteSize::kilobytes(20.0)},
      {Rate::megabits_per_second(4.0), ByteSize::kilobytes(20.0)},
      {Rate::megabits_per_second(4.0), ByteSize::kilobytes(20.0)},
      {Rate::megabits_per_second(4.0), ByteSize::kilobytes(20.0)},
      {Rate::megabits_per_second(2.0), ByteSize::kilobytes(20.0)},
      {Rate::megabits_per_second(2.0), ByteSize::kilobytes(20.0)},
  };
  if (name == "tail-drop") return std::make_unique<TailDropManager>(buffer, kFlows);
  if (name == "red") {
    return std::make_unique<RedManager>(
        buffer, kFlows,
        RedParams{.weight = 0.002,
                  .min_threshold = buffer.count() / 4,
                  .max_threshold = buffer.count() * 3 / 4,
                  .max_p = 0.1},
        Rng{seed});
  }
  if (name == "thresholds") {
    return std::make_unique<ThresholdManager>(buffer, link, specs);
  }
  if (name == "sharing") {
    return std::make_unique<BufferSharingManager>(buffer, link, specs,
                                                  ByteSize::kilobytes(100.0));
  }
  // selective: adaptive flows may borrow, blasters may not.
  std::vector<bool> may_borrow(kFlows, true);
  may_borrow[4] = may_borrow[5] = false;
  return std::make_unique<BufferSharingManager>(buffer, link, specs, ByteSize::kilobytes(100.0),
                                                ThresholdScaling::kExact, std::move(may_borrow));
}

/// One replication, packaged for the sweep: per_flow carries each flow's
/// delivered bytes over the measured interval and its dropped bytes over
/// the whole run (warmup included), interval the measured duration.
ExperimentResult run_once(const std::string& manager_name, ByteSize buffer,
                          const BenchOptions& options, std::uint64_t seed) {
  const Rate link_rate = paper_link_rate();
  Simulator sim;
  auto manager = make_manager(manager_name, buffer, link_rate, seed ^ 0xA1Dull);
  FifoScheduler fifo{*manager};
  Link link{sim, fifo, link_rate};

  std::vector<std::unique_ptr<AimdSource>> adaptive;
  for (std::size_t f = 0; f < kAdaptive; ++f) {
    adaptive.push_back(std::make_unique<AimdSource>(
        sim, link,
        AimdSource::Params{
            .flow = static_cast<FlowId>(f),
            .initial_rate = Rate::megabits_per_second(4.0),
            .floor_rate = Rate::megabits_per_second(1.0),
            .ceiling_rate = Rate::megabits_per_second(48.0),
            .additive_increase = Rate::megabits_per_second(0.4),
            .multiplicative_decrease = 0.5,
            .rtt = Time::milliseconds(20 + 3 * static_cast<std::int64_t>(f)),
            .packet_bytes = kPkt,
        }));
  }
  std::vector<std::unique_ptr<CbrSource>> blasters;
  for (std::size_t f = kAdaptive; f < kFlows; ++f) {
    blasters.push_back(std::make_unique<CbrSource>(
        sim, link, static_cast<FlowId>(f), Rate::megabits_per_second(30.0), kPkt));
  }

  ExperimentResult result;
  result.interval = options.duration;
  result.per_flow.resize(kFlows);
  fifo.set_drop_handler([&](const Packet& p, Time) {
    result.per_flow[static_cast<std::size_t>(p.flow)].dropped_bytes += p.size_bytes;
    if (static_cast<std::size_t>(p.flow) < kAdaptive) {
      adaptive[static_cast<std::size_t>(p.flow)]->on_loss();
    }
  });
  link.set_delivery_handler([&](const Packet& p, Time t) {
    if (t >= options.warmup) {
      result.per_flow[static_cast<std::size_t>(p.flow)].delivered_bytes += p.size_bytes;
    }
  });

  for (auto& s : adaptive) s->start();
  for (auto& s : blasters) s->start();
  sim.run_until(options.warmup + options.duration);
  return result;
}

std::map<std::string, double> adaptive_metrics(const ExperimentResult& result) {
  double adaptive_mbps = 0.0, blaster_mbps = 0.0, adaptive_dropped = 0.0;
  for (std::size_t f = 0; f < kFlows; ++f) {
    const double mbps = result.flow_throughput_mbps(static_cast<FlowId>(f));
    if (f < kAdaptive) {
      adaptive_mbps += mbps;
      adaptive_dropped += static_cast<double>(result.per_flow[f].dropped_bytes);
    } else {
      blaster_mbps += mbps;
    }
  }
  return {
      {"adaptive_mbps", adaptive_mbps},
      {"blaster_mbps", blaster_mbps},
      {"adaptive_dropped_kb", adaptive_dropped * 1e-3},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = parse_options(argc, argv, {0.25, 0.5, 1.0});
  refuse_checkpoints(options);
  print_banner(std::cout, "Adaptive traffic",
               "4 AIMD flows (16 Mb/s reserved) vs 2 greedy blasters (4 Mb/s reserved)",
               options);

  std::vector<SweepCase> cases;
  for (double buffer_mb : options.buffers_mb) {
    for (const char* manager : {"tail-drop", "red", "thresholds", "sharing", "selective"}) {
      SweepCase c;
      c.label = manager;
      c.params = {{"buffer_mb", format_double(buffer_mb)}};
      c.runner = [manager = std::string{manager}, buffer = ByteSize::megabytes(buffer_mb),
                  &options](std::uint64_t seed) {
        return run_once(manager, buffer, options, seed);
      };
      cases.push_back(std::move(c));
    }
  }
  const SweepResult result = run_sweep(std::move(cases), adaptive_metrics, sweep_options(options));

  CsvWriter csv{std::cout, {"buffer_mb", "manager", "adaptive_mbps", "blaster_mbps",
                            "adaptive_dropped_kb"}};
  for (const SweepRow& row : result.rows) {
    if (!row.error.empty()) continue;
    csv.row({row.params[0].second, row.label,
             format_double(row.metrics.at("adaptive_mbps").mean),
             format_double(row.metrics.at("blaster_mbps").mean),
             format_double(row.metrics.at("adaptive_dropped_kb").mean)});
  }
  std::cout << "\n# adaptive flows are entitled to 16 Mb/s plus a fair slice of the\n"
               "# ~28 Mb/s of unreserved capacity; blasters are entitled to 4 Mb/s.\n";
  return report_sweep_errors(result);
}
