// Flow churn under admission control: the run-time half of the paper's
// admission story as a CLI.
//
//   ./admission_churn [--scheme=fifo|sharing|wfq] [--lambda=150]
//                     [--holding_ms=500] [--link_mbps=48] [--buffer_mb=1]
//                     [--headroom_kb=100] [--small_weight=3]
//                     [--large_weight=1] [--duration=10] [--warmup=2]
//                     [--max_flows=256] [--seed=7]
//
// Flows arrive Poisson at rate lambda, hold for an exponential time, and
// are admitted or blocked by the scheme's test (eq. 6 / eq. 10).  The mix
// offers small (rho = 1 Mb/s, sigma = 16 KB) and large (rho = 4 Mb/s,
// sigma = 64 KB) leaky-bucket-regulated flows.  Exits 1 if any admitted
// conformant flow loses a packet — the guarantee the thresholds exist to
// keep — or, in a -DBUFQ_CHECKS=ON build, if the run's invariant audit
// (the `audit:` line) records a violation.
#include <cstdio>
#include <stdexcept>
#include <string>

#include "check/invariants.h"
#include "expt/churn_experiment.h"
#include "util/flags.h"

namespace {

int run(int argc, char** argv) {
  using namespace bufq;

  Flags flags{argc, argv};
  const std::string scheme_name = flags.get_string("scheme", "fifo");
  ChurnScheme scheme = ChurnScheme::kFifoThreshold;
  if (scheme_name == "sharing") {
    scheme = ChurnScheme::kFifoSharing;
  } else if (scheme_name == "wfq") {
    scheme = ChurnScheme::kWfq;
  } else if (scheme_name != "fifo") {
    std::fprintf(stderr, "unknown --scheme=%s (fifo|sharing|wfq)\n", scheme_name.c_str());
    return 2;
  }

  const TrafficProfile small{.peak_rate = Rate::megabits_per_second(8.0),
                             .avg_rate = Rate::megabits_per_second(1.0),
                             .bucket = ByteSize::kilobytes(16.0),
                             .token_rate = Rate::megabits_per_second(1.0),
                             .mean_burst = ByteSize::kilobytes(16.0),
                             .regulated = true};
  const TrafficProfile large{.peak_rate = Rate::megabits_per_second(16.0),
                             .avg_rate = Rate::megabits_per_second(4.0),
                             .bucket = ByteSize::kilobytes(64.0),
                             .token_rate = Rate::megabits_per_second(4.0),
                             .mean_burst = ByteSize::kilobytes(64.0),
                             .regulated = true};

  // Field-by-field assembly: GCC 12 raises -Wmaybe-uninitialized false
  // positives on vectors inside nested designated initializers.
  ChurnConfig config;
  config.link_rate = Rate::megabits_per_second(flags.get_double("link_mbps", 48.0));
  config.buffer = ByteSize::megabytes(flags.get_double("buffer_mb", 1.0));
  config.scheme = scheme;
  config.headroom = ByteSize::kilobytes(flags.get_double("headroom_kb", 100.0));
  config.max_flows = flags.get_count("max_flows", 256);
  config.churn.arrival_rate_hz = flags.get_double("lambda", 150.0);
  config.churn.mean_holding = Time::milliseconds(flags.get_int("holding_ms", 500));
  config.churn.mix = {
      {.profile = small, .weight = flags.get_double("small_weight", 3.0)},
      {.profile = large, .weight = flags.get_double("large_weight", 1.0)}};
  config.warmup = Time::seconds(flags.get_int("warmup", 2));
  config.duration = Time::seconds(flags.get_int("duration", 10));
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));

  if (const auto unknown = flags.unused(); !unknown.empty()) {
    std::fprintf(stderr, "unknown flag --%s\n", unknown.front().c_str());
    return 2;
  }

  std::printf("Churn on %s / %s buffer, scheme=%s: lambda=%.0f/s, 1/mu=%.0f ms\n\n",
              config.link_rate.to_string().c_str(), config.buffer.to_string().c_str(),
              scheme_name.c_str(), config.churn.arrival_rate_hz,
              config.churn.mean_holding.to_seconds() * 1e3);

  const ChurnResult r = run_churn_experiment(config);

  std::printf("arrivals            : %llu\n",
              static_cast<unsigned long long>(r.counters.arrivals));
  std::printf("admitted            : %llu\n",
              static_cast<unsigned long long>(r.counters.admitted));
  std::printf("blocked (bandwidth) : %llu\n",
              static_cast<unsigned long long>(r.counters.rejected_bandwidth));
  std::printf("blocked (buffer)    : %llu\n",
              static_cast<unsigned long long>(r.counters.rejected_buffer));
  std::printf("blocked (capacity)  : %llu\n",
              static_cast<unsigned long long>(r.counters.rejected_capacity));
  std::printf("blocking probability: %.4f\n", r.blocking_probability);
  std::printf("mean active flows   : %.1f\n", r.mean_active_flows);
  std::printf("reserved utilization: %.1f%% (mean)\n", r.mean_reserved_utilization * 100.0);
  std::printf("link utilization    : %.1f%% (delivered)\n", r.utilization * 100.0);
  std::printf("conformant drops    : %llu\n",
              static_cast<unsigned long long>(r.counters.conformant_drops));
  if (BUFQ_CHECKS_ENABLED) {
    std::printf("audit:     %llu checks, %llu violations\n",
                static_cast<unsigned long long>(r.checks_run),
                static_cast<unsigned long long>(r.check_violations));
  } else {
    std::printf("audit:     off (build with -DBUFQ_CHECKS=ON to run it)\n");
  }

  if (r.counters.conformant_drops > 0) {
    std::fprintf(stderr, "FAIL: admitted conformant flows lost packets\n");
    return 1;
  }
  if (r.check_violations > 0) {
    std::fprintf(stderr, "FAIL: the invariant audit recorded violations\n");
    return 1;
  }
  std::printf("\nOK: every admitted conformant flow was served losslessly.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::invalid_argument& e) {
    // Malformed or negative flag values.
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
}
