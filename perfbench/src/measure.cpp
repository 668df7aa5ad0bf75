// --trace 0: the end-to-end metrics, measured with tracing off.
//
// The load is a closed loop: one process runs the workload's rounds back
// to back, each starting when the previous one ends, for --seconds.  Every
// round is checked (guarantees, and the digest against the first round and
// the committed reference), and each timing is a median over rounds.
//
// Host speed.  On a shared host other tenants' load slows every round, by
// up to a third for minutes at a time, and no statistic over one run's
// rounds removes that.  So between measured rounds the benchmark times a
// fixed unit of work of its own, a binary-heap hold model (an event
// calendar's access pattern, but not the library's code), and scales each
// round's times to a host on which that unit takes kReferenceUnitS:
// time * kReferenceUnitS / unit time, the unit time being the mean of the
// units timed just before and just after the round.  A change to the
// library moves the round but not the unit; host load moves both.  The
// unscaled medians are printed beside the metrics.
#include <sys/resource.h>

#include <functional>
#include <queue>

#include "bench.h"

namespace perfbench {

namespace {

constexpr double kReferenceUnitS = 0.035;
constexpr std::size_t kUnitHeapSize = 8192;
constexpr std::size_t kUnitOps = 300000;

/// Wall time of the host-speed unit: kUnitOps pop-push holds on a
/// min-heap of kUnitHeapSize times with xorshift increments.
double host_unit_seconds() {
  const double start = now_seconds();
  std::uint64_t x = 88172645463325252ull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>, std::greater<>> heap;
  for (std::size_t i = 0; i < kUnitHeapSize; ++i) heap.push(next() & 0xfffff);
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < kUnitOps; ++i) {
    const std::uint64_t t = heap.top();
    heap.pop();
    sum += t;
    heap.push(t + (next() & 0xffff));
  }
  // A store the compiler must keep, so the loop is not optimised away.
  static volatile std::uint64_t sink;
  sink = sum;
  return now_seconds() - start;
}

// setup_s comes from set-up-only rounds run between the measured rounds,
// kMinSetupTrials after the first and kSetupPerRound after each later one,
// so they sample the same host conditions as the measured phase; a set-up
// round takes about a millisecond.
constexpr std::size_t kSetupPerRound = 10;
constexpr std::size_t kMinSetupTrials = 51;

}  // namespace

int shards_for(const Args& args) { return args.shards > 0 ? args.shards : 1; }

std::optional<std::string> reference_mismatch(const Args& args, Kind kind,
                                              std::uint64_t digest) {
  if (args.reference.empty()) return std::nullopt;
  const auto expected = load_reference(args.reference, scenario_of(kind), args.seed);
  if (!expected || *expected == digest) return std::nullopt;
  return "digest " + hex64(digest) + " differs from the committed " + scenario_of(kind) +
         " reference " + hex64(*expected) + " for seed " + std::to_string(args.seed);
}

Report measure_workload(const Args& args) {
  const Kind kind = kind_of(args.workload);
  const int shards = shards_for(args);
  Report report;

  std::vector<double> setup_s;
  std::vector<double> raw_setup_s;
  const auto setup_rounds = [&](std::size_t count) {
    std::vector<double> wall_s;
    for (std::size_t i = 0; i < count; ++i) {
      const Round r = run_round(kind, args.seed, shards, Horizon::kSetupOnly);
      report.attempted += r.runs;
      for (const RunOutput& o : r.outputs) {
        if (!o.error.empty()) {
          report.fail(r.runs, "set-up round: " + o.error);
          break;
        }
      }
      wall_s.push_back(r.wall_s);
    }
    return wall_s;
  };

  // The first full round warms caches and lazy set-up, and fixes the
  // digest every later round of the same seed must repeat.
  const Round first = run_round(kind, args.seed, shards, Horizon::kFull);
  report.attempted += first.runs;
  if (const std::string why = guarantee_failure(first.outputs); !why.empty()) {
    report.fail(first.runs, why);
  } else if (const auto mismatch = reference_mismatch(args, kind, first.digest)) {
    report.fail(first.runs, *mismatch);
  }

  // run_ms_p50/p90 are percentiles over one round's runs (120 in
  // paper_sweep; one, so both the same, in the single-run workloads), then
  // a median over rounds.
  std::vector<double> sim_rate;
  std::vector<double> cpu_per_sim;
  std::vector<double> run_p50;
  std::vector<double> run_p90;
  std::vector<double> raw_sim_rate;
  std::vector<double> unit_s;
  std::size_t runs_per_round = 0;
  // Each round and the set-up rounds after it are scaled by the mean of
  // the host-speed units measured just before and just after them.
  unit_s.push_back(host_unit_seconds());
  const double deadline = now_seconds() + args.seconds;
  do {
    const Round r = run_round(kind, args.seed, shards, Horizon::kFull);
    report.attempted += r.runs;
    if (const std::string why = guarantee_failure(r.outputs); !why.empty()) {
      report.fail(r.runs, why);
    } else if (r.digest != first.digest) {
      report.fail(r.runs, "digest " + hex64(r.digest) + " differs from the first round's " +
                              hex64(first.digest));
    }
    const std::vector<double> setup_wall_s =
        setup_rounds(setup_s.empty() ? kMinSetupTrials : kSetupPerRound);
    unit_s.push_back(host_unit_seconds());
    const double scale = 2.0 * kReferenceUnitS / (unit_s.end()[-2] + unit_s.back());
    sim_rate.push_back(r.sim_seconds / (r.wall_s * scale));
    cpu_per_sim.push_back(r.cpu_s * scale / r.sim_seconds);
    run_p50.push_back(percentile(r.run_ms, 0.5) * scale);
    run_p90.push_back(percentile(r.run_ms, 0.9) * scale);
    raw_sim_rate.push_back(r.sim_seconds / r.wall_s);
    for (const double wall : setup_wall_s) {
      setup_s.push_back(wall * scale);
      raw_setup_s.push_back(wall);
    }
    runs_per_round = r.run_ms.size();
  } while (now_seconds() < deadline);

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  report.metrics = {
      {"sim_s_per_s", median(sim_rate), "s/s"},
      {"cpu_s_per_sim_s", median(cpu_per_sim), "s/s"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6, "MB"},
      {"run_ms_p50", median(run_p50), "ms"},
      {"run_ms_p90", median(run_p90), "ms"},
  };
  report.notes.push_back(args.workload + " seed " + std::to_string(args.seed) + " shards " +
                         std::to_string(shards) + ": digest " + hex64(first.digest) + ", " +
                         std::to_string(sim_rate.size()) + " measured rounds of " +
                         std::to_string(runs_per_round) + " runs, " +
                         std::to_string(setup_s.size()) + " set-up rounds");
  report.notes.push_back("host-speed unit median " + std::to_string(median(unit_s) * 1e3) +
                         " ms (reference " + std::to_string(kReferenceUnitS * 1e3) +
                         " ms); unscaled medians: sim_s_per_s " +
                         std::to_string(median(raw_sim_rate)) + ", setup_s " +
                         std::to_string(median(raw_setup_s)));
  report.notes.push_back("fail_frac " + std::to_string(report.failed) + "/" +
                         std::to_string(report.attempted));
  return report;
}

}  // namespace perfbench
