// Admission at scale: the "Scalable" in Scalable QoS, measured.
//
// Three views:
//   1. Wall-clock admission-decision throughput against a FlowTable
//      holding 1e5 concurrent flows (FIFO+thresholds, eq. 10).  The
//      paper's argument is that the admission test is O(1) arithmetic on
//      running aggregates; this measures it.  Exits non-zero below the
//      100k decisions/sec floor.
//   2. Per-flow state: the dense FlowTable footprint (a counter, a
//      threshold and an envelope) versus the per-class state a WFQ
//      scheduler must keep.
//   3. A small churn simulation per scheme: blocking probability,
//      achieved utilization, and guarantee violations under Poisson
//      arrivals (see bench_fig* for the figure-series counterparts).
//      Exits non-zero if any run's invariant audit records a violation
//      (-DBUFQ_CHECKS=ON builds).
//   4. Metrics overhead: view 1 repeated with an obs::ScopedMetrics
//      installed so every admission counter records.  Both passes must
//      clear the 100k decisions/sec floor and the instrumented pass may
//      not cost more than 2x the bare one (exit non-zero otherwise).
//
// Flags: --metrics-out=PATH writes the instrumented pass's registry plus
// derived throughput numbers as a BENCH_*.json artifact (exit 1 if PATH
// is unwritable).  --million-flow replaces the views above with the
// million-flow scale run (1e6 resident flows: setup, churn decisions,
// per-packet threshold checks, and the bytes/flow budget) and writes it
// as BENCH_million_flow.json when --metrics-out is given.
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "admission/admission_controller.h"
#include "admission/dynamic_manager.h"
#include "admission/flow_class.h"
#include "admission/flow_table.h"
#include "expt/churn_experiment.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "sched/wfq.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/rng.h"

namespace {

using namespace bufq;

// 1e5 concurrent flows, each 10 kb/s with a 1.5 KB burst, on a link with
// enough capacity (u ~ 0.42) and buffer (eq. 10 needs ~260 MB) that the
// steady-state churn loop keeps admitting.
constexpr std::size_t kConcurrentFlows = 100'000;
constexpr std::size_t kDecisions = 1'000'000;
constexpr double kRequiredDecisionsPerSec = 100'000.0;

struct DecisionMeasurement {
  double per_sec{0.0};
  /// Registry snapshot of the instrumented pass; empty for the bare one.
  obs::RegistrySnapshot metrics;
};

DecisionMeasurement measure_decision_throughput(bool instrumented) {
  // When instrumented, the FlowTable/AdmissionController below resolve
  // live handles against this run-private registry; otherwise every
  // record stays a single not-taken branch.
  std::optional<obs::ScopedMetrics> scope;
  if (instrumented) scope.emplace();

  admission::FlowTable table{kConcurrentFlows};
  admission::AdmissionController controller{{
      .scheme = admission::Scheme::kFifoThreshold,
      .link_rate = Rate::megabits_per_second(2400.0),
      .buffer = ByteSize::megabytes(1000.0),
  }};
  const FlowSpec flow{Rate::kilobits_per_second(10.0), ByteSize::bytes(1500)};

  std::vector<admission::FlowHandle> handles;
  handles.reserve(kConcurrentFlows);
  for (std::size_t i = 0; i < kConcurrentFlows; ++i) {
    if (controller.try_admit(flow) != AdmissionVerdict::kAccepted) {
      std::fprintf(stderr, "setup under-admitted: %zu flows\n", i);
      std::exit(1);
    }
    handles.push_back(table.admit(flow, controller.threshold_bytes(flow)));
  }

  // Steady state: each decision replaces a random victim, so the table
  // stays at 1e5 occupied slots and slot reuse hits random positions
  // rather than a warm LIFO top.
  Rng rng{42};
  const auto begin = std::chrono::steady_clock::now();
  for (std::size_t d = 0; d < kDecisions; ++d) {
    const std::size_t victim = rng.uniform_u64(handles.size());
    controller.release(flow);
    table.teardown(handles[victim]);
    if (controller.try_admit(flow) != AdmissionVerdict::kAccepted) {
      std::fprintf(stderr, "steady-state admit refused at decision %zu\n", d);
      std::exit(1);
    }
    handles[victim] = table.admit(flow, controller.threshold_bytes(flow));
  }
  const auto end = std::chrono::steady_clock::now();
  const double elapsed = std::chrono::duration<double>(end - begin).count();
  DecisionMeasurement m;
  m.per_sec = static_cast<double>(kDecisions) / elapsed;
  if (scope) m.metrics = scope->registry().snapshot();
  return m;
}

// Million-flow scale: 1e6 resident flows drawn from four service
// profiles (the class registry interns exactly four envelope classes no
// matter how many flows are resident).  Feasible by eq. 10 on an 800
// Gb/s link: sum(rho) = 340 Gb/s (u ~ 0.43), sum(sigma) = 21.4 GB,
// sum(sigma)/(1-u) ~ 37 GB <= 40 GB buffer.
constexpr std::size_t kMillionFlows = 1'000'000;
constexpr std::size_t kMillionDecisions = 1'000'000;
constexpr std::size_t kMillionPacketChecks = 4'000'000;

struct MillionFlowMeasurement {
  double setup_admits_per_sec{0.0};
  double decisions_per_sec{0.0};
  double packet_checks_per_sec{0.0};
  std::size_t resident{0};
  std::size_t classes{0};
  obs::RegistrySnapshot metrics;
};

MillionFlowMeasurement measure_million_flow() {
  obs::ScopedMetrics scope;

  admission::FlowTable table{kMillionFlows};
  admission::AdmissionController controller{{
      .scheme = admission::Scheme::kFifoThreshold,
      .link_rate = Rate::gigabits_per_second(800.0),
      .buffer = ByteSize::megabytes(40960.0),
  }};
  const std::array<FlowSpec, 4> profiles{{
      {Rate::kilobits_per_second(16.0), ByteSize::bytes(1500)},     // telephony
      {Rate::kilobits_per_second(64.0), ByteSize::kilobytes(4.0)},  // audio
      {Rate::kilobits_per_second(256.0), ByteSize::kilobytes(16.0)},  // conferencing
      {Rate::kilobits_per_second(1024.0), ByteSize::kilobytes(64.0)},  // video
  }};
  std::array<admission::ClassId, 4> classes{};
  for (std::size_t p = 0; p < profiles.size(); ++p) {
    classes[p] = table.classes().intern(profiles[p],
                                        controller.threshold_bytes(profiles[p]));
  }

  MillionFlowMeasurement m;
  m.resident = kMillionFlows;
  m.classes = table.classes().class_count();

  // Phase 1: fill to 1e6 resident flows (round-robin over the profiles).
  std::vector<admission::FlowHandle> handles(kMillionFlows);
  std::vector<std::uint8_t> profile_of(kMillionFlows);
  const auto setup_begin = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kMillionFlows; ++i) {
    const std::size_t p = i & 3;
    if (controller.try_admit(profiles[p]) != AdmissionVerdict::kAccepted) {
      std::fprintf(stderr, "million-flow setup under-admitted: %zu flows\n", i);
      std::exit(1);
    }
    handles[i] = table.admit_class(classes[p]);
    profile_of[i] = static_cast<std::uint8_t>(p);
  }
  const auto setup_end = std::chrono::steady_clock::now();
  m.setup_admits_per_sec =
      static_cast<double>(kMillionFlows) /
      std::chrono::duration<double>(setup_end - setup_begin).count();

  // Phase 2: steady-state churn at 1e6 resident — each decision tears
  // down a random victim and admits a replacement, so slot reuse hits
  // random table positions, not a warm LIFO top.
  Rng rng{42};
  const auto churn_begin = std::chrono::steady_clock::now();
  for (std::size_t d = 0; d < kMillionDecisions; ++d) {
    const std::size_t victim = rng.uniform_u64(kMillionFlows);
    const std::size_t old_p = profile_of[victim];
    controller.release(profiles[old_p]);
    table.teardown(handles[victim]);
    const std::size_t new_p = d & 3;
    if (controller.try_admit(profiles[new_p]) != AdmissionVerdict::kAccepted) {
      std::fprintf(stderr, "million-flow churn admit refused at decision %zu\n", d);
      std::exit(1);
    }
    handles[victim] = table.admit_class(classes[new_p]);
    profile_of[victim] = static_cast<std::uint8_t>(new_p);
  }
  const auto churn_end = std::chrono::steady_clock::now();
  m.decisions_per_sec =
      static_cast<double>(kMillionDecisions) /
      std::chrono::duration<double>(churn_end - churn_begin).count();

  // Phase 3: the per-packet path — Prop-2 threshold checks against the
  // table at 1e6 resident flows.  The paper's O(1) claim is that this
  // cost does not grow with the resident count.
  admission::DynamicBufferManager manager{ByteSize::megabytes(40960.0), table,
                                          admission::DynamicBufferManager::Policy::kThreshold};
  const auto pkt_begin = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kMillionPacketChecks; ++i) {
    const auto flow = static_cast<FlowId>(rng.uniform_u64(kMillionFlows));
    if (manager.try_admit(flow, 1500, Time::zero())) {
      manager.release(flow, 1500, Time::zero());
    }
  }
  const auto pkt_end = std::chrono::steady_clock::now();
  m.packet_checks_per_sec =
      static_cast<double>(kMillionPacketChecks) /
      std::chrono::duration<double>(pkt_end - pkt_begin).count();

  m.metrics = scope.registry().snapshot();
  return m;
}

int run_million_flow(const std::string& metrics_out) {
  std::cout << "# million-flow scale: 1e6 resident flows, 4 envelope classes\n";
  const MillionFlowMeasurement m = measure_million_flow();
  CsvWriter csv{std::cout,
                {"resident_flows", "envelope_classes", "setup_admits_per_sec",
                 "decisions_per_sec", "packet_checks_per_sec", "bytes_per_flow"}};
  csv.row({static_cast<double>(m.resident), static_cast<double>(m.classes),
           m.setup_admits_per_sec, m.decisions_per_sec, m.packet_checks_per_sec,
           static_cast<double>(admission::FlowTable::bytes_per_flow())});

  if (!metrics_out.empty()) {
    obs::BenchReport report;
    report.bench = "bench_million_flow";
    report.snapshot = m.metrics;
    report.derived["resident_flows"] = static_cast<double>(m.resident);
    report.derived["envelope_classes"] = static_cast<double>(m.classes);
    report.derived["setup_admits_per_sec"] = m.setup_admits_per_sec;
    report.derived["decisions_per_sec"] = m.decisions_per_sec;
    report.derived["packet_checks_per_sec"] = m.packet_checks_per_sec;
    report.derived["flow_table_bytes_per_flow"] =
        static_cast<double>(admission::FlowTable::bytes_per_flow());
    report.derived["flow_table_resident_mb"] =
        static_cast<double>(m.resident * admission::FlowTable::bytes_per_flow()) / 1e6;
    report.derived["wfq_bytes_per_class"] =
        static_cast<double>(WfqScheduler::kPerClassStateBytes);
    try {
      obs::write_bench_json_file(metrics_out, report);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", metrics_out.c_str());
  }
  return 0;
}

const char* scheme_name(ChurnScheme scheme) {
  switch (scheme) {
    case ChurnScheme::kFifoThreshold: return "fifo+thresholds";
    case ChurnScheme::kFifoSharing: return "fifo+sharing";
    case ChurnScheme::kWfq: return "wfq";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bufq;

  Flags flags{argc, argv};
  const std::string metrics_out = flags.get("metrics-out").value_or("");
  const bool million_flow = flags.get_bool("million-flow", false);
  const auto unknown = flags.unused();
  if (!unknown.empty()) {
    std::fprintf(stderr, "unknown flag --%s (supported: --metrics-out, --million-flow)\n",
                 unknown.front().c_str());
    return 2;
  }
  if (million_flow) return run_million_flow(metrics_out);

  std::cout << "# 1) admission-decision throughput, FIFO+thresholds (eq. 10)\n";
  const double per_sec = measure_decision_throughput(false).per_sec;
  CsvWriter speed{std::cout,
                  {"concurrent_flows", "decisions", "decisions_per_sec"}};
  speed.row({static_cast<double>(kConcurrentFlows), static_cast<double>(kDecisions),
             per_sec});
  std::cout << "\n";

  std::cout << "# 2) per-flow state under churn (bytes)\n";
  CsvWriter state{std::cout, {"structure", "bytes_per_flow"}};
  state.row({"fifo_bm_flow_table", std::to_string(admission::FlowTable::bytes_per_flow())});
  state.row({"flow_class_registry_per_class",
             std::to_string(admission::FlowClassRegistry::bytes_per_class())});
  state.row({"wfq_per_class_state", std::to_string(WfqScheduler::kPerClassStateBytes)});
  state.row({"wfq_per_queued_packet", std::to_string(WfqScheduler::kPerPacketStateBytes)});
  std::cout << "\n";

  std::cout << "# 3) Poisson churn (lambda=150/s, 1/mu=0.5s) on 48 Mb/s, 1 MB buffer\n";
  CsvWriter churn{std::cout,
                  {"scheme", "blocking", "utilization", "mean_active",
                   "conformant_drops", "nonconformant_drops"}};
  std::uint64_t churn_violations = 0;
  for (ChurnScheme scheme :
       {ChurnScheme::kFifoThreshold, ChurnScheme::kFifoSharing, ChurnScheme::kWfq}) {
    ChurnConfig config{
        .link_rate = Rate::megabits_per_second(48.0),
        .buffer = ByteSize::megabytes(1.0),
        .scheme = scheme,
        .max_flows = 256,
        .churn = {.arrival_rate_hz = 150.0,
                  .mean_holding = Time::milliseconds(500),
                  .mix = {{.profile = {.peak_rate = Rate::megabits_per_second(8.0),
                                       .avg_rate = Rate::megabits_per_second(1.0),
                                       .bucket = ByteSize::kilobytes(16.0),
                                       .token_rate = Rate::megabits_per_second(1.0),
                                       .mean_burst = ByteSize::kilobytes(16.0),
                                       .regulated = true},
                           .weight = 1.0}}},
        .warmup = Time::seconds(2),
        .duration = Time::seconds(10),
        .seed = 7,
    };
    const ChurnResult r = run_churn_experiment(config);
    churn.row({scheme_name(scheme), format_double(r.blocking_probability),
               format_double(r.utilization), format_double(r.mean_active_flows),
               std::to_string(r.counters.conformant_drops),
               std::to_string(r.counters.nonconformant_drops)});
    churn_violations += r.check_violations;
  }

  std::cout << "\n# 4) metrics overhead: view 1 with live obs handles\n";
  const DecisionMeasurement instrumented = measure_decision_throughput(true);
  const double overhead = per_sec / instrumented.per_sec;
  CsvWriter overhead_csv{std::cout, {"decisions_per_sec_base", "decisions_per_sec_metrics",
                                    "overhead_ratio"}};
  overhead_csv.row({per_sec, instrumented.per_sec, overhead});

  if (!metrics_out.empty()) {
    obs::BenchReport report;
    report.bench = "bench_admission_churn";
    report.snapshot = instrumented.metrics;
    report.derived["decisions_per_sec"] = per_sec;
    report.derived["decisions_per_sec_metrics_on"] = instrumented.per_sec;
    report.derived["metrics_overhead_ratio"] = overhead;
    try {
      obs::write_bench_json_file(metrics_out, report);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", metrics_out.c_str());
  }

  if (churn_violations > 0) {
    std::fprintf(stderr, "FAIL: %llu invariant violations in the churn runs\n",
                 static_cast<unsigned long long>(churn_violations));
    return 1;
  }
  if (per_sec < kRequiredDecisionsPerSec) {
    std::fprintf(stderr, "FAIL: %.0f decisions/sec < required %.0f\n", per_sec,
                 kRequiredDecisionsPerSec);
    return 1;
  }
  if (instrumented.per_sec < kRequiredDecisionsPerSec) {
    std::fprintf(stderr, "FAIL: %.0f instrumented decisions/sec < required %.0f\n",
                 instrumented.per_sec, kRequiredDecisionsPerSec);
    return 1;
  }
  if (overhead > 2.0) {
    std::fprintf(stderr, "FAIL: metrics overhead %.2fx > allowed 2.00x\n", overhead);
    return 1;
  }
  return 0;
}
