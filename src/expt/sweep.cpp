#include "expt/sweep.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <exception>
#include <mutex>
#include <set>
#include <stdexcept>
#include <utility>

#include "util/annotations.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/task_pool.h"

namespace bufq {
namespace {

/// Result slot of one (case, replication) run.  Pre-sized before the pool
/// starts, written by exactly one task, read only after wait_idle() — the
/// slot array is what makes the output independent of scheduling.
struct RunSlot {
  std::uint64_t seed{0};
  std::map<std::string, double> metrics;
  std::vector<FlowCounters> per_flow;
  std::uint64_t checks_run{0};
  std::uint64_t check_violations{0};
  obs::RegistrySnapshot obs_metrics;
  std::string error;
  bool ok{false};
};

/// CSV cells must stay one-column: fold separators out of error text.
std::string sanitize_cell(std::string text) {
  for (char& c : text) {
    if (c == ',' || c == '\n' || c == '\r') c = ';';
  }
  return text;
}

BUFQ_LINT_SUPPRESS("determinism-wall-clock", "progress/ETA display only; never feeds a result CSV");
double seconds_since(std::chrono::steady_clock::time_point start) {
  BUFQ_LINT_SUPPRESS("determinism-wall-clock", "progress/ETA display only; never feeds a result CSV");
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

bool SweepResult::ok() const {
  return std::all_of(rows.begin(), rows.end(),
                     [](const SweepRow& row) { return row.error.empty(); });
}

SweepResult run_sweep(std::vector<SweepCase> cases, const MetricExtractor& extract,
                      const SweepOptions& options) {
  const std::size_t replications = std::max<std::size_t>(options.replications, 1);
  const std::size_t total = cases.size() * replications;
  const SeedSequence seq{options.base_seed};
  BUFQ_LINT_SUPPRESS("determinism-wall-clock", "progress/ETA display only; never feeds a result CSV");
  const auto start = std::chrono::steady_clock::now();

  std::vector<RunSlot> slots(total);
  std::atomic<std::size_t> completed{0};
  std::mutex progress_mu;
  auto last_report = start;

  auto report_progress = [&](bool final) {
    if (options.progress == nullptr) return;
    const std::lock_guard<std::mutex> lock{progress_mu};
    BUFQ_LINT_SUPPRESS("determinism-wall-clock", "progress/ETA display only; never feeds a result CSV");
    const auto now = std::chrono::steady_clock::now();
    if (!final && now - last_report < std::chrono::milliseconds(200)) return;
    last_report = now;
    SweepProgress p;
    p.completed = completed.load(std::memory_order_relaxed);
    p.total = total;
    p.elapsed_s = seconds_since(start);
    p.eta_s = p.completed > 0 ? p.elapsed_s / static_cast<double>(p.completed) *
                                    static_cast<double>(p.total - p.completed)
                              : 0.0;
    (*options.progress) << "\r[sweep] " << p.completed << "/" << p.total << " runs  elapsed "
                        << format_double(p.elapsed_s) << "s  eta " << format_double(p.eta_s)
                        << "s" << (final ? "\n" : "") << std::flush;
  };

  auto run_one = [&](std::size_t case_index, std::size_t replication) {
    RunSlot& slot = slots[case_index * replications + replication];
    slot.seed = options.seed_mode == SeedMode::kSharedAcrossCases
                    ? seq.derive(replication)
                    : seq.derive(case_index, replication);
    CheckpointRequest request = options.checkpoint;
    if (request.mode == CheckpointMode::kWrite || request.mode == CheckpointMode::kRead) {
      request.path += "/ckpt_case" + std::to_string(case_index) + "_rep" +
                      std::to_string(replication) + ".bufq";
    }
    try {
      ExperimentResult result;
      const SweepCase& item = cases[case_index];
      if (item.runner) {
        if (request.mode != CheckpointMode::kOff) {
          throw std::runtime_error("case '" + item.label +
                                   "' has a custom runner without checkpoint support");
        }
        result = item.runner(slot.seed);
      } else {
        ExperimentConfig config = item.config;
        config.seed = slot.seed;
        result = run_experiment(config, request);
      }
      slot.metrics = extract(result);
      slot.per_flow = result.per_flow;
      slot.checks_run = result.checks_run;
      slot.check_violations = result.check_violations;
      slot.obs_metrics = std::move(result.metrics);
      slot.ok = true;
    } catch (const std::exception& e) {
      slot.error = e.what();
    } catch (...) {
      slot.error = "unknown exception";
    }
    completed.fetch_add(1, std::memory_order_relaxed);
    report_progress(false);
  };

  parallel_for(total, options.jobs,
               [&](std::size_t i) { run_one(i / replications, i % replications); });
  report_progress(true);

  SweepResult result;
  result.jobs = std::max<std::size_t>(options.jobs, 1);
  result.replications = replications;
  result.rows.reserve(cases.size());
  for (std::size_t c = 0; c < cases.size(); ++c) {
    SweepRow row;
    row.index = c;
    row.label = std::move(cases[c].label);
    row.params = std::move(cases[c].params);
    row.seeds.reserve(replications);
    for (std::size_t r = 0; r < replications; ++r) {
      const RunSlot& slot = slots[c * replications + r];
      row.seeds.push_back(slot.seed);
      if (!slot.ok) {
        if (row.error.empty()) row.error = slot.error;
        continue;
      }
      for (const auto& [name, value] : slot.metrics) row.samples[name].push_back(value);
      // Replications of a case share its flows.
      if (row.per_flow.empty()) row.per_flow.resize(slot.per_flow.size());
      assert(row.per_flow.size() == slot.per_flow.size());
      for (std::size_t f = 0; f < slot.per_flow.size(); ++f) row.per_flow[f] += slot.per_flow[f];
      row.checks_run += slot.checks_run;
      row.check_violations += slot.check_violations;
      row.obs_metrics.merge(slot.obs_metrics);
    }
    std::size_t succeeded = 0;
    for (std::size_t r = 0; r < replications; ++r) {
      if (slots[c * replications + r].ok) ++succeeded;
    }
    for (const auto& [name, samples] : row.samples) {
      if (samples.size() != succeeded && row.error.empty()) {
        row.error = "metric '" + name + "' missing from some replications";
      }
      row.metrics[name] = summarize(samples);
    }
    result.rows.push_back(std::move(row));
  }
  result.elapsed_s = seconds_since(start);
  return result;
}

void write_sweep_csv(std::ostream& out, const SweepResult& result) {
  std::vector<std::string> header{"case", "label"};
  if (!result.rows.empty()) {
    for (const auto& [key, value] : result.rows.front().params) header.push_back(key);
  }
  std::set<std::string> metric_names;
  for (const SweepRow& row : result.rows) {
    for (const auto& [name, summary] : row.metrics) metric_names.insert(name);
  }
  for (const std::string& name : metric_names) {
    header.push_back(name + "_mean");
    header.push_back(name + "_stddev");
    header.push_back(name + "_ci95");
  }
  header.insert(header.end(), {"replications", "offered_bytes", "delivered_bytes",
                               "dropped_bytes", "violations", "error"});

  CsvWriter csv{out, std::move(header)};
  for (const SweepRow& row : result.rows) {
    std::vector<std::string> cells{std::to_string(row.index), row.label};
    for (const auto& [key, value] : row.params) cells.push_back(value);
    for (const std::string& name : metric_names) {
      const auto it = row.metrics.find(name);
      if (it == row.metrics.end()) {
        cells.insert(cells.end(), {"", "", ""});
      } else {
        cells.push_back(format_double(it->second.mean));
        cells.push_back(format_double(it->second.stddev));
        cells.push_back(format_double(it->second.ci95));
      }
    }
    FlowCounters totals;
    for (const FlowCounters& c : row.per_flow) totals += c;
    cells.push_back(std::to_string(row.seeds.size()));
    cells.push_back(std::to_string(totals.offered_bytes));
    cells.push_back(std::to_string(totals.delivered_bytes));
    cells.push_back(std::to_string(totals.dropped_bytes));
    cells.push_back(std::to_string(row.check_violations));
    cells.push_back(sanitize_cell(row.error));
    csv.row(cells);
  }
}

}  // namespace bufq
