// Parallel sweep engine.  Every figure of the paper is a grid of mutually
// independent simulation runs; this module fans a vector of SweepCases
// (config points) times k replications out as one parallel_for batch and
// folds the runs back into one SweepRow per case, with mean / stddev /
// 95% CI columns per metric.
//
// Determinism contract: run (case p, replication r) is seeded with
// SeedSequence(base_seed).derive(p, r) (or .derive(r) under
// kSharedAcrossCases), and every run writes into its own pre-sized result
// slot.  Seeds therefore depend only on indices — never on thread count
// or scheduling order — so a sweep's rows (and the CSV serialization
// below) are bit-identical at --jobs 1, 2, or 8.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "expt/experiment.h"
#include "stats/collector.h"
#include "stats/replication.h"

namespace bufq {

/// One grid point: a labeled ExperimentConfig plus the parameter columns
/// echoed into the result row.  The config's `seed` field is ignored —
/// the engine derives every run's seed itself.
struct SweepCase {
  std::string label;
  /// (column name, value) pairs echoed verbatim into the row/CSV, e.g.
  /// {"buffer_mb", "0.5"}.  All cases of one sweep must use the same keys.
  std::vector<std::pair<std::string, std::string>> params;
  ExperimentConfig config;
  /// Custom run function.  When set, the engine calls it with the derived
  /// seed instead of run_experiment(config) — `config` is then unused.
  /// Lets non-single-multiplexer pipelines (the fabric scenarios) ride the
  /// same engine; the determinism contract is unchanged as long as the
  /// runner's result depends only on the seed.  Must be thread safe across
  /// concurrent invocations (called from pool workers).  Such a case fails
  /// its runs loudly under an active checkpoint policy rather than
  /// silently skipping the snapshot.
  std::function<ExperimentResult(std::uint64_t seed)> runner;
};

/// How replication sub-seeds relate across cases.
enum class SeedMode {
  /// Seed from (case index, replication): every run independent.
  kIndependent,
  /// Seed from the replication index only: all cases see the same k seeds
  /// (common random numbers), which sharpens scheme-vs-scheme comparisons
  /// at a fixed replication budget.  The figure benches use this, matching
  /// the pre-engine methodology of reusing one seed set per point.
  kSharedAcrossCases,
};

/// Thread-safe progress snapshot passed to the reporter.
struct SweepProgress {
  std::size_t completed{0};
  std::size_t total{0};
  double elapsed_s{0.0};
  /// Simple extrapolation; 0 until the first run completes.
  double eta_s{0.0};
};

/// Engine knobs: parallelism, replication count, and the seed policy.
struct SweepOptions {
  /// Worker threads; <= 1 runs inline on the calling thread (the serial
  /// reference the CI speedup guard compares against).
  std::size_t jobs{1};
  /// Runs per case; > 1 populates the stddev / CI columns.
  std::size_t replications{1};
  /// Root of the SeedSequence tree every run seed derives from.
  std::uint64_t base_seed{1};
  /// See SeedMode; kIndependent unless a bench opts into common random
  /// numbers.
  SeedMode seed_mode{SeedMode::kIndependent};
  /// When set, a progress/ETA line is written here after every completed
  /// run (throttled to one update per ~200 ms, plus the final one).
  /// Progress goes to a terminal, never into the CSV, so it does not
  /// perturb the bit-identical output contract.
  std::ostream* progress{nullptr};
  /// Checkpoint policy, kOff by default: every (case, replication) run
  /// snapshots (or restores) per its mode, with `path` the directory of
  /// the runs' files.  File names derive from the case and replication
  /// indices, so kWrite then kRead across two sweeps of the same grid pair
  /// up naturally.
  CheckpointRequest checkpoint;
};

/// One case folded over its replications.
struct SweepRow {
  std::size_t index{0};  ///< position in the input case vector
  std::string label;
  std::vector<std::pair<std::string, std::string>> params;
  /// Sub-seed of each replication, in replication order.
  std::vector<std::uint64_t> seeds;
  /// Per-replication metric samples (replication order), then summaries.
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, Summary> metrics;
  /// Per-flow counters summed over the replications (flow-indexed; sized
  /// to the widest replication, shorter ones zero-padded).
  std::vector<FlowCounters> per_flow;
  /// Invariant-checker tallies summed over the replications.
  std::uint64_t checks_run{0};
  std::uint64_t check_violations{0};
  /// Observability registry folded (RegistrySnapshot::merge) over the
  /// replications — see ExperimentResult::metrics.  Deliberately NOT
  /// serialized by write_sweep_csv: its wall-clock component (sim.wall_ns)
  /// would break the bit-identical CSV contract.
  obs::RegistrySnapshot obs_metrics;
  /// First exception message if any replication threw; such a row keeps
  /// the metrics of its surviving replications.
  std::string error;
};

/// Everything a sweep produced, in case order.
struct SweepResult {
  std::vector<SweepRow> rows;  ///< one per case, in input order
  std::size_t jobs{1};         ///< worker count the sweep actually used
  std::size_t replications{1};  ///< runs per case
  /// Wall-clock of the whole sweep (reporting only — not serialized).
  double elapsed_s{0.0};

  /// True when no replication of any case threw.
  [[nodiscard]] bool ok() const;
};

/// Maps a finished run to named metric values.  All runs of a sweep must
/// produce the same key set.
using MetricExtractor = std::function<std::map<std::string, double>(const ExperimentResult&)>;

/// Runs the grid.  Exceptions inside runs are contained to their row
/// (error column); the pool always drains.
[[nodiscard]] SweepResult run_sweep(std::vector<SweepCase> cases,
                                    const MetricExtractor& extract,
                                    const SweepOptions& options);

/// Serializes rows through util/csv.h: case/label + the param echo columns
/// + <metric>_mean/_stddev/_ci95 per metric (sorted by name) + offered/
/// delivered/dropped byte totals + replications/violations/error.
/// Deterministic for a fixed seed regardless of SweepOptions::jobs.
void write_sweep_csv(std::ostream& out, const SweepResult& result);

}  // namespace bufq
