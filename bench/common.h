// Shared infrastructure for the figure-reproduction binaries: common
// command-line options, sweep-engine-backed replication, and the figure
// drivers.  The figure grids themselves live in expt/figures.h so the
// `sweep` example CLI shares them.
#pragma once

#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "expt/experiment.h"
#include "expt/figures.h"
#include "expt/sweep.h"
#include "expt/workloads.h"
#include "stats/replication.h"
#include "util/flags.h"

namespace bufq::bench {

// The scheme helpers moved to expt/figures.h; keep their old names
// reachable from bufq::bench for the non-figure benches.
using bufq::hybrid_figure_schemes;
using bufq::make_scheme;
using bufq::SchemeVariant;
using bufq::sharing_figure_schemes;
using bufq::threshold_figure_schemes;

/// Options every figure binary accepts:
///   --seeds=N          replications (default 5, the paper's count)
///   --replications=N   alias for --seeds
///   --seed=S           base seed (default 1)
///   --warmup=SECS      transient discarded (default 5)
///   --duration=SECS    measured interval (default 20)
///   --buffers=a,b,c    buffer sizes in MB (figure-specific default)
///   --jobs=N           worker threads (default: hardware concurrency);
///                      results are bit-identical at any value
///   --progress         progress/ETA line on stderr
///   --metrics-out=PATH BENCH_*.json perf artifact (obs registry merged
///                      over every run, plus derived events/s); the run
///                      fails loudly (exit 1) if PATH is unwritable
///   --checkpoint-out=DIR   snapshot every run mid-flight into DIR
///                          (warm-start producer; see sim/checkpoint.h)
///   --checkpoint-in=DIR    restore every run from DIR instead of
///                          replaying the warmup (warm-start consumer)
///   --checkpoint-roundtrip snapshot + restore in-process and report the
///                          resumed results — output must stay
///                          byte-identical to a plain run
///   --checkpoint-events=N  snapshot after N dispatched events
///   --checkpoint-at=SECS   snapshot at simulated time SECS (default:
///                          end of warmup)
/// The three mode flags are mutually exclusive, and the two trigger flags
/// need --checkpoint-out or --checkpoint-roundtrip.
struct BenchOptions {
  std::size_t seeds{5};
  std::uint64_t base_seed{1};
  Time warmup{Time::seconds(5)};
  Time duration{Time::seconds(20)};
  std::vector<double> buffers_mb;
  std::size_t jobs{0};  ///< 0 = hardware concurrency
  bool progress{false};
  std::string metrics_out;  ///< empty = no metrics artifact
  CheckpointRequest checkpoint;
};

/// Parses options; exits 2 with a message on malformed or unknown flags.
BenchOptions parse_options(int argc, const char* const* argv,
                           std::vector<double> default_buffers_mb);

/// For a bench whose runs are its own pipelines, which the checkpoint
/// layer cannot snapshot: exits 2, before anything is printed, when a
/// --checkpoint-* mode flag was given.
void refuse_checkpoints(const BenchOptions& options);

/// The sweep options a bench derives from its BenchOptions: --jobs (0 =
/// hardware concurrency), --seeds replications under --seed with common
/// random numbers (SeedMode::kSharedAcrossCases), --progress and the
/// checkpoint policy.
SweepOptions sweep_options(const BenchOptions& options);

/// Prints every failed row's error, and every row's invariant-violation
/// count when it is non-zero, on stderr; returns the process exit code (0
/// when every run succeeded without a violation, 1 otherwise).
int report_sweep_errors(const SweepResult& result);

/// Runs `seeds` replications of `config` (varying only the seed) through
/// the sweep engine and summarizes each metric produced by `extract`.
/// Replication sub-seeds come from SeedSequence(base_seed).derive(r), so
/// the result is independent of `jobs`.
std::map<std::string, Summary> replicate(
    ExperimentConfig config, const BenchOptions& options,
    const std::function<std::map<std::string, double>(const ExperimentResult&)>& extract);

/// Prints the workload tables so every figure binary is self-describing.
void print_table1(std::ostream& out);
void print_table2(std::ostream& out);

/// Prints a figure banner with run parameters.  Deliberately excludes
/// --jobs so the full output stream stays byte-identical across thread
/// counts (jobs info goes to stderr).
void print_banner(std::ostream& out, const std::string& figure, const std::string& what,
                  const BenchOptions& options);

/// The whole main() of a bench_fig* binary: parses options with the
/// figure's default buffer grid, prints banner (+ workload table where the
/// figure calls for it) and the CSV series to stdout, runs the grid x
/// seeds sweep with parallel_for, and reports run failures on stderr.
/// Returns the process exit code.
int run_figure_main(int figure, int argc, const char* const* argv);

}  // namespace bufq::bench
