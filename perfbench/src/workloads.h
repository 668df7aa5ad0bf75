// The benchmark's workloads: their configurations, one closed-loop round
// of each through the library's public entry points (run_sweep,
// run_fabric_experiment, run_churn_experiment), and the output digest and
// guarantee checks every round is held to.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "admission/churn_driver.h"
#include "expt/churn_experiment.h"
#include "expt/experiment.h"
#include "fabric/scenario.h"
#include "obs/metrics.h"
#include "stats/collector.h"

namespace perfbench {

enum class Kind { kPaperSweep, kLeafSpine, kLeafSpineSharded, kChurn };

/// Throws std::invalid_argument for a name outside util.h's kWorkloads.
[[nodiscard]] Kind kind_of(std::string_view workload);

/// The scenario whose reference digest a workload must reproduce: the
/// sharded leaf-spine must reproduce the serial one.
[[nodiscard]] const char* scenario_of(Kind kind);

/// Shard count leaf_spine_sharded runs at unless --shards says otherwise.
inline constexpr int kDefaultShards = 4;

/// What one output unit produced (a sweep case folded over its
/// replications, one fabric run, one churn run), reduced to what the
/// digest and the guarantee checks read.
struct RunOutput {
  std::vector<bufq::FlowCounters> per_flow;
  std::uint64_t check_violations{0};
  /// Fabric: the egress audit and the event count.  Churn: the
  /// ChurnResult counters.
  std::vector<std::uint64_t> extra;
  /// Flows whose loss breaks the scheme's guarantee.
  std::vector<bufq::FlowId> lossless;
  /// Churn: drops of admitted conformant flows.
  std::uint64_t conformant_drops{0};
  std::string error;
};

/// Order-sensitive FNV-1a digest of every counter in `outputs`.
[[nodiscard]] std::uint64_t digest_of(const std::vector<RunOutput>& outputs);

/// The first broken guarantee in `outputs` (an error, an invariant
/// violation, a lost packet of a protected flow, a conformant churn drop),
/// or "" when every guarantee held.
[[nodiscard]] std::string guarantee_failure(const std::vector<RunOutput>& outputs);

void accumulate(std::vector<bufq::FlowCounters>& into,
                const std::vector<bufq::FlowCounters>& from);

/// The ChurnResult counters a churn digest covers, in a fixed order.
[[nodiscard]] std::vector<std::uint64_t> churn_words(
    const bufq::admission::ChurnDriver::Counters& counters, std::size_t active_at_end);

/// A counter of `snapshot`, 0 when it was never recorded.
[[nodiscard]] std::uint64_t counter_of(const bufq::obs::RegistrySnapshot& snapshot,
                                       const std::string& name);

/// The workload's own horizon, or one cut to 2 us so that only set-up,
/// teardown and result assembly remain (how setup_s is measured).
enum class Horizon { kFull, kSetupOnly };

/// One case of the paper_sweep grid.
struct PaperCase {
  std::string label;
  bufq::ExperimentConfig config;
  /// FIFO + thresholds with a buffer meeting eq. 10: Proposition 2 makes
  /// every conformant flow lossless.
  bool lossless{false};
};

inline constexpr std::size_t kPaperReplications = 5;

[[nodiscard]] std::vector<PaperCase> paper_grid(Horizon horizon);
[[nodiscard]] bufq::fabric::FabricConfig leaf_spine_config(std::uint64_t seed, int shards,
                                                           Horizon horizon);
[[nodiscard]] bufq::ChurnConfig churn_config(std::uint64_t seed, Horizon horizon);

/// One closed-loop round of a workload.
struct Round {
  std::vector<RunOutput> outputs;
  std::uint64_t digest{0};
  std::size_t runs{0};
  double sim_seconds{0.0};
  double wall_s{0.0};
  double cpu_s{0.0};
  /// Wall time of each library run, in run order.
  std::vector<double> run_ms;
  /// The runs' RegistrySnapshots, merged.
  bufq::obs::RegistrySnapshot metrics;
  /// paper_sweep: the replication seeds of each case, in case order.
  std::vector<std::vector<std::uint64_t>> case_seeds;
  /// churn: the ChurnDriver counters.
  bufq::admission::ChurnDriver::Counters churn;
};

/// Runs one round: paper_sweep's whole grid through run_sweep at jobs=1,
/// or one run_fabric_experiment / run_churn_experiment call.  Errors are
/// caught and recorded in the outputs.  run_churn_experiment installs no
/// metrics registry of its own; `churn_metrics` wraps it in one so its
/// counters can be read.
[[nodiscard]] Round run_round(Kind kind, std::uint64_t seed, int shards, Horizon horizon,
                              bool churn_metrics = false);

[[nodiscard]] double now_seconds();
[[nodiscard]] double process_cpu_seconds();

}  // namespace perfbench
