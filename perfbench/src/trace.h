// Outside-in tracing for the per-layer ledger.
//
// The traced run rebuilds each workload's pipeline from the library's
// public classes, in the same order the library's own engines build it (so
// every event gets the same sequence number and the run reproduces the
// untraced digest), and wraps the calls that cross a layer boundary in
// spans: PacketSink::accept, QueueDiscipline::enqueue/dequeue,
// BufferManager::try_admit/release, Simulator::run_until in slices,
// build_fabric_scenario, the Fabric constructor and Fabric::ingress.
//
// A span's self time is its duration minus the spans it encloses.  The
// tracer calibrates what one span costs its parent and charges that to a
// separate `trace` bucket, so the self times of every layer plus that
// bucket add up exactly to the time covered by the outermost spans.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "expt/churn_experiment.h"
#include "expt/experiment.h"
#include "fabric/scenario.h"
#include "obs/metrics.h"
#include "workloads.h"

namespace perfbench {

enum class SpanKind : std::uint8_t {
  kRun,          ///< one traced run, outermost (expt)
  kSetup,        ///< pipeline construction (expt)
  kCollect,      ///< result assembly (expt)
  kSimSlice,     ///< Simulator::run_until over one slice (sim)
  kShaper,       ///< LeakyBucketShaper::accept (traffic)
  kStatsIngress, ///< offered-traffic tap + Link::accept (stats)
  kStatsRecord,  ///< delivery and drop accounting (stats)
  kEnqueue,      ///< QueueDiscipline::enqueue (sched)
  kDequeue,      ///< QueueDiscipline::dequeue (sched)
  kAdmit,        ///< BufferManager::try_admit (core)
  kRelease,      ///< BufferManager::release (core)
  kNetIngress,   ///< Fabric::ingress(flow).accept: tap, routing, first port (net)
  kFabricPlan,   ///< build_fabric_scenario (fabric)
  kFabricBuild,  ///< the Fabric constructor (fabric)
  kObsSnapshot,  ///< MetricsRegistry::snapshot + RegistrySnapshot::merge (obs)
  kCount
};

/// The module a span's self time is charged to.
[[nodiscard]] std::string_view layer_of(SpanKind kind);

/// Layers of the ledger, in report order; the tracer's own cost is the
/// extra `trace` row.
inline constexpr std::string_view kLedgerLayers[] = {
    "sim", "traffic", "sched", "core", "stats", "net", "fabric", "expt", "obs"};

/// Collects the spans of pipelines built on one thread.  Traced pipelines
/// are single-threaded by construction, so the tracer takes no locks.
class Tracer {
 public:
  /// Calibrates the clock cost of a span.
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The tracer spans record into, or null when tracing is off.
  [[nodiscard]] static Tracer* active() { return active_; }

  /// Makes `tracer` the active one for the scope's lifetime.
  class Scope {
   public:
    explicit Scope(Tracer& tracer) : previous_{active_} { active_ = &tracer; }
    ~Scope() { active_ = previous_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* previous_;
  };

  void begin(SpanKind kind);
  void end();

  [[nodiscard]] std::int64_t self_ns(SpanKind kind) const { return self_[index(kind)]; }
  [[nodiscard]] std::int64_t total_ns(SpanKind kind) const { return total_[index(kind)]; }
  [[nodiscard]] std::uint64_t count(SpanKind kind) const { return count_[index(kind)]; }
  [[nodiscard]] std::int64_t layer_self_ns(std::string_view layer) const;
  /// Time covered by outermost spans.
  [[nodiscard]] std::int64_t top_ns() const { return top_; }
  /// Clock reads and bookkeeping charged to tracing itself.
  [[nodiscard]] std::int64_t trace_ns() const { return trace_; }

  // Outcome tallies taken at the same boundaries as the spans.
  std::uint64_t admits_ok{0};
  std::uint64_t enqueues_refused{0};
  std::int64_t fabric_build_rss_bytes{0};

 private:
  static constexpr std::size_t kKinds = static_cast<std::size_t>(SpanKind::kCount);
  static std::size_t index(SpanKind kind) { return static_cast<std::size_t>(kind); }

  struct Frame {
    SpanKind kind;
    std::int64_t start;
    std::int64_t child;
  };

  inline static Tracer* active_ = nullptr;
  std::vector<Frame> stack_;
  std::array<std::int64_t, kKinds> self_{};
  std::array<std::int64_t, kKinds> total_{};
  std::array<std::uint64_t, kKinds> count_{};
  std::int64_t top_{0};
  std::int64_t trace_{0};
  /// What an empty span measures of itself, and what it costs its parent
  /// beyond that.
  std::int64_t inner_cost_{0};
  std::int64_t outer_cost_{0};
};

/// RAII span on the active tracer; free when tracing is off.
class Span {
 public:
  explicit Span(SpanKind kind) : tracer_{Tracer::active()} {
    if (tracer_ != nullptr) tracer_->begin(kind);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

/// One traced (or, with no active tracer, span-free) pipeline run.
struct TracedRun {
  RunOutput output;
  /// The run's registry, empty when built without metrics.
  bufq::obs::RegistrySnapshot metrics;
  /// Packets the sources handed to the network over the whole run.
  std::uint64_t offered_packets{0};
};

/// run_experiment's pipeline (ExperimentEngine), rebuilt with spans;
/// `metrics_on` = false builds it without a ScopedMetrics.
[[nodiscard]] TracedRun traced_experiment(const bufq::ExperimentConfig& config,
                                          bool metrics_on);
/// run_fabric_experiment's serial pipeline (FabricEngine), rebuilt with
/// spans.  Host-pair shapes only (leaf-spine, fat tree, WAN ring).
[[nodiscard]] TracedRun traced_fabric(const bufq::fabric::FabricConfig& config,
                                      bool metrics_on);
/// run_churn_experiment's FIFO + thresholds pipeline, rebuilt with spans.
[[nodiscard]] TracedRun traced_churn(const bufq::ChurnConfig& config, bool metrics_on);

}  // namespace perfbench
