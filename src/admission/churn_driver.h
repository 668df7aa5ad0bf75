// Poisson flow churn inside the simulator: the missing run-time half of
// the paper's admission story.
//
// Flows arrive as a Poisson process and hold for exponentially
// distributed times (the classic Erlang teletraffic model).  Each arrival
// draws a profile from a weighted mix, is tested by the
// AdmissionController, and — if accepted — gets a FlowTable slot, a
// Markov ON-OFF source (shaped by a leaky bucket when the profile is
// regulated) attached to the multiplexer ingress, and a scheduled
// departure.  Rejected flows are counted by verdict; the blocking
// probability is the headline metric.
//
// Departure is graceful: the source stops, but the flow's reservation and
// slot are held until its shaper and buffer occupancy drain ("draining"
// state), so the Prop-1/2 guarantee keeps covering every queued byte.
// Only then is the reservation released and the slot recycled — an
// over-admitted successor can therefore never squeeze a conformant flow's
// threshold.  Guarantee violations (drops of regulated flows' packets)
// are counted separately and should be zero under threshold schemes.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "admission/admission_controller.h"
#include "admission/flow_table.h"
#include "sim/packet.h"
#include "sim/simulator.h"
#include "traffic/profile.h"
#include "traffic/shaper.h"
#include "traffic/sources.h"
#include "util/rng.h"
#include "util/units.h"

namespace bufq::admission {

class ChurnDriver {
 public:
  /// One entry of the offered flow mix.
  struct MixEntry {
    TrafficProfile profile;
    double weight{1.0};
  };

  struct Config {
    /// Flow arrival rate lambda (flows per simulated second).
    double arrival_rate_hz{100.0};
    /// Mean flow holding time 1/mu.
    Time mean_holding{Time::seconds(1)};
    std::vector<MixEntry> mix;
    /// Hard cap on concurrent slots (e.g. a WFQ scheduler's class count).
    std::size_t max_concurrent{std::numeric_limits<std::size_t>::max()};
  };

  struct Counters {
    std::uint64_t arrivals{0};
    std::uint64_t admitted{0};
    std::uint64_t rejected_bandwidth{0};
    std::uint64_t rejected_buffer{0};
    /// Rejected because max_concurrent slots were in use.
    std::uint64_t rejected_capacity{0};
    /// Holding time expired; the flow entered the draining state.
    std::uint64_t departures{0};
    /// Fully drained: reservation released, slot recycled.
    std::uint64_t reaped{0};
    /// Dropped packets of admitted regulated (conformant) flows — each one
    /// is a violated guarantee.
    std::uint64_t conformant_drops{0};
    /// Dropped packets of admitted unregulated flows — expected, that is
    /// the mechanism containing them.
    std::uint64_t nonconformant_drops{0};

    [[nodiscard]] std::uint64_t rejected() const {
      return rejected_bandwidth + rejected_buffer + rejected_capacity;
    }
    /// Fraction of arrivals refused admission.
    [[nodiscard]] double blocking_probability() const {
      return arrivals > 0 ? static_cast<double>(rejected()) / static_cast<double>(arrivals)
                          : 0.0;
    }
  };

  /// Invoked right after a flow is admitted into `slot`, e.g. to set a
  /// WFQ weight.
  using SlotHook = std::function<void(FlowId slot, const TrafficProfile& profile)>;

  /// The driver schedules events on `sim` and pushes admitted flows'
  /// packets into `ingress` (typically a stats tap in front of the link).
  /// All references must outlive the driver.
  ChurnDriver(Simulator& sim, AdmissionController& controller, FlowTable& table,
              PacketSink& ingress, Config config, Rng rng);
  ~ChurnDriver();

  ChurnDriver(const ChurnDriver&) = delete;
  ChurnDriver& operator=(const ChurnDriver&) = delete;

  void set_admit_hook(SlotHook hook) { on_admit_ = std::move(hook); }

  /// Schedules the first arrival.  Call at most once, before running.
  void start();

  /// Wire this into the queue discipline's drop handler so dropped packets
  /// are attributed to (non)conformant admitted flows.
  void record_drop(const Packet& packet, Time now);

  [[nodiscard]] const Counters& counters() const { return counters_; }
  /// Flows currently holding (admitted, not yet departed).
  [[nodiscard]] std::size_t active_flows() const { return holding_; }
  /// Time average of active_flows() since start().
  [[nodiscard]] double mean_active_flows() const;
  /// Time average of the controller's reserved utilization since start().
  [[nodiscard]] double mean_reserved_utilization() const;

 private:
  struct Slot {
    std::unique_ptr<LeakyBucketShaper> shaper;
    std::unique_ptr<MarkovOnOffSource> source;
    FlowHandle handle;
    FlowSpec spec;
    bool regulated{false};
    bool draining{false};
  };

  void schedule_next_arrival();
  void on_arrival();
  void on_departure(FlowHandle handle);
  void try_reap(FlowHandle handle);
  [[nodiscard]] std::size_t pick_mix_index();
  void advance_integrals();

  Simulator& sim_;
  AdmissionController& controller_;
  FlowTable& table_;
  PacketSink& ingress_;
  Config config_;
  Rng rng_;
  SlotHook on_admit_;
  Counters counters_;
  std::vector<Slot> slots_;
  std::vector<double> mix_cumulative_;
  /// Per-mix-entry interned envelope class: the arrival hot path admits
  /// via FlowTable::admit_class (pure slot recycling, no hashing).
  std::vector<ClassId> mix_class_;
  std::size_t holding_{0};
  bool started_{false};
  // Time integrals for the churn metrics.
  Time start_time_{Time::zero()};
  Time integrals_updated_{Time::zero()};
  double active_integral_{0.0};
  double utilization_integral_{0.0};
};

}  // namespace bufq::admission
