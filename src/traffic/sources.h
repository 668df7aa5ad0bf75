// Traffic sources.  Every source is started explicitly, schedules its own
// events on the simulator, and pushes packets into a PacketSink (a shaper,
// a stats tap, or a link ingress directly).
//
// The workhorse is the Markov-modulated ON-OFF source the paper simulates:
// exponential ON and OFF holding times; while ON it emits maximum-size
// packets back-to-back at its peak rate.  The mean burst (bytes emitted
// per ON period) and mean rate determine the two holding-time means:
//
//   mean_on  = mean_burst * 8 / peak_rate
//   duty     = avg_rate / peak_rate
//   mean_off = mean_on * (1 - duty) / duty
#pragma once

#include <cstdint>

#include "sim/packet.h"
#include "sim/simulator.h"
#include "traffic/profile.h"
#include "util/rng.h"
#include "util/units.h"

namespace bufq {

class CheckpointReader;
class CheckpointWriter;

class Source {
 public:
  virtual ~Source() = default;
  /// Begins emitting.  Must be called at most once.
  virtual void start() = 0;

  /// Checkpointable: counters, RNG stream, and the one pending emission
  /// event (time, seq); restore re-arms it so replay is bit-identical.
  virtual void save_state(CheckpointWriter& w) const = 0;
  virtual void restore_state(CheckpointReader& r) = 0;

  /// Stops emitting: no further packets and no further events are
  /// scheduled.  At most one already-scheduled event may still fire (as a
  /// no-op); the source must stay alive until it has.  Used by the churn
  /// driver to tear flows down mid-run.  Default: no-op for sources that
  /// are never churned.
  virtual void stop() {}

  [[nodiscard]] virtual std::int64_t bytes_emitted() const = 0;
  [[nodiscard]] virtual std::uint64_t packets_emitted() const = 0;
};

/// How ON-period lengths (burst sizes) are drawn.
enum class BurstDistribution {
  kExponential,  ///< the paper's Markov-modulated model
  kPareto,       ///< heavy-tailed bursts, for robustness experiments
  kDeterministic ///< fixed-length bursts
};

/// Markov-modulated ON-OFF source (Section 3.2 of the paper).  OFF
/// periods are always exponential; the ON-period law is configurable.
class MarkovOnOffSource : public Source {
 public:
  struct Params {
    FlowId flow{0};
    Rate peak_rate;
    Time mean_on;
    Time mean_off;
    std::int64_t packet_bytes{500};
    BurstDistribution on_distribution{BurstDistribution::kExponential};
    /// Tail index for kPareto (must be > 1; smaller = heavier tail).
    double pareto_shape{1.5};
  };

  MarkovOnOffSource(Simulator& sim, PacketSink& sink, Params params, Rng rng);

  /// Builds the source from a Table-1-style profile (peak rate, average
  /// rate, mean burst size).
  static Params params_from_profile(FlowId flow, const TrafficProfile& profile,
                                    std::int64_t packet_bytes = 500);

  void start() override;
  void stop() override;

  /// Simulated time after which the source is guaranteed inert: its last
  /// scheduled event has fired.  Only meaningful after stop(); the churn
  /// driver waits for this before destroying the object.
  [[nodiscard]] Time quiescent_after() const { return next_event_; }

  [[nodiscard]] std::int64_t bytes_emitted() const override { return bytes_emitted_; }
  [[nodiscard]] std::uint64_t packets_emitted() const override { return packets_emitted_; }

  void save_state(CheckpointWriter& w) const override;
  void restore_state(CheckpointReader& r) override;

 private:
  /// Which member function the outstanding event will invoke.  Closures
  /// cannot be serialized, so the checkpoint records this tag and restore
  /// re-schedules the same transition at the saved (time, seq).
  enum class Pending : std::uint8_t { kNone = 0, kBeginOn = 1, kEmit = 2 };

  void begin_on_period();
  void emit_packet();
  void schedule(Time delay, void (MarkovOnOffSource::*next)());

  Simulator& sim_;
  PacketSink& sink_;
  Params params_;
  Rng rng_;
  Time on_ends_{Time::zero()};
  Time packet_gap_{Time::zero()};
  Time next_event_{Time::zero()};
  std::uint64_t next_seq_{0};
  std::int64_t bytes_emitted_{0};
  std::uint64_t packets_emitted_{0};
  bool started_{false};
  bool stopped_{false};
  Pending pending_{Pending::kNone};
  std::uint64_t pending_seq_{0};
};

/// Constant bit rate source: fixed-size packets at exact intervals.  Run
/// far above the link rate it is the greedy adversary of Example 1: with
/// buffer management in place its backlog pins at its threshold.
class CbrSource : public Source {
 public:
  CbrSource(Simulator& sim, PacketSink& sink, FlowId flow, Rate rate,
            std::int64_t packet_bytes = 500);

  void start() override;

  [[nodiscard]] std::int64_t bytes_emitted() const override { return bytes_emitted_; }
  [[nodiscard]] std::uint64_t packets_emitted() const override { return packets_emitted_; }

  void save_state(CheckpointWriter& w) const override;
  void restore_state(CheckpointReader& r) override;

 private:
  void emit_packet();

  Simulator& sim_;
  PacketSink& sink_;
  FlowId flow_;
  Time interval_;
  std::int64_t packet_bytes_;
  std::uint64_t next_seq_{0};
  std::int64_t bytes_emitted_{0};
  std::uint64_t packets_emitted_{0};
  bool started_{false};
  Time next_emit_{Time::zero()};
  std::uint64_t pending_seq_{0};
};

}  // namespace bufq
