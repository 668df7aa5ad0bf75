// Rate-based AIMD source: a minimal model of an *adaptive* (TCP-friendly)
// flow, the class of traffic the paper's Section 5 proposes to treat
// preferentially in the sharing model ("allowing adaptive flows to share
// buffers with reserved flows, while non-adaptive ones would be
// prevented").
//
// The source paces packets at a current rate.  Once per RTT it reacts to
// feedback: if any of its packets were dropped since the last epoch it
// multiplies its rate by `multiplicative_decrease`; otherwise it adds
// `additive_increase`.  Drop feedback is wired from the queue
// discipline's drop handler via `on_loss()` — an idealized instantaneous
// congestion signal, which is all the buffer-management experiments need.
#pragma once

#include <cstdint>

#include "sim/packet.h"
#include "sim/simulator.h"
#include "traffic/sources.h"
#include "util/units.h"

namespace bufq {

class AimdSource final : public Source {
 public:
  struct Params {
    FlowId flow{0};
    Rate initial_rate;
    /// The rate never decays below this floor (e.g. the flow's
    /// reservation) nor grows above the ceiling.
    Rate floor_rate;
    Rate ceiling_rate;
    Rate additive_increase;  ///< added per loss-free RTT
    double multiplicative_decrease{0.5};
    Time rtt{Time::milliseconds(20)};
    std::int64_t packet_bytes{500};
  };

  AimdSource(Simulator& sim, PacketSink& sink, Params params);

  void start() override;

  /// Congestion feedback: one of this flow's packets was dropped.  Takes
  /// effect at the next RTT epoch (at most one decrease per RTT).
  void on_loss() { loss_in_epoch_ = true; }

  [[nodiscard]] Rate current_rate() const { return rate_; }
  [[nodiscard]] std::uint64_t decreases() const { return decreases_; }

  /// Checkpointable: rate/loss state plus *both* pending events (the
  /// emission tick and the RTT epoch), each re-armed at its saved
  /// (time, seq).
  void save_state(CheckpointWriter& w) const override;
  void restore_state(CheckpointReader& r) override;

 private:
  void emit_packet();
  void epoch();

  Simulator& sim_;
  PacketSink& sink_;
  Params params_;
  Rate rate_;
  bool loss_in_epoch_{false};
  std::uint64_t decreases_{0};
  std::uint64_t next_seq_{0};
  bool started_{false};
  Time next_emit_{Time::zero()};
  std::uint64_t emit_seq_{0};
  Time next_epoch_{Time::zero()};
  std::uint64_t epoch_seq_{0};
};

}  // namespace bufq
