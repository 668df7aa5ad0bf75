// Output link: serves a QueueDiscipline at a constant bit rate.
//
// The link is work conserving: whenever it is idle and the discipline is
// non-empty it begins transmitting the discipline's next packet, which
// completes after size * 8 / rate.  Buffer occupancy is released when
// service begins (see QueueDiscipline::dequeue); the wire itself holds the
// packet in flight.
//
// Two layers share one implementation of that departure logic:
//
//   * LazyLink keeps the transmitter as state, not as calendar events.  A
//     non-preemptive link's departures follow from what has been queued —
//     for FIFO the Lindley recursion d_k = max(a_k, d_{k-1}) + L/R, and
//     every discipline's next dequeue happens at d_{k-1} — so advance_to(t)
//     works them out on demand: it retires every transmission that ended
//     before t, delivering each packet at its own departure time and
//     dequeuing the next one at that time.  Whoever reads link, queue or
//     manager state settles the link first.
//   * Link is a LazyLink driven by a completion timer: one calendar event
//     per transmitted packet, filed where the transmission starts, so the
//     link is always settled and its neighbours (a propagation wire, a
//     fabric port) see each departure as an event.
//
// Tie rule: an event at t sees a transmission that ends at t as still in
// progress.  Under the timer that holds for every event filed before the
// transmission began (its seq is smaller than the completion's), so while
// every event that touches a LazyLink at a departure instant was filed
// before that transmission began, the lazy link reproduces the timer's
// order exactly.  Checks builds verify that condition at every such tie.
#pragma once

#include <cstdint>
#include <functional>

#include "check/invariants.h"
#include "sim/packet.h"
#include "sim/queue_discipline.h"
#include "sim/simulator.h"
#include "util/annotations.h"
#include "util/units.h"

namespace bufq {

class LazyLink final : public PacketSink {
 public:
  using DeliveryHandler = std::function<void(const Packet&, Time)>;

  /// The link does not own the discipline; both must outlive the
  /// simulation run.
  LazyLink(Simulator& sim, QueueDiscipline& queue, Rate rate);

  /// Ingress: settles the link to now, offers the packet to the discipline
  /// and starts transmitting if the link is idle.
  void accept(const Packet& packet) override {
    advance_to(sim_.now());
    admit(packet);
  }

  /// Retires every transmission that ended before `t` (the tie rule: one
  /// ending exactly at `t` stays in progress).
  BUFQ_HOT void advance_to(Time t) {
    while (busy_ && departs_ < t) retire();
#if BUFQ_CHECKS_ENABLED
    if (busy_ && departs_ == t) check_tie();
#endif
  }

  /// Retires every transmission that ends at or before `t`: for a clock
  /// that has run every event at `t` (the horizon, a time-triggered
  /// checkpoint).
  void advance_through(Time t) {
    while (busy_ && departs_ <= t) retire();
  }

  /// Invoked with every packet that finishes transmission and the time it
  /// fully departed.
  void set_delivery_handler(DeliveryHandler handler) { on_delivery_ = std::move(handler); }

  [[nodiscard]] Rate rate() const { return rate_; }
  /// True while a transmission is in progress as of the last settle.
  [[nodiscard]] bool busy() const { return busy_; }
  /// When the transmission in progress ends (valid while busy()).
  [[nodiscard]] Time departs() const { return departs_; }

  /// Checkpointable: the transmission in progress (packet, departure
  /// time).  Settle the link before saving so
  /// the queue and manager sections describe the same instant.
  void save_state(CheckpointWriter& w) const { save_section(w, nullptr); }
  void restore_state(CheckpointReader& r) { restore_section(r, nullptr); }

 private:
  friend class Link;

  /// Enqueues `packet` and starts transmitting if idle; assumes the link
  /// is settled to now.
  BUFQ_HOT void admit(const Packet& packet) {
    queue_.enqueue(packet, sim_.now());
    if (!busy_) start(sim_.now());
  }
  /// Begins transmitting the discipline's next packet at `t`, if any.
  void start(Time t);
  /// Completes the transmission in progress at its departure time and
  /// starts the next one then.
  void retire();
#if BUFQ_CHECKS_ENABLED
  /// The tie rule's audit: the event now touching the link at the instant
  /// the transmission in progress ends was filed before it began.
  void check_tie() const;
#endif
  /// The `link` section; `completion_seq`, when given, is the timer's
  /// calendar seq, written after the departure time (Link's layout).
  void save_section(CheckpointWriter& w, const std::uint64_t* completion_seq) const;
  void restore_section(CheckpointReader& r, std::uint64_t* completion_seq);

  Simulator& sim_;
  QueueDiscipline& queue_;
  Rate rate_;
  DeliveryHandler on_delivery_;
  /// The packet currently being transmitted (valid while busy_).
  Packet in_flight_{};
  bool busy_{false};
  Time departs_{Time::zero()};
  /// The last (size -> transmission time) pair start() worked out: most
  /// links send one packet size, so this spares a divide and a rounding
  /// per packet.  Derived state, not checkpointed.
  std::int64_t tx_bytes_{-1};
  Time tx_time_{Time::zero()};
#if BUFQ_CHECKS_ENABLED
  /// When the transmission in progress began and, if it began at the
  /// clock's own instant, the first seq handed out after it began; a start
  /// worked out retroactively (or restored) leaves 0 and the audit falls
  /// back to the conservative time comparison.
  Time started_{Time::zero()};
  std::uint64_t start_seq_{0};
#endif
};

class Link : public PacketSink {
 public:
  using DeliveryHandler = LazyLink::DeliveryHandler;

  /// The link does not own the discipline; both must outlive the
  /// simulation run.
  Link(Simulator& sim, QueueDiscipline& queue, Rate rate);

  /// Ingress: offers the packet to the discipline and kicks the
  /// transmitter if it was idle.
  BUFQ_HOT void accept(const Packet& packet) override {
    const bool idle = !core_.busy();
    core_.admit(packet);
    if (idle) arm();
  }

  /// Invoked with every packet that finishes transmission and the time it
  /// fully departed.
  void set_delivery_handler(DeliveryHandler handler) {
    core_.set_delivery_handler(std::move(handler));
  }

  [[nodiscard]] Rate rate() const { return core_.rate(); }
  [[nodiscard]] bool busy() const { return core_.busy(); }

  /// Checkpointable: wire state (in-flight packet, pending completion's
  /// (time, seq)).  Restore re-arms the completion
  /// event under its original sequence number.
  void save_state(CheckpointWriter& w) const;
  void restore_state(CheckpointReader& r);

 private:
  /// Files the completion of the transmission in progress, if any.
  void arm();
  void complete();

  Simulator& sim_;
  LazyLink core_;
  /// Calendar seq of the pending completion while busy() — recorded so a
  /// checkpoint restore can re-arm it with the identical (time, seq) key.
  std::uint64_t completion_seq_{0};
};

}  // namespace bufq
