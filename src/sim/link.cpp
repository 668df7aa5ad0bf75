#include "sim/link.h"

#include <cassert>

#include "sim/checkpoint.h"

namespace bufq {

LazyLink::LazyLink(Simulator& sim, QueueDiscipline& queue, Rate rate)
    : sim_{sim}, queue_{queue}, rate_{rate} {
  assert(rate.bps() > 0.0);
}

BUFQ_HOT void LazyLink::start(Time t) {
  assert(!busy_);
  auto next = queue_.dequeue(t);
  if (!next) return;
  busy_ = true;
  in_flight_ = *next;
  const Time tx = rate_.transmission_time(in_flight_.size_bytes);
  BUFQ_CHECK(tx >= Time::zero(), check::Invariant::kEventClock, in_flight_.flow, t,
             tx.to_seconds(), 0.0, "negative transmission time");
  departs_ = t + tx;
#if BUFQ_CHECKS_ENABLED
  started_ = t;
  start_seq_ = t == sim_.now() ? sim_.next_seq() : 0;
#endif
}

BUFQ_HOT void LazyLink::retire() {
  const Packet packet = in_flight_;
  const Time departed = departs_;
  busy_ = false;
  if (on_delivery_) on_delivery_(packet, departed);
  start(departed);
}

#if BUFQ_CHECKS_ENABLED
void LazyLink::check_tie() const {
  const Simulator::Origin* event = sim_.dispatching();
  if (event == nullptr) return;  // settled between events: no event to order
  // A start at the clock's own instant knows exactly which seqs were
  // handed out before it; a start worked out retroactively only knows its
  // time, so an event filed at that same instant counts as filed after.
  const bool filed_before =
      start_seq_ != 0 ? event->seq < start_seq_ : event->scheduled_at < started_;
  BUFQ_CHECK(filed_before, check::Invariant::kEventClock, in_flight_.flow, departs_,
             event->scheduled_at.to_seconds(), started_.to_seconds(),
             "event at a departure instant was filed after that transmission began");
}
#endif

void LazyLink::save_section(CheckpointWriter& w, const std::uint64_t* completion_seq) const {
  w.begin_section("link");
  w.write_bool(busy_);
  if (busy_) {
    save_packet(w, in_flight_);
    w.write_time(departs_);
    if (completion_seq != nullptr) w.write_u64(*completion_seq);
  }
  w.end_section();
}

void LazyLink::restore_section(CheckpointReader& r, std::uint64_t* completion_seq) {
  r.begin_section("link");
  busy_ = r.read_bool();
  if (busy_) {
    in_flight_ = load_packet(r);
    departs_ = r.read_time();
    if (completion_seq != nullptr) *completion_seq = r.read_u64();
#if BUFQ_CHECKS_ENABLED
    started_ = departs_ - rate_.transmission_time(in_flight_.size_bytes);
    start_seq_ = 0;
#endif
  }
  r.end_section();
}

Link::Link(Simulator& sim, QueueDiscipline& queue, Rate rate)
    : sim_{sim}, core_{sim, queue, rate} {}

BUFQ_HOT void Link::arm() {
  if (!core_.busy()) return;
  const auto complete = [this] { this->complete(); };
  completion_seq_ = sim_.at(core_.departs(), complete);
}

BUFQ_HOT void Link::complete() {
  core_.retire();
  arm();
}

void Link::save_state(CheckpointWriter& w) const { core_.save_section(w, &completion_seq_); }

void Link::restore_state(CheckpointReader& r) {
  core_.restore_section(r, &completion_seq_);
  if (core_.busy()) sim_.rearm(core_.departs(), completion_seq_, [this] { complete(); });
}

}  // namespace bufq
