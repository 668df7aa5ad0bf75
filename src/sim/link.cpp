#include "sim/link.h"

#include <cassert>

#include "check/invariants.h"
#include "sim/checkpoint.h"
#include "util/annotations.h"

namespace bufq {

Link::Link(Simulator& sim, QueueDiscipline& queue, Rate rate)
    : sim_{sim}, queue_{queue}, rate_{rate} {
  assert(rate.bps() > 0.0);
}

BUFQ_HOT void Link::accept(const Packet& packet) {
  queue_.enqueue(packet, sim_.now());
  if (!busy_) try_transmit();
}

BUFQ_HOT void Link::try_transmit() {
  assert(!busy_);
  auto next = queue_.dequeue(sim_.now());
  if (!next) return;
  busy_ = true;
  in_flight_ = *next;
  const Time tx = rate_.transmission_time(in_flight_.size_bytes);
  BUFQ_CHECK(tx >= Time::zero(), check::Invariant::kEventClock, in_flight_.flow, sim_.now(),
             tx.to_seconds(), 0.0, "negative transmission time");
  const auto complete = [this] { finish_transmission(); };
  completion_time_ = sim_.now() + tx;
  completion_seq_ = sim_.in(tx, complete);
}

BUFQ_HOT void Link::finish_transmission() {
  const Packet packet = in_flight_;
  busy_ = false;
  bytes_delivered_ += packet.size_bytes;
  ++packets_delivered_;
  if (on_delivery_) on_delivery_(packet, sim_.now());
  try_transmit();
}

void Link::save_state(CheckpointWriter& w) const {
  w.begin_section("link");
  w.write_bool(busy_);
  if (busy_) {
    save_packet(w, in_flight_);
    w.write_time(completion_time_);
    w.write_u64(completion_seq_);
  }
  w.write_i64(bytes_delivered_);
  w.write_u64(packets_delivered_);
  w.end_section();
}

void Link::restore_state(CheckpointReader& r) {
  r.begin_section("link");
  busy_ = r.read_bool();
  if (busy_) {
    in_flight_ = load_packet(r);
    completion_time_ = r.read_time();
    completion_seq_ = r.read_u64();
    sim_.rearm(completion_time_, completion_seq_, [this] { finish_transmission(); });
  }
  bytes_delivered_ = r.read_i64();
  packets_delivered_ = r.read_u64();
  r.end_section();
}

}  // namespace bufq
