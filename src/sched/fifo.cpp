#include "sched/fifo.h"

#include "check/invariants.h"
#include "sim/checkpoint.h"
#include "util/annotations.h"

namespace bufq {

FifoScheduler::FifoScheduler(BufferManager& manager) : manager_{manager} {}

BUFQ_HOT bool FifoScheduler::enqueue(const Packet& packet, Time now) {
  if (!manager_.try_admit(packet.flow, packet.size_bytes, now)) {
    drops_metric_.add();
    if (on_drop_) on_drop_(packet, now);
    return false;
  }
  accepts_metric_.add();
  BUFQ_LINT_SUPPRESS("hot-path-container-growth", "FIFO order needs pop_front; the deque grows in chunks and reuses them");
  queue_.push_back(packet);
  backlog_bytes_ += packet.size_bytes;
  return true;
}

BUFQ_HOT std::optional<Packet> FifoScheduler::dequeue(Time now) {
  if (queue_.empty()) return std::nullopt;
  Packet packet = queue_.front();
  queue_.pop_front();
  backlog_bytes_ -= packet.size_bytes;
  BUFQ_CHECK(backlog_bytes_ >= 0, check::Invariant::kConservation, packet.flow, now,
             static_cast<double>(backlog_bytes_), 0.0, "FIFO backlog bytes went negative");
  manager_.release(packet.flow, packet.size_bytes, now);
  return packet;
}

void FifoScheduler::save_state(CheckpointWriter& w) const {
  w.begin_section("sched.fifo");
  w.write_u64(queue_.size());
  for (const Packet& packet : queue_) save_packet(w, packet);
  w.write_i64(backlog_bytes_);
  w.end_section();
}

void FifoScheduler::restore_state(CheckpointReader& r) {
  r.begin_section("sched.fifo");
  queue_.clear();
  const std::uint64_t count = r.read_u64();
  for (std::uint64_t i = 0; i < count; ++i) queue_.push_back(load_packet(r));
  backlog_bytes_ = r.read_i64();
  r.end_section();
}

}  // namespace bufq
