#include "traffic/shaper.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "sim/checkpoint.h"

namespace bufq {

LeakyBucketShaper::LeakyBucketShaper(Simulator& sim, PacketSink& downstream, ByteSize depth,
                                     Rate token_rate, Rate peak_rate)
    : sim_{sim}, downstream_{downstream}, bucket_{depth, token_rate}, peak_rate_{peak_rate} {
  assert(token_rate.bps() > 0.0);
}

void LeakyBucketShaper::accept(const Packet& packet) {
  assert(packet.size_bytes <= bucket_.depth().count() &&
         "packet larger than bucket depth can never be released");
  queue_.push_back(packet);
  release_ready();
}

void LeakyBucketShaper::release_ready() {
  const Time now = sim_.now();
  while (!queue_.empty()) {
    const Packet& head = queue_.front();
    if (now < earliest_next_release_ || !bucket_.conforms(head.size_bytes, now)) break;
    bucket_.consume(head.size_bytes, now);
    if (peak_rate_.bps() > 0.0) {
      earliest_next_release_ = now + peak_rate_.transmission_time(head.size_bytes);
    }
    Packet released = head;
    queue_.pop_front();
    // Stamp the release time: conformance is a property of the shaped
    // stream, so downstream consumers see the shaped arrival time.
    released.created = now;
    downstream_.accept(released);
  }
  if (!queue_.empty()) schedule_release();
}

void LeakyBucketShaper::schedule_release() {
  if (release_pending_) return;
  const Time now = sim_.now();
  Time wait = bucket_.time_until_conformant(queue_.front().size_bytes, now);
  if (earliest_next_release_ > now) {
    wait = std::max(wait, earliest_next_release_ - now);
  }
  // Guard against a zero wait produced by floating-point refill rounding:
  // always move at least 1ns so the event makes progress.
  wait = std::max(wait, Time::nanoseconds(1));
  release_pending_ = true;
  const auto release = [this] {
    release_pending_ = false;
    release_ready();
  };
  release_time_ = now + wait;
  release_seq_ = sim_.in(wait, release);
}

void LeakyBucketShaper::save_state(CheckpointWriter& w, std::size_t index) const {
  w.begin_section("shaper." + std::to_string(index));
  w.write_f64(bucket_.tokens_raw());
  w.write_time(bucket_.last_update());
  w.write_time(earliest_next_release_);
  w.write_u64(queue_.size());
  for (const Packet& p : queue_) save_packet(w, p);
  w.write_bool(release_pending_);
  w.write_time(release_time_);
  w.write_u64(release_seq_);
  w.end_section();
}

void LeakyBucketShaper::restore_state(CheckpointReader& r, std::size_t index) {
  r.begin_section("shaper." + std::to_string(index));
  const double tokens = r.read_f64();
  const Time last_update = r.read_time();
  bucket_.restore(tokens, last_update);
  earliest_next_release_ = r.read_time();
  queue_.clear();
  const std::uint64_t count = r.read_u64();
  for (std::uint64_t i = 0; i < count; ++i) queue_.push_back(load_packet(r));
  release_pending_ = r.read_bool();
  release_time_ = r.read_time();
  release_seq_ = r.read_u64();
  r.end_section();
  if (!release_pending_) return;
  sim_.rearm(release_time_, release_seq_, [this] {
    release_pending_ = false;
    release_ready();
  });
}

}  // namespace bufq
