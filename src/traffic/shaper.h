// Leaky-bucket shaper: delays packets so the stream leaving it is
// (sigma, rho) conformant.  This is how the paper makes flows 0-5 of
// Table 1 "conformant": their ON-OFF output is reshaped by a leaky bucket
// with their declared profile before entering the multiplexer.
//
// The shaping queue is unbounded (the regulator sits at the source, where
// the paper assumes sufficient shaping buffer); tests assert its occupancy
// stays moderate for the workloads we run.
#pragma once

#include <cstdint>

#include "sim/packet.h"
#include "sim/simulator.h"
#include "traffic/token_bucket.h"
#include "util/fifo_ring.h"
#include "util/units.h"

namespace bufq {

class CheckpointReader;
class CheckpointWriter;

class LeakyBucketShaper : public PacketSink {
 public:
  /// Packets leaving the shaper conform to (depth, token_rate); if
  /// `peak_rate` is non-zero they are additionally spaced no closer than
  /// back-to-back at that rate.
  LeakyBucketShaper(Simulator& sim, PacketSink& downstream, ByteSize depth, Rate token_rate,
                    Rate peak_rate = Rate::zero());

  void accept(const Packet& packet) override;

  [[nodiscard]] std::size_t queue_length() const { return queue_.size(); }
  /// True while a release event is outstanding on the calendar.  The churn
  /// driver must not destroy a shaper whose event is still pending.
  [[nodiscard]] bool release_pending() const { return release_pending_; }

  /// Checkpointable: bucket level, shaping queue and the pending release
  /// event.  `index` disambiguates the section name when
  /// an engine owns one shaper per flow.
  void save_state(CheckpointWriter& w, std::size_t index) const;
  void restore_state(CheckpointReader& r, std::size_t index);

 private:
  void release_ready();
  void schedule_release();

  Simulator& sim_;
  PacketSink& downstream_;
  TokenBucket bucket_;
  Rate peak_rate_;
  Time earliest_next_release_{Time::zero()};
  FifoRing<Packet> queue_;
  bool release_pending_{false};
  Time release_time_{Time::zero()};
  std::uint64_t release_seq_{0};
};

}  // namespace bufq
