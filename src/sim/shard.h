// Shard-boundary plumbing for the parallel engine (src/sim/parallel.h).
//
// A sharded run gives every shard its own Simulator (clock, calendar,
// event seq space).  The only state that crosses a shard boundary is a
// BoundaryEvent: a packet that left one shard over a cut link and must be
// delivered into another shard's timeline.  BoundaryChannel is the sole
// sanctioned conduit — one per source shard, single-writer by design (the
// owning shard writes one of two outbox sets during a lookahead window;
// in the next window each destination shard drains its outbox from the
// other set, while the owner writes the first), so no atomics are needed
// and TSan sees a clean happens-before chain through the barrier mutex.
//
// Determinism hinges on the merge order: receivers deliver boundary
// events sorted by (time, src_shard, seq).  (src_shard, seq) is unique —
// seq is a per-channel emission counter — so the order is total and
// independent of thread scheduling.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/packet.h"
#include "util/units.h"

namespace bufq {

/// A packet crossing a shard boundary, stamped with everything the
/// receiver needs to reproduce the serial delivery order.
struct BoundaryEvent {
  /// Arrival time in the destination shard (transmit end + propagation).
  Time time{Time::zero()};
  /// Shard that emitted the event.
  std::int32_t src_shard{0};
  /// Emission counter within the source shard's channel; ties on (time,
  /// src_shard) break by emission order, which is deterministic because
  /// each shard's window execution is single-threaded and reproducible.
  std::uint64_t seq{0};
  /// Opaque destination id, interpreted by the model layer (the fabric
  /// engine uses the cut link's LinkId to find the arrival sink).
  std::int32_t dest{0};
  Packet packet;
};

/// Total deterministic order for boundary-event delivery.
[[nodiscard]] inline bool boundary_before(const BoundaryEvent& a, const BoundaryEvent& b) {
  if (a.time != b.time) return a.time < b.time;
  if (a.src_shard != b.src_shard) return a.src_shard < b.src_shard;
  return a.seq < b.seq;
}

/// Per-source-shard outboxes, one vector per destination shard, in two
/// sets that alternate by window: the owning shard's worker writes the
/// set of the current window, and in the window after, each destination
/// shard's worker drains and clears its outbox in that set.  A set is
/// written again only two windows later, after its readers have passed
/// the barrier between, so plain vectors suffice.
class BoundaryChannel {
 public:
  BoundaryChannel(std::int32_t src_shard, std::size_t shard_count)
      : src_shard_{src_shard} {
    for (auto& set : out_) set.resize(shard_count);
  }

  /// Records a packet arriving in `dst_shard` at `time`.  Called from the
  /// owning shard's run loop only.
  void emit(std::int32_t dst_shard, Time time, std::int32_t dest, const Packet& packet) {
    out_[phase_][static_cast<std::size_t>(dst_shard)].push_back(
        BoundaryEvent{time, src_shard_, next_seq_++, dest, packet});
  }

  /// Owner only, between windows: the set emit() writes from now on.
  void set_phase(std::size_t phase) { phase_ = phase; }

  /// Destination-only access: the events bound for `dst_shard` in set
  /// `phase`, to be moved out and cleared by that shard's worker.
  [[nodiscard]] std::vector<BoundaryEvent>& outbox(std::size_t phase, std::size_t dst_shard) {
    return out_[phase][dst_shard];
  }

 private:
  std::int32_t src_shard_;
  std::uint64_t next_seq_{0};
  std::size_t phase_{0};
  std::array<std::vector<std::vector<BoundaryEvent>>, 2> out_;
};

}  // namespace bufq
