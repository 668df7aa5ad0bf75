// Weighted Fair Queueing (PGPS) with the standard virtual-time emulation.
//
// The scheduler serves *classes*: a class is either an individual flow
// (classic per-flow WFQ, the paper's benchmark) or a group of flows
// sharing one FIFO queue (the hybrid architecture of Section 4, where a
// small, fixed number of classes keeps the sorting cost bounded).
//
// Virtual time V(t) advances at rate R / sum of weights of backlogged
// classes — the usual packet-system approximation of the GPS busy set.
// A packet of length L arriving to class c is stamped with the virtual
// finish time
//
//     F = max(V(now), F_last[c]) + L / w_c,
//
// and the scheduler always transmits the head-of-line packet with the
// smallest stamp.  Per-packet cost is O(log k) in the number of active
// classes, which is the scalability cost the paper's buffer-management
// scheme avoids.
//
// Class state is structure-of-arrays: parallel weight / finish-stamp /
// queue-link lanes instead of one struct per class, and the per-class
// FIFO queues live in a single shared PacketArena (core/packet_arena.h)
// as index-linked lists.  At per-flow scale (one class per flow, the
// paper's 1e6-flow comparison point) this bounds the resident cost to
// kPerClassStateBytes per flow plus one arena node per *backlogged*
// packet, and enqueue touches exactly the lanes it needs instead of
// dragging a 100+-byte ClassState line into cache.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/buffer_manager.h"
#include "core/packet_arena.h"
#include "obs/metrics.h"
#include "sim/queue_discipline.h"
#include "util/dary_heap.h"
#include "util/units.h"

namespace bufq {

class WfqScheduler final : public QueueDiscipline {
 public:
  /// Per-flow WFQ: class i == flow i, with the given weights (any
  /// positive unit; the paper uses the flows' token rates).  `link_rate`
  /// is the rate of the link this scheduler feeds; the virtual clock
  /// advances at link_rate / sum(active weights).
  WfqScheduler(BufferManager& manager, Rate link_rate, std::vector<double> weights);

  /// Class-based WFQ: `flow_to_class[f]` names the class of flow f and
  /// `class_weights[c]` its weight.  Used by the hybrid architecture.
  WfqScheduler(BufferManager& manager, Rate link_rate, std::vector<std::size_t> flow_to_class,
               std::vector<double> class_weights);

  bool enqueue(const Packet& packet, Time now) override;
  std::optional<Packet> dequeue(Time now) override;
  [[nodiscard]] bool empty() const override { return backlogged_packets_ == 0; }
  [[nodiscard]] std::int64_t backlog_bytes() const override { return backlog_bytes_; }
  void set_drop_handler(DropHandler handler) override { on_drop_ = std::move(handler); }

  /// Rebinds a class's weight.  Only legal while the class is idle (its
  /// queue empty), so virtual-time bookkeeping is unaffected; used by the
  /// churn driver when a recycled flow slot gets a new reservation.
  void set_class_weight(std::size_t cls, double weight);

  [[nodiscard]] std::size_t class_count() const { return weight_.size(); }

  /// Checkpointable: virtual-time state, per-class finish stamps and
  /// queues.  The hol_ heap is not serialized; restore rebuilds it from
  /// the class queues ((finish, class) keys are unique per class, so the
  /// rebuilt heap pops in the identical order regardless of layout).
  void save_state(CheckpointWriter& w) const override;
  void restore_state(CheckpointReader& r) override;

 private:
  struct StampedPacket {
    Packet packet;
    double finish;  ///< virtual finish time
  };

 public:
  /// Resident per-class state, the scalability cost the paper's buffer
  /// management avoids: weight + finish stamp + queue head/tail/depth
  /// lanes, not counting the hol_ heap entry (2 words per backlogged
  /// class) or the arena node per backlogged packet.  Reported by
  /// bench_admission_churn against FlowTable::bytes_per_flow().
  static constexpr std::size_t kPerClassStateBytes =
      sizeof(double)             // weight
      + sizeof(double)           // last finish stamp
      + 2 * sizeof(std::uint32_t)  // queue head/tail links
      + sizeof(std::uint32_t);     // queue depth

  /// Bytes per *backlogged* packet (arena node): packet + finish stamp
  /// + link.  Scales with queue occupancy, not flow count.
  static constexpr std::size_t kPerPacketStateBytes =
      PacketArena<StampedPacket>::bytes_per_node();

 private:
  void advance_virtual_time(Time now);

  BufferManager& manager_;
  Rate link_rate_;
  std::vector<std::size_t> flow_to_class_;
  // Structure-of-arrays class lanes, indexed by class id.
  std::vector<double> weight_;
  std::vector<double> last_finish_;
  /// Head/tail arena indices of each class's FIFO (kNil when empty).
  std::vector<std::uint32_t> head_;
  std::vector<std::uint32_t> tail_;
  std::vector<std::uint32_t> depth_;
  /// Shared queued-packet storage for every class (see packet_arena.h).
  PacketArena<StampedPacket> arena_;
  /// Head-of-line stamps of backlogged classes, keyed by (finish, class).
  /// Only insert and pop-min are ever needed, so a flat 4-ary heap beats
  /// the node-based std::set: contiguous storage, no per-insert
  /// allocation, and the exact-min pop with the same (finish, class)
  /// tie-break keeps service order identical.
  DaryMinHeap<std::pair<double, std::size_t>, 4> hol_;
  double virtual_time_{0.0};
  double active_weight_{0.0};
  Time vt_updated_{Time::zero()};
  std::uint64_t backlogged_packets_{0};
  std::int64_t backlog_bytes_{0};
  DropHandler on_drop_;
  obs::CounterHandle accepts_metric_{obs::CounterHandle::lookup("sched.accepts")};
  obs::CounterHandle drops_metric_{obs::CounterHandle::lookup("sched.drops")};
  obs::CounterHandle vt_updates_metric_{obs::CounterHandle::lookup("sched.wfq.vt_updates")};
};

}  // namespace bufq
