#include "sched/wfq.h"

#include <cassert>
#include <numeric>

#include "check/invariants.h"
#include "sim/checkpoint.h"
#include "util/annotations.h"

namespace bufq {
namespace {

constexpr std::uint32_t kNil = PacketArena<int>::kNil;

std::vector<std::size_t> identity_map(std::size_t n) {
  std::vector<std::size_t> map(n);
  std::iota(map.begin(), map.end(), std::size_t{0});
  return map;
}

}  // namespace

WfqScheduler::WfqScheduler(BufferManager& manager, Rate link_rate, std::vector<double> weights)
    : WfqScheduler{manager, link_rate, identity_map(weights.size()), std::move(weights)} {}

WfqScheduler::WfqScheduler(BufferManager& manager, Rate link_rate,
                           std::vector<std::size_t> flow_to_class,
                           std::vector<double> class_weights)
    : manager_{manager}, link_rate_{link_rate}, flow_to_class_{std::move(flow_to_class)} {
  assert(link_rate.bps() > 0.0);
  const std::size_t n = class_weights.size();
  weight_ = std::move(class_weights);
  for ([[maybe_unused]] const double w : weight_) {
    assert(w > 0.0 && "WFQ weights must be positive");
  }
  last_finish_.assign(n, 0.0);
  head_.assign(n, kNil);
  tail_.assign(n, kNil);
  depth_.assign(n, 0);
  for ([[maybe_unused]] std::size_t cls : flow_to_class_) {
    assert(cls < n);
  }
}

void WfqScheduler::set_class_weight(std::size_t cls, double weight) {
  assert(cls < weight_.size());
  assert(weight > 0.0 && "WFQ weights must be positive");
  assert(depth_[cls] == 0 && "weights may only change while the class is idle");
  weight_[cls] = weight;
  // A recycled slot is a fresh flow: forget the previous occupant's finish
  // stamp so the newcomer starts from the current fair-share level.
  last_finish_[cls] = 0.0;
}

BUFQ_HOT void WfqScheduler::advance_virtual_time(Time now) {
  BUFQ_CHECK(now >= vt_updated_, check::Invariant::kVirtualTime, -1, now, now.to_seconds(),
             vt_updated_.to_seconds(), "WFQ clock asked to advance backwards");
  if (active_weight_ > 0.0) {
    // PGPS virtual time: dV/dt = R / sum(weights of backlogged classes),
    // with the packet-system backlog approximating the GPS busy set.  V
    // and the finish stamps are both in bits-per-unit-weight, so a class
    // returning from idle is stamped at the current fair-share level and
    // can neither claim retroactive credit nor be penalized for idling.
    [[maybe_unused]] const double previous = virtual_time_;
    virtual_time_ += (now - vt_updated_).to_seconds() * link_rate_.bps() / active_weight_;
    BUFQ_CHECK(virtual_time_ >= previous, check::Invariant::kVirtualTime, -1, now,
               virtual_time_, previous, "WFQ virtual time moved backwards");
  }
  BUFQ_CHECK(active_weight_ >= 0.0, check::Invariant::kVirtualTime, -1, now, active_weight_,
             0.0, "WFQ active weight went negative");
  vt_updated_ = now;
  vt_updates_metric_.add();
}

BUFQ_HOT bool WfqScheduler::enqueue(const Packet& packet, Time now) {
  if (!manager_.try_admit(packet.flow, packet.size_bytes, now)) {
    drops_metric_.add();
    if (on_drop_) on_drop_(packet, now);
    return false;
  }
  accepts_metric_.add();
  advance_virtual_time(now);

  assert(packet.flow >= 0 && static_cast<std::size_t>(packet.flow) < flow_to_class_.size());
  const std::size_t cls = flow_to_class_[static_cast<std::size_t>(packet.flow)];

  const double start = std::max(virtual_time_, last_finish_[cls]);
  const double finish = start + static_cast<double>(packet.size_bytes) * 8.0 / weight_[cls];
  last_finish_[cls] = finish;

  const std::uint32_t node = arena_.allocate(StampedPacket{packet, finish});
  if (head_[cls] == kNil) {
    head_[cls] = node;
    hol_.push({finish, cls});
    active_weight_ += weight_[cls];
  } else {
    arena_.set_next(tail_[cls], node);
  }
  tail_[cls] = node;
  ++depth_[cls];
  ++backlogged_packets_;
  backlog_bytes_ += packet.size_bytes;
  return true;
}

BUFQ_HOT std::optional<Packet> WfqScheduler::dequeue(Time now) {
  if (backlogged_packets_ == 0) return std::nullopt;
  advance_virtual_time(now);

  const std::size_t cls = hol_.pop().second;

  const std::uint32_t node = head_[cls];
  assert(node != kNil);
  const StampedPacket head = arena_[node];
  head_[cls] = arena_.next(node);
  arena_.recycle(node);
  --depth_[cls];

  if (head_[cls] == kNil) {
    tail_[cls] = kNil;
    active_weight_ -= weight_[cls];
    // Keep the active-weight accumulator exactly zero when idle so long
    // runs do not accumulate float dust.
    if (backlogged_packets_ == 1) active_weight_ = 0.0;
  } else {
    hol_.push({arena_[head_[cls]].finish, cls});
  }

  --backlogged_packets_;
  backlog_bytes_ -= head.packet.size_bytes;
  BUFQ_CHECK(backlog_bytes_ >= 0, check::Invariant::kConservation, head.packet.flow, now,
             static_cast<double>(backlog_bytes_), 0.0, "WFQ backlog bytes went negative");
  manager_.release(head.packet.flow, head.packet.size_bytes, now);
  return head.packet;
}

void WfqScheduler::save_state(CheckpointWriter& w) const {
  // Byte-identical to the pre-arena format: classes in index order, each
  // class's queue walked head to tail.
  w.begin_section("sched.wfq");
  w.write_f64(virtual_time_);
  w.write_f64(active_weight_);
  w.write_time(vt_updated_);
  w.write_u64(backlogged_packets_);
  w.write_i64(backlog_bytes_);
  w.write_u64(weight_.size());
  for (std::size_t cls = 0; cls < weight_.size(); ++cls) {
    w.write_f64(weight_[cls]);
    w.write_f64(last_finish_[cls]);
    w.write_u64(depth_[cls]);
    for (std::uint32_t node = head_[cls]; node != kNil; node = arena_.next(node)) {
      save_packet(w, arena_[node].packet);
      w.write_f64(arena_[node].finish);
    }
  }
  w.end_section();
}

void WfqScheduler::restore_state(CheckpointReader& r) {
  r.begin_section("sched.wfq");
  virtual_time_ = r.read_f64();
  active_weight_ = r.read_f64();
  vt_updated_ = r.read_time();
  backlogged_packets_ = r.read_u64();
  backlog_bytes_ = r.read_i64();
  const std::uint64_t class_count = r.read_u64();
  if (class_count != weight_.size()) {
    throw CheckpointFormatError("WFQ class count mismatch on restore");
  }
  hol_.clear();
  arena_.clear();
  for (std::size_t cls = 0; cls < weight_.size(); ++cls) {
    weight_[cls] = r.read_f64();
    last_finish_[cls] = r.read_f64();
    head_[cls] = kNil;
    tail_[cls] = kNil;
    const std::uint64_t depth = r.read_u64();
    depth_[cls] = static_cast<std::uint32_t>(depth);
    for (std::uint64_t i = 0; i < depth; ++i) {
      StampedPacket sp;
      sp.packet = load_packet(r);
      sp.finish = r.read_f64();
      const std::uint32_t node = arena_.allocate(sp);
      if (head_[cls] == kNil) {
        head_[cls] = node;
      } else {
        arena_.set_next(tail_[cls], node);
      }
      tail_[cls] = node;
    }
  }
  // Rebuild head-of-line stamps from the restored queues in class-index
  // order; (finish, class) keys are unique per class, so pop order is
  // independent of insertion order and the heap's internal layout.
  for (std::size_t cls = 0; cls < weight_.size(); ++cls) {
    if (head_[cls] != kNil) {
      hol_.push({arena_[head_[cls]].finish, cls});
    }
  }
  r.end_section();
}

}  // namespace bufq
