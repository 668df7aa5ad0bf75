// Single FIFO queue in front of the link — the paper's baseline scheduler.
// All admission logic is delegated to the BufferManager, which is exactly
// the point of the paper: with the right manager, this O(1) structure
// still delivers per-flow rate guarantees.
#pragma once

#include <cstdint>

#include "core/buffer_manager.h"
#include "obs/metrics.h"
#include "sim/queue_discipline.h"
#include "util/fifo_ring.h"

namespace bufq {

class FifoScheduler final : public QueueDiscipline {
 public:
  /// The scheduler does not own the manager.
  explicit FifoScheduler(BufferManager& manager);

  bool enqueue(const Packet& packet, Time now) override;
  std::optional<Packet> dequeue(Time now) override;
  [[nodiscard]] bool empty() const override { return queue_.empty(); }
  [[nodiscard]] std::int64_t backlog_bytes() const override { return backlog_bytes_; }
  void set_drop_handler(DropHandler handler) override { on_drop_ = std::move(handler); }

  [[nodiscard]] std::size_t queue_length() const { return queue_.size(); }

  /// Checkpointable: the queued packets and backlog byte count.
  void save_state(CheckpointWriter& w) const override;
  void restore_state(CheckpointReader& r) override;

 private:
  BufferManager& manager_;
  FifoRing<Packet> queue_;
  std::int64_t backlog_bytes_{0};
  DropHandler on_drop_;
  obs::CounterHandle accepts_metric_{obs::CounterHandle::lookup("sched.accepts")};
  obs::CounterHandle drops_metric_{obs::CounterHandle::lookup("sched.drops")};
};

}  // namespace bufq
