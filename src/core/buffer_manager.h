// Buffer management: the paper's central mechanism.  A BufferManager
// decides, in O(1) per packet, whether an arriving packet may occupy
// buffer space, based only on global counters and the state of the
// packet's own flow.  Schedulers consult a manager on every enqueue and
// notify it on every dequeue.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "sim/packet.h"
#include "util/units.h"

namespace bufq {

class CheckpointReader;
class CheckpointWriter;

class BufferManager {
 public:
  virtual ~BufferManager() = default;

  /// Attempts to reserve `bytes` of buffer for `flow`.  On success the
  /// manager's accounting is updated and true is returned; on failure the
  /// state is untouched and the packet must be dropped.
  [[nodiscard]] virtual bool try_admit(FlowId flow, std::int64_t bytes, Time now) = 0;

  /// Releases `bytes` previously admitted for `flow` (the packet started
  /// transmission or was removed).
  virtual void release(FlowId flow, std::int64_t bytes, Time now) = 0;

  [[nodiscard]] virtual std::int64_t occupancy(FlowId flow) const = 0;
  [[nodiscard]] virtual std::int64_t total_occupancy() const = 0;
  [[nodiscard]] virtual ByteSize capacity() const = 0;

  /// Checkpointable protocol (see sim/checkpoint.h): occupancy accounting
  /// and any scheme-specific state (holes/headroom, RED averages, ...).
  /// Restore must not re-record metrics — the engine overwrites the
  /// registry afterwards with the checkpointed snapshot.
  virtual void save_state(CheckpointWriter& w) const = 0;
  virtual void restore_state(CheckpointReader& r) = 0;
};

/// Shared per-flow accounting used by every concrete manager.
class AccountingBufferManager : public BufferManager {
 public:
  AccountingBufferManager(ByteSize capacity, std::size_t flow_count);

  [[nodiscard]] std::int64_t occupancy(FlowId flow) const override;
  [[nodiscard]] std::int64_t total_occupancy() const override { return total_; }
  [[nodiscard]] ByteSize capacity() const override { return capacity_; }
  [[nodiscard]] std::size_t flow_count() const { return per_flow_.size(); }

  /// Serializes the shared accounting (per-flow occupancy, total, admit
  /// count — the admit count drives 1-in-16 metric sampling, so it must be
  /// exact) then delegates to save_extra()/restore_extra() for
  /// scheme-specific state.
  void save_state(CheckpointWriter& w) const final;
  void restore_state(CheckpointReader& r) final;

 protected:
  /// Hooks for subclasses with state beyond the accounting (holes,
  /// headroom, RED averages, strikes...).  Defaults write/read nothing.
  virtual void save_extra(CheckpointWriter& w) const;
  virtual void restore_extra(CheckpointReader& r);

  /// `now` is forwarded into the invariant audit so violation reports carry
  /// the simulated time of the offending operation.
  void account_admit(FlowId flow, std::int64_t bytes, Time now);
  void account_release(FlowId flow, std::int64_t bytes, Time now);

 private:
  ByteSize capacity_;
  std::vector<std::int64_t> per_flow_;
  std::int64_t total_{0};
  std::uint64_t admits_{0};
  // Occupancy distributions, sampled 1-in-16 admits: the empirical
  // counterpart of the Proposition 1/2 backlog bounds (see
  // EXPERIMENTS.md).  Sampling keeps two histogram records off the
  // per-packet path; the bound checks stay valid because a sampled
  // quantile/max can only under-report a sequence that is itself bounded.
  obs::HistogramHandle occupancy_metric_{obs::HistogramHandle::lookup("bm.occupancy_bytes")};
  obs::HistogramHandle flow_occupancy_metric_{
      obs::HistogramHandle::lookup("bm.flow_occupancy_bytes")};
};

}  // namespace bufq
