// Fixed-partition threshold buffer management (Sections 2 and 3.2).
//
// Flow i is assigned the occupancy threshold
//
//     T_i = sigma_i + rho_i * B / R                       (Prop. 2)
//
// and a packet is admitted iff it fits in the buffer AND does not push its
// flow past T_i.  When the sum of thresholds is below B, all thresholds
// are scaled up by B / sum so the buffer is fully partitioned (footnote 5
// of the paper); the scale-up is optional here so its effect can be
// ablated.
//
// admits() below is the per-packet test of Sections 3.2 and 3.3 for every
// manager that uses thresholds: ThresholdManager (with its constructor-only
// TailDropManager and BufferSharingManager), DynamicThresholdManager and
// admission::DynamicBufferManager.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/buffer_manager.h"
#include "core/flow_spec.h"
#include "obs/metrics.h"
#include "util/units.h"

namespace bufq {

/// How to treat slack when sum(T_i) < B.
enum class ThresholdScaling {
  /// Scale every threshold by B / sum(T_i)  (the paper's footnote 5).
  kScaleToFill,
  /// Keep the analytic thresholds as-is.
  kExact,
};

/// Computes the per-flow thresholds sigma_i + rho_i * B / R (in bytes).
[[nodiscard]] std::vector<std::int64_t> compute_thresholds(
    const std::vector<FlowSpec>& flows, ByteSize buffer, Rate link_rate,
    ThresholdScaling scaling = ThresholdScaling::kScaleToFill);

/// The Section 3.3 pools, derived from the free space B - Q and the
/// headroom cap H.  The paper's pseudocode stores them, but holes are
/// always spent before headroom and freed bytes always refill the headroom
/// first, so at every step the headroom is min(H, B - Q) and the holes are
/// the rest of the free space.
struct SharingPools {
  std::int64_t holes;
  std::int64_t headroom;
};

[[nodiscard]] constexpr SharingPools sharing_pools(std::int64_t free_bytes,
                                                   std::int64_t max_headroom) {
  const std::int64_t headroom = std::min(max_headroom, free_bytes);
  return {free_bytes - headroom, headroom};
}

/// Admits a packet of `bytes` for a flow holding `occupancy` under
/// `threshold`, with `free_bytes` = B - Q of the buffer free:
///   - at or below threshold after admission: iff the packet fits;
///   - above it: only a flow that `may_borrow`, only from the holes, and
///     only while its excess q + L - T does not exceed the holes left.
/// A flow that may not borrow is held to the fixed partition of Section
/// 3.2, whatever the headroom.
[[nodiscard]] constexpr bool admits(std::int64_t occupancy, std::int64_t threshold,
                                    std::int64_t bytes, std::int64_t free_bytes,
                                    std::int64_t max_headroom, bool may_borrow) {
  if (occupancy + bytes <= threshold) return bytes <= free_bytes;
  if (!may_borrow) return false;
  const std::int64_t holes = sharing_pools(free_bytes, max_headroom).holes;
  return bytes <= holes && occupancy + bytes - threshold <= holes - bytes;
}

/// The one manager behind the paper's per-flow rule: "no buffer
/// management" (every threshold = B), the fixed partition of Section 3.2
/// and the sharing of Section 3.3 with its Section 5 selective variant.
/// Each flow has a threshold and a borrow flag; the buffer has a headroom
/// cap H.  Every packet is decided by admits().
///
/// Only a manager where some flow may borrow has pools: it alone publishes
/// the bm.holes_bytes/bm.headroom_bytes gauges and keeps the derived
/// holes/headroom words in its checkpoint section.
class ThresholdManager : public AccountingBufferManager {
 public:
  /// Explicit thresholds.  `may_borrow` is empty (no flow borrows) or holds
  /// one flag per flow.
  ThresholdManager(ByteSize capacity, std::vector<std::int64_t> thresholds,
                   ByteSize max_headroom = ByteSize::zero(), std::vector<bool> may_borrow = {});

  /// Thresholds derived from the flows' declared envelopes (Prop. 2); no
  /// flow borrows.
  ThresholdManager(ByteSize capacity, Rate link_rate, const std::vector<FlowSpec>& flows,
                   ThresholdScaling scaling = ThresholdScaling::kScaleToFill);

  [[nodiscard]] bool try_admit(FlowId flow, std::int64_t bytes, Time now) final;
  void release(FlowId flow, std::int64_t bytes, Time now) final;

  [[nodiscard]] std::int64_t threshold(FlowId flow) const;
  [[nodiscard]] bool may_borrow(FlowId flow) const;
  [[nodiscard]] std::int64_t holes() const { return pools().holes; }
  [[nodiscard]] std::int64_t headroom() const { return pools().headroom; }
  [[nodiscard]] ByteSize max_headroom() const { return max_headroom_; }

 private:
  [[nodiscard]] SharingPools pools() const {
    return sharing_pools(capacity().count() - total_occupancy(), max_headroom_.count());
  }
  void publish_pools() const;
  /// Checkpoint hooks: with pools, the derived holes/headroom, kept in the
  /// layout and checked against the restored total (no gauge updates — the
  /// engine overwrites the metrics registry after restore).
  void save_extra(CheckpointWriter& w) const override;
  void restore_extra(CheckpointReader& r) override;

  std::vector<std::int64_t> thresholds_;
  std::vector<bool> may_borrow_;
  ByteSize max_headroom_;
  bool pooled_;
  obs::GaugeHandle holes_metric_;
  obs::GaugeHandle headroom_metric_;
};

/// No buffer management beyond the physical capacity: admit whenever the
/// packet fits.  This is the paper's "FIFO/WFQ with no buffer management"
/// baseline (plain shared tail drop): every threshold is B and no flow
/// borrows.
class TailDropManager final : public ThresholdManager {
 public:
  TailDropManager(ByteSize capacity, std::size_t flow_count);
};

}  // namespace bufq
