// Buffer Sharing with thresholds (Section 3.3).
//
// Reserved shares are the fixed-partition thresholds T_i; unused buffer
// space is made available to all active flows, except for a *headroom* of
// up to H bytes kept aside for flows still below their threshold.  The
// buffer space available for sharing is called the *holes*.
//
// Admission, on packet arrival (length L, flow occupancy q, threshold T):
//   - q + L <= T  (below threshold): take from the holes first, then from
//     the headroom; drop only if both together cannot cover L.
//   - q + L >  T  (above threshold): take from the holes only, and only if
//     the flow's excess after admission (q + L - T) does not exceed the
//     holes that would remain — a flow can never grab more extra space
//     than the holes that are left.
//
// On departure the freed bytes replenish the headroom up to H first, and
// only the overflow returns to the holes (the paper's pseudocode):
//
//     headroom += packetlength;
//     holes    += MAX(headroom - H, 0);
//     headroom  = MIN(headroom, H);
//
// Because of that ordering the two pools are a function of the occupancy
// (see sharing_pools() in core/threshold.h), so the manager stores neither
// and decides with admits(), the same test ThresholdManager uses.
//
// Selective sharing, the extension sketched in the paper's conclusion
// (Section 5): "one could also envision allowing adaptive flows to share
// buffers with reserved flows, while non-adaptive ones would be prevented
// from doing so."  Each flow may carry a SharingClass; only kAdaptive
// flows borrow holes beyond their threshold.  With no classes given every
// flow is adaptive, which is plain Section 3.3 sharing.
//
// This sharing model is a flow-aware variant of the Choudhury-Hahne
// Dynamic Threshold scheme [1].
#pragma once

#include <cstdint>
#include <vector>

#include "core/buffer_manager.h"
#include "core/flow_spec.h"
#include "core/threshold.h"
#include "obs/metrics.h"
#include "util/units.h"

namespace bufq {

/// Per-flow sharing class of the Section 5 extension:
///
///   kReserved  — below-threshold admission only (its reservation), never
///                borrows holes beyond the threshold;
///   kAdaptive  — full Section 3.3 behavior (reservation + holes);
///   kBlocked   — a non-adaptive over-subscriber: reservation only, and
///                its reserved space is admitted from holes/headroom like
///                anyone else, but it can never occupy excess space.
///
/// kReserved and kBlocked coincide in mechanism (no excess access); they
/// are kept distinct so policy intent shows up in configs and reports.
enum class SharingClass {
  kReserved,
  kAdaptive,
  kBlocked,
};

class BufferSharingManager final : public AccountingBufferManager {
 public:
  /// Thresholds derived from the flows' declared envelopes.  Sharing keeps
  /// the analytic (unscaled) thresholds by default: the slack *is* the
  /// shared space.  `classes` is empty (every flow adaptive) or holds one
  /// class per flow.
  BufferSharingManager(ByteSize capacity, Rate link_rate, const std::vector<FlowSpec>& flows,
                       ByteSize max_headroom,
                       ThresholdScaling scaling = ThresholdScaling::kExact,
                       std::vector<SharingClass> classes = {});

  /// Explicit thresholds (hybrid scheduler path).
  BufferSharingManager(ByteSize capacity, std::vector<std::int64_t> thresholds,
                       ByteSize max_headroom, std::vector<SharingClass> classes = {});

  [[nodiscard]] bool try_admit(FlowId flow, std::int64_t bytes, Time now) override;
  void release(FlowId flow, std::int64_t bytes, Time now) override;

  [[nodiscard]] std::int64_t threshold(FlowId flow) const;
  [[nodiscard]] SharingClass sharing_class(FlowId flow) const;
  [[nodiscard]] std::int64_t holes() const { return pools().holes; }
  [[nodiscard]] std::int64_t headroom() const { return pools().headroom; }
  [[nodiscard]] ByteSize max_headroom() const { return max_headroom_; }

 private:
  [[nodiscard]] SharingPools pools() const {
    return sharing_pools(capacity().count() - total_occupancy(), max_headroom_.count());
  }
  void publish_pools() const;
  /// Checkpoint hooks: the derived holes/headroom, kept in the layout and
  /// checked against the restored total (no gauge updates — the engine
  /// overwrites the metrics registry after restore).
  void save_extra(CheckpointWriter& w) const override;
  void restore_extra(CheckpointReader& r) override;

  std::vector<std::int64_t> thresholds_;
  std::vector<SharingClass> classes_;
  ByteSize max_headroom_;
  obs::GaugeHandle holes_metric_{obs::GaugeHandle::lookup("bm.holes_bytes")};
  obs::GaugeHandle headroom_metric_{obs::GaugeHandle::lookup("bm.headroom_bytes")};
};

}  // namespace bufq
