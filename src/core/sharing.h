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
// (see sharing_pools() in core/threshold.h), so the manager stores neither:
// it is a ThresholdManager whose flows may borrow, deciding with admits().
//
// Selective sharing, the extension sketched in the paper's conclusion
// (Section 5): "one could also envision allowing adaptive flows to share
// buffers with reserved flows, while non-adaptive ones would be prevented
// from doing so."  Each flow may carry a borrow flag; only flagged flows
// borrow holes beyond their threshold, the others are held to the fixed
// partition of Section 3.2.  With no flags given every flow borrows, which
// is plain Section 3.3 sharing.
//
// This sharing model is a flow-aware variant of the Choudhury-Hahne
// Dynamic Threshold scheme [1].
#pragma once

#include <cstdint>
#include <vector>

#include "core/flow_spec.h"
#include "core/threshold.h"
#include "util/units.h"

namespace bufq {

/// A ThresholdManager whose flows may borrow: constructors only.
class BufferSharingManager final : public ThresholdManager {
 public:
  /// Thresholds derived from the flows' declared envelopes.  Sharing keeps
  /// the analytic (unscaled) thresholds by default: the slack *is* the
  /// shared space.  `may_borrow` is empty (every flow borrows) or holds one
  /// flag per flow.
  BufferSharingManager(ByteSize capacity, Rate link_rate, const std::vector<FlowSpec>& flows,
                       ByteSize max_headroom,
                       ThresholdScaling scaling = ThresholdScaling::kExact,
                       std::vector<bool> may_borrow = {});

  /// Explicit thresholds (hybrid scheduler and fabric paths).
  BufferSharingManager(ByteSize capacity, const std::vector<std::int64_t>& thresholds,
                       ByteSize max_headroom, std::vector<bool> may_borrow = {});
};

}  // namespace bufq
