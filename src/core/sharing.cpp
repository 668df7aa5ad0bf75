#include "core/sharing.h"

#include <utility>

namespace bufq {

BufferSharingManager::BufferSharingManager(ByteSize capacity, Rate link_rate,
                                           const std::vector<FlowSpec>& flows,
                                           ByteSize max_headroom, ThresholdScaling scaling,
                                           std::vector<bool> may_borrow)
    : BufferSharingManager{capacity, compute_thresholds(flows, capacity, link_rate, scaling),
                           max_headroom, std::move(may_borrow)} {}

BufferSharingManager::BufferSharingManager(ByteSize capacity,
                                           const std::vector<std::int64_t>& thresholds,
                                           ByteSize max_headroom, std::vector<bool> may_borrow)
    : ThresholdManager{capacity, thresholds, max_headroom,
                       may_borrow.empty() ? std::vector<bool>(thresholds.size(), true)
                                          : std::move(may_borrow)} {}

}  // namespace bufq
