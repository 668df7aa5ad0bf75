#include "core/sharing.h"

#include <cassert>

#include "check/invariants.h"
#include "sim/checkpoint.h"

namespace bufq {

BufferSharingManager::BufferSharingManager(ByteSize capacity, Rate link_rate,
                                           const std::vector<FlowSpec>& flows,
                                           ByteSize max_headroom, ThresholdScaling scaling,
                                           std::vector<SharingClass> classes)
    : BufferSharingManager{capacity, compute_thresholds(flows, capacity, link_rate, scaling),
                           max_headroom, std::move(classes)} {}

BufferSharingManager::BufferSharingManager(ByteSize capacity, std::vector<std::int64_t> thresholds,
                                           ByteSize max_headroom,
                                           std::vector<SharingClass> classes)
    : AccountingBufferManager{capacity, thresholds.size()},
      thresholds_{std::move(thresholds)},
      classes_{std::move(classes)},
      max_headroom_{max_headroom} {
  assert(max_headroom_.count() >= 0);
  assert(classes_.empty() || classes_.size() == thresholds_.size());
}

std::int64_t BufferSharingManager::threshold(FlowId flow) const {
  assert(flow >= 0 && static_cast<std::size_t>(flow) < thresholds_.size());
  return thresholds_[static_cast<std::size_t>(flow)];
}

SharingClass BufferSharingManager::sharing_class(FlowId flow) const {
  assert(flow >= 0 && static_cast<std::size_t>(flow) < thresholds_.size());
  return classes_.empty() ? SharingClass::kAdaptive : classes_[static_cast<std::size_t>(flow)];
}

bool BufferSharingManager::try_admit(FlowId flow, std::int64_t bytes, Time now) {
  const bool may_borrow = sharing_class(flow) == SharingClass::kAdaptive;
  if (!admits(occupancy(flow), threshold(flow), bytes, capacity().count() - total_occupancy(),
              max_headroom_.count(), may_borrow)) {
    return false;
  }
  account_admit(flow, bytes, now);
  BUFQ_CHECK(may_borrow || occupancy(flow) <= threshold(flow), check::Invariant::kFlowBound,
             flow, now, static_cast<double>(occupancy(flow)),
             static_cast<double>(threshold(flow)),
             "non-adaptive flow admitted above its threshold");
  publish_pools();
  return true;
}

void BufferSharingManager::release(FlowId flow, std::int64_t bytes, Time now) {
  account_release(flow, bytes, now);
  publish_pools();
}

void BufferSharingManager::publish_pools() const {
  const SharingPools p = pools();
  holes_metric_.set(p.holes);
  headroom_metric_.set(p.headroom);
}

void BufferSharingManager::save_extra(CheckpointWriter& w) const {
  const SharingPools p = pools();
  w.write_i64(p.holes);
  w.write_i64(p.headroom);
}

void BufferSharingManager::restore_extra(CheckpointReader& r) {
  const std::int64_t holes = r.read_i64();
  const std::int64_t headroom = r.read_i64();
  const SharingPools p = pools();
  if (holes != p.holes || headroom != p.headroom) {
    throw CheckpointFormatError("sharing holes/headroom disagree with the restored occupancy");
  }
}

}  // namespace bufq
