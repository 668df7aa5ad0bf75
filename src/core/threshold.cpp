#include "core/threshold.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "check/invariants.h"
#include "core/analysis.h"
#include "sim/checkpoint.h"
#include "util/annotations.h"

namespace bufq {

std::vector<std::int64_t> compute_thresholds(const std::vector<FlowSpec>& flows, ByteSize buffer,
                                             Rate link_rate, ThresholdScaling scaling) {
  assert(link_rate.bps() > 0.0);
  std::vector<std::int64_t> thresholds;
  thresholds.reserve(flows.size());
  const double buffer_bytes = static_cast<double>(buffer.count());
  for (const auto& flow : flows) {
    thresholds.push_back(
        static_cast<std::int64_t>(std::llround(prop2_threshold_bytes(buffer, flow, link_rate))));
  }
  if (scaling == ThresholdScaling::kScaleToFill) {
    const std::int64_t sum = std::accumulate(thresholds.begin(), thresholds.end(),
                                             static_cast<std::int64_t>(0));
    if (sum > 0 && sum < buffer.count()) {
      const double scale = buffer_bytes / static_cast<double>(sum);
      for (auto& t : thresholds) {
        t = static_cast<std::int64_t>(std::llround(static_cast<double>(t) * scale));
      }
    }
  }
  return thresholds;
}

ThresholdManager::ThresholdManager(ByteSize capacity, std::vector<std::int64_t> thresholds,
                                   ByteSize max_headroom, std::vector<bool> may_borrow)
    : AccountingBufferManager{capacity, thresholds.size()},
      thresholds_{std::move(thresholds)},
      may_borrow_{std::move(may_borrow)},
      max_headroom_{max_headroom},
      pooled_{std::find(may_borrow_.begin(), may_borrow_.end(), true) != may_borrow_.end()},
      holes_metric_{pooled_ ? obs::GaugeHandle::lookup("bm.holes_bytes") : obs::GaugeHandle{}},
      headroom_metric_{pooled_ ? obs::GaugeHandle::lookup("bm.headroom_bytes")
                               : obs::GaugeHandle{}} {
  assert(max_headroom_.count() >= 0);
  assert(may_borrow_.empty() || may_borrow_.size() == thresholds_.size());
  may_borrow_.resize(thresholds_.size(), false);
}

ThresholdManager::ThresholdManager(ByteSize capacity, Rate link_rate,
                                   const std::vector<FlowSpec>& flows, ThresholdScaling scaling)
    : ThresholdManager{capacity, compute_thresholds(flows, capacity, link_rate, scaling)} {}

std::int64_t ThresholdManager::threshold(FlowId flow) const {
  assert(flow >= 0 && static_cast<std::size_t>(flow) < thresholds_.size());
  return thresholds_[static_cast<std::size_t>(flow)];
}

bool ThresholdManager::may_borrow(FlowId flow) const {
  assert(flow >= 0 && static_cast<std::size_t>(flow) < may_borrow_.size());
  return may_borrow_[static_cast<std::size_t>(flow)];
}

BUFQ_HOT bool ThresholdManager::try_admit(FlowId flow, std::int64_t bytes, Time now) {
  const bool borrows = may_borrow(flow);
  if (!admits(occupancy(flow), threshold(flow), bytes, capacity().count() - total_occupancy(),
              max_headroom_.count(), borrows)) {
    return false;
  }
  account_admit(flow, bytes, now);
  BUFQ_CHECK(borrows || occupancy(flow) <= threshold(flow), check::Invariant::kFlowBound, flow,
             now, static_cast<double>(occupancy(flow)), static_cast<double>(threshold(flow)),
             "a flow that may not borrow was admitted above its threshold");
  if (pooled_) publish_pools();
  return true;
}

BUFQ_HOT void ThresholdManager::release(FlowId flow, std::int64_t bytes, Time now) {
  account_release(flow, bytes, now);
  if (pooled_) publish_pools();
}

void ThresholdManager::publish_pools() const {
  const SharingPools p = pools();
  holes_metric_.set(p.holes);
  headroom_metric_.set(p.headroom);
}

void ThresholdManager::save_extra(CheckpointWriter& w) const {
  if (!pooled_) return;
  const SharingPools p = pools();
  w.write_i64(p.holes);
  w.write_i64(p.headroom);
}

void ThresholdManager::restore_extra(CheckpointReader& r) {
  if (!pooled_) return;
  const std::int64_t holes = r.read_i64();
  const std::int64_t headroom = r.read_i64();
  const SharingPools p = pools();
  if (holes != p.holes || headroom != p.headroom) {
    throw CheckpointFormatError("sharing holes/headroom disagree with the restored occupancy");
  }
}

TailDropManager::TailDropManager(ByteSize capacity, std::size_t flow_count)
    : ThresholdManager{capacity, std::vector<std::int64_t>(flow_count, capacity.count())} {}

}  // namespace bufq
