#include "core/dynamic_threshold.h"

#include <cassert>
#include <cmath>

#include "core/threshold.h"

namespace bufq {

DynamicThresholdManager::DynamicThresholdManager(ByteSize capacity, std::size_t flow_count,
                                                 double alpha)
    : AccountingBufferManager{capacity, flow_count}, alpha_{alpha} {
  assert(alpha > 0.0);
}

std::int64_t DynamicThresholdManager::current_threshold() const {
  const double free_space = static_cast<double>(capacity().count() - total_occupancy());
  return static_cast<std::int64_t>(alpha_ * free_space);
}

bool DynamicThresholdManager::try_admit(FlowId flow, std::int64_t bytes, Time now) {
  if (!admits(occupancy(flow), current_threshold(), bytes, capacity().count() - total_occupancy(),
              0, false)) {
    return false;
  }
  account_admit(flow, bytes, now);
  return true;
}

void DynamicThresholdManager::release(FlowId flow, std::int64_t bytes, Time now) {
  account_release(flow, bytes, now);
}

}  // namespace bufq
