#include "admission/dynamic_manager.h"


#include <cassert>

#include "check/invariants.h"
#include "sim/checkpoint.h"

namespace bufq::admission {

DynamicBufferManager::DynamicBufferManager(ByteSize capacity, FlowTable& table, Policy policy,
                                           ByteSize max_headroom)
    : capacity_{capacity},
      table_{table},
      policy_{policy},
      max_headroom_{max_headroom.count()} {
  assert(capacity.count() >= 0);
  assert(max_headroom.count() >= 0);
}

bool DynamicBufferManager::try_admit(FlowId flow, std::int64_t bytes, Time now) {
  static_cast<void>(now);
  assert(flow >= 0);
  const auto slot = static_cast<std::uint32_t>(flow);
  // A packet can outlive its flow only through a bug in the churn driver's
  // reap ordering; refuse rather than corrupt a recycled slot's counters.
  if (!table_.active(slot)) return false;

  const std::int64_t t = table_.threshold(slot);
  const bool may_borrow = policy_ == Policy::kSharing;
  if (!admits(table_.occupancy(slot), t, bytes, capacity_.count() - total_, max_headroom_,
              may_borrow)) {
    return false;
  }
  table_.add_occupancy(slot, bytes);
  total_ += bytes;
  BUFQ_CHECK(may_borrow || table_.occupancy(slot) <= t, check::Invariant::kFlowBound, flow, now,
             static_cast<double>(table_.occupancy(slot)), static_cast<double>(t),
             "churn-table admit left flow above its threshold");
  BUFQ_CHECK(total_ <= capacity_.count(), check::Invariant::kCapacity, flow, now,
             static_cast<double>(total_), static_cast<double>(capacity_.count()),
             "churn-table admit overflowed the buffer");
  return true;
}

void DynamicBufferManager::release(FlowId flow, std::int64_t bytes, Time now) {
  static_cast<void>(now);
  assert(flow >= 0);
  const auto slot = static_cast<std::uint32_t>(flow);
  assert(table_.active(slot) && "release for a flow that was already recycled");
  table_.add_occupancy(slot, -bytes);
  total_ -= bytes;
  BUFQ_CHECK(table_.occupancy(slot) >= 0, check::Invariant::kConservation, flow, now,
             static_cast<double>(table_.occupancy(slot)), 0.0,
             "release drove churn-table occupancy negative");
  BUFQ_CHECK(total_ >= 0, check::Invariant::kConservation, flow, now,
             static_cast<double>(total_), 0.0, "release drove total occupancy negative");
}

std::int64_t DynamicBufferManager::occupancy(FlowId flow) const {
  assert(flow >= 0);
  const auto slot = static_cast<std::uint32_t>(flow);
  return table_.active(slot) ? table_.occupancy(slot) : 0;
}


void DynamicBufferManager::save_state(CheckpointWriter& w) const {
  const SharingPools p = pools();
  w.begin_section("bm.dynamic");
  w.write_i64(total_);
  w.write_i64(p.holes);
  w.write_i64(p.headroom);
  w.end_section();
}

void DynamicBufferManager::restore_state(CheckpointReader& r) {
  r.begin_section("bm.dynamic");
  total_ = r.read_i64();
  const std::int64_t holes = r.read_i64();
  const std::int64_t headroom = r.read_i64();
  r.end_section();
  const SharingPools p = pools();
  if (holes != p.holes || headroom != p.headroom) {
    throw CheckpointFormatError("dynamic-manager holes/headroom disagree with the restored total");
  }
}

}  // namespace bufq::admission
