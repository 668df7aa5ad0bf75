#include "core/buffer_manager.h"

#include <cassert>

#include "check/invariants.h"
#include "sim/checkpoint.h"

namespace bufq {

AccountingBufferManager::AccountingBufferManager(ByteSize capacity, std::size_t flow_count)
    : capacity_{capacity}, per_flow_(flow_count, 0) {
  assert(capacity.count() >= 0);
}

std::int64_t AccountingBufferManager::occupancy(FlowId flow) const {
  assert(flow >= 0 && static_cast<std::size_t>(flow) < per_flow_.size());
  return per_flow_[static_cast<std::size_t>(flow)];
}

void AccountingBufferManager::account_admit(FlowId flow, std::int64_t bytes, Time now) {
  assert(flow >= 0 && static_cast<std::size_t>(flow) < per_flow_.size());
  assert(bytes >= 0);
  per_flow_[static_cast<std::size_t>(flow)] += bytes;
  total_ += bytes;
  BUFQ_CHECK(total_ <= capacity_.count(), check::Invariant::kCapacity, flow, now,
             static_cast<double>(total_), static_cast<double>(capacity_.count()),
             "admit pushed total occupancy past the buffer capacity");
  if ((++admits_ & 15u) == 0) {
    occupancy_metric_.record(total_);
    flow_occupancy_metric_.record(per_flow_[static_cast<std::size_t>(flow)]);
  }
  static_cast<void>(now);
}

void AccountingBufferManager::account_release(FlowId flow, std::int64_t bytes, Time now) {
  assert(flow >= 0 && static_cast<std::size_t>(flow) < per_flow_.size());
  per_flow_[static_cast<std::size_t>(flow)] -= bytes;
  total_ -= bytes;
  BUFQ_CHECK(per_flow_[static_cast<std::size_t>(flow)] >= 0, check::Invariant::kConservation,
             flow, now, static_cast<double>(per_flow_[static_cast<std::size_t>(flow)]), 0.0,
             "release drove per-flow occupancy negative");
  BUFQ_CHECK(total_ >= 0, check::Invariant::kConservation, flow, now,
             static_cast<double>(total_), 0.0, "release drove total occupancy negative");
  static_cast<void>(now);
}

void AccountingBufferManager::save_state(CheckpointWriter& w) const {
  w.begin_section("bm");
  w.write_i64_vector(per_flow_);
  w.write_i64(total_);
  w.write_u64(admits_);
  save_extra(w);
  w.end_section();
}

void AccountingBufferManager::restore_state(CheckpointReader& r) {
  r.begin_section("bm");
  std::vector<std::int64_t> per_flow = r.read_i64_vector();
  if (per_flow.size() != per_flow_.size()) {
    throw CheckpointFormatError("buffer-manager flow count mismatch on restore");
  }
  per_flow_ = std::move(per_flow);
  total_ = r.read_i64();
  admits_ = r.read_u64();
  restore_extra(r);
  r.end_section();
}

void AccountingBufferManager::save_extra(CheckpointWriter&) const {}

void AccountingBufferManager::restore_extra(CheckpointReader&) {}

}  // namespace bufq
