#include "admission/flow_table.h"

#include <cassert>
#include <limits>
#include <string>

#include "check/invariants.h"
#include "sim/checkpoint.h"

namespace bufq::admission {

FlowTable::FlowTable(std::size_t capacity) {
  if (capacity == 0) capacity = 1;
  assert(capacity <= std::numeric_limits<std::uint32_t>::max());
  occupancy_.resize(capacity, 0);
  class_.resize(capacity, 0);
  generation_.resize(capacity, 0);
  free_slots_.reserve(capacity);
  // Push in reverse so slot 0 is recycled first: small FlowIds stay dense.
  for (std::size_t s = capacity; s-- > 0;) {
    free_slots_.push_back(static_cast<std::uint32_t>(s));
  }
}

FlowHandle FlowTable::admit(const FlowSpec& spec, std::int64_t threshold_bytes) {
  assert(threshold_bytes >= 0);
  return admit_class(classes_.intern(spec, threshold_bytes));
}

FlowHandle FlowTable::admit_class(ClassId cls) {
  assert(cls < classes_.class_count());
  assert(!free_slots_.empty() && "admit into a full flow table");
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  assert((generation_[slot] & 1u) == 0 && "free slot must have an even generation");
  occupancy_[slot] = 0;
  class_[slot] = cls;
  ++generation_[slot];  // even -> odd: occupied
  ++active_count_;
  resident_metric_.set(static_cast<std::int64_t>(active_count_));
  return FlowHandle{.slot = slot, .generation = generation_[slot]};
}

void FlowTable::teardown(FlowHandle handle) {
  assert(valid(handle) && "teardown of a stale or never-issued handle");
  BUFQ_CHECK(occupancy_[handle.slot] == 0, check::Invariant::kConservation,
             static_cast<FlowId>(handle.slot), Time::zero(),
             static_cast<double>(occupancy_[handle.slot]), 0.0,
             "flow recycled before its buffer occupancy drained");
  assert(occupancy_[handle.slot] == 0 && "flow must drain before its slot is recycled");
  ++generation_[handle.slot];  // odd -> even: free
  free_slots_.push_back(handle.slot);
  --active_count_;
  resident_metric_.set(static_cast<std::int64_t>(active_count_));
}

bool FlowTable::valid(FlowHandle handle) const {
  return handle.slot < generation_.size() && generation_[handle.slot] == handle.generation &&
         (handle.generation & 1u) != 0;
}

void FlowTable::save_state(CheckpointWriter& w) const {
  w.begin_section("flow_table");
  w.write_i64_vector(occupancy_);
  w.write_u64(class_.size());
  for (const ClassId c : class_) w.write_u32(c);
  w.write_u64(generation_.size());
  for (const std::uint32_t g : generation_) w.write_u32(g);
  w.write_u64(free_slots_.size());
  for (const std::uint32_t s : free_slots_) w.write_u32(s);
  w.write_u64(active_count_);
  w.end_section();
  classes_.save_state(w);
}

void FlowTable::restore_state(CheckpointReader& r) {
  r.begin_section("flow_table");
  const std::size_t slots = slot_count();
  occupancy_ = r.read_i64_vector();
  class_.assign(static_cast<std::size_t>(r.read_u64()), 0);
  for (ClassId& c : class_) c = r.read_u32();
  generation_.assign(static_cast<std::size_t>(r.read_u64()), 0);
  for (std::uint32_t& g : generation_) g = r.read_u32();
  free_slots_.assign(static_cast<std::size_t>(r.read_u64()), 0);
  for (std::uint32_t& s : free_slots_) s = r.read_u32();
  active_count_ = static_cast<std::size_t>(r.read_u64());
  r.end_section();
  classes_.restore_state(r);
  if (occupancy_.size() != slots || class_.size() != slots || generation_.size() != slots) {
    throw CheckpointFormatError("flow table section does not match the table's " +
                                std::to_string(slots) + " slots");
  }
  for (std::size_t s = 0; s < class_.size(); ++s) {
    if ((generation_[s] & 1u) != 0 && class_[s] >= classes_.class_count()) {
      throw CheckpointFormatError("flow table slot references an unknown class");
    }
  }
  resident_metric_.set(static_cast<std::int64_t>(active_count_));
}

}  // namespace bufq::admission
