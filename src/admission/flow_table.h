// Dense per-flow state for admission control at scale.
//
// The paper's scalability argument (Section 2.3) is that FIFO plus buffer
// thresholds needs only *a counter and a threshold* of state per flow,
// versus a queue, a finish stamp and a sort entry for WFQ.  This table is
// that claim made concrete: structure-of-arrays storage sized for 1e5-1e6
// concurrent flows, O(1) admit/teardown/lookup, and LIFO free-slot
// recycling so a hot admit/teardown loop keeps touching the same cache
// lines.  The capacity is fixed when the table is built: every
// FlowId-indexed structure of a run is sized to it once.
//
// Slots are reused: a torn-down flow's slot index is handed to the next
// admitted flow.  Handles carry a generation counter so a stale handle to
// a recycled slot is detected instead of silently reading the new
// occupant.  Slot indices double as the simulator's FlowId, which keeps
// every FlowId-indexed structure (schedulers, stats) dense under churn.
//
// Envelope state is interned, not stored per flow: each slot carries a
// 4-byte ClassId into a FlowClassRegistry whose (sigma, rho, threshold)
// lanes are shared by every flow of the same service profile.  The
// per-packet threshold check is then occupancy_[slot] (per flow) against
// threshold_[class_[slot]] (per class, L1-resident), and the dense
// per-flow budget drops from 40 to 20 bytes — the bytes_per_flow()
// figure the scalability bench reports against WFQ's footprint.
#pragma once

#include <cstdint>
#include <vector>

#include "admission/flow_class.h"
#include "core/flow_spec.h"
#include "obs/metrics.h"
#include "sim/packet.h"
#include "util/units.h"

namespace bufq {
class CheckpointReader;
class CheckpointWriter;
}  // namespace bufq

namespace bufq::admission {

/// Reference to an admitted flow: slot index plus the generation the slot
/// had when the flow was admitted.  Generations are odd while a slot is
/// occupied and even while it is free, so validity is a two-word compare.
struct FlowHandle {
  std::uint32_t slot{0};
  std::uint32_t generation{0};

  friend bool operator==(const FlowHandle&, const FlowHandle&) = default;
};

class FlowTable {
 public:
  /// A table of `capacity` slots (at least one), all allocated here.
  explicit FlowTable(std::size_t capacity);

  /// Registers a flow with its declared envelope and the occupancy
  /// threshold (Prop 1/2) assigned by admission control.  Interns the
  /// (sigma, rho, threshold) triple into the class registry; amortized
  /// O(1), and an exact hash hit for every repeat profile.  Requires a
  /// free slot (active_count() < slot_count()).
  FlowHandle admit(const FlowSpec& spec, std::int64_t threshold_bytes);

  /// Hot-path admit for a pre-interned class (see classes().intern):
  /// pure slot recycling, no hash lookup.  O(1).  Requires a free slot.
  FlowHandle admit_class(ClassId cls);

  /// Frees the flow's slot for recycling.  The slot's occupancy must have
  /// drained to zero (packets of a departed flow no longer occupy buffer).
  void teardown(FlowHandle handle);

  /// True while `handle` refers to the flow it was issued for.
  [[nodiscard]] bool valid(FlowHandle handle) const;

  [[nodiscard]] bool active(std::uint32_t slot) const {
    return slot < generation_.size() && (generation_[slot] & 1u) != 0;
  }

  [[nodiscard]] std::int64_t occupancy(std::uint32_t slot) const { return occupancy_[slot]; }
  [[nodiscard]] std::int64_t threshold(std::uint32_t slot) const {
    return classes_.threshold(class_[slot]);
  }
  [[nodiscard]] FlowSpec spec(std::uint32_t slot) const { return classes_.spec(class_[slot]); }
  [[nodiscard]] ClassId class_of(std::uint32_t slot) const { return class_[slot]; }

  /// The shared envelope-class registry (interning and per-class lanes).
  [[nodiscard]] FlowClassRegistry& classes() { return classes_; }
  [[nodiscard]] const FlowClassRegistry& classes() const { return classes_; }

  /// Adjusts the flow's buffer occupancy counter (positive on packet
  /// admission, negative on release).
  void add_occupancy(std::uint32_t slot, std::int64_t delta) {
    occupancy_[slot] += delta;
  }

  [[nodiscard]] std::size_t active_count() const { return active_count_; }
  /// The table's fixed capacity.
  [[nodiscard]] std::size_t slot_count() const { return generation_.size(); }

  /// Checkpointable: the class registry, every per-slot array, the free
  /// list (order matters — LIFO recycling is part of the deterministic
  /// trajectory), and the active count.  Restore refuses a section saved
  /// from a table of another capacity with CheckpointFormatError.
  void save_state(CheckpointWriter& w) const;
  void restore_state(CheckpointReader& r);

  /// Bytes of dense per-flow state: occupancy + class id + generation +
  /// free-list entry.  This is the number the scalability bench reports
  /// against WFQ's per-flow footprint; the shared per-class lanes
  /// (FlowClassRegistry::bytes_per_class) amortize to ~0 over the flows
  /// of a class.
  [[nodiscard]] static constexpr std::size_t bytes_per_flow() {
    return sizeof(std::int64_t)     // occupancy counter
           + sizeof(ClassId)        // envelope class
           + sizeof(std::uint32_t)  // generation
           + sizeof(std::uint32_t); // free-list slot
  }

 private:
  // Structure-of-arrays: the admit/teardown/account hot paths touch only
  // the arrays they need.
  std::vector<std::int64_t> occupancy_;
  std::vector<ClassId> class_;
  std::vector<std::uint32_t> generation_;
  FlowClassRegistry classes_;
  /// LIFO stack of free slot indices: the most recently freed (warmest)
  /// slot is reused first.
  std::vector<std::uint32_t> free_slots_;
  std::size_t active_count_{0};
  /// Resident-flow gauge: last = current occupancy, max = peak under churn.
  obs::GaugeHandle resident_metric_{obs::GaugeHandle::lookup("flow_table.resident")};
};

}  // namespace bufq::admission
