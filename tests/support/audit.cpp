#include "support/audit.h"

#include <cassert>

#include "sim/checkpoint.h"

namespace bufq::check {

AuditedBufferManager::AuditedBufferManager(BufferManager& inner, std::size_t flow_count,
                                           std::vector<std::int64_t> flow_bounds)
    : inner_{inner}, shadow_flow_(flow_count, 0), flow_bounds_{std::move(flow_bounds)} {
  assert(flow_bounds_.empty() || flow_bounds_.size() == flow_count);
}

bool AuditedBufferManager::try_admit(FlowId flow, std::int64_t bytes, Time now) {
  const bool admitted = inner_.try_admit(flow, bytes, now);
  if (admitted && flow >= 0 && static_cast<std::size_t>(flow) < shadow_flow_.size()) {
    shadow_flow_[static_cast<std::size_t>(flow)] += bytes;
    shadow_total_ += bytes;
  }
  verify(flow, now);
  return admitted;
}

void AuditedBufferManager::release(FlowId flow, std::int64_t bytes, Time now) {
  inner_.release(flow, bytes, now);
  if (flow >= 0 && static_cast<std::size_t>(flow) < shadow_flow_.size()) {
    shadow_flow_[static_cast<std::size_t>(flow)] -= bytes;
    shadow_total_ -= bytes;
  }
  verify(flow, now);
}

void AuditedBufferManager::verify(FlowId flow, Time now) {
  auto& checker = InvariantChecker::current();
  ++audits_run_;

  const std::int64_t total = inner_.total_occupancy();
  if (total != shadow_total_) {
    checker.report(Violation{Invariant::kConservation, -1, now, static_cast<double>(total),
                             static_cast<double>(shadow_total_),
                             "manager total drifted from independently tracked total"});
  }
  if (total < 0) {
    checker.report(Violation{Invariant::kConservation, -1, now, static_cast<double>(total), 0.0,
                             "negative total occupancy"});
  }
  if (total > inner_.capacity().count()) {
    checker.report(Violation{Invariant::kCapacity, -1, now, static_cast<double>(total),
                             static_cast<double>(inner_.capacity().count()),
                             "total occupancy exceeds buffer capacity"});
  }

  if (flow < 0 || static_cast<std::size_t>(flow) >= shadow_flow_.size()) return;
  const auto slot = static_cast<std::size_t>(flow);
  const std::int64_t q = inner_.occupancy(flow);
  if (q != shadow_flow_[slot]) {
    checker.report(Violation{Invariant::kConservation, flow, now, static_cast<double>(q),
                             static_cast<double>(shadow_flow_[slot]),
                             "per-flow occupancy drifted from independently tracked value"});
  }
  if (q < 0) {
    checker.report(Violation{Invariant::kConservation, flow, now, static_cast<double>(q), 0.0,
                             "negative per-flow occupancy"});
  }
  if (!flow_bounds_.empty() && flow_bounds_[slot] >= 0 && q > flow_bounds_[slot]) {
    checker.report(Violation{Invariant::kFlowBound, flow, now, static_cast<double>(q),
                             static_cast<double>(flow_bounds_[slot]),
                             "conformant flow exceeds its Prop-1/2 occupancy bound"});
  }

  if (audits_run_ % kFullAuditPeriod == 0) full_audit(now);
}

void AuditedBufferManager::full_audit(Time now) const {
  std::int64_t sum = 0;
  for (std::size_t f = 0; f < shadow_flow_.size(); ++f) {
    sum += inner_.occupancy(static_cast<FlowId>(f));
  }
  if (sum != inner_.total_occupancy()) {
    InvariantChecker::current().report(
        Violation{Invariant::kConservation, -1, now, static_cast<double>(sum),
                  static_cast<double>(inner_.total_occupancy()),
                  "sum of per-flow occupancies != reported total"});
  }
}


void AuditedBufferManager::save_state(CheckpointWriter& w) const {
  w.begin_section("bm.audit");
  w.write_i64_vector(shadow_flow_);
  w.write_i64(shadow_total_);
  w.write_u64(audits_run_);
  w.end_section();
}

void AuditedBufferManager::restore_state(CheckpointReader& r) {
  r.begin_section("bm.audit");
  shadow_flow_ = r.read_i64_vector();
  shadow_total_ = r.read_i64();
  audits_run_ = r.read_u64();
  r.end_section();
}

}  // namespace bufq::check
