#include "admission/flow_class.h"

#include <bit>
#include <cassert>
#include <limits>

#include "sim/checkpoint.h"

namespace bufq::admission {

FlowClassRegistry::Key FlowClassRegistry::make_key(const FlowSpec& spec,
                                                   std::int64_t threshold_bytes) {
  return Key{.sigma = spec.sigma.count(),
             .rho_bits = std::bit_cast<std::uint64_t>(spec.rho.bps()),
             .threshold = threshold_bytes};
}

ClassId FlowClassRegistry::intern(const FlowSpec& spec, std::int64_t threshold_bytes) {
  const Key key = make_key(spec, threshold_bytes);
  const auto [it, inserted] =
      index_.try_emplace(key, static_cast<ClassId>(sigma_bytes_.size()));
  if (inserted) {
    assert(sigma_bytes_.size() < std::numeric_limits<ClassId>::max());
    threshold_.push_back(threshold_bytes);
    sigma_bytes_.push_back(spec.sigma.count());
    rho_bps_.push_back(spec.rho.bps());
  }
  return it->second;
}

void FlowClassRegistry::save_state(CheckpointWriter& w) const {
  w.begin_section("flow_classes");
  w.write_i64_vector(threshold_);
  w.write_i64_vector(sigma_bytes_);
  w.write_u64(rho_bps_.size());
  for (const double rho : rho_bps_) w.write_f64(rho);
  w.end_section();
}

void FlowClassRegistry::restore_state(CheckpointReader& r) {
  r.begin_section("flow_classes");
  threshold_ = r.read_i64_vector();
  sigma_bytes_ = r.read_i64_vector();
  rho_bps_.assign(static_cast<std::size_t>(r.read_u64()), 0.0);
  for (double& rho : rho_bps_) rho = r.read_f64();
  r.end_section();
  if (threshold_.size() != sigma_bytes_.size() || rho_bps_.size() != sigma_bytes_.size()) {
    throw CheckpointFormatError("flow class lane sizes disagree");
  }
  index_.clear();
  for (ClassId c = 0; c < sigma_bytes_.size(); ++c) {
    index_.emplace(make_key(spec(c), threshold_[c]), c);
  }
}

}  // namespace bufq::admission
