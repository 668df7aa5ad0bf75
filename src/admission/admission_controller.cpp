#include "admission/admission_controller.h"

#include <cassert>
#include <limits>

#include "sim/checkpoint.h"

namespace bufq::admission {

AdmissionController::AdmissionController(Config config) : config_{config} {
  assert(config_.link_rate.bps() > 0.0);
  assert(config_.buffer.count() >= 0);
  if (config_.scheme == Scheme::kFifoSharing) {
    assert(config_.headroom.count() >= 0);
    assert(config_.headroom < config_.buffer && "headroom must leave room for thresholds");
  }
}

ByteSize AdmissionController::partition() const {
  return config_.scheme == Scheme::kFifoSharing ? config_.buffer - config_.headroom
                                                : config_.buffer;
}

AdmissionVerdict AdmissionController::try_admit(const FlowSpec& flow) {
  decisions_metric_.add();
  const auto reject = [this](AdmissionVerdict verdict) {
    rejects_metric_.add();
    return verdict;
  };
  const double new_rate = reserved_rate_bps_ + flow.rho.bps();
  const double new_sigma = reserved_sigma_ + static_cast<double>(flow.sigma.count());

  if (new_rate > config_.link_rate.bps()) return reject(AdmissionVerdict::kBandwidthLimited);

  if (config_.scheme == Scheme::kWfq) {
    // Eq. 6: every flow gets a private sigma-sized allocation.
    if (new_sigma > static_cast<double>(config_.buffer.count())) {
      return reject(AdmissionVerdict::kBufferLimited);
    }
  } else {
    // Eq. 10 against the partition.  As u -> 1 the requirement diverges,
    // so a fully reserved link admits only zero-burst flows.
    const auto need =
        fifo_min_buffer_bytes(new_sigma, Rate::bits_per_second(new_rate), config_.link_rate);
    if (need ? *need > static_cast<double>(partition().count()) : new_sigma > 0.0) {
      return reject(AdmissionVerdict::kBufferLimited);
    }
  }

  reserved_rate_bps_ = new_rate;
  reserved_sigma_ = new_sigma;
  ++admitted_;
  accepts_metric_.add();
  return AdmissionVerdict::kAccepted;
}

void AdmissionController::release(const FlowSpec& flow) {
  assert(admitted_ > 0);
  reserved_rate_bps_ -= flow.rho.bps();
  reserved_sigma_ -= static_cast<double>(flow.sigma.count());
  assert(reserved_rate_bps_ >= -1e-6);
  assert(reserved_sigma_ >= -1e-6);
  if (reserved_rate_bps_ < 0.0) reserved_rate_bps_ = 0.0;
  if (reserved_sigma_ < 0.0) reserved_sigma_ = 0.0;
  --admitted_;
  if (admitted_ == 0) {
    // Pin the accumulators back to exactly zero between busy periods so
    // float dust cannot build up over millions of churn events.
    reserved_rate_bps_ = 0.0;
    reserved_sigma_ = 0.0;
  }
}

std::int64_t AdmissionController::threshold_bytes(const FlowSpec& flow) const {
  if (config_.scheme == Scheme::kWfq) return flow.sigma.count();
  // Prop 2 against the partitioned (headroom-excluded) buffer.  Round
  // down so the sum of thresholds never exceeds the partition.
  return static_cast<std::int64_t>(prop2_threshold_bytes(partition(), flow, config_.link_rate));
}

double AdmissionController::required_buffer_bytes() const {
  if (config_.scheme == Scheme::kWfq || reserved_sigma_ == 0.0) return reserved_sigma_;
  const auto need = fifo_min_buffer_bytes(reserved_sigma_, reserved_rate(), config_.link_rate);
  if (!need) return std::numeric_limits<double>::infinity();
  // Eq. 10 covers the partition; the sharing headroom sits on top of it.
  return *need + static_cast<double>((config_.buffer - partition()).count());
}

void AdmissionController::save_state(CheckpointWriter& w) const {
  w.begin_section("admission");
  w.write_f64(reserved_rate_bps_);
  w.write_f64(reserved_sigma_);
  w.write_u64(admitted_);
  w.end_section();
}

void AdmissionController::restore_state(CheckpointReader& r) {
  r.begin_section("admission");
  reserved_rate_bps_ = r.read_f64();
  reserved_sigma_ = r.read_f64();
  admitted_ = static_cast<std::size_t>(r.read_u64());
  r.end_section();
}

}  // namespace bufq::admission
