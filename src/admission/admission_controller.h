// Scheme-aware admission control: the paper's buffer-sizing inequalities
// run in reverse.  Section 2.3 derives how much buffer a flow set needs;
// an admission controller holds B and R fixed and asks whether one more
// flow still fits.  Every decision is O(1) against running aggregates:
//
//   * WFQ (eq. 6):               sum(sigma) <= B
//   * FIFO + thresholds (eq.10): sum(sigma) / (1 - u) <= B,  u = sum(rho)/R
//   * FIFO + sharing (S3.3):     eq. 10 against B - H, so the headroom H
//                                reserved for below-threshold flows is
//                                never promised away as thresholds
//
// All schemes also enforce the rate constraint sum(rho) <= R (eqs. 5/7).
// The closed forms themselves live in core/analysis.h.
#pragma once

#include <cstdint>

#include "core/analysis.h"
#include "core/flow_spec.h"
#include "obs/metrics.h"
#include "util/units.h"

namespace bufq {
class CheckpointReader;
class CheckpointWriter;
}  // namespace bufq

namespace bufq::admission {

enum class Scheme {
  kWfq,            ///< per-flow WFQ baseline: B >= sum(sigma)
  kFifoThreshold,  ///< FIFO + Prop-2 thresholds: eq. 10
  kFifoSharing,    ///< FIFO + buffer sharing: eq. 10 with B - H
};

class AdmissionController {
 public:
  struct Config {
    Scheme scheme{Scheme::kFifoThreshold};
    Rate link_rate;
    ByteSize buffer;
    /// Headroom reserved out of the buffer for kFifoSharing; ignored by
    /// the other schemes.  Must be smaller than the buffer.
    ByteSize headroom{ByteSize::zero()};
  };

  explicit AdmissionController(Config config);

  /// Tests `flow` against the scheme's buffer and bandwidth constraints
  /// including the already-admitted set; reserves and returns kAccepted on
  /// success, leaves the state untouched otherwise.  O(1).
  AdmissionVerdict try_admit(const FlowSpec& flow);

  /// Releases a previously admitted flow's reservation.  `flow` must
  /// match the admit call.
  void release(const FlowSpec& flow);

  /// The buffer-occupancy threshold an admitted flow is entitled to:
  /// sigma for WFQ (its private queue allocation), Prop 2's
  /// sigma + rho * B_eff / R for the FIFO schemes (B_eff excludes the
  /// sharing headroom), where it also serves as the DynamicBufferManager
  /// threshold under churn.
  [[nodiscard]] std::int64_t threshold_bytes(const FlowSpec& flow) const;

  /// Buffer the scheme requires for the currently admitted set; admitting
  /// a flow keeps this <= buffer by construction.
  [[nodiscard]] double required_buffer_bytes() const;

  [[nodiscard]] Rate reserved_rate() const { return Rate::bits_per_second(reserved_rate_bps_); }
  [[nodiscard]] double reserved_sigma_bytes() const { return reserved_sigma_; }
  [[nodiscard]] double utilization() const { return reserved_rate_bps_ / config_.link_rate.bps(); }
  [[nodiscard]] std::size_t admitted_count() const { return admitted_; }
  [[nodiscard]] const Config& config() const { return config_; }

  /// Checkpointable: running aggregates only — the Config is scenario
  /// input and is covered by the scenario fingerprint instead.
  void save_state(CheckpointWriter& w) const;
  void restore_state(CheckpointReader& r);

 private:
  /// Effective buffer backing thresholds: B, or B - H under sharing.
  [[nodiscard]] ByteSize partition() const;

  Config config_;
  double reserved_rate_bps_{0.0};
  double reserved_sigma_{0.0};
  std::size_t admitted_{0};
  obs::CounterHandle decisions_metric_{obs::CounterHandle::lookup("admission.decisions")};
  obs::CounterHandle accepts_metric_{obs::CounterHandle::lookup("admission.accepts")};
  obs::CounterHandle rejects_metric_{obs::CounterHandle::lookup("admission.rejects")};
};

}  // namespace bufq::admission
