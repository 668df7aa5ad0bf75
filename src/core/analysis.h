// Closed-form results of Section 2 of the paper: per-flow buffer
// allocations that guarantee lossless service (Propositions 1 and 2),
// and the minimum total buffer needed by FIFO-with-thresholds versus WFQ
// (Section 2.3, equations 5-10).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/flow_spec.h"
#include "util/units.h"

namespace bufq {

/// Proposition 1: buffer occupancy threshold guaranteeing lossless service
/// to a peak-rate-conformant flow of rate rho on a FIFO link of rate R
/// with total buffer B:  B * rho / R.
[[nodiscard]] double prop1_threshold_bytes(ByteSize buffer, Rate rho, Rate link_rate);

/// Proposition 2: threshold for a (sigma, rho)-conformant flow:
/// sigma + B * rho / R.
[[nodiscard]] double prop2_threshold_bytes(ByteSize buffer, const FlowSpec& flow, Rate link_rate);

/// Minimum total buffer for a WFQ scheduler to serve the flow set
/// losslessly: sum of the bursts (eq. 6).
[[nodiscard]] double wfq_min_buffer_bytes(const std::vector<FlowSpec>& flows);

/// Minimum total buffer for FIFO-with-thresholds (eq. 9):
///   B >= R * sum(sigma) / (R - sum(rho)).
/// Returns nullopt when sum(rho) >= R (no finite buffer suffices).
[[nodiscard]] std::optional<double> fifo_min_buffer_bytes(double total_sigma_bytes,
                                                          Rate total_rho, Rate link_rate);

/// Eq. 9 over a flow set's summed envelope.
[[nodiscard]] std::optional<double> fifo_min_buffer_bytes(const std::vector<FlowSpec>& flows,
                                                          Rate link_rate);

/// Equation 10 restated with the reserved utilization u = sum(rho)/R:
///   B >= sum(sigma) / (1 - u).   Requires 0 <= u < 1.
[[nodiscard]] double fifo_min_buffer_bytes(double utilization, ByteSize total_sigma);

/// The buffer inflation factor of FIFO over WFQ at utilization u:
/// 1 / (1 - u).
[[nodiscard]] double fifo_buffer_inflation(double utilization);

/// Why an admission request was refused.  Produced by
/// admission::AdmissionController (src/admission/), which runs these
/// inequalities in reverse as online admission tests.
enum class AdmissionVerdict {
  kAccepted,
  /// Equation 5/7 violated: sum of reserved rates would exceed the link.
  kBandwidthLimited,
  /// Equation 6 (WFQ) or 9 (FIFO) violated: buffer cannot cover the flows.
  kBufferLimited,
};

}  // namespace bufq
