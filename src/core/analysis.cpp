#include "core/analysis.h"

#include <cassert>

namespace bufq {

double prop1_threshold_bytes(ByteSize buffer, Rate rho, Rate link_rate) {
  assert(link_rate.bps() > 0.0);
  return static_cast<double>(buffer.count()) * (rho / link_rate);
}

double prop2_threshold_bytes(ByteSize buffer, const FlowSpec& flow, Rate link_rate) {
  return static_cast<double>(flow.sigma.count()) + prop1_threshold_bytes(buffer, flow.rho, link_rate);
}

double wfq_min_buffer_bytes(const std::vector<FlowSpec>& flows) {
  return static_cast<double>(total_burst(flows).count());
}

std::optional<double> fifo_min_buffer_bytes(double total_sigma_bytes, Rate total_rho,
                                            Rate link_rate) {
  assert(link_rate.bps() > 0.0);
  if (total_rho >= link_rate) return std::nullopt;
  return link_rate.bps() * total_sigma_bytes / (link_rate.bps() - total_rho.bps());
}

std::optional<double> fifo_min_buffer_bytes(const std::vector<FlowSpec>& flows, Rate link_rate) {
  return fifo_min_buffer_bytes(static_cast<double>(total_burst(flows).count()),
                               total_rate(flows), link_rate);
}

double fifo_min_buffer_bytes(double utilization, ByteSize total_sigma) {
  assert(utilization >= 0.0 && utilization < 1.0);
  return static_cast<double>(total_sigma.count()) / (1.0 - utilization);
}

double fifo_buffer_inflation(double utilization) {
  assert(utilization >= 0.0 && utilization < 1.0);
  return 1.0 / (1.0 - utilization);
}

}  // namespace bufq
