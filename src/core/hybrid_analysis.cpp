#include "core/hybrid_analysis.h"

#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

#include "core/analysis.h"

namespace bufq {
namespace {

/// S = sum_i sqrt(sigma_hat_i * rho_hat_i), in sqrt(byte * byte/s) units —
/// rho is converted to bytes/second so S^2/(R - rho) comes out in bytes.
double s_sum(const std::vector<QueueAggregate>& queues) {
  double s = 0.0;
  for (const auto& q : queues) {
    s += std::sqrt(static_cast<double>(q.sigma_hat.count()) * q.rho_hat.bytes_per_second());
  }
  return s;
}

Rate total_rho(const std::vector<QueueAggregate>& queues) {
  Rate sum = Rate::zero();
  for (const auto& q : queues) sum = sum + q.rho_hat;
  return sum;
}

double total_sigma_bytes(const std::vector<QueueAggregate>& queues) {
  double sum = 0.0;
  for (const auto& q : queues) sum += static_cast<double>(q.sigma_hat.count());
  return sum;
}

}  // namespace

std::vector<QueueAggregate> aggregate_groups(const std::vector<std::vector<FlowSpec>>& groups) {
  std::vector<QueueAggregate> result;
  result.reserve(groups.size());
  for (const auto& group : groups) {
    result.push_back(QueueAggregate{
        .rho_hat = total_rate(group),
        .sigma_hat = total_burst(group),
    });
  }
  return result;
}

std::vector<double> prop3_alphas(const std::vector<QueueAggregate>& queues) {
  const double s = s_sum(queues);
  assert(s > 0.0 && "Proposition 3 needs at least one queue with positive sigma*rho");
  std::vector<double> alphas;
  alphas.reserve(queues.size());
  for (const auto& q : queues) {
    alphas.push_back(
        std::sqrt(static_cast<double>(q.sigma_hat.count()) * q.rho_hat.bytes_per_second()) / s);
  }
  return alphas;
}

std::vector<Rate> hybrid_rates(const std::vector<QueueAggregate>& queues, Rate link_rate,
                               const std::vector<double>& alphas) {
  assert(queues.size() == alphas.size());
  const double excess_bps = link_rate.bps() - total_rho(queues).bps();
  assert(excess_bps > 0.0 && "hybrid rate split requires spare capacity");
#ifndef NDEBUG
  double alpha_sum = std::accumulate(alphas.begin(), alphas.end(), 0.0);
  assert(std::abs(alpha_sum - 1.0) < 1e-9);
#endif
  std::vector<Rate> rates;
  rates.reserve(queues.size());
  for (std::size_t i = 0; i < queues.size(); ++i) {
    rates.push_back(queues[i].rho_hat + Rate::bits_per_second(alphas[i] * excess_bps));
  }
  return rates;
}

double queue_min_buffer_bytes(const QueueAggregate& queue, Rate service_rate) {
  assert(service_rate > queue.rho_hat && "queue must be served above its aggregate rate");
  // Eq. 11 is eq. 9 for one queue drained at R_i.
  return fifo_min_buffer_bytes(static_cast<double>(queue.sigma_hat.count()), queue.rho_hat,
                               service_rate)
      .value_or(std::numeric_limits<double>::infinity());
}

double hybrid_total_buffer_bytes(const std::vector<QueueAggregate>& queues, Rate link_rate,
                                 const std::vector<double>& alphas) {
  const auto rates = hybrid_rates(queues, link_rate, alphas);
  double total = 0.0;
  for (std::size_t i = 0; i < queues.size(); ++i) {
    total += queue_min_buffer_bytes(queues[i], rates[i]);
  }
  return total;
}

double hybrid_optimal_buffer_bytes(const std::vector<QueueAggregate>& queues, Rate link_rate) {
  const double excess = link_rate.bytes_per_second() - total_rho(queues).bytes_per_second();
  assert(excess > 0.0);
  const double s = s_sum(queues);
  return total_sigma_bytes(queues) + s * s / excess;  // eq. 19
}

double single_fifo_buffer_bytes(const std::vector<QueueAggregate>& queues, Rate link_rate) {
  const Rate rho = total_rho(queues);
  assert(link_rate > rho);
  // Eq. 13 is eq. 9 over the merged aggregates.
  return fifo_min_buffer_bytes(total_sigma_bytes(queues), rho, link_rate)
      .value_or(std::numeric_limits<double>::infinity());
}

double hybrid_buffer_savings_bytes(const std::vector<QueueAggregate>& queues, Rate link_rate) {
  return single_fifo_buffer_bytes(queues, link_rate) -
         hybrid_optimal_buffer_bytes(queues, link_rate);
}

}  // namespace bufq
