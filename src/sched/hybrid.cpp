#include "sched/hybrid.h"

#include <cassert>
#include <cmath>

#include "core/sharing.h"
#include "core/threshold.h"

namespace bufq {

HybridBuilder::HybridBuilder(Rate link_rate, ByteSize total_buffer, std::vector<FlowSpec> specs,
                             std::vector<std::vector<FlowId>> groups)
    : link_rate_{link_rate},
      total_buffer_{total_buffer},
      specs_{std::move(specs)},
      groups_{std::move(groups)} {
  assert(!groups_.empty());
  flow_to_queue_.assign(specs_.size(), groups_.size());  // sentinel: unassigned
  std::vector<std::vector<FlowSpec>> grouped_specs(groups_.size());
  for (std::size_t q = 0; q < groups_.size(); ++q) {
    for (FlowId f : groups_[q]) {
      assert(f >= 0 && static_cast<std::size_t>(f) < specs_.size());
      assert(flow_to_queue_[static_cast<std::size_t>(f)] == groups_.size() &&
             "flow assigned to two queues");
      flow_to_queue_[static_cast<std::size_t>(f)] = q;
      grouped_specs[q].push_back(specs_[static_cast<std::size_t>(f)]);
    }
  }
  for (std::size_t q : flow_to_queue_) {
    assert(q < groups_.size() && "every flow must belong to a queue");
    (void)q;
  }

  aggregates_ = aggregate_groups(grouped_specs);
  alphas_ = prop3_alphas(aggregates_);
  queue_rates_ = hybrid_rates(aggregates_, link_rate_, alphas_);

  // Split the actual buffer in proportion to the per-queue minima
  // (Section 4.2's partitioning rule).
  std::vector<double> minima(groups_.size());
  double minima_sum = 0.0;
  for (std::size_t q = 0; q < groups_.size(); ++q) {
    minima[q] = queue_min_buffer_bytes(aggregates_[q], queue_rates_[q]);
    minima_sum += minima[q];
  }
  assert(minima_sum > 0.0);
  queue_buffers_.reserve(groups_.size());
  for (std::size_t q = 0; q < groups_.size(); ++q) {
    const double share = static_cast<double>(total_buffer_.count()) * minima[q] / minima_sum;
    queue_buffers_.push_back(ByteSize::bytes(static_cast<std::int64_t>(std::llround(share))));
  }
}

std::vector<std::int64_t> HybridBuilder::queue_thresholds(std::size_t queue) const {
  // Prop 2 applied to the queue, whose "link" is its WFQ rate, scattered
  // into a vector indexed by *global* FlowId; flows of other queues get
  // zero (they are never offered to this queue's manager).
  std::vector<FlowSpec> group_specs;
  group_specs.reserve(groups_[queue].size());
  for (FlowId f : groups_[queue]) group_specs.push_back(specs_[static_cast<std::size_t>(f)]);
  const std::vector<std::int64_t> group_thresholds = compute_thresholds(
      group_specs, queue_buffers_[queue], queue_rates_[queue], ThresholdScaling::kExact);
  std::vector<std::int64_t> thresholds(specs_.size(), 0);
  for (std::size_t i = 0; i < groups_[queue].size(); ++i) {
    thresholds[static_cast<std::size_t>(groups_[queue][i])] = group_thresholds[i];
  }
  return thresholds;
}

std::int64_t HybridBuilder::flow_threshold(FlowId flow) const {
  assert(flow >= 0 && static_cast<std::size_t>(flow) < specs_.size());
  return queue_thresholds(flow_to_queue_[static_cast<std::size_t>(flow)])[
      static_cast<std::size_t>(flow)];
}

std::unique_ptr<CompositeBufferManager> HybridBuilder::make_threshold_manager() const {
  std::vector<std::unique_ptr<BufferManager>> managers;
  managers.reserve(groups_.size());
  for (std::size_t q = 0; q < groups_.size(); ++q) {
    managers.push_back(
        std::make_unique<ThresholdManager>(queue_buffers_[q], queue_thresholds(q)));
  }
  return std::make_unique<CompositeBufferManager>(flow_to_queue_, std::move(managers));
}

std::unique_ptr<CompositeBufferManager> HybridBuilder::make_sharing_manager(
    ByteSize headroom) const {
  std::vector<std::unique_ptr<BufferManager>> managers;
  managers.reserve(groups_.size());
  const double b_total = static_cast<double>(total_buffer_.count());
  for (std::size_t q = 0; q < groups_.size(); ++q) {
    const double share = b_total > 0.0
                             ? static_cast<double>(queue_buffers_[q].count()) / b_total
                             : 0.0;
    const auto queue_headroom = ByteSize::bytes(
        static_cast<std::int64_t>(std::llround(static_cast<double>(headroom.count()) * share)));
    managers.push_back(std::make_unique<BufferSharingManager>(
        queue_buffers_[q], queue_thresholds(q), queue_headroom));
  }
  return std::make_unique<CompositeBufferManager>(flow_to_queue_, std::move(managers));
}

std::unique_ptr<WfqScheduler> HybridBuilder::make_scheduler(BufferManager& manager) const {
  std::vector<double> weights;
  weights.reserve(queue_rates_.size());
  for (const Rate& r : queue_rates_) weights.push_back(r.bps());
  return std::make_unique<WfqScheduler>(manager, link_rate_, flow_to_queue_,
                                        std::move(weights));
}

}  // namespace bufq
