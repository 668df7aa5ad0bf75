#include "stats/collector.h"

#include <cassert>
#include <string>
#include <utility>

#include "sim/checkpoint.h"
#include "util/annotations.h"

namespace bufq {

StatsCollector::StatsCollector(std::size_t flow_count) : flows_(flow_count) {}

BUFQ_HOT FlowCounters& StatsCollector::at(FlowId id) {
  assert(id >= 0 && static_cast<std::size_t>(id) < flows_.size());
  return flows_[static_cast<std::size_t>(id)];
}

BUFQ_HOT void StatsCollector::on_offered(const Packet& packet) {
  auto& c = at(packet.flow);
  c.offered_bytes += packet.size_bytes;
  ++c.offered_packets;
}

BUFQ_HOT void StatsCollector::on_delivered(const Packet& packet, Time /*now*/) {
  auto& c = at(packet.flow);
  c.delivered_bytes += packet.size_bytes;
  ++c.delivered_packets;
}

BUFQ_HOT void StatsCollector::on_dropped(const Packet& packet, Time /*now*/) {
  auto& c = at(packet.flow);
  c.dropped_bytes += packet.size_bytes;
  ++c.dropped_packets;
}

const FlowCounters& StatsCollector::flow(FlowId id) const {
  assert(id >= 0 && static_cast<std::size_t>(id) < flows_.size());
  return flows_[static_cast<std::size_t>(id)];
}

FlowCounters StatsCollector::total() const {
  FlowCounters sum;
  for (const auto& c : flows_) sum += c;
  return sum;
}

FlowCounters StatsCollector::total_delta(const std::vector<FlowCounters>& before,
                                          const std::vector<FlowCounters>& after) {
  FlowCounters sum;
  for (const auto& c : after) sum += c;
  for (const auto& c : before) sum = sum - c;
  return sum;
}

void save_flow_counters(CheckpointWriter& w, const std::vector<FlowCounters>& counters) {
  w.write_u64(counters.size());
  for (const auto& c : counters) {
    w.write_i64(c.offered_bytes);
    w.write_i64(c.delivered_bytes);
    w.write_i64(c.dropped_bytes);
    w.write_u64(c.offered_packets);
    w.write_u64(c.delivered_packets);
    w.write_u64(c.dropped_packets);
  }
}

std::vector<FlowCounters> load_flow_counters(CheckpointReader& r) {
  std::vector<FlowCounters> counters(static_cast<std::size_t>(r.read_u64()));
  for (auto& c : counters) {
    c.offered_bytes = r.read_i64();
    c.delivered_bytes = r.read_i64();
    c.dropped_bytes = r.read_i64();
    c.offered_packets = r.read_u64();
    c.delivered_packets = r.read_u64();
    c.dropped_packets = r.read_u64();
  }
  return counters;
}

void StatsCollector::save_state(CheckpointWriter& w) const {
  w.begin_section("stats");
  save_flow_counters(w, flows_);
  w.end_section();
}

void StatsCollector::restore_state(CheckpointReader& r) {
  r.begin_section("stats");
  std::vector<FlowCounters> flows = load_flow_counters(r);
  r.end_section();
  if (flows.size() != flows_.size()) {
    throw CheckpointFormatError("stats section holds " + std::to_string(flows.size()) +
                                " flows, the collector " + std::to_string(flows_.size()));
  }
  flows_ = std::move(flows);
}

}  // namespace bufq
