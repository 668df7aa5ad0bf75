// Measurement plumbing.  A StatsCollector accumulates per-flow byte and
// packet counters for traffic offered to the multiplexer, delivered by the
// link, and dropped by buffer management.  Experiments snapshot the
// counters after a warm-up period and diff snapshots to get steady-state
// throughput and loss.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/packet.h"
#include "util/units.h"

namespace bufq {

class CheckpointReader;
class CheckpointWriter;

struct FlowCounters {
  std::int64_t offered_bytes{0};
  std::int64_t delivered_bytes{0};
  std::int64_t dropped_bytes{0};
  std::uint64_t offered_packets{0};
  std::uint64_t delivered_packets{0};
  std::uint64_t dropped_packets{0};

  friend FlowCounters operator-(const FlowCounters& a, const FlowCounters& b) {
    return FlowCounters{
        a.offered_bytes - b.offered_bytes,     a.delivered_bytes - b.delivered_bytes,
        a.dropped_bytes - b.dropped_bytes,     a.offered_packets - b.offered_packets,
        a.delivered_packets - b.delivered_packets, a.dropped_packets - b.dropped_packets,
    };
  }

  FlowCounters& operator+=(const FlowCounters& other) {
    offered_bytes += other.offered_bytes;
    delivered_bytes += other.delivered_bytes;
    dropped_bytes += other.dropped_bytes;
    offered_packets += other.offered_packets;
    delivered_packets += other.delivered_packets;
    dropped_packets += other.dropped_packets;
    return *this;
  }

  /// Fraction of offered bytes that were dropped; zero when idle.
  [[nodiscard]] double loss_ratio() const {
    return offered_bytes > 0
               ? static_cast<double>(dropped_bytes) / static_cast<double>(offered_bytes)
               : 0.0;
  }
};

/// Checkpoint codec of a counter vector: the count, then six fields per
/// flow.  Shared by StatsCollector and the run harness's warmup snapshot.
void save_flow_counters(CheckpointWriter& w, const std::vector<FlowCounters>& counters);
[[nodiscard]] std::vector<FlowCounters> load_flow_counters(CheckpointReader& r);

class StatsCollector {
 public:
  /// Counters for flows [0, flow_count), sized once when the run is
  /// built: a churn run passes its FlowTable's fixed capacity, so every
  /// slot index is a flow the collector already holds.
  explicit StatsCollector(std::size_t flow_count);

  void on_offered(const Packet& packet);
  void on_delivered(const Packet& packet, Time now);
  void on_dropped(const Packet& packet, Time now);

  [[nodiscard]] const FlowCounters& flow(FlowId id) const;
  [[nodiscard]] FlowCounters total() const;
  [[nodiscard]] std::size_t flow_count() const { return flows_.size(); }

  /// Copy of all per-flow counters; diff two snapshots to measure an
  /// interval.
  [[nodiscard]] std::vector<FlowCounters> snapshot() const { return flows_; }

  /// Aggregate difference between two snapshots of the same collector:
  /// the sum of `after` minus the sum of `before`.  Kept for perfbench's
  /// traced churn pipeline; the library itself has no caller.
  [[nodiscard]] static FlowCounters total_delta(const std::vector<FlowCounters>& before,
                                                const std::vector<FlowCounters>& after);

  /// Checkpointable: every per-flow counter.  Restore refuses a section
  /// whose flow count differs from this collector's with
  /// CheckpointFormatError.
  void save_state(CheckpointWriter& w) const;
  void restore_state(CheckpointReader& r);

 private:
  FlowCounters& at(FlowId id);

  std::vector<FlowCounters> flows_;
};

/// PacketSink that counts a packet as offered, then forwards it.  Placed
/// between the (shaped) source and the link ingress.
class OfferedTrafficTap final : public PacketSink {
 public:
  OfferedTrafficTap(StatsCollector& collector, PacketSink& downstream)
      : collector_{collector}, downstream_{downstream} {}

  void accept(const Packet& packet) override {
    collector_.on_offered(packet);
    downstream_.accept(packet);
  }

 private:
  StatsCollector& collector_;
  PacketSink& downstream_;
};

}  // namespace bufq
