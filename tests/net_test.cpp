#include "net/node.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include "core/threshold.h"
#include "obs/metrics.h"
#include "sched/fifo.h"
#include "sim/checkpoint.h"
#include "sim/simulator.h"
#include "stats/collector.h"
#include "traffic/sources.h"

namespace bufq {
namespace {

const Rate kLink = Rate::megabits_per_second(48.0);
constexpr std::int64_t kPkt = 500;

class RecordingSink final : public PacketSink {
 public:
  void accept(const Packet& packet) override { packets.push_back(packet); }
  [[nodiscard]] std::int64_t total_bytes() const {
    std::int64_t sum = 0;
    for (const auto& p : packets) sum += p.size_bytes;
    return sum;
  }
  std::vector<Packet> packets;
};

/// Builds a FIFO+tail-drop port carrying flows 0 .. flows-1 (slot k holds
/// flow k).
std::unique_ptr<OutputPort> make_port(Simulator& sim, Rate rate, Time prop,
                                      PacketSink* downstream, std::size_t flows = 4,
                                      ByteSize buffer = ByteSize::megabytes(1.0)) {
  auto manager = std::make_unique<TailDropManager>(buffer, flows);
  auto discipline = std::make_unique<FifoScheduler>(*manager);
  std::vector<FlowId> carried(flows);
  std::iota(carried.begin(), carried.end(), 0);
  return std::make_unique<OutputPort>(sim, rate, prop, std::move(manager),
                                      std::move(discipline), downstream, std::move(carried));
}

TEST(NodeTest, ForwardsByRoute) {
  Simulator sim;
  RecordingSink sink_a;
  RecordingSink sink_b;
  Node node{"r1"};
  node.add_port(make_port(sim, kLink, Time::zero(), &sink_a));
  node.add_port(make_port(sim, kLink, Time::zero(), &sink_b));
  node.route(0, 0);
  node.route(1, 1);
  node.accept(Packet{.flow = 0, .size_bytes = kPkt, .seq = 0, .created = Time::zero()});
  node.accept(Packet{.flow = 1, .size_bytes = kPkt, .seq = 0, .created = Time::zero()});
  sim.run();
  EXPECT_EQ(sink_a.packets.size(), 1u);
  EXPECT_EQ(sink_b.packets.size(), 1u);
  EXPECT_EQ(sink_a.packets[0].flow, 0);
  EXPECT_EQ(sink_b.packets[0].flow, 1);
}

TEST(NodeTest, UnroutedFlowCountedAndDropped) {
  Simulator sim;
  RecordingSink sink;
  Node node{"r1"};
  node.add_port(make_port(sim, kLink, Time::zero(), &sink));
  node.route(0, 0);
  node.accept(Packet{.flow = 5, .size_bytes = kPkt, .seq = 0, .created = Time::zero()});
  sim.run();
  EXPECT_EQ(node.unrouted_packets(), 1u);
  EXPECT_TRUE(sink.packets.empty());
}

TEST(NodeTest, PropagationDelaysDelivery) {
  Simulator sim;
  RecordingSink sink;
  Node node{"r1"};
  node.add_port(make_port(sim, kLink, Time::milliseconds(10), &sink));
  node.route(0, 0);
  node.accept(Packet{.flow = 0, .size_bytes = kPkt, .seq = 0, .created = Time::zero()});
  sim.run();
  // Serialization (~83us at 48 Mb/s) + 10 ms propagation.
  EXPECT_EQ(sim.now(), kLink.transmission_time(kPkt) + Time::milliseconds(10));
  ASSERT_EQ(sink.packets.size(), 1u);
}

TEST(NodeTest, PortDropAccounting) {
  Simulator sim;
  RecordingSink sink;
  Node node{"r1"};
  node.add_port(make_port(sim, kLink, Time::zero(), &sink, 4, ByteSize::bytes(1'000)));
  node.route(0, 0);
  StatsCollector stats{1};
  node.port(0).set_drop_tap([&stats](const Packet& p, Time t) { stats.on_dropped(p, t); });
  for (std::uint64_t i = 0; i < 10; ++i) {
    node.accept(Packet{.flow = 0, .size_bytes = kPkt, .seq = i, .created = Time::zero()});
  }
  sim.run();
  // One in service + two buffered; seven dropped.
  EXPECT_EQ(stats.flow(0).dropped_packets, 7u);
  EXPECT_EQ(stats.flow(0).dropped_bytes, 7 * kPkt);
  EXPECT_EQ(sink.packets.size(), 3u);
}

TEST(NodeTest, TwoHopChainDeliversEndToEnd) {
  Simulator sim;
  RecordingSink sink;
  Node r2{"r2"};
  r2.add_port(make_port(sim, kLink, Time::milliseconds(1), &sink));
  r2.route(0, 0);
  Node r1{"r1"};
  r1.add_port(make_port(sim, kLink, Time::milliseconds(1), &r2));
  r1.route(0, 0);

  CbrSource source{sim, r1, 0, Rate::megabits_per_second(4.0), kPkt};
  source.start();
  sim.run_until(Time::seconds(5));
  // ~5s * 1000 pkt/s, minus in-flight.
  EXPECT_NEAR(static_cast<double>(sink.packets.size()), 5'000.0, 10.0);
}

/// The propagation wire is a constant-delay FIFO: packets of several
/// interleaved flows must reach the downstream sink in exactly the order
/// they finished transmission, with per-flow sequence numbers monotone.
TEST(NodeTest, FifoOrderingAcrossPropagationWire) {
  Simulator sim;
  RecordingSink sink;
  Node node{"r1"};
  node.add_port(make_port(sim, kLink, Time::milliseconds(5), &sink));
  node.route(0, 0);
  node.route(1, 0);

  CbrSource a{sim, node, 0, Rate::megabits_per_second(8.0), kPkt};
  CbrSource b{sim, node, 1, Rate::megabits_per_second(6.0), kPkt};
  a.start();
  b.start();
  sim.run_until(Time::seconds(1));

  ASSERT_GT(sink.packets.size(), 100u);
  std::uint64_t next_seq[2] = {0, 0};
  for (const Packet& p : sink.packets) {
    ASSERT_GE(p.flow, 0);
    ASSERT_LT(p.flow, 2);
    EXPECT_EQ(p.seq, next_seq[static_cast<std::size_t>(p.flow)])
        << "flow " << p.flow << " reordered";
    ++next_seq[static_cast<std::size_t>(p.flow)];
  }
}

/// Records each delivery with the simulated time it arrived.
class TimedSink final : public PacketSink {
 public:
  struct Arrival {
    FlowId flow;
    std::uint64_t seq;
    Time at;
    bool operator==(const Arrival&) const = default;
  };
  explicit TimedSink(const Simulator& sim) : sim_{sim} {}
  void accept(const Packet& packet) override {
    arrivals.push_back(Arrival{packet.flow, packet.seq, sim_.now()});
  }
  std::vector<Arrival> arrivals;

 private:
  const Simulator& sim_;
};

/// A wire holds its packets in FIFO order and files only its head on the
/// calendar: once a burst has left the link, one event stands for all of
/// it, and each packet still arrives exactly one propagation delay after
/// its transmission ended.
TEST(NodeTest, WireArmsOnlyItsHead) {
  constexpr std::uint64_t kBurst = 12;
  const Time prop = Time::milliseconds(10);
  const Time tx = kLink.transmission_time(kPkt);
  Simulator sim;
  TimedSink sink{sim};
  Node node{"r1"};
  node.add_port(make_port(sim, kLink, prop, &sink));
  node.route(0, 0);
  for (std::uint64_t i = 0; i < kBurst; ++i) {
    node.accept(Packet{.flow = 0, .size_bytes = kPkt, .seq = i, .created = Time::zero()});
  }
  const Time last_tx_end = tx * static_cast<std::int64_t>(kBurst);
  ASSERT_LT(last_tx_end, tx + prop);
  sim.run_until(last_tx_end + Time::microseconds(1));
  EXPECT_TRUE(sink.arrivals.empty());
  EXPECT_EQ(sim.events_pending(), 1u);

  sim.run();
  ASSERT_EQ(sink.arrivals.size(), kBurst);
  for (std::uint64_t i = 0; i < kBurst; ++i) {
    EXPECT_EQ(sink.arrivals[i].seq, i);
    EXPECT_EQ(sink.arrivals[i].at, tx * static_cast<std::int64_t>(i + 1) + prop) << "packet " << i;
  }
}

/// A checkpoint taken while packets sit on the wire restores every one of
/// them (the head on the calendar, the rest behind it), and the restored
/// run delivers the same packets at the same times as the uninterrupted one.
TEST(NodeTest, MidWireCheckpointResumesIdentically) {
  const Time prop = Time::milliseconds(10);
  const Time tx = kLink.transmission_time(kPkt);
  // Six packets are on the wire and four still queued or in service.
  const Time snapshot_at = tx * 6 + Time::microseconds(1);
  const auto build = [&](Simulator& sim, TimedSink& sink, Node& node) {
    node.add_port(make_port(sim, kLink, prop, &sink));
    node.route(0, 0);
    node.route(1, 0);
  };
  const auto offer = [](Node& node) {
    for (std::uint64_t i = 0; i < 10; ++i) {
      node.accept(Packet{.flow = static_cast<FlowId>(i % 2), .size_bytes = kPkt, .seq = i,
                         .created = Time::zero()});
    }
  };

  Simulator ref_sim;
  TimedSink ref_sink{ref_sim};
  Node ref_node{"r1"};
  build(ref_sim, ref_sink, ref_node);
  offer(ref_node);
  ref_sim.run();

  std::vector<std::byte> blob;
  {
    Simulator sim;
    TimedSink sink{sim};
    Node node{"r1"};
    build(sim, sink, node);
    offer(node);
    sim.run_until(snapshot_at);
    ASSERT_TRUE(sink.arrivals.empty());
    CheckpointWriter w;
    sim.save_state(w);
    node.save_state(w, 0);
    blob = w.finish(0);
  }
  Simulator sim;
  TimedSink sink{sim};
  Node node{"r1"};
  build(sim, sink, node);
  CheckpointReader r{blob};
  const std::uint64_t expected_pending = sim.restore_state(r);
  node.restore_state(r, 0);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(sim.events_pending(), expected_pending);
  sim.run();

  EXPECT_EQ(sink.arrivals, ref_sink.arrivals);
  EXPECT_EQ(sim.events_processed(), ref_sim.events_processed());
}

/// The drop tap fires once per refused packet, with the refusal
/// timestamp.
TEST(NodeTest, DropTapObservesEveryRefusal) {
  Simulator sim;
  RecordingSink sink;
  Node node{"r1"};
  node.add_port(make_port(sim, kLink, Time::zero(), &sink, 4, ByteSize::bytes(1'000)));
  node.route(0, 0);

  std::uint64_t taps = 0;
  std::int64_t tap_bytes = 0;
  node.port(0).set_drop_tap([&](const Packet& p, Time) {
    ++taps;
    tap_bytes += p.size_bytes;
  });
  for (std::uint64_t i = 0; i < 10; ++i) {
    node.accept(Packet{.flow = 0, .size_bytes = kPkt, .seq = i, .created = Time::zero()});
  }
  sim.run();
  EXPECT_EQ(taps, 7u);
  EXPECT_EQ(tap_bytes, 7 * kPkt);
}

/// Ports and nodes export their counters through the obs registry: drops,
/// drop bytes, unrouted packets, and the wire-occupancy gauge (which must
/// return to zero once the simulation drains).
TEST(NodeTest, MetricsExportedThroughRegistry) {
  // The handles resolve against the innermost registry at construction, so
  // the scope must exist before the node.
  obs::ScopedMetrics scope;
  Simulator sim;
  RecordingSink sink;
  Node node{"r1"};
  node.add_port(make_port(sim, kLink, Time::milliseconds(1), &sink, 4,
                          ByteSize::bytes(1'000)));
  node.route(0, 0);
  for (std::uint64_t i = 0; i < 10; ++i) {
    node.accept(Packet{.flow = 0, .size_bytes = kPkt, .seq = i, .created = Time::zero()});
  }
  node.accept(Packet{.flow = 9, .size_bytes = kPkt, .seq = 0, .created = Time::zero()});
  sim.run();

  const auto snap = scope.registry().snapshot();
  EXPECT_EQ(snap.counters.at("net.drops"), 7u);
  EXPECT_EQ(snap.counters.at("net.drop_bytes"), static_cast<std::uint64_t>(7 * kPkt));
  EXPECT_EQ(snap.counters.at("net.unrouted_packets"), 1u);
  const auto wire = snap.gauges.at("net.wire_packets");
  EXPECT_EQ(wire.last, 0);
  EXPECT_GE(wire.max, 1);
}

TEST(OutputEnvelopeTest, BurstGrowsByRhoTimesDelayBound) {
  const FlowSpec in{Rate::megabits_per_second(12.0), ByteSize::kilobytes(50.0)};
  // Hop: 1 MB buffer at 48 Mb/s -> delay bound 1/6 s; growth = 1.5e6/6 =
  // 250 KB.
  const auto out = output_envelope(in, ByteSize::megabytes(1.0), kLink);
  EXPECT_EQ(out.rho, in.rho);
  EXPECT_EQ(out.sigma, ByteSize::kilobytes(300.0));
}

TEST(OutputEnvelopeTest, ComposesAcrossHops) {
  const FlowSpec in{Rate::megabits_per_second(6.0), ByteSize::kilobytes(10.0)};
  auto hop1 = output_envelope(in, ByteSize::kilobytes(480.0), kLink);
  auto hop2 = output_envelope(hop1, ByteSize::kilobytes(480.0), kLink);
  // Each hop adds rho * B/R = 0.75e6 B/s * 0.08 s = 60 KB.
  EXPECT_EQ(hop1.sigma, ByteSize::kilobytes(70.0));
  EXPECT_EQ(hop2.sigma, ByteSize::kilobytes(130.0));
}

/// End-to-end protection across two hops: a conformant flow crosses two
/// FIFO routers with per-hop threshold management and per-hop local
/// adversaries; provisioning hop 2 with the inflated output envelope
/// keeps the flow lossless the whole way.
TEST(NodeTest, PerHopThresholdsProtectAcrossTwoHops) {
  Simulator sim;
  const auto buffer = ByteSize::kilobytes(500.0);
  const FlowSpec e2e{Rate::megabits_per_second(12.0), ByteSize::bytes(2 * kPkt)};

  // Hop 2 carries {0 = the protected flow, 2 = local adversary} in slots
  // 0 and 1.
  const auto hop2_spec = output_envelope(e2e, buffer, kLink);
  const auto t0_hop2 = hop2_spec.sigma.count() + 2 * kPkt +
                       static_cast<std::int64_t>(
                           static_cast<double>(buffer.count()) * (hop2_spec.rho / kLink));
  RecordingSink sink;
  Node r2{"r2"};
  {
    auto manager = std::make_unique<ThresholdManager>(
        buffer, std::vector<std::int64_t>{t0_hop2, buffer.count() - t0_hop2});
    auto discipline = std::make_unique<FifoScheduler>(*manager);
    r2.add_port(std::make_unique<OutputPort>(sim, kLink, Time::milliseconds(1),
                                             std::move(manager), std::move(discipline),
                                             &sink, std::vector<FlowId>{0, 2}));
  }
  r2.route(0, 0);
  r2.route(2, 0);

  // Hop 1 carries {0, 1 = local adversary}.
  const auto t0_hop1 =
      e2e.sigma.count() +
      static_cast<std::int64_t>(static_cast<double>(buffer.count()) * (e2e.rho / kLink));
  Node r1{"r1"};
  {
    auto manager = std::make_unique<ThresholdManager>(
        buffer, std::vector<std::int64_t>{t0_hop1, buffer.count() - t0_hop1});
    auto discipline = std::make_unique<FifoScheduler>(*manager);
    r1.add_port(std::make_unique<OutputPort>(sim, kLink, Time::milliseconds(1),
                                             std::move(manager), std::move(discipline),
                                             &r2, std::vector<FlowId>{0, 1}));
  }
  r1.route(0, 0);
  r1.route(1, 0);

  StatsCollector sent{1};
  OfferedTrafficTap protected_entry{sent, r1};
  CbrSource protected_flow{sim, protected_entry, 0, e2e.rho, kPkt};
  CbrSource adversary1{sim, r1, 1, kLink * 2.0, kPkt};
  CbrSource adversary2{sim, r2, 2, kLink * 2.0, kPkt};
  adversary1.start();
  adversary2.start();
  protected_flow.start();
  sim.run_until(Time::seconds(20));

  // The protected flow loses nothing at either hop...
  const std::int64_t flow0_sent = sent.flow(0).offered_bytes;
  std::int64_t flow0_received = 0;
  for (const auto& p : sink.packets) {
    if (p.flow == 0) flow0_received += p.size_bytes;
  }
  // ...up to what is still in flight/buffered (two hops of B/R plus
  // propagation: ~170 ms of its own rate).
  const double in_flight_allowance = e2e.rho.bytes_per_second() * 0.25;
  EXPECT_GE(static_cast<double>(flow0_received),
            static_cast<double>(flow0_sent) - in_flight_allowance);
  // And its long-run rate is the guarantee.
  const double rate = static_cast<double>(flow0_received) * 8.0 / 20.0;
  EXPECT_NEAR(rate, e2e.rho.bps(), e2e.rho.bps() * 0.05);
}

}  // namespace
}  // namespace bufq
