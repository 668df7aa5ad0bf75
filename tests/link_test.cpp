#include "sim/link.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "check/invariants.h"
#include "core/red.h"
#include "core/sharing.h"
#include "core/threshold.h"
#include "sched/fifo.h"
#include "sched/hybrid.h"
#include "sched/wfq.h"
#include "sim/checkpoint.h"
#include "sim/simulator.h"
#include "stats/collector.h"
#include "traffic/sources.h"
#include "util/rng.h"

namespace bufq {
namespace {

struct Harness {
  Simulator sim;
  TailDropManager mgr{ByteSize::megabytes(1.0), 4};
  FifoScheduler fifo{mgr};
  Link link{sim, fifo, Rate::megabits_per_second(4.0)};  // 500 B = 1 ms
  std::vector<std::pair<Packet, Time>> delivered;

  Harness() {
    link.set_delivery_handler(
        [this](const Packet& p, Time t) { delivered.emplace_back(p, t); });
  }
};

Packet make_packet(FlowId flow, std::uint64_t seq, std::int64_t size = 500) {
  return Packet{.flow = flow, .size_bytes = size, .seq = seq, .created = Time::zero()};
}

std::int64_t bytes_of(const std::vector<std::pair<Packet, Time>>& delivered) {
  std::int64_t bytes = 0;
  for (const auto& [packet, at] : delivered) bytes += packet.size_bytes;
  return bytes;
}

TEST(LinkTest, TransmitsSinglePacketAfterSerializationDelay) {
  Harness h;
  h.link.accept(make_packet(0, 0));
  EXPECT_TRUE(h.link.busy());
  h.sim.run();
  ASSERT_EQ(h.delivered.size(), 1u);
  EXPECT_EQ(h.delivered[0].second, Time::milliseconds(1));
  EXPECT_FALSE(h.link.busy());
}

TEST(LinkTest, BackToBackPacketsSpacedBySerialization) {
  Harness h;
  for (std::uint64_t i = 0; i < 5; ++i) h.link.accept(make_packet(0, i));
  h.sim.run();
  ASSERT_EQ(h.delivered.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(h.delivered[i].second, Time::milliseconds(static_cast<std::int64_t>(i + 1)));
  }
}

TEST(LinkTest, LargerPacketsTakeProportionallyLonger) {
  Harness h;
  h.link.accept(make_packet(0, 0, 1500));
  h.sim.run();
  ASSERT_EQ(h.delivered.size(), 1u);
  EXPECT_EQ(h.delivered[0].second, Time::milliseconds(3));
}

TEST(LinkTest, WorkConservingAcrossIdlePeriods) {
  Harness h;
  h.link.accept(make_packet(0, 0));
  h.sim.run();
  // Second packet arrives after an idle gap; service restarts immediately.
  h.sim.at(Time::seconds(1), [&] { h.link.accept(make_packet(0, 1)); });
  h.sim.run();
  ASSERT_EQ(h.delivered.size(), 2u);
  EXPECT_EQ(h.delivered[1].second, Time::seconds(1) + Time::milliseconds(1));
}

TEST(LinkTest, CountsDeliveredBytesAndPackets) {
  Harness h;
  for (std::uint64_t i = 0; i < 7; ++i) h.link.accept(make_packet(0, i, 300));
  h.sim.run();
  EXPECT_EQ(h.delivered.size(), 7u);
  EXPECT_EQ(bytes_of(h.delivered), 2'100);
}

TEST(LinkTest, UtilizationCapsAtLinkRate) {
  // Offer 3x the link rate; delivered bytes over a long window must not
  // exceed capacity (work conservation from the other side).
  Harness h;
  CbrSource source{h.sim, h.link, 0, Rate::megabits_per_second(12.0), 500};
  source.start();
  h.sim.run_until(Time::seconds(10));
  const double delivered_bps = static_cast<double>(bytes_of(h.delivered)) * 8.0 / 10.0;
  EXPECT_LE(delivered_bps, 4e6 * 1.001);
  EXPECT_GE(delivered_bps, 4e6 * 0.999);  // and it is fully utilized
}

TEST(LinkTest, FifoOrderPreservedEndToEnd) {
  Harness h;
  for (std::uint64_t i = 0; i < 100; ++i) {
    h.link.accept(make_packet(static_cast<FlowId>(i % 4), i));
  }
  h.sim.run();
  ASSERT_EQ(h.delivered.size(), 100u);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(h.delivered[i].first.seq, i);
  }
}

TEST(LinkTest, DroppedPacketsAreNeverDelivered) {
  Simulator sim;
  TailDropManager mgr{ByteSize::bytes(1'000), 1};  // two packets max
  FifoScheduler fifo{mgr};
  Link link{sim, fifo, Rate::megabits_per_second(4.0)};
  int drops = 0;
  fifo.set_drop_handler([&](const Packet&, Time) { ++drops; });
  std::vector<std::uint64_t> delivered_seqs;
  link.set_delivery_handler(
      [&](const Packet& p, Time) { delivered_seqs.push_back(p.seq); });
  // Burst of 5: one enters service immediately, two buffered, two dropped.
  for (std::uint64_t i = 0; i < 5; ++i) link.accept(make_packet(0, i));
  sim.run();
  EXPECT_EQ(drops, 2);
  EXPECT_EQ(delivered_seqs, (std::vector<std::uint64_t>{0, 1, 2}));
}

// --- LazyLink: the transmitter kept as state --------------------------------

/// A FIFO behind a LazyLink at 4 Mb/s (500 B = 1 ms), recording deliveries.
struct LazyHarness {
  Simulator sim;
  TailDropManager mgr{ByteSize::megabytes(1.0), 4};
  FifoScheduler fifo{mgr};
  LazyLink link{sim, fifo, Rate::megabits_per_second(4.0)};
  std::vector<std::pair<Packet, Time>> delivered;

  LazyHarness() {
    link.set_delivery_handler(
        [this](const Packet& p, Time t) { delivered.emplace_back(p, t); });
  }
};

TEST(LazyLinkTest, DeparturesFollowTheLindleyRecursion) {
  LazyHarness h;
  const Rate rate = h.link.rate();
  Rng rng{11};
  std::vector<std::pair<Time, std::int64_t>> arrivals;
  Time a = Time::zero();
  for (int i = 0; i < 2'000; ++i) {
    // Gaps around the mean service time, so the link alternates between
    // busy periods and idle ones.
    a += Time::nanoseconds(static_cast<std::int64_t>(rng.uniform_u64(2'000'000)));
    arrivals.emplace_back(a, 100 + static_cast<std::int64_t>(rng.uniform_u64(900)));
  }
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const auto [at, size] = arrivals[i];
    h.sim.at(at, [&h, i, size] { h.link.accept(make_packet(0, i, size)); });
  }
  h.sim.run();
  EXPECT_EQ(h.sim.events_processed(), arrivals.size()) << "the link filed events of its own";
  h.link.advance_through(Time::max());

  ASSERT_EQ(h.delivered.size(), arrivals.size());
  Time previous = Time::zero();
  for (std::size_t k = 0; k < arrivals.size(); ++k) {
    const auto [at, size] = arrivals[k];
    const Time expected = std::max(at, previous) + rate.transmission_time(size);
    EXPECT_EQ(h.delivered[k].first.seq, k);
    ASSERT_EQ(h.delivered[k].second, expected) << "packet " << k;
    previous = expected;
  }
}

TEST(LazyLinkTest, ArrivalAtADepartureSeesTheNextPacketStillBuffered) {
  // Packets 0 and 1 queue at t = 0; packet 0 departs at exactly 1 ms.  An
  // arrival filed before either began, at that instant, must find packet 0
  // still in service and packet 1 still buffered — as under the timer,
  // where its smaller seq pops it before the completion.
  std::size_t lazy_queue = 0;
  bool lazy_busy = false;
  {
    LazyHarness h;
    h.sim.at(Time::milliseconds(1), [&] {
      h.link.accept(make_packet(1, 9));
      lazy_queue = h.fifo.queue_length();
      lazy_busy = h.link.busy();
    });
    h.link.accept(make_packet(0, 0));
    h.link.accept(make_packet(0, 1));
    h.sim.run();
    EXPECT_TRUE(h.delivered.empty()) << "retired a departure at the arrival's own instant";
    h.link.advance_through(Time::max());
    ASSERT_EQ(h.delivered.size(), 3u);
    EXPECT_EQ(h.delivered[0].second, Time::milliseconds(1));
  }
  Harness timer;
  std::size_t timer_queue = 0;
  timer.sim.at(Time::milliseconds(1), [&] {
    timer.link.accept(make_packet(1, 9));
    timer_queue = timer.fifo.queue_length();
  });
  timer.link.accept(make_packet(0, 0));
  timer.link.accept(make_packet(0, 1));
  timer.sim.run();
  EXPECT_TRUE(lazy_busy);
  EXPECT_EQ(lazy_queue, 2u);
  EXPECT_EQ(timer_queue, lazy_queue);
}

TEST(LazyLinkTest, SingleLinkRunFilesNoCompletionEvents) {
  // Two CBR sources at 3 Mb/s each overload a 4 Mb/s link: it never idles,
  // yet the calendar holds only the sources' next emissions.
  LazyHarness h;
  StatsCollector stats{2};
  OfferedTrafficTap emitted{stats, h.link};
  CbrSource a{h.sim, emitted, 0, Rate::megabits_per_second(3.0), 500};
  CbrSource b{h.sim, emitted, 1, Rate::megabits_per_second(3.0), 500};
  a.start();
  b.start();
  std::size_t max_pending = 0;
  for (int ms = 1; ms <= 200; ++ms) {
    h.sim.run_until(Time::milliseconds(ms));
    max_pending = std::max(max_pending, h.sim.events_pending());
  }
  EXPECT_EQ(max_pending, 2u);
  // One event per emission after each source's first, which start() sends.
  EXPECT_EQ(h.sim.events_processed() + 2, stats.total().offered_packets);
  h.link.advance_through(h.sim.now());
  EXPECT_EQ(h.delivered.size(), 200u);  // one per ms, back to back
}

TEST(LazyLinkTest, CheckpointMidTransmissionResumesIdentically) {
  const Time snapshot = Time::microseconds(50'300);  // mid-transmission
  const Time horizon = Time::milliseconds(120);
  const auto run_sources = [](LazyHarness& h, std::vector<std::unique_ptr<CbrSource>>& sources) {
    sources.push_back(std::make_unique<CbrSource>(h.sim, h.link, 0,
                                                  Rate::megabits_per_second(2.5), 700));
    sources.push_back(std::make_unique<CbrSource>(h.sim, h.link, 1,
                                                  Rate::megabits_per_second(2.0), 300));
  };

  LazyHarness ref;
  std::vector<std::unique_ptr<CbrSource>> ref_sources;
  run_sources(ref, ref_sources);
  for (auto& s : ref_sources) s->start();
  ref.sim.run_until(horizon);
  ref.link.advance_through(horizon);

  std::vector<std::byte> blob;
  std::vector<std::pair<Packet, Time>> before;
  {
    LazyHarness h;
    std::vector<std::unique_ptr<CbrSource>> sources;
    run_sources(h, sources);
    for (auto& s : sources) s->start();
    h.sim.run_until(snapshot);
    h.link.advance_through(snapshot);
    ASSERT_TRUE(h.link.busy());
    ASSERT_GT(h.link.departs(), snapshot);
    CheckpointWriter w;
    h.sim.save_state(w);
    h.mgr.save_state(w);
    h.fifo.save_state(w);
    h.link.save_state(w);
    for (const auto& s : sources) s->save_state(w);
    blob = w.finish(0);
    before = h.delivered;
  }
  LazyHarness h;
  std::vector<std::unique_ptr<CbrSource>> sources;
  run_sources(h, sources);
  CheckpointReader r{blob};
  const std::uint64_t pending = h.sim.restore_state(r);
  h.mgr.restore_state(r);
  h.fifo.restore_state(r);
  h.link.restore_state(r);
  for (const auto& s : sources) s->restore_state(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(h.sim.events_pending(), pending);
  h.sim.run_until(horizon);
  h.link.advance_through(horizon);

  before.insert(before.end(), h.delivered.begin(), h.delivered.end());
  ASSERT_EQ(before.size(), ref.delivered.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].first.flow, ref.delivered[i].first.flow) << i;
    EXPECT_EQ(before[i].first.seq, ref.delivered[i].first.seq) << i;
    EXPECT_EQ(before[i].second, ref.delivered[i].second) << i;
  }
  EXPECT_EQ(h.sim.events_processed(), ref.sim.events_processed());
  EXPECT_EQ(bytes_of(before), bytes_of(ref.delivered));
}

TEST(LazyLinkTest, TieAuditFlagsAnEventFiledAfterTheTransmissionBegan) {
  if (!BUFQ_CHECKS_ENABLED) GTEST_SKIP() << "the tie audit needs -DBUFQ_CHECKS=ON";
  check::ScopedViolationCapture capture;
  LazyHarness h;
  // Packet 0 starts at t = 0 and departs at 1 ms.  The first probe is filed
  // before it began; the second is filed at 0.5 ms for 1 ms, so under the
  // timer it would pop after the completion — the lazy link cannot tell,
  // and the audit says so.
  h.sim.at(Time::milliseconds(1), [&] { h.link.advance_to(h.sim.now()); });
  h.link.accept(make_packet(0, 0));
  h.sim.run_until(Time::microseconds(100));
  EXPECT_EQ(capture.count(), 0u);
  h.sim.at(Time::microseconds(500), [&] {
    h.sim.at(Time::milliseconds(1), [&] { h.link.accept(make_packet(0, 1)); });
  });
  h.sim.run();
  ASSERT_EQ(capture.count(), 1u);
  EXPECT_EQ(capture.violations()[0].invariant, check::Invariant::kEventClock);
  EXPECT_EQ(capture.violations()[0].time, Time::milliseconds(1));
}

TEST(LazyLinkTest, TieAuditTreatsARetroactiveStartByItsTime) {
  if (!BUFQ_CHECKS_ENABLED) GTEST_SKIP() << "the tie audit needs -DBUFQ_CHECKS=ON";
  check::ScopedViolationCapture capture;
  LazyHarness h;
  // Packets 0 and 1 queue at t = 0; packet 1 starts, unobserved, at 1 ms
  // and departs at 2 ms.  A probe filed at 0.5 ms ties cleanly; one filed
  // at exactly 1 ms is ambiguous and counts as filed after.
  h.link.accept(make_packet(0, 0));
  h.link.accept(make_packet(0, 1));
  h.sim.at(Time::microseconds(500), [&] {
    h.sim.at(Time::milliseconds(2), [&] { h.link.advance_to(h.sim.now()); });
  });
  h.sim.at(Time::milliseconds(1), [&] {
    h.sim.at(Time::milliseconds(2), [&] { h.link.advance_to(h.sim.now()); });
  });
  h.sim.run();
  EXPECT_EQ(capture.count(), 1u);
}

// --- Differential: timer-driven Link vs LazyLink ---------------------------

/// A scheme's manager and discipline, owned together.
struct Pipeline {
  std::unique_ptr<BufferManager> manager;
  std::unique_ptr<QueueDiscipline> discipline;
  std::vector<FlowId> flows;
};

constexpr std::size_t kDiffFlows = 4;
const Rate kDiffRate = Rate::megabits_per_second(4.0);  // 500 B = 1 ms

std::vector<FlowSpec> diff_specs() {
  std::vector<FlowSpec> specs;
  for (std::size_t f = 0; f < kDiffFlows; ++f) {
    specs.push_back(FlowSpec{.rho = Rate::megabits_per_second(0.5 + 0.25 * static_cast<double>(f)),
                             .sigma = ByteSize::bytes(2'000)});
  }
  return specs;
}

using PipelineFactory = std::function<Pipeline()>;

Pipeline fifo_threshold() {
  Pipeline p;
  p.manager = std::make_unique<ThresholdManager>(ByteSize::bytes(6'000), kDiffRate, diff_specs());
  p.discipline = std::make_unique<FifoScheduler>(*p.manager);
  return p;
}

Pipeline wfq_sharing() {
  Pipeline p;
  p.manager = std::make_unique<BufferSharingManager>(ByteSize::bytes(6'000), kDiffRate,
                                                     diff_specs(), ByteSize::bytes(2'000));
  std::vector<double> weights;
  for (const auto& s : diff_specs()) weights.push_back(s.rho.bps());
  p.discipline = std::make_unique<WfqScheduler>(*p.manager, kDiffRate, std::move(weights));
  return p;
}

Pipeline hybrid_threshold() {
  HybridBuilder builder{kDiffRate, ByteSize::bytes(6'000), diff_specs(), {{0, 1}, {2, 3}}};
  auto manager = builder.make_threshold_manager();
  Pipeline p;
  p.discipline = builder.make_scheduler(*manager);
  p.manager = std::move(manager);
  return p;
}

RedParams diff_red() {
  return RedParams{.weight = 0.05, .min_threshold = 1'500, .max_threshold = 4'500, .max_p = 0.2};
}

Pipeline fifo_red() {
  Pipeline p;
  p.manager = std::make_unique<RedManager>(ByteSize::bytes(6'000), kDiffFlows, diff_red(), Rng{3});
  p.discipline = std::make_unique<FifoScheduler>(*p.manager);
  return p;
}

Pipeline fifo_fred() {
  Pipeline p;
  p.manager = std::make_unique<FredManager>(
      ByteSize::bytes(6'000), kDiffFlows,
      FredParams{.red = diff_red(), .min_q = 1'000, .strike_limit = 1}, Rng{4});
  p.discipline = std::make_unique<FifoScheduler>(*p.manager);
  return p;
}

/// Everything a link run exposes: departures, drops, and the manager's
/// gauges at each probe.
struct Trace {
  std::vector<std::tuple<FlowId, std::uint64_t, Time>> departures;
  std::vector<std::tuple<FlowId, std::uint64_t, Time>> drops;
  std::vector<std::vector<std::int64_t>> gauges;
};

struct Arrival {
  Time at;
  Packet packet;
};

/// Random arrivals at about 1.3x the link rate.  Arrival times and
/// transmission times are both multiples of 0.5 ms (250 B), so every
/// departure lands on the arrivals' grid and many arrivals come at exactly
/// a departure instant; a zero gap makes simultaneous arrivals.
std::vector<Arrival> random_arrivals(std::uint64_t seed) {
  Rng rng{seed};
  std::vector<Arrival> arrivals;
  std::vector<std::uint64_t> seqs(kDiffFlows, 0);
  Time t = Time::zero();
  for (int i = 0; i < 3'000; ++i) {
    t += Time::microseconds(500 * static_cast<std::int64_t>(rng.uniform_u64(6)));
    const auto flow = static_cast<FlowId>(rng.uniform_u64(kDiffFlows));
    const std::int64_t size = 250 * (1 + static_cast<std::int64_t>(rng.uniform_u64(6)));
    arrivals.push_back(Arrival{t, Packet{.flow = flow,
                                         .size_bytes = size,
                                         .seq = seqs[static_cast<std::size_t>(flow)]++,
                                         .created = t}});
  }
  return arrivals;
}

/// Feeds `arrivals` to `Sink` over a fresh pipeline.  Every arrival and
/// probe is filed up front, before any transmission begins, so the tie
/// rule holds for all of them by construction.
template <typename Sink>
Trace run_trace(const PipelineFactory& make, const std::vector<Arrival>& arrivals) {
  Simulator sim;
  Pipeline p = make();
  Sink link{sim, *p.discipline, kDiffRate};
  Trace trace;
  link.set_delivery_handler([&](const Packet& pk, Time t) {
    trace.departures.emplace_back(pk.flow, pk.seq, t);
  });
  p.discipline->set_drop_handler(
      [&](const Packet& pk, Time t) { trace.drops.emplace_back(pk.flow, pk.seq, t); });
  const auto probe = [&] {
    if constexpr (std::is_same_v<Sink, LazyLink>) link.advance_to(sim.now());
    std::vector<std::int64_t> g{p.manager->total_occupancy(), p.discipline->backlog_bytes(),
                                static_cast<std::int64_t>(trace.departures.size())};
    for (std::size_t f = 0; f < kDiffFlows; ++f) {
      g.push_back(p.manager->occupancy(static_cast<FlowId>(f)));
    }
    trace.gauges.push_back(std::move(g));
  };
  for (const Arrival& a : arrivals) {
    sim.at(a.at, [&link, &a] { link.accept(a.packet); });
  }
  for (Time t = Time::microseconds(500); t < arrivals.back().at; t += Time::microseconds(997)) {
    sim.at(t, probe);
  }
  const Time horizon = arrivals.back().at + Time::milliseconds(2);
  sim.run_until(horizon);
  if constexpr (std::is_same_v<Sink, LazyLink>) link.advance_through(horizon);
  probe();
  return trace;
}

/// The schemes the differential covers, by name (a plain string keeps the
/// generated test names free of addresses).
PipelineFactory pipeline_named(const std::string& name) {
  if (name == "FifoThreshold") return fifo_threshold;
  if (name == "WfqSharing") return wfq_sharing;
  if (name == "HybridThreshold") return hybrid_threshold;
  if (name == "FifoRed") return fifo_red;
  return fifo_fred;
}

class LinkDifferentialTest : public ::testing::TestWithParam<std::string> {};

TEST_P(LinkDifferentialTest, LazyLinkReproducesTheTimerDrivenLink) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto arrivals = random_arrivals(seed);
    const Trace timer = run_trace<Link>(pipeline_named(GetParam()), arrivals);
    const Trace lazy = run_trace<LazyLink>(pipeline_named(GetParam()), arrivals);
    ASSERT_GT(timer.departures.size(), 1'000u);
    ASSERT_FALSE(timer.drops.empty()) << "the stream never pressed the manager";
    EXPECT_EQ(lazy.departures, timer.departures) << "seed " << seed;
    EXPECT_EQ(lazy.drops, timer.drops) << "seed " << seed;
    EXPECT_EQ(lazy.gauges, timer.gauges) << "seed " << seed;
    // Ties were exercised: some arrival landed on a departure instant.
    std::size_t ties = 0;
    std::size_t a = 0;
    for (const auto& [flow, seq, t] : timer.departures) {
      while (a < arrivals.size() && arrivals[a].at < t) ++a;
      if (a < arrivals.size() && arrivals[a].at == t) ++ties;
    }
    EXPECT_GT(ties, 50u) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Schemes, LinkDifferentialTest,
                         ::testing::Values("FifoThreshold", "WfqSharing", "HybridThreshold",
                                           "FifoRed", "FifoFred"),
                         [](const auto& scheme) { return scheme.param; });

}  // namespace
}  // namespace bufq
