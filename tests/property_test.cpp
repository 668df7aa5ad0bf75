// Parameterized property tests for the paper's central guarantees,
// exercised at the packet level (the propositions are proved in the fluid
// model; these sweeps check that packetization does not break them in
// practice).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include "core/sharing.h"
#include "core/threshold.h"
#include "invariant_audit.h"
#include "sched/fifo.h"
#include "sched/rpq.h"
#include "sched/wfq.h"
#include "sim/link.h"
#include "sim/simulator.h"
#include "traffic/shaper.h"
#include "traffic/sources.h"

namespace bufq {
namespace {

const Rate kLink = Rate::megabits_per_second(48.0);
constexpr std::int64_t kPkt = 500;

// ------------------------------------------------------ Proposition 1

/// (rho1 share of link x 8, buffer KB, adversary overdrive factor).
using Prop1Param = std::tuple<int, int, int>;

class Prop1PacketTest : public ::testing::TestWithParam<Prop1Param> {};

TEST_P(Prop1PacketTest, ConformantCbrFlowIsLossless) {
  const auto [share8, buffer_kb, overdrive] = GetParam();
  const Rate rho1 = kLink * (static_cast<double>(share8) / 8.0);
  const auto buffer = ByteSize::kilobytes(static_cast<double>(buffer_kb));

  // Flow 0: CBR at exactly rho1 with threshold B*rho1/R plus a two-packet
  // allowance for packetization; flow 1 (greedy adversary) gets the rest
  // of the buffer, the paper's exact B1 + B2 = B split.
  const auto t0 = static_cast<std::int64_t>(
      static_cast<double>(buffer.count()) * (rho1 / kLink)) + 2 * kPkt;
  Simulator sim;
  ThresholdManager mgr{buffer, std::vector<std::int64_t>{t0, buffer.count() - t0}};
  FifoScheduler fifo{mgr};
  Link link{sim, fifo, kLink};

  std::int64_t flow0_drops = 0;
  fifo.set_drop_handler([&](const Packet& p, Time) {
    if (p.flow == 0) ++flow0_drops;
  });

  CbrSource conformant{sim, link, 0, rho1, kPkt};
  CbrSource adversary{sim, link, 1, kLink * static_cast<double>(overdrive), kPkt};
  adversary.start();  // adversary gets a head start on simultaneous events
  conformant.start();
  sim.run_until(Time::seconds(20));

  EXPECT_EQ(flow0_drops, 0)
      << "conformant flow lost packets with share " << share8 << "/8, buffer " << buffer_kb
      << " KB, overdrive " << overdrive << "x";
}

INSTANTIATE_TEST_SUITE_P(
    ShareBufferOverdriveSweep, Prop1PacketTest,
    ::testing::Combine(::testing::Values(1, 2, 4, 6),       // rho1 = R/8 .. 6R/8
                       ::testing::Values(100, 500, 1000),   // buffer KB
                       ::testing::Values(2, 5)),            // adversary overdrive
    [](const auto& test_param) {
      return "share" + std::to_string(std::get<0>(test_param.param)) + "_buf" +
             std::to_string(std::get<1>(test_param.param)) + "kb_over" +
             std::to_string(std::get<2>(test_param.param)) + "x";
    });

TEST_P(Prop1PacketTest, ConformantFlowAchievesLongRunRate) {
  const auto [share8, buffer_kb, overdrive] = GetParam();
  const Rate rho1 = kLink * (static_cast<double>(share8) / 8.0);
  const auto buffer = ByteSize::kilobytes(static_cast<double>(buffer_kb));
  const auto t0 = static_cast<std::int64_t>(
      static_cast<double>(buffer.count()) * (rho1 / kLink)) + 2 * kPkt;
  Simulator sim;
  ThresholdManager mgr{buffer, std::vector<std::int64_t>{t0, buffer.count() - t0}};
  FifoScheduler fifo{mgr};
  Link link{sim, fifo, kLink};

  std::int64_t flow0_delivered = 0;
  link.set_delivery_handler([&](const Packet& p, Time t) {
    // Measure after a warmup that covers the Example 1 transient.
    if (p.flow == 0 && t > Time::seconds(5)) flow0_delivered += p.size_bytes;
  });

  CbrSource conformant{sim, link, 0, rho1, kPkt};
  CbrSource adversary{sim, link, 1, kLink * static_cast<double>(overdrive), kPkt};
  adversary.start();
  conformant.start();
  sim.run_until(Time::seconds(25));

  const double rate = static_cast<double>(flow0_delivered) * 8.0 / 20.0;
  EXPECT_NEAR(rate, rho1.bps(), rho1.bps() * 0.05);
}

// ------------------------------------------------------ Proposition 2

/// (sigma KB, rho1 share x 8).
using Prop2Param = std::tuple<int, int>;

class Prop2PacketTest : public ::testing::TestWithParam<Prop2Param> {};

TEST_P(Prop2PacketTest, ShapedBurstyFlowIsLossless) {
  const auto [sigma_kb, share8] = GetParam();
  const Rate rho1 = kLink * (static_cast<double>(share8) / 8.0);
  const auto sigma = ByteSize::kilobytes(static_cast<double>(sigma_kb));
  const auto buffer = ByteSize::megabytes(1.0);

  // Proposition 2 split: T0 = sigma + B*rho1/R (plus a two-packet
  // packetization allowance), adversary threshold B - T0.
  const auto t0 = sigma.count() + 2 * kPkt +
                  static_cast<std::int64_t>(static_cast<double>(buffer.count()) * (rho1 / kLink));
  Simulator sim;
  ThresholdManager mgr{buffer, std::vector<std::int64_t>{t0, buffer.count() - t0}};
  FifoScheduler fifo{mgr};
  Link link{sim, fifo, kLink};

  std::int64_t flow0_drops = 0;
  fifo.set_drop_handler([&](const Packet& p, Time) {
    if (p.flow == 0) ++flow0_drops;
  });

  // Bursty ON-OFF source shaped to (sigma, rho1): the arrivals into the
  // FIFO are conformant by construction, so Proposition 2 promises no
  // loss even against the greedy adversary.
  LeakyBucketShaper shaper{sim, link, sigma, rho1};
  MarkovOnOffSource::Params params{
      .flow = 0,
      .peak_rate = kLink,
      .mean_on = Time::milliseconds(10),
      .mean_off = Time::milliseconds(30),
      .packet_bytes = kPkt,
  };
  MarkovOnOffSource source{sim, shaper, params, Rng{99}};
  CbrSource adversary{sim, link, 1, kLink * 3.0, kPkt};
  adversary.start();
  source.start();
  sim.run_until(Time::seconds(20));

  EXPECT_EQ(flow0_drops, 0);
}

INSTANTIATE_TEST_SUITE_P(SigmaShareSweep, Prop2PacketTest,
                         ::testing::Combine(::testing::Values(10, 50, 100),
                                            ::testing::Values(1, 2, 4)),
                         [](const auto& test_param) {
                           return "sigma" + std::to_string(std::get<0>(test_param.param)) +
                                  "kb_share" + std::to_string(std::get<1>(test_param.param));
                         });

// ------------------------------------------- WFQ rate guarantee sweep

class WfqGuaranteeTest : public ::testing::TestWithParam<int> {};

TEST_P(WfqGuaranteeTest, BackloggedFlowsSplitByWeights) {
  // Weight ratio 1:k between two permanently backlogged flows.
  const int k = GetParam();
  Simulator sim;
  ThresholdManager mgr{ByteSize::kilobytes(100.0),
                       std::vector<std::int64_t>{50'000, 50'000}};
  WfqScheduler wfq{mgr, kLink, std::vector<double>{1.0, static_cast<double>(k)}};
  Link link{sim, wfq, kLink};

  std::vector<std::int64_t> delivered(2, 0);
  link.set_delivery_handler([&](const Packet& p, Time t) {
    if (t > Time::seconds(1)) delivered[static_cast<std::size_t>(p.flow)] += p.size_bytes;
  });

  CbrSource s0{sim, link, 0, kLink * 2.0, kPkt};
  CbrSource s1{sim, link, 1, kLink * 2.0, kPkt};
  s0.start();
  s1.start();
  sim.run_until(Time::seconds(6));

  const double ratio = static_cast<double>(delivered[1]) / static_cast<double>(delivered[0]);
  EXPECT_NEAR(ratio, static_cast<double>(k), static_cast<double>(k) * 0.05);
}

INSTANTIATE_TEST_SUITE_P(WeightSweep, WfqGuaranteeTest, ::testing::Values(1, 2, 3, 5, 8),
                         [](const auto& test_param) {
                           return "weight1to" + std::to_string(test_param.param);
                         });

// --------------------------------- buffer sharing: equal excess split

class SharingExcessTest : public ::testing::TestWithParam<int> {};

TEST_P(SharingExcessTest, ActiveFlowsGetReservationPlusEqualExcess) {
  // Two greedy flows with asymmetric reservations (r and 24-r Mb/s) on a
  // generously buffered link with sharing: each should receive roughly
  // its reservation plus half the unreserved capacity (Section 5's
  // characterization of the sharing model).
  const double r = static_cast<double>(GetParam());
  const Rate rho0 = Rate::megabits_per_second(r);
  const Rate rho1 = Rate::megabits_per_second(24.0 - r);
  const std::vector<FlowSpec> specs{
      {rho0, ByteSize::kilobytes(25.0)},
      {rho1, ByteSize::kilobytes(25.0)},
  };
  Simulator sim;
  BufferSharingManager mgr{ByteSize::megabytes(2.0), kLink, specs, ByteSize::kilobytes(200.0)};
  FifoScheduler fifo{mgr};
  Link link{sim, fifo, kLink};

  std::vector<std::int64_t> delivered(2, 0);
  link.set_delivery_handler([&](const Packet& p, Time t) {
    if (t > Time::seconds(2)) delivered[static_cast<std::size_t>(p.flow)] += p.size_bytes;
  });

  CbrSource s0{sim, link, 0, kLink, kPkt};
  CbrSource s1{sim, link, 1, kLink, kPkt};
  s0.start();
  s1.start();
  sim.run_until(Time::seconds(12));

  const double excess = 48.0 - 24.0;
  const double expect0 = r + excess / 2.0;
  const double expect1 = (24.0 - r) + excess / 2.0;
  const double got0 = static_cast<double>(delivered[0]) * 8.0 / 10.0 * 1e-6;
  const double got1 = static_cast<double>(delivered[1]) * 8.0 / 10.0 * 1e-6;
  EXPECT_NEAR(got0, expect0, 3.0) << "flow 0";
  EXPECT_NEAR(got1, expect1, 3.0) << "flow 1";
  // And nobody falls below their reservation.
  EXPECT_GE(got0, r * 0.95);
  EXPECT_GE(got1, (24.0 - r) * 0.95);
}

INSTANTIATE_TEST_SUITE_P(ReservationSweep, SharingExcessTest,
                         ::testing::Values(4, 8, 12, 16, 20),
                         [](const auto& test_param) {
                           return "rsv" + std::to_string(test_param.param) + "mbps";
                         });

// ------------------------------------------------- work conservation

/// With identical arrivals, a generous buffer (no drops) and equal packet
/// sizes, every work-conserving discipline has the same busy periods and
/// therefore delivers exactly the same number of bytes by any time.
TEST(WorkConservationTest, AllSchedulersDeliverIdenticalTotals) {
  auto run = [](int which) {
    Simulator sim;
    TailDropManager mgr{ByteSize::megabytes(50.0), 3};
    std::unique_ptr<QueueDiscipline> discipline;
    switch (which) {
      case 0:
        discipline = std::make_unique<FifoScheduler>(mgr);
        break;
      case 1:
        discipline = std::make_unique<WfqScheduler>(mgr, kLink,
                                                    std::vector<double>{1.0, 2.0, 3.0});
        break;
      default:
        discipline = std::make_unique<RpqScheduler>(
            mgr,
            std::vector<Time>{Time::milliseconds(1), Time::milliseconds(5),
                              Time::milliseconds(20)},
            Time::milliseconds(1));
    }
    Link link{sim, *discipline, kLink};
    std::vector<std::unique_ptr<MarkovOnOffSource>> sources;
    Rng master{555};
    for (FlowId f = 0; f < 3; ++f) {
      // 20 Mb/s peak at 50% duty: 10 Mb/s mean, bursty enough to queue.
      const MarkovOnOffSource::Params params{.flow = f,
                                             .peak_rate = Rate::megabits_per_second(20.0),
                                             .mean_on = Time::milliseconds(2),
                                             .mean_off = Time::milliseconds(2),
                                             .packet_bytes = kPkt};
      sources.push_back(std::make_unique<MarkovOnOffSource>(sim, link, params, master.fork(f)));
      sources.back()->start();
    }
    sim.run_until(Time::seconds(10));
    return link.bytes_delivered();
  };
  const auto fifo = run(0);
  const auto wfq = run(1);
  const auto rpq = run(2);
  EXPECT_EQ(fifo, wfq);
  EXPECT_EQ(fifo, rpq);
  EXPECT_GT(fifo, 0);
}

// --------------------------------------------- Remark 1: no over-penalty

class Remark1Test : public ::testing::TestWithParam<int> {};

TEST_P(Remark1Test, NonConformantFlowDeliversAtLeastItsConformantVolume) {
  // Remark 1: a flow exceeding its reservation "will have more bits
  // delivered (up to any time) than had it been a lower volume conformant
  // flow."  Compare the same scenario twice: flow 0 sending exactly at
  // its reserved rate vs sending at `factor`x it; delivered bytes in the
  // overdriven run must dominate (up to in-flight slack).
  const int factor = GetParam();
  const Rate rho1 = Rate::megabits_per_second(8.0);
  const auto buffer = ByteSize::kilobytes(500.0);
  const auto t0 = static_cast<std::int64_t>(
      static_cast<double>(buffer.count()) * (rho1 / kLink)) + 2 * kPkt;

  auto run = [&](double rate_factor) {
    Simulator sim;
    ThresholdManager mgr{buffer, std::vector<std::int64_t>{t0, buffer.count() - t0}};
    FifoScheduler fifo{mgr};
    Link link{sim, fifo, kLink};
    std::int64_t delivered = 0;
    link.set_delivery_handler([&](const Packet& p, Time) {
      if (p.flow == 0) delivered += p.size_bytes;
    });
    CbrSource adversary{sim, link, 1, kLink * 3.0, kPkt};
    CbrSource flow0{sim, link, 0, rho1 * rate_factor, kPkt};
    adversary.start();
    flow0.start();
    sim.run_until(Time::seconds(15));
    return delivered;
  };

  const auto conformant_volume = run(1.0);
  const auto overdriven_volume = run(static_cast<double>(factor));
  // Slack: packetization may leave one more packet of the conformant run
  // in flight than of the overdriven run.
  EXPECT_GE(overdriven_volume, conformant_volume - 2 * kPkt)
      << "overdriving by " << factor << "x penalized the flow below its entitlement";
}

INSTANTIATE_TEST_SUITE_P(OverdriveSweep, Remark1Test, ::testing::Values(2, 3, 6),
                         [](const auto& test_param) {
                           return "overdrive" + std::to_string(test_param.param) + "x";
                         });

// ------------------------------------------ FIFO capture (anti-property)

class TailDropCaptureTest : public ::testing::TestWithParam<int> {};

TEST_P(TailDropCaptureTest, WithoutBmGreedyFlowStarvesCbr) {
  // The motivating failure: same scenario as Proposition 1 but with no
  // buffer management — the conformant flow must lose packets.
  const int share8 = GetParam();
  const Rate rho1 = kLink * (static_cast<double>(share8) / 8.0);
  Simulator sim;
  TailDropManager mgr{ByteSize::kilobytes(200.0), 2};
  FifoScheduler fifo{mgr};
  Link link{sim, fifo, kLink};

  std::int64_t flow0_drops = 0;
  fifo.set_drop_handler([&](const Packet& p, Time) {
    if (p.flow == 0) ++flow0_drops;
  });

  CbrSource conformant{sim, link, 0, rho1, kPkt};
  CbrSource adversary{sim, link, 1, kLink * 3.0, kPkt};
  adversary.start();
  conformant.start();
  sim.run_until(Time::seconds(10));

  EXPECT_GT(flow0_drops, 0) << "tail drop unexpectedly protected the flow";
}

INSTANTIATE_TEST_SUITE_P(ShareSweep, TailDropCaptureTest, ::testing::Values(1, 2, 4),
                         [](const auto& test_param) {
                           return "share" + std::to_string(test_param.param);
                         });

}  // namespace
}  // namespace bufq
