#include "admission/admission_controller.h"

#include <gtest/gtest.h>

namespace bufq::admission {
namespace {

const Rate kLink = Rate::megabits_per_second(48.0);

AdmissionController make(Scheme scheme, ByteSize buffer, ByteSize headroom = ByteSize::zero()) {
  return AdmissionController{
      {.scheme = scheme, .link_rate = kLink, .buffer = buffer, .headroom = headroom}};
}

// --------------------------------------------------------------- WFQ

TEST(AdmissionControllerTest, WfqAcceptsWhileBothConstraintsHold) {
  auto ac = make(Scheme::kWfq, ByteSize::kilobytes(200.0));
  const FlowSpec flow{Rate::megabits_per_second(8.0), ByteSize::kilobytes(50.0)};
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(ac.try_admit(flow), AdmissionVerdict::kAccepted);
  }
  // Fifth flow: 250 KB of bursts > 200 KB buffer.
  EXPECT_EQ(ac.try_admit(flow), AdmissionVerdict::kBufferLimited);
  EXPECT_EQ(ac.admitted_count(), 4u);
}

TEST(AdmissionControllerTest, WfqBandwidthLimit) {
  auto ac = make(Scheme::kWfq, ByteSize::megabytes(100.0));
  const FlowSpec flow{Rate::megabits_per_second(20.0), ByteSize::kilobytes(10.0)};
  EXPECT_EQ(ac.try_admit(flow), AdmissionVerdict::kAccepted);
  EXPECT_EQ(ac.try_admit(flow), AdmissionVerdict::kAccepted);
  EXPECT_EQ(ac.try_admit(flow), AdmissionVerdict::kBandwidthLimited);
}

TEST(AdmissionControllerTest, WfqThresholdIsSigma) {
  auto ac = make(Scheme::kWfq, ByteSize::megabytes(1.0));
  const FlowSpec flow{Rate::megabits_per_second(8.0), ByteSize::kilobytes(50.0)};
  EXPECT_EQ(ac.threshold_bytes(flow), 50'000);
}

// -------------------------------------------------- FIFO + thresholds

TEST(AdmissionControllerTest, FifoIsBufferLimitedBeforeWfqIs) {
  // Same buffer: the FIFO controller must refuse a set WFQ accepts, once
  // utilization inflates its requirement.
  auto wfq = make(Scheme::kWfq, ByteSize::kilobytes(200.0));
  auto fifo = make(Scheme::kFifoThreshold, ByteSize::kilobytes(200.0));
  const FlowSpec flow{Rate::megabits_per_second(10.0), ByteSize::kilobytes(40.0)};
  int wfq_admitted = 0;
  int fifo_admitted = 0;
  for (int i = 0; i < 4; ++i) {
    if (wfq.try_admit(flow) == AdmissionVerdict::kAccepted) ++wfq_admitted;
    if (fifo.try_admit(flow) == AdmissionVerdict::kAccepted) ++fifo_admitted;
  }
  EXPECT_EQ(wfq_admitted, 4);  // 160 KB of bursts fits
  // FIFO: after 3 flows u = 30/48, B needed = 120K * 48/18 = 320K > 200K.
  EXPECT_EQ(fifo_admitted, 2);
}

TEST(AdmissionControllerTest, SingleFlowMatchesEquation9) {
  // One flow of rho = 24 Mb/s (u = 0.5), sigma = 100 KB needs exactly
  // 200 KB; a buffer of that size admits it, one byte less does not.
  const FlowSpec flow{Rate::megabits_per_second(24.0), ByteSize::kilobytes(100.0)};
  auto exact = make(Scheme::kFifoThreshold, ByteSize::bytes(200'000));
  EXPECT_EQ(exact.try_admit(flow), AdmissionVerdict::kAccepted);
  EXPECT_DOUBLE_EQ(exact.required_buffer_bytes(), 200'000.0);
  auto shy = make(Scheme::kFifoThreshold, ByteSize::bytes(199'999));
  EXPECT_EQ(shy.try_admit(flow), AdmissionVerdict::kBufferLimited);
}

TEST(AdmissionControllerTest, FullReservationAdmitsOnlyZeroBurst) {
  // u -> 1 edge: eq. 10 diverges, so a fully reserved link has room only
  // for flows with no burst at all.
  auto ac = make(Scheme::kFifoThreshold, ByteSize::megabytes(100.0));
  EXPECT_EQ(ac.try_admit({Rate::megabits_per_second(48.0), ByteSize::zero()}),
            AdmissionVerdict::kAccepted);
  EXPECT_DOUBLE_EQ(ac.utilization(), 1.0);
  EXPECT_EQ(ac.try_admit({Rate::zero(), ByteSize::bytes(1)}),
            AdmissionVerdict::kBufferLimited);
  EXPECT_EQ(ac.try_admit({Rate::zero(), ByteSize::zero()}), AdmissionVerdict::kAccepted);
}

TEST(AdmissionControllerTest, OversubscriptionIsRejectedNotAdmitted) {
  // Filling to the eq. 10 boundary keeps required_buffer_bytes <= B at
  // every step; the first flow past the boundary is refused and leaves
  // the admitted state untouched.
  const auto buffer = ByteSize::megabytes(1.0);
  auto ac = make(Scheme::kFifoThreshold, buffer);
  const FlowSpec flow{Rate::megabits_per_second(2.0), ByteSize::kilobytes(40.0)};
  std::size_t admitted = 0;
  while (ac.try_admit(flow) == AdmissionVerdict::kAccepted) {
    ++admitted;
    EXPECT_LE(ac.required_buffer_bytes(),
              static_cast<double>(buffer.count()) * (1.0 + 1e-12));
    ASSERT_LT(admitted, 1000u);
  }
  const auto before_rate = ac.reserved_rate().bps();
  const auto before_sigma = ac.reserved_sigma_bytes();
  EXPECT_EQ(ac.try_admit(flow), AdmissionVerdict::kBufferLimited);
  EXPECT_EQ(ac.admitted_count(), admitted);
  EXPECT_DOUBLE_EQ(ac.reserved_rate().bps(), before_rate);
  EXPECT_DOUBLE_EQ(ac.reserved_sigma_bytes(), before_sigma);
}

TEST(AdmissionControllerTest, FifoThresholdIsProp2) {
  auto ac = make(Scheme::kFifoThreshold, ByteSize::megabytes(1.0));
  const FlowSpec flow{Rate::megabits_per_second(12.0), ByteSize::kilobytes(50.0)};
  // sigma + B * rho / R = 50K + 1M / 4.
  EXPECT_EQ(ac.threshold_bytes(flow), 300'000);
}

TEST(AdmissionControllerTest, ReleaseRestoresCapacityAndPinsEmptyStateToZero) {
  // Two flows need 80K / (1 - 1/3) = 120 KB, three need 240 KB: a 150 KB
  // buffer admits exactly two.
  auto ac = make(Scheme::kFifoThreshold, ByteSize::kilobytes(150.0));
  const FlowSpec flow{Rate::megabits_per_second(8.0), ByteSize::kilobytes(40.0)};
  ASSERT_EQ(ac.try_admit(flow), AdmissionVerdict::kAccepted);
  ASSERT_EQ(ac.try_admit(flow), AdmissionVerdict::kAccepted);
  EXPECT_EQ(ac.try_admit(flow), AdmissionVerdict::kBufferLimited);
  ac.release(flow);
  EXPECT_EQ(ac.try_admit(flow), AdmissionVerdict::kAccepted);
  ac.release(flow);
  ac.release(flow);
  EXPECT_EQ(ac.admitted_count(), 0u);
  EXPECT_DOUBLE_EQ(ac.reserved_rate().bps(), 0.0);
  EXPECT_DOUBLE_EQ(ac.reserved_sigma_bytes(), 0.0);
  EXPECT_DOUBLE_EQ(ac.required_buffer_bytes(), 0.0);
}

// ----------------------------------------------------- FIFO + sharing

TEST(AdmissionControllerTest, SharingReservesHeadroomOutOfThresholds) {
  // With H of headroom the threshold partition shrinks to B - H, so the
  // sharing controller admits strictly fewer flows than plain thresholds
  // at the same buffer size.
  const auto buffer = ByteSize::kilobytes(400.0);
  auto threshold = make(Scheme::kFifoThreshold, buffer);
  auto sharing = make(Scheme::kFifoSharing, buffer, ByteSize::kilobytes(120.0));
  const FlowSpec flow{Rate::megabits_per_second(4.0), ByteSize::kilobytes(25.0)};
  std::size_t threshold_admitted = 0;
  std::size_t sharing_admitted = 0;
  while (threshold.try_admit(flow) == AdmissionVerdict::kAccepted) ++threshold_admitted;
  while (sharing.try_admit(flow) == AdmissionVerdict::kAccepted) ++sharing_admitted;
  EXPECT_LT(sharing_admitted, threshold_admitted);
  // And its Prop-2 thresholds scale against the partition, not B.
  EXPECT_LT(sharing.threshold_bytes(flow), threshold.threshold_bytes(flow));
}

TEST(AdmissionControllerTest, UtilizationTracked) {
  auto ac = make(Scheme::kWfq, ByteSize::megabytes(10.0));
  const FlowSpec flow{Rate::megabits_per_second(12.0), ByteSize::kilobytes(10.0)};
  ASSERT_EQ(ac.try_admit(flow), AdmissionVerdict::kAccepted);
  ASSERT_EQ(ac.try_admit(flow), AdmissionVerdict::kAccepted);
  EXPECT_DOUBLE_EQ(ac.utilization(), 0.5);
}

}  // namespace
}  // namespace bufq::admission
