#include "core/buffer_manager.h"

#include <gtest/gtest.h>

#include "core/threshold.h"

namespace bufq {
namespace {

constexpr Time kNow = Time::zero();

TEST(TailDropManagerTest, AdmitsUntilFull) {
  TailDropManager mgr{ByteSize::bytes(1500), 2};
  EXPECT_TRUE(mgr.try_admit(0, 500, kNow));
  EXPECT_TRUE(mgr.try_admit(1, 500, kNow));
  EXPECT_TRUE(mgr.try_admit(0, 500, kNow));
  EXPECT_FALSE(mgr.try_admit(1, 500, kNow));
  EXPECT_EQ(mgr.total_occupancy(), 1500);
}

TEST(TailDropManagerTest, ExactFitAdmitted) {
  TailDropManager mgr{ByteSize::bytes(1000), 1};
  EXPECT_TRUE(mgr.try_admit(0, 1000, kNow));
  EXPECT_FALSE(mgr.try_admit(0, 1, kNow));
}

TEST(TailDropManagerTest, ReleaseFreesSpace) {
  TailDropManager mgr{ByteSize::bytes(1000), 2};
  EXPECT_TRUE(mgr.try_admit(0, 600, kNow));
  EXPECT_FALSE(mgr.try_admit(1, 600, kNow));
  mgr.release(0, 600, kNow);
  EXPECT_TRUE(mgr.try_admit(1, 600, kNow));
}

TEST(TailDropManagerTest, PerFlowAccountingTracked) {
  TailDropManager mgr{ByteSize::bytes(10'000), 3};
  ASSERT_TRUE(mgr.try_admit(0, 100, kNow));
  ASSERT_TRUE(mgr.try_admit(1, 200, kNow));
  ASSERT_TRUE(mgr.try_admit(2, 300, kNow));
  ASSERT_TRUE(mgr.try_admit(1, 50, kNow));
  EXPECT_EQ(mgr.occupancy(0), 100);
  EXPECT_EQ(mgr.occupancy(1), 250);
  EXPECT_EQ(mgr.occupancy(2), 300);
  EXPECT_EQ(mgr.total_occupancy(), 650);
  mgr.release(1, 200, kNow);
  EXPECT_EQ(mgr.occupancy(1), 50);
  EXPECT_EQ(mgr.total_occupancy(), 450);
}

TEST(TailDropManagerTest, NoFlowIsolation) {
  // The defining failure of tail drop: one flow can take everything.
  TailDropManager mgr{ByteSize::bytes(5'000), 2};
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(mgr.try_admit(0, 500, kNow));
  EXPECT_FALSE(mgr.try_admit(1, 500, kNow)) << "flow 1 starved by flow 0, as expected";
  EXPECT_EQ(mgr.occupancy(0), 5'000);
}

TEST(TailDropManagerTest, FailedAdmitLeavesStateUntouched) {
  TailDropManager mgr{ByteSize::bytes(1000), 2};
  ASSERT_TRUE(mgr.try_admit(0, 900, kNow));
  ASSERT_FALSE(mgr.try_admit(1, 200, kNow));
  EXPECT_EQ(mgr.occupancy(1), 0);
  EXPECT_EQ(mgr.total_occupancy(), 900);
}

}  // namespace
}  // namespace bufq
