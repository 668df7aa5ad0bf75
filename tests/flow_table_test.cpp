#include "admission/flow_table.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "util/rng.h"

namespace bufq::admission {
namespace {

const FlowSpec kFlow{Rate::megabits_per_second(2.0), ByteSize::kilobytes(50.0)};

TEST(FlowTableTest, AdmitLookupTeardown) {
  FlowTable table{4};
  const FlowHandle h = table.admit(kFlow, 80'000);
  ASSERT_TRUE(table.valid(h));
  EXPECT_TRUE(table.active(h.slot));
  EXPECT_EQ(table.occupancy(h.slot), 0);
  EXPECT_EQ(table.threshold(h.slot), 80'000);
  EXPECT_EQ(table.spec(h.slot).sigma.count(), kFlow.sigma.count());
  EXPECT_DOUBLE_EQ(table.spec(h.slot).rho.bps(), kFlow.rho.bps());
  EXPECT_EQ(table.active_count(), 1u);

  table.add_occupancy(h.slot, 1500);
  EXPECT_EQ(table.occupancy(h.slot), 1500);
  table.add_occupancy(h.slot, -1500);

  table.teardown(h);
  EXPECT_FALSE(table.valid(h));
  EXPECT_FALSE(table.active(h.slot));
  EXPECT_EQ(table.active_count(), 0u);
}

TEST(FlowTableTest, SlotsRecycleLifo) {
  FlowTable table{4};
  const FlowHandle a = table.admit(kFlow, 0);
  const FlowHandle b = table.admit(kFlow, 0);
  EXPECT_EQ(a.slot, 0u);
  EXPECT_EQ(b.slot, 1u);
  table.teardown(a);
  // The most recently freed slot is reused first.
  const FlowHandle c = table.admit(kFlow, 0);
  EXPECT_EQ(c.slot, a.slot);
}

TEST(FlowTableTest, StaleHandleToRecycledSlotIsInvalid) {
  FlowTable table{2};
  const FlowHandle old = table.admit(kFlow, 0);
  table.teardown(old);
  const FlowHandle fresh = table.admit(kFlow, 0);
  ASSERT_EQ(fresh.slot, old.slot);
  EXPECT_FALSE(table.valid(old));
  EXPECT_TRUE(table.valid(fresh));
}

TEST(FlowTableTest, PerFlowStateStaysSmall) {
  // The scalability claim in numbers: a counter, a threshold, the (sigma,
  // rho) envelope and bookkeeping must fit well under one cache line.
  EXPECT_LE(FlowTable::bytes_per_flow(), 64u);
}

TEST(FlowTableTest, RandomizedChurnNeverCrossesWires) {
  // Property test: random admit/teardown interleavings against a shadow
  // model.  Every live handle must stay valid and resolve to its own
  // flow's state; every dead handle must be detected.  The table is built
  // at the run's 600-flow peak.
  FlowTable table{600};
  Rng rng{2026};
  struct Shadow {
    FlowHandle handle;
    std::int64_t threshold;
    std::int64_t occupancy;
  };
  std::vector<Shadow> live;
  std::vector<FlowHandle> dead;
  std::uint64_t next_threshold = 1;

  for (int step = 0; step < 20'000; ++step) {
    const bool admit = live.empty() || (live.size() < 600 && rng.bernoulli(0.55));
    if (admit) {
      const auto threshold = static_cast<std::int64_t>(next_threshold++);
      const FlowHandle h = table.admit(kFlow, threshold);
      const auto occupancy = static_cast<std::int64_t>(rng.uniform_u64(10'000));
      table.add_occupancy(h.slot, occupancy);
      live.push_back(Shadow{h, threshold, occupancy});
    } else {
      const std::size_t victim = rng.uniform_u64(live.size());
      table.add_occupancy(live[victim].handle.slot, -live[victim].occupancy);
      table.teardown(live[victim].handle);
      dead.push_back(live[victim].handle);
      live[victim] = live.back();
      live.pop_back();
    }
  }

  ASSERT_EQ(table.active_count(), live.size());
  std::map<std::uint32_t, int> slot_owners;
  for (const Shadow& s : live) {
    ASSERT_TRUE(table.valid(s.handle));
    EXPECT_EQ(table.threshold(s.handle.slot), s.threshold);
    EXPECT_EQ(table.occupancy(s.handle.slot), s.occupancy);
    ++slot_owners[s.handle.slot];
  }
  for (const auto& [slot, owners] : slot_owners) {
    EXPECT_EQ(owners, 1) << "slot " << slot << " double-booked";
  }
  for (const FlowHandle& h : dead) {
    EXPECT_FALSE(table.valid(h));
  }
}

}  // namespace
}  // namespace bufq::admission
