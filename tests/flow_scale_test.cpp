// Million-flow scale tests for the SoA FlowTable and the envelope-class
// registry: generation safety under heavy slot recycling, equivalence of
// the interned admit_class hot path with the spec-based admit path, and a
// checkpoint round trip of the SoA layout with a churned free list.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "admission/flow_table.h"
#include "sim/checkpoint.h"
#include "util/rng.h"
#include "util/units.h"

namespace bufq::admission {
namespace {

constexpr std::size_t kMillion = 1'000'000;

std::array<FlowSpec, 4> scale_mix() {
  return {FlowSpec{Rate::kilobits_per_second(16.0), ByteSize::bytes(1'500)},
          FlowSpec{Rate::kilobits_per_second(64.0), ByteSize::kilobytes(4.0)},
          FlowSpec{Rate::kilobits_per_second(256.0), ByteSize::kilobytes(16.0)},
          FlowSpec{Rate::kilobits_per_second(1'024.0), ByteSize::kilobytes(64.0)}};
}

TEST(FlowScaleTest, MillionFlowsChurnKeepsGenerationsHonest) {
  // Fill the table to one million resident flows, churn a large random
  // sample of slots through teardown + re-admit, and verify that every
  // stale handle is detected, every live handle resolves to its own
  // class, and the census stays exact.  This is the Section 2.3 claim
  // at its target scale: the table must stay correct, not just fast,
  // when every slot has been recycled.
  FlowTable table{kMillion};
  const auto mix = scale_mix();
  std::vector<ClassId> classes;
  classes.reserve(mix.size());
  for (const FlowSpec& spec : mix) {
    classes.push_back(table.classes().intern(spec, 2 * spec.sigma.count()));
  }

  std::vector<FlowHandle> live;
  live.reserve(kMillion);
  for (std::size_t i = 0; i < kMillion; ++i) {
    live.push_back(table.admit_class(classes[i & 3]));
  }
  ASSERT_EQ(table.active_count(), kMillion);

  // Churn: tear down a random victim and immediately admit a
  // replacement.  LIFO recycling means the replacement reuses the
  // victim's slot with a bumped generation.
  Rng rng{7};
  std::vector<FlowHandle> stale;
  stale.reserve(200'000);
  for (std::size_t step = 0; step < 200'000; ++step) {
    const std::size_t victim = rng.uniform_u64(live.size());
    const FlowHandle old = live[victim];
    table.teardown(old);
    stale.push_back(old);
    const FlowHandle fresh = table.admit_class(classes[step & 3]);
    ASSERT_EQ(fresh.slot, old.slot) << "LIFO recycling must reuse the freed slot";
    ASSERT_NE(fresh.generation, old.generation);
    live[victim] = fresh;
  }

  EXPECT_EQ(table.active_count(), kMillion);
  for (const FlowHandle& h : stale) {
    ASSERT_FALSE(table.valid(h)) << "stale handle to slot " << h.slot << " survived";
  }
  // Spot-check live handles across the full index range (checking all
  // 1e6 with per-element gtest bookkeeping would dominate the runtime).
  for (std::size_t i = 0; i < live.size(); i += 997) {
    ASSERT_TRUE(table.valid(live[i]));
    const ClassId cls = table.class_of(live[i].slot);
    ASSERT_LT(cls, table.classes().class_count());
    EXPECT_EQ(table.threshold(live[i].slot), table.classes().threshold(cls));
  }
}

TEST(FlowScaleTest, AdmitClassMatchesSpecAdmitExactly) {
  // The interned hot path and the spec-based path must produce the same
  // trajectory: same slots, same generations, same per-slot thresholds
  // and envelopes, under an identical admit/teardown schedule.  Each table
  // holds one slot per step, the walk's most live flows.
  constexpr std::size_t kSteps = 20'000;
  FlowTable by_spec{kSteps};
  FlowTable by_class{kSteps};
  const auto mix = scale_mix();
  std::vector<ClassId> classes;
  for (const FlowSpec& spec : mix) {
    classes.push_back(by_class.classes().intern(spec, 2 * spec.sigma.count()));
  }

  Rng rng{11};
  std::vector<std::pair<FlowHandle, FlowHandle>> live;
  for (std::size_t step = 0; step < kSteps; ++step) {
    const bool admit = live.empty() || rng.bernoulli(0.6);
    if (admit) {
      const std::size_t m = rng.uniform_u64(mix.size());
      const FlowHandle a = by_spec.admit(mix[m], 2 * mix[m].sigma.count());
      const FlowHandle b = by_class.admit_class(classes[m]);
      ASSERT_EQ(a, b) << "paths diverged at step " << step;
      live.emplace_back(a, b);
    } else {
      const std::size_t victim = rng.uniform_u64(live.size());
      by_spec.teardown(live[victim].first);
      by_class.teardown(live[victim].second);
      live[victim] = live.back();
      live.pop_back();
    }
  }
  ASSERT_EQ(by_spec.active_count(), by_class.active_count());
  for (const auto& [a, b] : live) {
    ASSERT_EQ(a, b);
    EXPECT_EQ(by_spec.threshold(a.slot), by_class.threshold(b.slot));
    EXPECT_EQ(by_spec.spec(a.slot).sigma.count(), by_class.spec(b.slot).sigma.count());
    EXPECT_DOUBLE_EQ(by_spec.spec(a.slot).rho.bps(), by_class.spec(b.slot).rho.bps());
  }
}

TEST(FlowScaleTest, CheckpointRoundTripsSoALayoutUnderChurn) {
  // Save a churned table (holes in the free list, every class in use),
  // restore into a fresh one, and demand (a) behavioral equality on
  // handles and thresholds and (b) a byte-identical
  // second save — the SoA lanes and LIFO free-list order are part of
  // the deterministic trajectory.  The table holds one slot per step, the
  // walk's most live flows.
  constexpr std::size_t kSteps = 5'000;
  FlowTable original{kSteps};
  const auto mix = scale_mix();
  std::vector<ClassId> classes;
  for (const FlowSpec& spec : mix) {
    classes.push_back(original.classes().intern(spec, 2 * spec.sigma.count()));
  }

  Rng rng{13};
  std::vector<FlowHandle> live;
  for (std::size_t step = 0; step < kSteps; ++step) {
    if (live.empty() || rng.bernoulli(0.55)) {
      const std::size_t m = rng.uniform_u64(classes.size());
      const FlowHandle h = original.admit_class(classes[m]);
      original.add_occupancy(h.slot, static_cast<std::int64_t>(rng.uniform_u64(9'000)));
      live.push_back(h);
    } else {
      const std::size_t victim = rng.uniform_u64(live.size());
      original.add_occupancy(live[victim].slot, -original.occupancy(live[victim].slot));
      original.teardown(live[victim]);
      live[victim] = live.back();
      live.pop_back();
    }
  }

  CheckpointWriter w1;
  original.save_state(w1);
  const std::vector<std::byte> blob = w1.finish(0);

  FlowTable restored{original.slot_count()};
  CheckpointReader r{blob};
  restored.restore_state(r);

  ASSERT_EQ(restored.active_count(), original.active_count());
  ASSERT_EQ(restored.slot_count(), original.slot_count());
  ASSERT_EQ(restored.classes().class_count(), original.classes().class_count());
  for (const FlowHandle& h : live) {
    ASSERT_TRUE(restored.valid(h));
    EXPECT_EQ(restored.occupancy(h.slot), original.occupancy(h.slot));
    EXPECT_EQ(restored.class_of(h.slot), original.class_of(h.slot));
    EXPECT_EQ(restored.threshold(h.slot), original.threshold(h.slot));
  }

  CheckpointWriter w2;
  restored.save_state(w2);
  EXPECT_EQ(w2.finish(0), blob) << "restored table re-saves to different bytes";

  // The restored free list must continue the original's LIFO order: the
  // next admissions on both tables pick identical slots.
  for (int i = 0; i < 64; ++i) {
    const FlowHandle a = original.admit_class(classes[0]);
    const FlowHandle b = restored.admit_class(classes[0]);
    ASSERT_EQ(a, b) << "post-restore admission " << i << " diverged";
  }
}

}  // namespace
}  // namespace bufq::admission
