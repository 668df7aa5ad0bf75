// The invariant-audit layer, tested invariant by invariant: the checker's
// reporting plumbing, the AuditedBufferManager decorator over correct and
// deliberately broken managers, and (in builds with BUFQ_ENABLE_CHECKS)
// the BUFQ_CHECK instrumentation inside the managers, schedulers and
// simulator.
#include "check/invariants.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/buffer_manager.h"
#include "core/sharing.h"
#include "core/threshold.h"
#include "invariant_audit.h"
#include "sched/wfq.h"
#include "sim/simulator.h"
#include "support/audit.h"
#include "util/rng.h"

namespace bufq {
namespace {

constexpr Time kNow = Time::zero();

// ------------------------------------------------------ reporting plumbing

TEST(InvariantCheckerTest, ViolationFormatsAllFields) {
  const check::Violation v{check::Invariant::kFlowBound, 7, Time::milliseconds(3), 1'500.0,
                           1'000.0, "over bound"};
  const std::string s = v.to_string();
  EXPECT_NE(s.find("flow-bound"), std::string::npos) << s;
  EXPECT_NE(s.find('7'), std::string::npos) << s;
  EXPECT_NE(s.find("1500"), std::string::npos) << s;
  EXPECT_NE(s.find("over bound"), std::string::npos) << s;
}

TEST(InvariantCheckerTest, EveryInvariantHasAName) {
  for (const auto inv :
       {check::Invariant::kConservation, check::Invariant::kCapacity,
        check::Invariant::kFlowBound, check::Invariant::kVirtualTime,
        check::Invariant::kEventClock, check::Invariant::kDelayBound}) {
    EXPECT_STRNE(check::to_string(inv), "");
  }
}

TEST(InvariantCheckerTest, CaptureRedirectsAwayFromGlobalStore) {
  auto& checker = check::InvariantChecker::global();
  const auto before = checker.violation_count();
  {
    check::ScopedViolationCapture capture;
    checker.report(check::Violation{check::Invariant::kConservation, 2, kNow, -1.0, 0.0,
                                    "occupancy negative (synthetic)"});
    ASSERT_EQ(capture.count(), 1u);
    EXPECT_EQ(capture.violations()[0].invariant, check::Invariant::kConservation);
    EXPECT_EQ(capture.violations()[0].flow, 2);
  }
  // The capture absorbed the violation: the suite-wide audit stays clean.
  EXPECT_EQ(checker.violation_count(), before);
}

TEST(InvariantCheckerTest, ReportTextListsStoredViolations) {
  check::InvariantChecker checker;
  EXPECT_TRUE(checker.report_text().empty());
  checker.report(check::Violation{check::Invariant::kCapacity, -1, kNow, 11.0, 10.0, "x"});
  const std::string text = checker.report_text();
  EXPECT_EQ(checker.violation_count(), 1u);
  EXPECT_NE(text.find("capacity"), std::string::npos) << text;
  checker.clear();
  EXPECT_TRUE(checker.report_text().empty());
  EXPECT_EQ(checker.violation_count(), 0u);
}

// ------------------------------------------- deliberately broken managers

/// Forgets to release: the inner counters only ever grow, so the shadow
/// accounting drifts away the moment anything departs.
class LeakyReleaseManager final : public BufferManager {
 public:
  LeakyReleaseManager(ByteSize capacity, std::size_t flow_count)
      : capacity_{capacity}, per_flow_(flow_count, 0) {}

  bool try_admit(FlowId flow, std::int64_t bytes, Time) override {
    per_flow_[static_cast<std::size_t>(flow)] += bytes;
    total_ += bytes;
    return true;
  }
  void release(FlowId, std::int64_t, Time) override {}  // the bug
  std::int64_t occupancy(FlowId flow) const override {
    return per_flow_[static_cast<std::size_t>(flow)];
  }
  std::int64_t total_occupancy() const override { return total_; }
  ByteSize capacity() const override { return capacity_; }
  // Checkpoint protocol stubs: these fixtures exist to be broken, never
  // checkpointed.
  void save_state(CheckpointWriter&) const override {}
  void restore_state(CheckpointReader&) override {}

 private:
  ByteSize capacity_;
  std::vector<std::int64_t> per_flow_;
  std::int64_t total_{0};
};

/// Admits everything, capacity be damned.
class OverCommitManager final : public BufferManager {
 public:
  OverCommitManager(ByteSize capacity, std::size_t flow_count)
      : capacity_{capacity}, per_flow_(flow_count, 0) {}

  bool try_admit(FlowId flow, std::int64_t bytes, Time) override {
    per_flow_[static_cast<std::size_t>(flow)] += bytes;
    total_ += bytes;
    return true;  // never says no: the bug
  }
  void release(FlowId flow, std::int64_t bytes, Time) override {
    per_flow_[static_cast<std::size_t>(flow)] -= bytes;
    total_ -= bytes;
  }
  std::int64_t occupancy(FlowId flow) const override {
    return per_flow_[static_cast<std::size_t>(flow)];
  }
  std::int64_t total_occupancy() const override { return total_; }
  ByteSize capacity() const override { return capacity_; }
  // Checkpoint protocol stubs: these fixtures exist to be broken, never
  // checkpointed.
  void save_state(CheckpointWriter&) const override {}
  void restore_state(CheckpointReader&) override {}

 private:
  ByteSize capacity_;
  std::vector<std::int64_t> per_flow_;
  std::int64_t total_{0};
};

/// Correct accounting, plus a backdoor that bumps one per-flow counter
/// without touching the total — invisible to the O(1) per-operation check
/// (which only compares the touched flow and the total against the shadow),
/// visible only to the O(n) conservation sweep.
class CorruptibleManager final : public BufferManager {
 public:
  CorruptibleManager(ByteSize capacity, std::size_t flow_count)
      : capacity_{capacity}, per_flow_(flow_count, 0) {}

  bool try_admit(FlowId flow, std::int64_t bytes, Time) override {
    if (total_ + bytes > capacity_.count()) return false;
    per_flow_[static_cast<std::size_t>(flow)] += bytes;
    total_ += bytes;
    return true;
  }
  void release(FlowId flow, std::int64_t bytes, Time) override {
    per_flow_[static_cast<std::size_t>(flow)] -= bytes;
    total_ -= bytes;
  }
  std::int64_t occupancy(FlowId flow) const override {
    return per_flow_[static_cast<std::size_t>(flow)];
  }
  std::int64_t total_occupancy() const override { return total_; }
  ByteSize capacity() const override { return capacity_; }
  // Checkpoint protocol stubs: these fixtures exist to be broken, never
  // checkpointed.
  void save_state(CheckpointWriter&) const override {}
  void restore_state(CheckpointReader&) override {}

  void corrupt_per_flow(FlowId flow, std::int64_t bytes) {
    per_flow_[static_cast<std::size_t>(flow)] += bytes;
  }

 private:
  ByteSize capacity_;
  std::vector<std::int64_t> per_flow_;
  std::int64_t total_{0};
};

TEST(AuditedManagerTest, CleanManagerProducesNoViolations) {
  check::ScopedViolationCapture capture;
  TailDropManager inner{ByteSize::bytes(10'000), 4};
  check::AuditedBufferManager audited{inner, 4};
  Rng rng{42};
  std::vector<std::int64_t> held(4, 0);
  for (int i = 0; i < 5'000; ++i) {
    const auto flow = static_cast<FlowId>(rng.uniform_u64(4));
    const auto f = static_cast<std::size_t>(flow);
    if (rng.bernoulli(0.6)) {
      if (audited.try_admit(flow, 500, kNow)) held[f] += 500;
    } else if (held[f] >= 500) {
      audited.release(flow, 500, kNow);
      held[f] -= 500;
    }
  }
  EXPECT_GT(audited.audits_run(), 0u);
  EXPECT_EQ(capture.count(), 0u) << capture.violations()[0].to_string();
}

TEST(AuditedManagerTest, LeakyReleaseTripsConservation) {
  check::ScopedViolationCapture capture;
  LeakyReleaseManager broken{ByteSize::bytes(10'000), 2};
  check::AuditedBufferManager audited{broken, 2};
  ASSERT_TRUE(audited.try_admit(0, 1'000, kNow));
  EXPECT_EQ(capture.count(), 0u);   // nothing wrong yet
  audited.release(0, 1'000, kNow);  // inner ignores it; the shadow does not
  ASSERT_GT(capture.count(), 0u);
  EXPECT_EQ(capture.violations()[0].invariant, check::Invariant::kConservation);
}

TEST(AuditedManagerTest, OverCommitTripsCapacity) {
  check::ScopedViolationCapture capture;
  OverCommitManager broken{ByteSize::bytes(1'000), 1};
  check::AuditedBufferManager audited{broken, 1};
  ASSERT_TRUE(audited.try_admit(0, 600, kNow));
  EXPECT_EQ(capture.count(), 0u);
  ASSERT_TRUE(audited.try_admit(0, 600, kNow));  // 1200 > 1000
  ASSERT_GT(capture.count(), 0u);
  EXPECT_EQ(capture.violations()[0].invariant, check::Invariant::kCapacity);
  EXPECT_EQ(capture.violations()[0].observed, 1'200.0);
  EXPECT_EQ(capture.violations()[0].bound, 1'000.0);
}

TEST(AuditedManagerTest, ConformantFlowBoundEnforced) {
  check::ScopedViolationCapture capture;
  // Tail drop has no per-flow discipline, so flow 0 can exceed the Prop-2
  // bound the auditor was told it must respect.
  TailDropManager inner{ByteSize::bytes(10'000), 2};
  check::AuditedBufferManager audited{inner, 2, std::vector<std::int64_t>{1'000, -1}};
  ASSERT_TRUE(audited.try_admit(0, 800, kNow));
  EXPECT_EQ(capture.count(), 0u);
  ASSERT_TRUE(audited.try_admit(0, 800, kNow));  // q0 = 1600 > 1000
  ASSERT_GT(capture.count(), 0u);
  EXPECT_EQ(capture.violations()[0].invariant, check::Invariant::kFlowBound);
  EXPECT_EQ(capture.violations()[0].flow, 0);
  // Flow 1 is exempt (negative bound): it may use the shared slack freely.
  const auto before = capture.count();
  ASSERT_TRUE(audited.try_admit(1, 5'000, kNow));
  EXPECT_EQ(capture.count(), before);
}

TEST(AuditedManagerTest, FullAuditCatchesSumMismatch) {
  check::ScopedViolationCapture capture;
  CorruptibleManager broken{ByteSize::bytes(10'000), 3};
  check::AuditedBufferManager audited{broken, 3};
  ASSERT_TRUE(audited.try_admit(0, 500, kNow));
  // Corrupt a flow the auditor is not about to touch: per-flow counter up,
  // total unchanged.  The O(1) check after the next flow-0 operation sees a
  // consistent total and a consistent flow 0, so it stays silent.
  broken.corrupt_per_flow(2, 700);
  ASSERT_TRUE(audited.try_admit(0, 100, kNow));
  EXPECT_EQ(capture.count(), 0u);
  // Only the O(n) sweep can see that sum(q_i) = 1300 != total = 600.
  audited.full_audit(kNow);
  ASSERT_GT(capture.count(), 0u);
  EXPECT_EQ(capture.violations()[0].invariant, check::Invariant::kConservation);
  EXPECT_EQ(capture.violations()[0].observed, 1'300.0);
  EXPECT_EQ(capture.violations()[0].bound, 600.0);
}

// ------------------------------------------- paper managers under audit

TEST(AuditedManagerTest, ThresholdManagerHonorsProp2BoundsUnderStress) {
  check::ScopedViolationCapture capture;
  const std::vector<std::int64_t> thresholds{2'000, 3'000, 5'000};
  ThresholdManager inner{ByteSize::bytes(8'000), thresholds};
  check::AuditedBufferManager audited{inner, 3, thresholds};
  Rng rng{7};
  std::vector<std::int64_t> held(3, 0);
  for (int i = 0; i < 20'000; ++i) {
    const auto flow = static_cast<FlowId>(rng.uniform_u64(3));
    const auto f = static_cast<std::size_t>(flow);
    if (rng.bernoulli(0.55)) {
      if (audited.try_admit(flow, 250, kNow)) held[f] += 250;
    } else if (held[f] >= 250) {
      audited.release(flow, 250, kNow);
      held[f] -= 250;
    }
  }
  audited.full_audit(kNow);
  EXPECT_GT(audited.audits_run(), check::AuditedBufferManager::kFullAuditPeriod);
  EXPECT_EQ(capture.count(), 0u) << capture.violations()[0].to_string();
}

TEST(AuditedManagerTest, SharingManagerKeepsPoolInvariantUnderStress) {
  check::ScopedViolationCapture capture;
  BufferSharingManager inner{ByteSize::bytes(10'000), std::vector<std::int64_t>{2'000, 2'000},
                             ByteSize::bytes(2'000)};
  check::AuditedBufferManager audited{inner, 2};
  Rng rng{11};
  std::vector<std::int64_t> held(2, 0);
  for (int i = 0; i < 20'000; ++i) {
    const auto flow = static_cast<FlowId>(rng.uniform_u64(2));
    const auto f = static_cast<std::size_t>(flow);
    if (rng.bernoulli(0.55)) {
      if (audited.try_admit(flow, 400, kNow)) held[f] += 400;
    } else if (held[f] >= 400) {
      audited.release(flow, 400, kNow);
      held[f] -= 400;
    }
    // The Section 3.3 discipline, re-stated over the live pools.
    ASSERT_GE(inner.holes(), 0);
    ASSERT_GE(inner.headroom(), 0);
    ASSERT_LE(inner.headroom(), inner.max_headroom().count());
    ASSERT_EQ(inner.holes() + inner.headroom() + inner.total_occupancy(),
              inner.capacity().count());
  }
  EXPECT_EQ(capture.count(), 0u) << capture.violations()[0].to_string();
}

// --------------------------------------------- BUFQ_CHECK instrumentation
// Only meaningful where the macro is compiled in (Debug / -DBUFQ_CHECKS=ON).
#if BUFQ_CHECKS_ENABLED

TEST(BufqCheckTest, MacroReportsOnFailureOnly) {
  check::ScopedViolationCapture capture;
  const auto before = check::InvariantChecker::global().checks_run();
  BUFQ_CHECK(1 + 1 == 2, check::Invariant::kConservation, -1, kNow, 0.0, 0.0, "fine");
  EXPECT_EQ(capture.count(), 0u);
  BUFQ_CHECK(1 + 1 == 3, check::Invariant::kConservation, -1, kNow, 2.0, 3.0, "broken math");
  EXPECT_EQ(capture.count(), 1u);
  EXPECT_EQ(check::InvariantChecker::global().checks_run(), before + 2);
}

TEST(BufqCheckTest, EventClockViolationIsReportedNotFatal) {
  check::ScopedViolationCapture capture;
  Simulator sim;
  sim.at(Time::seconds(1), [] {});
  sim.run();
  ASSERT_EQ(sim.now(), Time::seconds(1));
  sim.at(Time::zero(), [] {});  // scheduling in the past
  ASSERT_GT(capture.count(), 0u);
  EXPECT_EQ(capture.violations()[0].invariant, check::Invariant::kEventClock);
}

TEST(BufqCheckTest, WfqClockRewindIsReported) {
  check::ScopedViolationCapture capture;
  TailDropManager manager{ByteSize::bytes(100'000), 2};
  WfqScheduler wfq{manager, Rate::megabits_per_second(10.0), std::vector<double>{1.0, 1.0}};
  ASSERT_TRUE(wfq.enqueue(Packet{.flow = 0, .size_bytes = 500}, Time::milliseconds(5)));
  ASSERT_EQ(capture.count(), 0u);
  // Clock handed to the scheduler moves backwards: a kVirtualTime violation.
  ASSERT_TRUE(wfq.enqueue(Packet{.flow = 1, .size_bytes = 500}, Time::milliseconds(2)));
  ASSERT_GT(capture.count(), 0u);
  EXPECT_EQ(capture.violations()[0].invariant, check::Invariant::kVirtualTime);
}

TEST(BufqCheckTest, NegativeReleaseIsReported) {
  check::ScopedViolationCapture capture;
  TailDropManager manager{ByteSize::bytes(1'000), 1};
  ASSERT_TRUE(manager.try_admit(0, 200, kNow));
  manager.release(0, 500, kNow);  // more than was ever admitted
  ASSERT_GT(capture.count(), 0u);
  EXPECT_EQ(capture.violations()[0].invariant, check::Invariant::kConservation);
}

#endif  // BUFQ_CHECKS_ENABLED

}  // namespace
}  // namespace bufq
