// Randomized invariant checks applied uniformly to every BufferManager
// implementation.  A deterministic pseudo-random client issues admit /
// release operations (releases only of bytes actually admitted) and after
// every step the universal manager invariants are asserted:
//
//   * per-flow occupancy is non-negative and sums to the total,
//   * the total never exceeds the physical capacity,
//   * a refused admission leaves all accounting untouched,
//   * draining everything returns the manager to an admitting state.
//
// A differential suite then replays identical random admit/release
// streams through the Section 3.2/3.3 managers and through a reference
// model that is the paper's stateful pseudocode, comparing every decision
// and the holes/headroom pools after every operation.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "admission/dynamic_manager.h"
#include "admission/flow_table.h"
#include "core/buffer_manager.h"
#include "core/dynamic_threshold.h"
#include "core/red.h"
#include "core/sharing.h"
#include "core/threshold.h"
#include "util/rng.h"

namespace bufq {
namespace {

constexpr std::size_t kFlows = 4;
constexpr auto kCapacity = ByteSize::bytes(40'000);

struct ManagerCase {
  std::string name;
  std::function<std::unique_ptr<BufferManager>()> make;
};

/// A DynamicBufferManager over its own FlowTable holding the fuzz's flows
/// in slots 0..n-1, so it can live behind a BufferManager pointer.
class TableBackedManager final : public BufferManager {
 public:
  TableBackedManager(ByteSize capacity, const std::vector<std::int64_t>& thresholds,
                     admission::DynamicBufferManager::Policy policy, ByteSize max_headroom)
      : table_{thresholds.size()}, manager_{capacity, table_, policy, max_headroom} {
    for (std::size_t f = 0; f < thresholds.size(); ++f) {
      const FlowSpec spec{.rho = Rate::megabits_per_second(1.0 + static_cast<double>(f)),
                          .sigma = ByteSize::bytes(1'000)};
      if (table_.admit(spec, thresholds[f]).slot != f) {
        throw std::logic_error("flow table did not hand out slots in order");
      }
    }
  }

  bool try_admit(FlowId flow, std::int64_t bytes, Time now) override {
    return manager_.try_admit(flow, bytes, now);
  }
  void release(FlowId flow, std::int64_t bytes, Time now) override {
    manager_.release(flow, bytes, now);
  }
  std::int64_t occupancy(FlowId flow) const override { return manager_.occupancy(flow); }
  std::int64_t total_occupancy() const override { return manager_.total_occupancy(); }
  ByteSize capacity() const override { return manager_.capacity(); }
  void save_state(CheckpointWriter& w) const override { manager_.save_state(w); }
  void restore_state(CheckpointReader& r) override { manager_.restore_state(r); }

  [[nodiscard]] const admission::DynamicBufferManager& manager() const { return manager_; }

 private:
  admission::FlowTable table_;
  admission::DynamicBufferManager manager_;
};

std::vector<ManagerCase> manager_cases() {
  const std::vector<std::int64_t> thresholds{12'000, 12'000, 8'000, 8'000};
  return {
      {"tail_drop",
       [] { return std::make_unique<TailDropManager>(kCapacity, kFlows); }},
      {"threshold",
       [=] { return std::make_unique<ThresholdManager>(kCapacity, thresholds); }},
      {"sharing",
       [=] {
         return std::make_unique<BufferSharingManager>(kCapacity, thresholds,
                                                       ByteSize::bytes(5'000));
       }},
      {"selective_sharing",
       [=] {
         return std::make_unique<BufferSharingManager>(
             kCapacity, thresholds, ByteSize::bytes(5'000),
             std::vector<bool>{true, false, false, true});
       }},
      {"dynamic_threshold",
       [] { return std::make_unique<DynamicThresholdManager>(kCapacity, kFlows, 1.0); }},
      {"red",
       [] {
         return std::make_unique<RedManager>(
             kCapacity, kFlows,
             RedParams{.weight = 0.02, .min_threshold = 10'000, .max_threshold = 30'000,
                       .max_p = 0.1},
             Rng{77});
       }},
      {"fred",
       [] {
         return std::make_unique<FredManager>(
             kCapacity, kFlows,
             FredParams{.red = RedParams{.weight = 0.02, .min_threshold = 10'000,
                                         .max_threshold = 30'000, .max_p = 0.1},
                        .min_q = 1'000,
                        .strike_limit = 1},
             Rng{78});
       }},
      {"dynamic_table_threshold",
       [=] {
         return std::make_unique<TableBackedManager>(
             kCapacity, thresholds, admission::DynamicBufferManager::Policy::kThreshold,
             ByteSize::zero());
       }},
      {"dynamic_table_sharing",
       [=] {
         return std::make_unique<TableBackedManager>(
             kCapacity, thresholds, admission::DynamicBufferManager::Policy::kSharing,
             ByteSize::bytes(5'000));
       }},
  };
}

class ManagerFuzzTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ManagerFuzzTest, InvariantsSurviveRandomChurn) {
  const auto cases = manager_cases();
  const auto& mgr_case = cases[GetParam()];
  const auto mgr = mgr_case.make();
  Rng rng{GetParam() * 1000 + 17};

  // Outstanding admitted chunks per flow, so releases are always legal.
  std::array<std::deque<std::int64_t>, kFlows> outstanding;
  std::array<std::int64_t, kFlows> expected{};

  auto check_invariants = [&] {
    std::int64_t sum = 0;
    for (std::size_t f = 0; f < kFlows; ++f) {
      const auto q = mgr->occupancy(static_cast<FlowId>(f));
      ASSERT_GE(q, 0);
      ASSERT_EQ(q, expected[f]) << mgr_case.name << " flow " << f;
      sum += q;
    }
    ASSERT_EQ(mgr->total_occupancy(), sum);
    ASSERT_LE(sum, mgr->capacity().count());
  };

  for (int step = 0; step < 20'000; ++step) {
    const auto flow = static_cast<std::size_t>(rng.uniform_u64(kFlows));
    const bool admit = rng.bernoulli(0.55);
    if (admit) {
      const std::int64_t bytes = 100 + static_cast<std::int64_t>(rng.uniform_u64(900));
      const auto before_total = mgr->total_occupancy();
      const auto before_flow = mgr->occupancy(static_cast<FlowId>(flow));
      if (mgr->try_admit(static_cast<FlowId>(flow), bytes, Time::zero())) {
        outstanding[flow].push_back(bytes);
        expected[flow] += bytes;
      } else {
        // Refusal must be side-effect free on the accounting.
        ASSERT_EQ(mgr->total_occupancy(), before_total) << mgr_case.name;
        ASSERT_EQ(mgr->occupancy(static_cast<FlowId>(flow)), before_flow)
            << mgr_case.name;
      }
    } else if (!outstanding[flow].empty()) {
      const std::int64_t bytes = outstanding[flow].front();
      outstanding[flow].pop_front();
      mgr->release(static_cast<FlowId>(flow), bytes, Time::zero());
      expected[flow] -= bytes;
    }
    if (step % 64 == 0) check_invariants();
  }

  // Drain everything; the manager must come back to a clean state that
  // admits again.
  for (std::size_t f = 0; f < kFlows; ++f) {
    while (!outstanding[f].empty()) {
      mgr->release(static_cast<FlowId>(f), outstanding[f].front(), Time::zero());
      expected[f] -= outstanding[f].front();
      outstanding[f].pop_front();
    }
  }
  check_invariants();
  EXPECT_EQ(mgr->total_occupancy(), 0);
  // RED's EWMA may keep refusing briefly; every manager must admit within
  // a bounded number of attempts once empty.
  bool admitted = false;
  for (int attempt = 0; attempt < 1'000 && !admitted; ++attempt) {
    admitted = mgr->try_admit(0, 500, Time::zero());
    if (admitted) mgr->release(0, 500, Time::zero());
  }
  EXPECT_TRUE(admitted) << mgr_case.name;
}

INSTANTIATE_TEST_SUITE_P(AllManagers, ManagerFuzzTest,
                         ::testing::Range<std::size_t>(0, manager_cases().size()),
                         [](const auto& test_param) {
                           return manager_cases()[test_param.param].name;
                         });

// ------------------------------------------------- differential reference

/// The paper's Section 3.3 algorithm exactly as its pseudocode states it:
/// two stored counters, spent holes-first on admission and refilled
/// headroom-first on departure.  A flow that may not borrow stops at its
/// threshold, which makes the model the Section 3.2 fixed partition too.
class ReferencePools {
 public:
  ReferencePools(std::int64_t capacity, std::vector<std::int64_t> thresholds,
                 std::int64_t max_headroom, std::vector<bool> may_borrow)
      : cap_{std::min(max_headroom, capacity)},
        thresholds_{std::move(thresholds)},
        may_borrow_{std::move(may_borrow)},
        occupancy_(thresholds_.size(), 0),
        holes_{capacity - cap_},
        headroom_{cap_} {}

  bool admit(std::size_t flow, std::int64_t bytes) {
    const std::int64_t q = occupancy_[flow];
    const std::int64_t t = thresholds_[flow];
    if (q + bytes <= t) {
      const std::int64_t from_holes = std::min(holes_, bytes);
      const std::int64_t from_headroom = bytes - from_holes;
      if (from_headroom > headroom_) return false;
      holes_ -= from_holes;
      headroom_ -= from_headroom;
    } else {
      if (!may_borrow_[flow]) return false;
      if (bytes > holes_) return false;
      if (q + bytes - t > holes_ - bytes) return false;
      holes_ -= bytes;
    }
    occupancy_[flow] += bytes;
    return true;
  }

  void release(std::size_t flow, std::int64_t bytes) {
    occupancy_[flow] -= bytes;
    headroom_ += bytes;
    holes_ += std::max<std::int64_t>(headroom_ - cap_, 0);
    headroom_ = std::min(headroom_, cap_);
  }

  [[nodiscard]] std::int64_t holes() const { return holes_; }
  [[nodiscard]] std::int64_t headroom() const { return headroom_; }

 private:
  std::int64_t cap_;
  std::vector<std::int64_t> thresholds_;
  std::vector<bool> may_borrow_;
  std::vector<std::int64_t> occupancy_;
  std::int64_t holes_;
  std::int64_t headroom_;
};

/// Headroom regimes the differential suite covers: none, part of the
/// buffer, exactly the buffer, and more than the buffer.
enum class HeadroomRegime { kZero, kBelowBuffer, kEqualsBuffer, kAboveBuffer };

/// One randomly drawn configuration: buffer, per-flow thresholds and
/// borrow flags, headroom.
struct DiffConfig {
  std::int64_t capacity{0};
  std::vector<std::int64_t> thresholds;
  std::vector<bool> may_borrow;
  std::int64_t max_headroom{0};
};

DiffConfig draw_config(Rng& rng, HeadroomRegime regime) {
  DiffConfig c;
  c.capacity = 5'000 + static_cast<std::int64_t>(rng.uniform_u64(60'000));
  for (std::size_t f = 0; f < kFlows; ++f) {
    c.thresholds.push_back(static_cast<std::int64_t>(
        rng.uniform_u64(static_cast<std::uint64_t>(c.capacity / 2))));
    // One flow in three borrows.
    c.may_borrow.push_back(rng.uniform_u64(3) == 1);
  }
  switch (regime) {
    case HeadroomRegime::kZero: c.max_headroom = 0; break;
    case HeadroomRegime::kBelowBuffer:
      c.max_headroom = static_cast<std::int64_t>(
          rng.uniform_u64(static_cast<std::uint64_t>(c.capacity)));
      break;
    case HeadroomRegime::kEqualsBuffer: c.max_headroom = c.capacity; break;
    case HeadroomRegime::kAboveBuffer:
      c.max_headroom = c.capacity + 1 +
                       static_cast<std::int64_t>(rng.uniform_u64(
                           static_cast<std::uint64_t>(c.capacity / 3)));
      break;
  }
  return c;
}

/// Replays random operations through the reference and `mgr`, asserting
/// identical decisions after every one and, when `pools` is given,
/// identical holes/headroom.
void run_differential(const DiffConfig& config, BufferManager& mgr,
                      const std::vector<bool>& may_borrow,
                      const std::function<SharingPools()>& pools, Rng& rng) {
  ReferencePools ref{config.capacity, config.thresholds, config.max_headroom, may_borrow};
  std::array<std::deque<std::int64_t>, kFlows> outstanding;
  const auto max_packet = static_cast<std::uint64_t>(std::max<std::int64_t>(
      config.capacity / 8, 64));
  for (int op = 0; op < 4'000; ++op) {
    const auto flow = static_cast<std::size_t>(rng.uniform_u64(kFlows));
    const auto id = static_cast<FlowId>(flow);
    if (rng.bernoulli(0.55) || outstanding[flow].empty()) {
      const std::int64_t bytes = 1 + static_cast<std::int64_t>(rng.uniform_u64(max_packet));
      const bool expected = ref.admit(flow, bytes);
      ASSERT_EQ(mgr.try_admit(id, bytes, Time::zero()), expected)
          << "op " << op << " flow " << flow << " bytes " << bytes;
      if (expected) outstanding[flow].push_back(bytes);
    } else {
      const std::int64_t bytes = outstanding[flow].front();
      outstanding[flow].pop_front();
      ref.release(flow, bytes);
      mgr.release(id, bytes, Time::zero());
    }
    if (pools) {
      const SharingPools p = pools();
      ASSERT_EQ(p.holes, ref.holes()) << "op " << op;
      ASSERT_EQ(p.headroom, ref.headroom()) << "op " << op;
    }
  }
}

class SharingDifferentialTest : public ::testing::TestWithParam<HeadroomRegime> {
 protected:
  /// Hands `check` twelve random configurations of the current regime,
  /// each with the Rng that drew it.  The seeds do not depend on the
  /// manager, so every manager sees the same streams.
  template <typename Check>
  void for_each_config(Check check) {
    for (int seed = 0; seed < 12; ++seed) {
      Rng rng{static_cast<std::uint64_t>(seed) * 7919u +
              static_cast<std::uint64_t>(GetParam()) * 104'729u + 3u};
      const DiffConfig c = draw_config(rng, GetParam());
      check(c, rng);
      if (HasFatalFailure()) return;
    }
  }
};

TEST_P(SharingDifferentialTest, BufferSharingAllAdaptiveMatchesPseudocode) {
  for_each_config([](const DiffConfig& c, Rng& rng) {
    BufferSharingManager mgr{ByteSize::bytes(c.capacity), c.thresholds,
                             ByteSize::bytes(c.max_headroom)};
    run_differential(c, mgr, std::vector<bool>(kFlows, true),
                     [&] { return SharingPools{mgr.holes(), mgr.headroom()}; }, rng);
  });
}

TEST_P(SharingDifferentialTest, BufferSharingMixedClassesMatchesPseudocode) {
  for_each_config([](const DiffConfig& c, Rng& rng) {
    BufferSharingManager mgr{ByteSize::bytes(c.capacity), c.thresholds,
                             ByteSize::bytes(c.max_headroom), c.may_borrow};
    run_differential(c, mgr, c.may_borrow,
                     [&] { return SharingPools{mgr.holes(), mgr.headroom()}; }, rng);
  });
}

TEST_P(SharingDifferentialTest, ThresholdManagerMatchesPseudocode) {
  for_each_config([](const DiffConfig& c, Rng& rng) {
    ThresholdManager mgr{ByteSize::bytes(c.capacity), c.thresholds};
    run_differential(c, mgr, std::vector<bool>(kFlows, false), {}, rng);
  });
}

TEST_P(SharingDifferentialTest, TailDropMatchesPseudocode) {
  // No buffer management is the same rule with every threshold at the
  // capacity and no borrower.
  for_each_config([](DiffConfig c, Rng& rng) {
    c.thresholds.assign(kFlows, c.capacity);
    TailDropManager mgr{ByteSize::bytes(c.capacity), kFlows};
    run_differential(c, mgr, std::vector<bool>(kFlows, false), {}, rng);
  });
}

TEST_P(SharingDifferentialTest, DynamicSharingPolicyMatchesPseudocode) {
  for_each_config([](const DiffConfig& c, Rng& rng) {
    TableBackedManager mgr{ByteSize::bytes(c.capacity), c.thresholds,
                           admission::DynamicBufferManager::Policy::kSharing,
                           ByteSize::bytes(c.max_headroom)};
    run_differential(
        c, mgr, std::vector<bool>(kFlows, true),
        [&] { return SharingPools{mgr.manager().holes(), mgr.manager().headroom()}; }, rng);
  });
}

TEST_P(SharingDifferentialTest, DynamicThresholdPolicyMatchesPseudocode) {
  for_each_config([](const DiffConfig& c, Rng& rng) {
    TableBackedManager mgr{ByteSize::bytes(c.capacity), c.thresholds,
                           admission::DynamicBufferManager::Policy::kThreshold,
                           ByteSize::bytes(c.max_headroom)};
    run_differential(
        c, mgr, std::vector<bool>(kFlows, false),
        [&] { return SharingPools{mgr.manager().holes(), mgr.manager().headroom()}; }, rng);
  });
}

INSTANTIATE_TEST_SUITE_P(Headroom, SharingDifferentialTest,
                         ::testing::Values(HeadroomRegime::kZero, HeadroomRegime::kBelowBuffer,
                                           HeadroomRegime::kEqualsBuffer,
                                           HeadroomRegime::kAboveBuffer),
                         [](const auto& regime_param) {
                           switch (regime_param.param) {
                             case HeadroomRegime::kZero: return std::string{"Zero"};
                             case HeadroomRegime::kBelowBuffer: return std::string{"BelowBuffer"};
                             case HeadroomRegime::kEqualsBuffer: return std::string{"EqualsBuffer"};
                             case HeadroomRegime::kAboveBuffer: return std::string{"AboveBuffer"};
                           }
                           return std::string{"Unknown"};
                         });

}  // namespace
}  // namespace bufq
