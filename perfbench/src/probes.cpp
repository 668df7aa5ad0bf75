#include "probes.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>

#include "admission/admission_controller.h"
#include "admission/flow_table.h"
#include "sim/calendar_queue.h"
#include "sim/inline_action.h"
#include "util/rng.h"
#include "util/task_pool.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// Gap tables are cycled, so their size is a power of two.
constexpr std::size_t kGapTableSize = std::size_t{1} << 16;
constexpr std::size_t kCalendarHolds = 2'000'000;

double elapsed_ns(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

std::vector<std::int64_t> uniform_gaps(double mean_ns, std::uint64_t seed) {
  bufq::Rng rng{seed};
  const auto span = static_cast<std::uint64_t>(std::max(2.0 * mean_ns, 1.0));
  std::vector<std::int64_t> gaps(kGapTableSize);
  for (auto& gap : gaps) gap = 1 + static_cast<std::int64_t>(rng.uniform_u64(span));
  return gaps;
}

std::vector<std::int64_t> bimodal_gaps(std::int64_t near_ns, std::int64_t far_ns,
                                       std::uint64_t seed) {
  bufq::Rng rng{seed};
  const auto span = static_cast<std::uint64_t>(std::max<std::int64_t>(2 * near_ns, 1));
  std::vector<std::int64_t> gaps(kGapTableSize);
  for (auto& gap : gaps) {
    gap = 1 + static_cast<std::int64_t>(rng.uniform_u64(span));
    if (rng.bernoulli(0.5)) gap += far_ns;
  }
  return gaps;
}

CalendarProbe probe_calendar(std::size_t depth, const std::vector<std::int64_t>& gaps) {
  if (gaps.size() != kGapTableSize) throw std::invalid_argument("calendar probe: gap table size");
  bufq::CalendarQueue queue;
  std::uint64_t seq = 0;
  std::size_t next = 0;
  const auto gap = [&] {
    const std::int64_t g = gaps[next];
    next = (next + 1) & (kGapTableSize - 1);
    return bufq::Time::nanoseconds(g);
  };
  for (std::size_t i = 0; i < depth; ++i) {
    queue.push(bufq::CalendarQueue::Event{gap(), seq++, bufq::InlineAction{[] {}}});
  }
  const auto hold = [&] {
    bufq::CalendarQueue::Event event = queue.pop_min();
    queue.push(bufq::CalendarQueue::Event{event.time + gap(), seq++, std::move(event.action)});
  };
  // Let the lazy resizes settle before timing.
  for (std::size_t i = 0; i < 8 * depth + 100'000; ++i) hold();
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kCalendarHolds; ++i) hold();
  const double ns = elapsed_ns(start);
  return CalendarProbe{.hold_ns = ns / static_cast<double>(kCalendarHolds),
                       .width_shift = queue.width_shift(),
                       .buckets = queue.bucket_count()};
}

double probe_barrier_ns(std::size_t parties, std::size_t rounds) {
  bufq::PhaseBarrier barrier{parties};
  const auto body = [&barrier, rounds] {
    for (std::size_t r = 0; r < rounds; ++r) barrier.arrive_and_wait();
  };
  const auto start = std::chrono::steady_clock::now();
  {
    // jthread joins on destruction, also when a later emplace throws.
    std::vector<std::jthread> others;
    others.reserve(parties - 1);
    for (std::size_t p = 1; p < parties; ++p) others.emplace_back(body);
    body();
  }
  return elapsed_ns(start) / static_cast<double>(rounds);
}

double probe_admission_ns(std::size_t resident, std::size_t decisions, std::uint64_t seed) {
  const bufq::ChurnConfig config = churn_config(seed, Horizon::kFull);
  bufq::admission::FlowTable table{resident};
  bufq::admission::AdmissionController controller{{
      .scheme = bufq::admission::Scheme::kFifoThreshold,
      .link_rate = config.link_rate,
      .buffer = config.buffer,
  }};
  const bufq::TrafficProfile& profile = config.churn.mix.front().profile;
  const bufq::FlowSpec flow{.rho = profile.token_rate, .sigma = profile.bucket};
  const bufq::admission::ClassId cls =
      table.classes().intern(flow, controller.threshold_bytes(flow));
  std::vector<bufq::admission::FlowHandle> handles;
  handles.reserve(resident);
  for (std::size_t i = 0; i < resident; ++i) {
    if (controller.try_admit(flow) != bufq::AdmissionVerdict::kAccepted) {
      throw std::runtime_error("admission probe: churn's buffer cannot hold " +
                               std::to_string(resident) + " flows");
    }
    handles.push_back(table.admit_class(cls));
  }
  bufq::Rng rng{seed};
  std::vector<std::uint32_t> victims(decisions);
  for (auto& v : victims) v = static_cast<std::uint32_t>(rng.uniform_u64(resident));
  const auto start = std::chrono::steady_clock::now();
  for (const std::uint32_t v : victims) {
    controller.release(flow);
    table.teardown(handles[v]);
    if (controller.try_admit(flow) != bufq::AdmissionVerdict::kAccepted) {
      throw std::runtime_error("admission probe: steady-state admit refused");
    }
    handles[v] = table.admit_class(cls);
  }
  return elapsed_ns(start) / static_cast<double>(decisions);
}

}  // namespace perfbench
