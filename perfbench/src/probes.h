// Standalone probes of layers whose calls the traced pipelines cannot
// reach from outside: the event calendar, the parallel engine's barrier
// and the admission decision path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

struct CalendarProbe {
  double hold_ns{0.0};
  int width_shift{0};
  std::size_t buckets{0};
};

/// Gaps (ns) drawn uniformly from [1, 2 * mean_ns]: the shallow,
/// single-speed calendar of a single-link run.
[[nodiscard]] std::vector<std::int64_t> uniform_gaps(double mean_ns, std::uint64_t seed);

/// Half the gaps a transmission time (uniform in [1, 2 * near_ns]), half a
/// propagation delay plus the same jitter: the two-speed calendar of a
/// fabric, where microsecond transmissions mix with millisecond wires.
[[nodiscard]] std::vector<std::int64_t> bimodal_gaps(std::int64_t near_ns, std::int64_t far_ns,
                                                     std::uint64_t seed);

/// Classic hold model on a CalendarQueue: `depth` pending events, each
/// operation pops the minimum and pushes it back one gap later.  Returns
/// the mean cost of one push + pop_min and the geometry the calendar ends
/// at.
[[nodiscard]] CalendarProbe probe_calendar(std::size_t depth,
                                           const std::vector<std::int64_t>& gaps);

/// Mean wall time of one PhaseBarrier::arrive_and_wait round with
/// `parties` threads (the calling thread is one of them).
[[nodiscard]] double probe_barrier_ns(std::size_t parties, std::size_t rounds);

/// Mean cost of one churn decision at `resident` flows: an
/// AdmissionController::release + FlowTable::teardown of a random victim,
/// then AdmissionController::try_admit + FlowTable::admit_class.
[[nodiscard]] double probe_admission_ns(std::size_t resident, std::size_t decisions,
                                        std::uint64_t seed);

}  // namespace perfbench
