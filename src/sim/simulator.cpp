#include "sim/simulator.h"

#include "sim/checkpoint.h"

namespace bufq {

void Simulator::run() {
  while (step()) {
  }
  stopped_ = false;
}

void Simulator::save_state(CheckpointWriter& w) const {
  w.begin_section("sim");
  w.write_time(now_);
  w.write_u64(next_seq_);
  w.write_u64(processed_);
  w.write_bool(stopped_);
  w.write_u64(calendar_.size());
  w.end_section();
}

std::uint64_t Simulator::restore_state(CheckpointReader& r) {
  r.begin_section("sim");
  const Time now = r.read_time();
  const std::uint64_t next_seq = r.read_u64();
  const std::uint64_t processed = r.read_u64();
  const bool stopped = r.read_bool();
  const std::uint64_t pending = r.read_u64();
  r.end_section();
  calendar_ = CalendarQueue{};
  now_ = now;
  next_seq_ = next_seq;
  processed_ = processed;
  stopped_ = stopped;
  return pending;
}

}  // namespace bufq
