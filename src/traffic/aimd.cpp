#include "traffic/aimd.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "sim/checkpoint.h"

namespace bufq {

AimdSource::AimdSource(Simulator& sim, PacketSink& sink, Params params)
    : sim_{sim}, sink_{sink}, params_{params}, rate_{params.initial_rate} {
  assert(params_.initial_rate.bps() > 0.0);
  assert(params_.floor_rate.bps() > 0.0);
  assert(params_.floor_rate <= params_.ceiling_rate);
  assert(params_.multiplicative_decrease > 0.0 && params_.multiplicative_decrease < 1.0);
  assert(params_.rtt > Time::zero());
  assert(params_.packet_bytes > 0);
  rate_ = std::clamp(rate_, params_.floor_rate, params_.ceiling_rate);
}

void AimdSource::start() {
  assert(!started_);
  started_ = true;
  emit_packet();
  const auto first_epoch = [this] { epoch(); };
  next_epoch_ = sim_.now() + params_.rtt;
  epoch_seq_ = sim_.in(params_.rtt, first_epoch);
}

void AimdSource::emit_packet() {
  sink_.accept(Packet{.flow = params_.flow,
                      .size_bytes = params_.packet_bytes,
                      .seq = next_seq_++,
                      .created = sim_.now()});
  const auto tick = [this] { emit_packet(); };
  const Time gap = rate_.transmission_time(params_.packet_bytes);
  next_emit_ = sim_.now() + gap;
  emit_seq_ = sim_.in(gap, tick);
}

void AimdSource::epoch() {
  if (loss_in_epoch_) {
    rate_ = std::max(rate_ * params_.multiplicative_decrease, params_.floor_rate);
    ++decreases_;
  } else {
    rate_ = std::min(rate_ + params_.additive_increase, params_.ceiling_rate);
  }
  loss_in_epoch_ = false;
  const auto next_epoch = [this] { epoch(); };
  next_epoch_ = sim_.now() + params_.rtt;
  epoch_seq_ = sim_.in(params_.rtt, next_epoch);
}

void AimdSource::save_state(CheckpointWriter& w) const {
  w.begin_section("src.aimd." + std::to_string(params_.flow));
  w.write_f64(rate_.bps());
  w.write_bool(loss_in_epoch_);
  w.write_u64(decreases_);
  w.write_u64(next_seq_);
  w.write_bool(started_);
  w.write_time(next_emit_);
  w.write_u64(emit_seq_);
  w.write_time(next_epoch_);
  w.write_u64(epoch_seq_);
  w.end_section();
}

void AimdSource::restore_state(CheckpointReader& r) {
  r.begin_section("src.aimd." + std::to_string(params_.flow));
  rate_ = Rate::bits_per_second(r.read_f64());
  loss_in_epoch_ = r.read_bool();
  decreases_ = r.read_u64();
  next_seq_ = r.read_u64();
  started_ = r.read_bool();
  next_emit_ = r.read_time();
  emit_seq_ = r.read_u64();
  next_epoch_ = r.read_time();
  epoch_seq_ = r.read_u64();
  r.end_section();
  if (!started_) return;
  sim_.rearm(next_emit_, emit_seq_, [this] { emit_packet(); });
  sim_.rearm(next_epoch_, epoch_seq_, [this] { epoch(); });
}

}  // namespace bufq
