#include "traffic/sources.h"

#include <cassert>
#include <string>

#include "sim/checkpoint.h"

namespace bufq {

// ---------------------------------------------------------------- ON-OFF

MarkovOnOffSource::MarkovOnOffSource(Simulator& sim, PacketSink& sink, Params params, Rng rng)
    : sim_{sim}, sink_{sink}, params_{params}, rng_{rng} {
  assert(params_.peak_rate.bps() > 0.0);
  assert(params_.mean_on > Time::zero());
  assert(params_.mean_off > Time::zero());
  assert(params_.packet_bytes > 0);
  packet_gap_ = params_.peak_rate.transmission_time(params_.packet_bytes);
}

MarkovOnOffSource::Params MarkovOnOffSource::params_from_profile(FlowId flow,
                                                                 const TrafficProfile& profile,
                                                                 std::int64_t packet_bytes) {
  assert(profile.avg_rate.bps() > 0.0);
  assert(profile.avg_rate < profile.peak_rate && "an ON-OFF source needs avg < peak");
  const double mean_on_s = profile.mean_burst.bits() / profile.peak_rate.bps();
  const double duty = profile.avg_rate / profile.peak_rate;
  const double mean_off_s = mean_on_s * (1.0 - duty) / duty;
  return Params{
      .flow = flow,
      .peak_rate = profile.peak_rate,
      .mean_on = Time::from_seconds(mean_on_s),
      .mean_off = Time::from_seconds(mean_off_s),
      .packet_bytes = packet_bytes,
  };
}

void MarkovOnOffSource::start() {
  assert(!started_);
  started_ = true;
  // Start in the OFF state with a fresh holding time; the first burst
  // begins after an exponential delay, so sources with distinct streams
  // desynchronize immediately.
  schedule(rng_.exponential_time(params_.mean_off), &MarkovOnOffSource::begin_on_period);
}

void MarkovOnOffSource::stop() { stopped_ = true; }

void MarkovOnOffSource::schedule(Time delay, void (MarkovOnOffSource::*next)()) {
  next_event_ = sim_.now() + delay;
  pending_ = next == &MarkovOnOffSource::begin_on_period ? Pending::kBeginOn : Pending::kEmit;
  const auto fire = [this, next] {
    if (!stopped_) (this->*next)();
  };
  pending_seq_ = sim_.in(delay, fire);
}

void MarkovOnOffSource::save_state(CheckpointWriter& w) const {
  w.begin_section("src.onoff." + std::to_string(params_.flow));
  save_rng(w, rng_);
  w.write_time(on_ends_);
  w.write_time(next_event_);
  w.write_u64(next_seq_);
  w.write_bool(started_);
  w.write_bool(stopped_);
  w.write_u8(static_cast<std::uint8_t>(pending_));
  w.write_u64(pending_seq_);
  w.end_section();
}

void MarkovOnOffSource::restore_state(CheckpointReader& r) {
  r.begin_section("src.onoff." + std::to_string(params_.flow));
  load_rng(r, rng_);
  on_ends_ = r.read_time();
  next_event_ = r.read_time();
  next_seq_ = r.read_u64();
  started_ = r.read_bool();
  stopped_ = r.read_bool();
  pending_ = static_cast<Pending>(r.read_u8());
  pending_seq_ = r.read_u64();
  r.end_section();
  if (!started_ || stopped_ || pending_ == Pending::kNone) return;
  const auto next = pending_ == Pending::kBeginOn ? &MarkovOnOffSource::begin_on_period
                                                  : &MarkovOnOffSource::emit_packet;
  const auto fire = [this, next] {
    if (!stopped_) (this->*next)();
  };
  sim_.rearm(next_event_, pending_seq_, fire);
}

void MarkovOnOffSource::begin_on_period() {
  Time on_length = Time::zero();
  switch (params_.on_distribution) {
    case BurstDistribution::kExponential:
      on_length = rng_.exponential_time(params_.mean_on);
      break;
    case BurstDistribution::kPareto:
      on_length = rng_.pareto_time(params_.mean_on, params_.pareto_shape);
      break;
    case BurstDistribution::kDeterministic:
      on_length = params_.mean_on;
      break;
  }
  on_ends_ = sim_.now() + on_length;
  emit_packet();
}

void MarkovOnOffSource::emit_packet() {
  // The ON period covers whole packets: we emit as long as the next packet
  // would still start inside the period, then fall silent.
  if (sim_.now() >= on_ends_) {
    schedule(rng_.exponential_time(params_.mean_off), &MarkovOnOffSource::begin_on_period);
    return;
  }
  sink_.accept(Packet{.flow = params_.flow,
                      .size_bytes = params_.packet_bytes,
                      .seq = next_seq_++,
                      .created = sim_.now()});
  schedule(packet_gap_, &MarkovOnOffSource::emit_packet);
}

// ------------------------------------------------------------------- CBR

CbrSource::CbrSource(Simulator& sim, PacketSink& sink, FlowId flow, Rate rate,
                     std::int64_t packet_bytes)
    : sim_{sim},
      sink_{sink},
      flow_{flow},
      interval_{rate.transmission_time(packet_bytes)},
      packet_bytes_{packet_bytes} {
  assert(rate.bps() > 0.0);
  assert(packet_bytes > 0);
}

void CbrSource::start() {
  assert(!started_);
  started_ = true;
  emit_packet();
}

void CbrSource::emit_packet() {
  sink_.accept(Packet{.flow = flow_,
                      .size_bytes = packet_bytes_,
                      .seq = next_seq_++,
                      .created = sim_.now()});
  const auto tick = [this] { emit_packet(); };
  next_emit_ = sim_.now() + interval_;
  pending_seq_ = sim_.in(interval_, tick);
}

void CbrSource::save_state(CheckpointWriter& w) const {
  w.begin_section("src.cbr." + std::to_string(flow_));
  w.write_u64(next_seq_);
  w.write_bool(started_);
  w.write_time(next_emit_);
  w.write_u64(pending_seq_);
  w.end_section();
}

void CbrSource::restore_state(CheckpointReader& r) {
  r.begin_section("src.cbr." + std::to_string(flow_));
  next_seq_ = r.read_u64();
  started_ = r.read_bool();
  next_emit_ = r.read_time();
  pending_seq_ = r.read_u64();
  r.end_section();
  if (!started_) return;
  sim_.rearm(next_emit_, pending_seq_, [this] { emit_packet(); });
}

}  // namespace bufq
