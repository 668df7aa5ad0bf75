#include "admission/churn_driver.h"

#include <algorithm>
#include <cassert>


namespace bufq::admission {
namespace {

/// Polling interval for the drain check after a departure.
constexpr Time kReapInterval = Time::milliseconds(10);

}  // namespace

ChurnDriver::ChurnDriver(Simulator& sim, AdmissionController& controller, FlowTable& table,
                         PacketSink& ingress, Config config, Rng rng)
    : sim_{sim},
      controller_{controller},
      table_{table},
      ingress_{ingress},
      config_{std::move(config)},
      rng_{rng},
      slots_(table.slot_count()) {
  assert(config_.arrival_rate_hz > 0.0);
  assert(config_.mean_holding > Time::zero());
  assert(!config_.mix.empty() && "churn needs at least one mix entry");
  mix_cumulative_.reserve(config_.mix.size());
  mix_class_.reserve(config_.mix.size());
  double total = 0.0;
  for (const auto& entry : config_.mix) {
    assert(entry.weight > 0.0);
    total += entry.weight;
    mix_cumulative_.push_back(total);
    // Intern the profile's envelope class once; every arrival of this
    // profile then admits by class id.  The threshold is a pure function
    // of the envelope and the controller's static (B, R) config, so
    // caching it in the class preserves per-arrival computation exactly.
    const FlowSpec spec{.rho = entry.profile.token_rate, .sigma = entry.profile.bucket};
    mix_class_.push_back(table_.classes().intern(spec, controller_.threshold_bytes(spec)));
  }
}

ChurnDriver::~ChurnDriver() = default;

void ChurnDriver::start() {
  assert(!started_);
  started_ = true;
  start_time_ = sim_.now();
  integrals_updated_ = sim_.now();
  schedule_next_arrival();
}

void ChurnDriver::schedule_next_arrival() {
  const Time gap = rng_.exponential_time(Time::from_seconds(1.0 / config_.arrival_rate_hz));
  const auto arrive = [this] { on_arrival(); };
  sim_.in(gap, arrive);
}

std::size_t ChurnDriver::pick_mix_index() {
  const double u = rng_.uniform(0.0, mix_cumulative_.back());
  const auto it = std::upper_bound(mix_cumulative_.begin(), mix_cumulative_.end(), u);
  return static_cast<std::size_t>(
      std::min<std::ptrdiff_t>(it - mix_cumulative_.begin(),
                               static_cast<std::ptrdiff_t>(config_.mix.size()) - 1));
}

void ChurnDriver::advance_integrals() {
  const Time now = sim_.now();
  const double dt = (now - integrals_updated_).to_seconds();
  if (dt > 0.0) {
    active_integral_ += static_cast<double>(holding_) * dt;
    utilization_integral_ += controller_.utilization() * dt;
    integrals_updated_ = now;
  }
}

void ChurnDriver::on_arrival() {
  if (settle_) settle_();
  ++counters_.arrivals;
  const std::size_t index = pick_mix_index();
  const TrafficProfile& profile = config_.mix[index].profile;
  const FlowSpec spec{.rho = profile.token_rate, .sigma = profile.bucket};

  if (table_.active_count() >= std::min(config_.max_concurrent, table_.slot_count())) {
    ++counters_.rejected_capacity;
    schedule_next_arrival();
    return;
  }

  switch (controller_.try_admit(spec)) {
    case AdmissionVerdict::kBandwidthLimited:
      ++counters_.rejected_bandwidth;
      schedule_next_arrival();
      return;
    case AdmissionVerdict::kBufferLimited:
      ++counters_.rejected_buffer;
      schedule_next_arrival();
      return;
    case AdmissionVerdict::kAccepted:
      break;
  }

  advance_integrals();
  const FlowHandle handle = table_.admit_class(mix_class_[index]);
  Slot& slot = slots_[handle.slot];
  assert(!slot.source && "recycled slot still owns a live source");

  const auto flow_id = static_cast<FlowId>(handle.slot);
  PacketSink* entry = &ingress_;
  if (profile.regulated) {
    slot.shaper = std::make_unique<LeakyBucketShaper>(sim_, ingress_, profile.bucket,
                                                      profile.token_rate, profile.peak_rate);
    entry = slot.shaper.get();
  }
  slot.source = std::make_unique<MarkovOnOffSource>(
      sim_, *entry, MarkovOnOffSource::params_from_profile(flow_id, profile),
      rng_.fork(counters_.admitted));
  slot.regulated = profile.regulated;
  slot.draining = false;
  slot.source->start();

  ++counters_.admitted;
  ++holding_;
  if (on_admit_) on_admit_(flow_id, profile);

  const auto depart = [this, handle] { on_departure(handle); };
  sim_.in(rng_.exponential_time(config_.mean_holding), depart);
  schedule_next_arrival();
}

void ChurnDriver::on_departure(FlowHandle handle) {
  if (settle_) settle_();
  if (!table_.valid(handle)) return;
  Slot& slot = slots_[handle.slot];
  assert(!slot.draining);
  advance_integrals();
  ++counters_.departures;
  --holding_;
  slot.draining = true;
  slot.source->stop();
  // The reservation and slot are held until every byte the flow pushed
  // into the shaper or the buffer has drained; poll for that.
  const auto reap = [this, handle] { try_reap(handle); };
  sim_.in(kReapInterval, reap);
}

void ChurnDriver::try_reap(FlowHandle handle) {
  if (settle_) settle_();
  assert(table_.valid(handle) && "only the reap chain tears flows down");
  Slot& slot = slots_[handle.slot];
  const bool shaper_busy =
      slot.shaper && (slot.shaper->queue_length() > 0 || slot.shaper->release_pending());
  const bool source_busy = sim_.now() < slot.source->quiescent_after();
  if (shaper_busy || source_busy || table_.occupancy(handle.slot) > 0) {
    const auto retry = [this, handle] { try_reap(handle); };
    sim_.in(kReapInterval, retry);
    return;
  }
  advance_integrals();
  controller_.release(table_.spec(handle.slot));
  table_.teardown(handle);
  // Safe to destroy: the source is quiescent and the shaper has no event
  // outstanding.
  slot.source.reset();
  slot.shaper.reset();
  slot.draining = false;
  ++counters_.reaped;
}

void ChurnDriver::record_drop(const Packet& packet, Time /*now*/) {
  const auto slot = static_cast<std::uint32_t>(packet.flow);
  if (table_.active(slot) && slots_[slot].regulated) {
    ++counters_.conformant_drops;
  } else {
    ++counters_.nonconformant_drops;
  }
}

double ChurnDriver::mean_active_flows() const {
  const double elapsed = (sim_.now() - start_time_).to_seconds();
  if (elapsed <= 0.0) return static_cast<double>(holding_);
  const double tail = (sim_.now() - integrals_updated_).to_seconds();
  return (active_integral_ + static_cast<double>(holding_) * tail) / elapsed;
}

double ChurnDriver::mean_reserved_utilization() const {
  const double elapsed = (sim_.now() - start_time_).to_seconds();
  if (elapsed <= 0.0) return controller_.utilization();
  const double tail = (sim_.now() - integrals_updated_).to_seconds();
  return (utilization_integral_ + controller_.utilization() * tail) / elapsed;
}

}  // namespace bufq::admission
