#include "sim/parallel.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace bufq {

ParallelCoordinator::ParallelCoordinator(Config config, SyncHook on_sync)
    : config_{std::move(config)},
      on_sync_{std::move(on_sync)},
      barrier_{static_cast<std::size_t>(config_.shards), [this] { advance(); }} {
  assert(config_.shards >= 1);
  assert(config_.lookahead > Time::zero());
  assert(config_.horizon > Time::zero());
  assert(config_.sync_point >= Time::zero() && config_.sync_point < config_.horizon);
  const auto n = static_cast<std::size_t>(config_.shards);
  channels_.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    channels_.emplace_back(static_cast<std::int32_t>(s), n);
  }
  pending_.resize(n);
  received_.resize(n, 0);
  failed_.resize(n, 0);
}

std::uint64_t ParallelCoordinator::boundary_events() const {
  std::uint64_t total = 0;
  for (const std::uint64_t r : received_) total += r;
  return total;
}

bool ParallelCoordinator::next_window(std::int32_t shard, Window& out, bool failed) {
  const auto me = static_cast<std::size_t>(shard);
  if (failed) failed_[me] = 1;
  barrier_.arrive_and_wait();
  // advance() wrote the fields read below under the barrier mutex; the
  // wakeup carries the happens-before edge.
  if (aborted_) return false;
  channels_[me].set_phase((barriers_ + 1) & 1);
  // Counted also after the drain round, whose emissions are dropped.
  gather(me, out.incoming);
  if (done_) return false;
  out.end = cur_;
  out.final = drain_issued_;
  return true;
}

void ParallelCoordinator::gather(std::size_t shard, std::vector<BoundaryEvent>& incoming) {
  const bool drain = drain_issued_;
  const auto due = [&](const BoundaryEvent& ev) { return drain ? ev.time <= cur_ : ev.time < cur_; };
  auto& queue = pending_[shard];
  incoming.clear();
  // Carried events first, then the finished window's in channel order;
  // the sort below imposes the (time, src_shard, seq) order regardless.
  auto keep = queue.begin();
  for (auto& ev : queue) {
    if (due(ev)) {
      incoming.push_back(std::move(ev));
    } else {
      *keep++ = std::move(ev);
    }
  }
  queue.erase(keep, queue.end());
  const std::size_t written = barriers_ & 1;
  for (auto& channel : channels_) {
    auto& box = channel.outbox(written, shard);
    received_[shard] += box.size();
    for (auto& ev : box) {
      if (due(ev)) {
        incoming.push_back(std::move(ev));
      } else {
        queue.push_back(std::move(ev));
      }
    }
    box.clear();
  }
  // In the drain round anything past the horizon is unreachable.
  if (drain) queue.clear();
  std::sort(incoming.begin(), incoming.end(), boundary_before);
}

void ParallelCoordinator::advance() {
  ++barriers_;
  // A failed shard cannot finish the run, so no other shard should
  // simulate on to the horizon: end every shard at this barrier.
  if (std::find(failed_.begin(), failed_.end(), 1) != failed_.end()) {
    aborted_ = true;
    done_ = true;
    return;
  }

  // Completed windows now cover exactly [0, cur_); fire the sync hook
  // when that prefix ends at the sync point (e.g. the warmup snapshot).
  // cur_ only grows, so this fires at most once.
  if (windows_ > 0 && cur_ == config_.sync_point && on_sync_) on_sync_();

  if (drain_issued_) {
    done_ = true;
    return;
  }

  const bool drain = cur_ == config_.horizon;
  Time end = config_.horizon;
  if (!drain) {
    end = cur_ + config_.lookahead;
    if (cur_ < config_.sync_point && config_.sync_point < end) {
      end = config_.sync_point;
    }
    if (end > config_.horizon) end = config_.horizon;
  }
  cur_ = end;
  drain_issued_ = drain;
  ++windows_;
}

}  // namespace bufq
