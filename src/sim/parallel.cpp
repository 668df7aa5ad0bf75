#include "sim/parallel.h"

#include <algorithm>
#include <cassert>
#include <iterator>
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
  next_.resize(n);
  failed_.resize(n, 0);
}

bool ParallelCoordinator::next_window(std::int32_t shard, Window& out, bool failed) {
  if (failed) failed_[static_cast<std::size_t>(shard)] = 1;
  barrier_.arrive_and_wait();
  // done_ and next_ were written by the completion callback under the
  // barrier mutex; the wakeup carries the happens-before edge.
  if (done_) return false;
  out = std::move(next_[static_cast<std::size_t>(shard)]);
  return true;
}

void ParallelCoordinator::advance() {
  // A failed shard cannot finish the run, so no other shard should
  // simulate on to the horizon: end every shard at this barrier.
  if (std::find(failed_.begin(), failed_.end(), 1) != failed_.end()) {
    done_ = true;
    return;
  }

  // Drain every channel's outboxes.  Emission order within a channel is
  // already (time-monotonic per sender, seq-ordered overall); the sort at
  // delivery planning below imposes the global (time, src_shard, seq)
  // order regardless.
  const auto n = static_cast<std::size_t>(config_.shards);
  for (auto& channel : channels_) {
    for (std::size_t dst = 0; dst < n; ++dst) {
      auto& box = channel.outbox(dst);
      boundary_events_ += box.size();
      std::move(box.begin(), box.end(), std::back_inserter(pending_[dst]));
      box.clear();
    }
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

  for (std::size_t dst = 0; dst < n; ++dst) {
    Window& w = next_[dst];
    w.end = end;
    w.final = drain;
    w.incoming.clear();
    auto& queue = pending_[dst];
    // Stable partition: due events out, not-yet-due events stay (in the
    // drain round anything past the horizon is unreachable and dropped).
    auto keep = queue.begin();
    for (auto& ev : queue) {
      const bool due = drain ? ev.time <= end : ev.time < end;
      if (due) {
        w.incoming.push_back(std::move(ev));
      } else {
        *keep++ = std::move(ev);
      }
    }
    queue.erase(keep, queue.end());
    if (drain) queue.clear();
    std::sort(w.incoming.begin(), w.incoming.end(), boundary_before);
  }

  cur_ = end;
  drain_issued_ = drain;
  ++windows_;
}

}  // namespace bufq
