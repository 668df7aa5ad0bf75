#include "check/invariants.h"

#include <sstream>
#include <utility>

namespace bufq::check {

const char* to_string(Invariant invariant) {
  switch (invariant) {
    case Invariant::kConservation:
      return "conservation";
    case Invariant::kCapacity:
      return "capacity";
    case Invariant::kFlowBound:
      return "flow-bound";
    case Invariant::kVirtualTime:
      return "virtual-time";
    case Invariant::kEventClock:
      return "event-clock";
    case Invariant::kDelayBound:
      return "delay-bound";
  }
  return "unknown";
}

std::string Violation::to_string() const {
  std::ostringstream out;
  out << "[" << check::to_string(invariant) << "]";
  if (flow >= 0) out << " flow " << flow;
  out << " t=" << time.to_string() << " observed=" << observed << " bound=" << bound;
  if (!detail.empty()) out << " — " << detail;
  return out.str();
}

namespace {

// Innermost live ScopedChecker on this thread; BUFQ_CHECK reports here so
// parallel runs never share a mutable sink.
thread_local InvariantChecker* tl_current_checker = nullptr;

}  // namespace

InvariantChecker& InvariantChecker::global() {
  static InvariantChecker instance;
  return instance;
}

InvariantChecker& InvariantChecker::current() {
  return tl_current_checker != nullptr ? *tl_current_checker : global();
}

void InvariantChecker::absorb(const InvariantChecker& child) {
  // The child belongs to a finished ScopedChecker on the calling thread,
  // so its state is quiescent; re-reporting its stored violations routes
  // them through this checker's handler (if any) exactly as live reports
  // would have been.
  checks_run_.fetch_add(child.checks_run(), std::memory_order_relaxed);
  const auto stored = child.violations();
  for (const Violation& violation : stored) report(violation);
  const std::uint64_t overflow = child.violation_count() - stored.size();
  if (overflow > 0) {
    const std::lock_guard<std::mutex> lock{mu_};
    if (!handler_) violation_count_ += overflow;
  }
}

void InvariantChecker::report(Violation violation) {
  const std::lock_guard<std::mutex> lock{mu_};
  if (handler_) {
    handler_(violation);
  } else {
    ++violation_count_;
    if (stored_.size() < kMaxStored) stored_.push_back(std::move(violation));
  }
}

std::uint64_t InvariantChecker::checks_run() const {
  return checks_run_.load(std::memory_order_relaxed);
}

std::uint64_t InvariantChecker::violation_count() const {
  const std::lock_guard<std::mutex> lock{mu_};
  return violation_count_;
}

std::vector<Violation> InvariantChecker::violations() const {
  const std::lock_guard<std::mutex> lock{mu_};
  return stored_;
}

std::string InvariantChecker::report_text() const {
  const std::lock_guard<std::mutex> lock{mu_};
  if (violation_count_ == 0) return {};
  std::ostringstream out;
  out << violation_count_ << " invariant violation(s)";
  if (violation_count_ > stored_.size()) {
    out << " (first " << stored_.size() << " shown)";
  }
  out << ":\n";
  for (const Violation& v : stored_) out << "  " << v.to_string() << "\n";
  return out.str();
}

void InvariantChecker::clear() {
  const std::lock_guard<std::mutex> lock{mu_};
  checks_run_.store(0, std::memory_order_relaxed);
  violation_count_ = 0;
  stored_.clear();
}

void InvariantChecker::restore_tallies(std::uint64_t checks_run, std::uint64_t violations) {
  const std::lock_guard<std::mutex> lock{mu_};
  checks_run_.store(checks_run, std::memory_order_relaxed);
  violation_count_ = violations;
}

void InvariantChecker::set_handler(Handler handler) {
  const std::lock_guard<std::mutex> lock{mu_};
  handler_ = std::move(handler);
}

InvariantChecker::Handler InvariantChecker::exchange_handler(Handler handler) {
  const std::lock_guard<std::mutex> lock{mu_};
  std::swap(handler_, handler);
  return handler;
}

ScopedChecker::ScopedChecker() : previous_{tl_current_checker} { tl_current_checker = &checker_; }

ScopedChecker::~ScopedChecker() {
  tl_current_checker = previous_;
  InvariantChecker::current().absorb(checker_);
}

ScopedViolationCapture::ScopedViolationCapture()
    : target_{InvariantChecker::current()},
      previous_{target_.exchange_handler([this](const Violation& v) {
        const std::lock_guard<std::mutex> lock{mu_};
        captured_.push_back(v);
      })} {}

ScopedViolationCapture::~ScopedViolationCapture() {
  target_.set_handler(std::move(previous_));
}

std::size_t ScopedViolationCapture::count() const {
  const std::lock_guard<std::mutex> lock{mu_};
  return captured_.size();
}

std::vector<Violation> ScopedViolationCapture::violations() const {
  const std::lock_guard<std::mutex> lock{mu_};
  return captured_;
}

}  // namespace bufq::check
