// Runtime invariant auditing: the machine-checkable form of the paper's
// guarantees.  The propositions promise that, with the right buffer
// manager, FIFO is lossless for conformant flows; this module continuously
// verifies the bookkeeping those proofs rest on while the simulator runs:
//
//   kConservation   Σ_i q_i(t) == Q(t) and every counter is non-negative
//   kCapacity       Q(t) <= B at all times
//   kFlowBound      q_i(t) <= T_i for flows under a Prop. 1/2 threshold
//                   that may not borrow beyond it
//   kVirtualTime    WFQ virtual time is monotone, active weight >= 0
//   kEventClock     the event calendar never runs backwards
//   kDelayBound     measured end-to-end delay <= the fabric planner's
//                   composed per-hop bound sum((B_h + L)/R_h + prop_h)
//
// Call sites use the BUFQ_CHECK / BUFQ_CHECK_REPORT macros, which compile
// to nothing unless BUFQ_ENABLE_CHECKS is defined (CMake: -DBUFQ_CHECKS=ON,
// the default in Debug builds), so the per-packet hot path pays zero cost
// in Release.  A failed check produces a structured Violation — invariant,
// flow, simulated time, observed value vs. bound — delivered to the global
// InvariantChecker rather than a bare abort, so a CI run can report every
// violation with context before failing.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "sim/packet.h"
#include "util/units.h"

namespace bufq::check {

/// The paper invariants the runtime audit understands.
enum class Invariant {
  kConservation,
  kCapacity,
  kFlowBound,
  kVirtualTime,
  kEventClock,
  kDelayBound,
};

[[nodiscard]] const char* to_string(Invariant invariant);

/// One failed check, with enough context to debug it from a CI log.
struct Violation {
  Invariant invariant{Invariant::kConservation};
  /// Offending flow, or -1 when the invariant is not flow-specific.
  FlowId flow{-1};
  /// Simulated time of the violation (Time::zero() when unknown).
  Time time{Time::zero()};
  /// The value that broke the invariant and the bound it broke.
  double observed{0.0};
  double bound{0.0};
  /// Call-site description, e.g. "admit pushed flow past Prop-2 threshold".
  std::string detail;

  [[nodiscard]] std::string to_string() const;
};

/// Process-wide violation sink.  Thread safe: parallel replication runs
/// audit concurrent simulations against the same checker.
///
/// By default violations are counted and the first kMaxStored are kept for
/// the end-of-run report; install a handler to redirect them (tests use
/// ScopedViolationCapture below).
class InvariantChecker {
 public:
  using Handler = std::function<void(const Violation&)>;

  /// Most call sites go through the current instance via BUFQ_CHECK; tests
  /// may construct private checkers to audit the auditor.
  InvariantChecker() = default;
  InvariantChecker(const InvariantChecker&) = delete;
  InvariantChecker& operator=(const InvariantChecker&) = delete;

  [[nodiscard]] static InvariantChecker& global();

  /// The checker BUFQ_CHECK call sites report to on this thread: the
  /// innermost live ScopedChecker, or the process-wide global().  Parallel
  /// sweep workers each install a per-run ScopedChecker, so runs never
  /// share a mutable sink (no cross-run interleaving of violations, no
  /// contended counter cacheline on the per-packet hot path).
  [[nodiscard]] static InvariantChecker& current();

  /// Folds another checker's tallies into this one: checks-run and
  /// violation counts are added, and the child's stored violations are
  /// re-reported here (so an installed handler still sees them).  Used by
  /// ScopedChecker to hand a finished run's audit back to its parent —
  /// suite-wide audits observe exactly what they did before confinement.
  void absorb(const InvariantChecker& child);

  /// Records a violation.  With no handler installed it is counted and
  /// stored (up to kMaxStored); an installed handler *redirects* the
  /// violation instead, leaving the default store untouched.
  void report(Violation violation);

  /// Bumps the checks-run counter (called by BUFQ_CHECK before testing its
  /// condition, so tests can assert the audit actually executed).
  void note_check() { checks_run_.fetch_add(1, std::memory_order_relaxed); }

  [[nodiscard]] std::uint64_t checks_run() const;
  [[nodiscard]] std::uint64_t violation_count() const;
  [[nodiscard]] std::vector<Violation> violations() const;

  /// Overwrites the tallies with checkpointed values — restore only,
  /// applied *after* components rebuild so any checks that fired during
  /// reconstruction are superseded by the authoritative counts.  Stored
  /// Violation records are not checkpointed (a run that checkpoints
  /// cleanly has none; a violating run already failed).
  void restore_tallies(std::uint64_t checks_run, std::uint64_t violations);

  /// Multi-line human-readable report of the stored violations; empty
  /// string when the run was clean.
  [[nodiscard]] std::string report_text() const;

  /// Forgets all recorded violations and counters (not the handler).
  void clear();

  /// Installs (or, with nullptr, removes) a violation handler.  The
  /// handler runs under the checker's lock; keep it light.
  void set_handler(Handler handler);

  /// Installs a handler and returns the one it replaced, so scoped
  /// redirections can restore their predecessor on exit.
  [[nodiscard]] Handler exchange_handler(Handler handler);

  static constexpr std::size_t kMaxStored = 64;

 private:
  mutable std::mutex mu_;
  std::atomic<std::uint64_t> checks_run_{0};
  std::uint64_t violation_count_{0};
  std::vector<Violation> stored_;
  Handler handler_;
};

/// RAII per-run audit confinement.  While alive, BUFQ_CHECK call sites on
/// the constructing thread report to a private checker instead of the
/// enclosing one, so concurrent runs on pool workers never contend on (or
/// interleave violations into) a shared sink.  On destruction the private
/// tallies are absorbed into the enclosing checker — a suite-wide audit
/// of the global checker still sees every check and violation, just
/// delivered in one batch per run.  Nests; thread-confined (construct and
/// destroy on the same thread).
class ScopedChecker {
 public:
  ScopedChecker();
  ~ScopedChecker();
  ScopedChecker(const ScopedChecker&) = delete;
  ScopedChecker& operator=(const ScopedChecker&) = delete;

  [[nodiscard]] InvariantChecker& checker() { return checker_; }
  [[nodiscard]] const InvariantChecker& checker() const { return checker_; }

 private:
  InvariantChecker checker_;
  InvariantChecker* previous_;
};

/// RAII capture of current-checker violations, for tests: while alive, all
/// violations land here instead of the default store, so a test that
/// *expects* violations (the broken-manager fixture) does not poison the
/// suite-wide zero-violation audit.  Restores the previous handler on
/// destruction.
class ScopedViolationCapture {
 public:
  ScopedViolationCapture();
  ~ScopedViolationCapture();
  ScopedViolationCapture(const ScopedViolationCapture&) = delete;
  ScopedViolationCapture& operator=(const ScopedViolationCapture&) = delete;

  [[nodiscard]] std::size_t count() const;
  [[nodiscard]] std::vector<Violation> violations() const;

 private:
  mutable std::mutex mu_;
  std::vector<Violation> captured_;
  InvariantChecker& target_;
  InvariantChecker::Handler previous_;
};

}  // namespace bufq::check

// BUFQ_CHECK(cond, ...violation-fields...) — audits `cond`, reporting a
// Violation{...violation-fields...} to the global checker when it is false.
// The variadic part is the brace-initializer body of a Violation, evaluated
// only on failure.  Compiled out entirely (condition unevaluated) unless
// BUFQ_ENABLE_CHECKS is defined.
#if defined(BUFQ_ENABLE_CHECKS)
#define BUFQ_CHECK(cond, ...)                                         \
  do {                                                                \
    ::bufq::check::InvariantChecker::current().note_check();          \
    if (!(cond)) {                                                    \
      ::bufq::check::InvariantChecker::current().report(              \
          ::bufq::check::Violation{__VA_ARGS__});                     \
    }                                                                 \
  } while (false)
#define BUFQ_CHECKS_ENABLED 1
#else
#define BUFQ_CHECK(cond, ...) static_cast<void>(0)
#define BUFQ_CHECKS_ENABLED 0
#endif
