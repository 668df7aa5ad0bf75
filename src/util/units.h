// Strong value types for the quantities the library manipulates:
// simulated time (integer nanoseconds), link/flow rates (bits per second)
// and buffer sizes (bytes).  Keeping time integral makes the event
// calendar exactly reproducible across platforms; rates stay floating
// point because they enter closed-form expressions (eq. 9-19 of the
// paper) that are inherently real-valued.
#pragma once

#include <cmath>
#include <compare>
#include <cstdint>
#include <limits>
#include <string>

namespace bufq {

/// Simulated time as a signed 64-bit count of nanoseconds.
///
/// 2^63 ns is roughly 292 years, far beyond any simulation horizon, and
/// integer arithmetic keeps event ordering exact.  Negative values are
/// permitted so durations can be subtracted freely.
class Time {
 public:
  constexpr Time() = default;

  [[nodiscard]] static constexpr Time nanoseconds(std::int64_t ns) { return Time{ns}; }
  [[nodiscard]] static constexpr Time microseconds(std::int64_t us) { return Time{us * 1'000}; }
  [[nodiscard]] static constexpr Time milliseconds(std::int64_t ms) { return Time{ms * 1'000'000}; }
  [[nodiscard]] static constexpr Time seconds(std::int64_t s) { return Time{s * 1'000'000'000}; }

  /// Converts a real-valued duration in seconds, rounding to the nearest
  /// nanosecond.  Used at the boundary between analytic formulas and the
  /// event calendar.
  [[nodiscard]] static Time from_seconds(double s) {
    return Time{static_cast<std::int64_t>(std::llround(s * 1e9))};
  }

  [[nodiscard]] static constexpr Time zero() { return Time{0}; }
  [[nodiscard]] static constexpr Time max() {
    return Time{std::numeric_limits<std::int64_t>::max()};
  }

  [[nodiscard]] constexpr std::int64_t ns() const { return ns_; }
  [[nodiscard]] constexpr double to_seconds() const { return static_cast<double>(ns_) * 1e-9; }

  constexpr auto operator<=>(const Time&) const = default;

  constexpr Time& operator+=(Time rhs) {
    ns_ += rhs.ns_;
    return *this;
  }
  constexpr Time& operator-=(Time rhs) {
    ns_ -= rhs.ns_;
    return *this;
  }

  friend constexpr Time operator+(Time a, Time b) { return Time{a.ns_ + b.ns_}; }
  friend constexpr Time operator-(Time a, Time b) { return Time{a.ns_ - b.ns_}; }
  friend constexpr Time operator*(Time a, std::int64_t k) { return Time{a.ns_ * k}; }
  friend constexpr Time operator*(std::int64_t k, Time a) { return Time{a.ns_ * k}; }

  /// Three decimals in us, ms or s, whichever keeps |t| below 1000 of the
  /// unit (seconds beyond that); zero prints as "0s".
  [[nodiscard]] std::string to_string() const;

 private:
  constexpr explicit Time(std::int64_t ns) : ns_{ns} {}
  std::int64_t ns_{0};
};

/// A transmission or arrival rate in bits per second.
class Rate {
 public:
  constexpr Rate() = default;

  [[nodiscard]] static constexpr Rate bits_per_second(double bps) { return Rate{bps}; }
  [[nodiscard]] static constexpr Rate kilobits_per_second(double kbps) { return Rate{kbps * 1e3}; }
  [[nodiscard]] static constexpr Rate megabits_per_second(double mbps) { return Rate{mbps * 1e6}; }
  [[nodiscard]] static constexpr Rate gigabits_per_second(double gbps) { return Rate{gbps * 1e9}; }
  [[nodiscard]] static constexpr Rate zero() { return Rate{0.0}; }

  [[nodiscard]] constexpr double bps() const { return bps_; }
  [[nodiscard]] constexpr double mbps() const { return bps_ * 1e-6; }
  [[nodiscard]] constexpr double bytes_per_second() const { return bps_ / 8.0; }

  /// Time to serialize `bytes` bytes at this rate.  Requires a positive rate.
  [[nodiscard]] Time transmission_time(std::int64_t bytes) const {
    return Time::from_seconds(static_cast<double>(bytes) * 8.0 / bps_);
  }

  /// Bytes that pass in `t` at this rate (fluid view).
  [[nodiscard]] constexpr double bytes_in(Time t) const {
    return t.to_seconds() * bytes_per_second();
  }

  constexpr auto operator<=>(const Rate&) const = default;

  friend constexpr Rate operator+(Rate a, Rate b) { return Rate{a.bps_ + b.bps_}; }
  friend constexpr Rate operator-(Rate a, Rate b) { return Rate{a.bps_ - b.bps_}; }
  friend constexpr Rate operator*(Rate a, double k) { return Rate{a.bps_ * k}; }
  friend constexpr Rate operator*(double k, Rate a) { return Rate{a.bps_ * k}; }
  friend constexpr double operator/(Rate a, Rate b) { return a.bps_ / b.bps_; }
  friend constexpr Rate operator/(Rate a, double k) { return Rate{a.bps_ / k}; }

  [[nodiscard]] std::string to_string() const;

 private:
  constexpr explicit Rate(double bps) : bps_{bps} {}
  double bps_{0.0};
};

/// Buffer and packet sizes in bytes.
class ByteSize {
 public:
  constexpr ByteSize() = default;

  [[nodiscard]] static constexpr ByteSize bytes(std::int64_t b) { return ByteSize{b}; }
  [[nodiscard]] static constexpr ByteSize kilobytes(double kb) {
    return ByteSize{static_cast<std::int64_t>(kb * 1e3)};
  }
  [[nodiscard]] static constexpr ByteSize megabytes(double mb) {
    return ByteSize{static_cast<std::int64_t>(mb * 1e6)};
  }
  [[nodiscard]] static constexpr ByteSize zero() { return ByteSize{0}; }

  [[nodiscard]] constexpr std::int64_t count() const { return bytes_; }
  [[nodiscard]] constexpr double kb() const { return static_cast<double>(bytes_) * 1e-3; }
  [[nodiscard]] constexpr double bits() const { return static_cast<double>(bytes_) * 8.0; }

  constexpr auto operator<=>(const ByteSize&) const = default;

  constexpr ByteSize& operator+=(ByteSize rhs) {
    bytes_ += rhs.bytes_;
    return *this;
  }
  constexpr ByteSize& operator-=(ByteSize rhs) {
    bytes_ -= rhs.bytes_;
    return *this;
  }

  friend constexpr ByteSize operator+(ByteSize a, ByteSize b) { return ByteSize{a.bytes_ + b.bytes_}; }
  friend constexpr ByteSize operator-(ByteSize a, ByteSize b) { return ByteSize{a.bytes_ - b.bytes_}; }

  [[nodiscard]] std::string to_string() const;

 private:
  constexpr explicit ByteSize(std::int64_t b) : bytes_{b} {}
  std::int64_t bytes_{0};
};

}  // namespace bufq
