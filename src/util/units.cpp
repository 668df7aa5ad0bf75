#include "util/units.h"

#include <cstdio>

namespace bufq {

std::string Time::to_string() const {
  if (ns_ == 0) return "0s";
  char buf[64];
  const double s = to_seconds();
  if (std::abs(s) < 1e-3) {
    std::snprintf(buf, sizeof buf, "%.3fus", static_cast<double>(ns_) * 1e-3);
  } else if (std::abs(s) < 1.0) {
    std::snprintf(buf, sizeof buf, "%.3fms", s * 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.3fs", s);
  }
  return buf;
}

std::string Rate::to_string() const {
  char buf[64];
  if (bps_ >= 1e9) {
    std::snprintf(buf, sizeof buf, "%.3fGb/s", bps_ * 1e-9);
  } else if (bps_ >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.3fMb/s", bps_ * 1e-6);
  } else if (bps_ >= 1e3) {
    std::snprintf(buf, sizeof buf, "%.3fkb/s", bps_ * 1e-3);
  } else {
    std::snprintf(buf, sizeof buf, "%.1fb/s", bps_);
  }
  return buf;
}

std::string ByteSize::to_string() const {
  char buf[64];
  if (bytes_ >= 1'000'000) {
    std::snprintf(buf, sizeof buf, "%.2fMB", static_cast<double>(bytes_) * 1e-6);
  } else if (bytes_ >= 1'000) {
    std::snprintf(buf, sizeof buf, "%.1fKB", static_cast<double>(bytes_) * 1e-3);
  } else {
    std::snprintf(buf, sizeof buf, "%ldB", static_cast<long>(bytes_));
  }
  return buf;
}

}  // namespace bufq
