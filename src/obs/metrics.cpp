#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <stdexcept>

namespace bufq::obs {
namespace {

thread_local MetricsRegistry* t_current = nullptr;

}  // namespace

std::size_t Histogram::bucket_index(std::int64_t value) {
  const auto v = static_cast<std::uint64_t>(std::max<std::int64_t>(value, 0));
  if (v < kSubBuckets) return static_cast<std::size_t>(v);
  const auto top = static_cast<std::size_t>(std::bit_width(v)) - 1;  // >= kSubBucketBits
  const auto sub = static_cast<std::size_t>(v >> (top - kSubBucketBits)) & (kSubBuckets - 1);
  return (top - kSubBucketBits + 1) * kSubBuckets + sub;
}

std::int64_t Histogram::bucket_lower_bound(std::size_t index) {
  if (index < 2 * kSubBuckets) return static_cast<std::int64_t>(index);
  const std::size_t octave = index / kSubBuckets + kSubBucketBits - 1;
  const std::size_t sub = index % kSubBuckets;
  return static_cast<std::int64_t>((std::uint64_t{1} << octave) +
                                   (static_cast<std::uint64_t>(sub) << (octave - kSubBucketBits)));
}

double Histogram::bucket_midpoint(std::size_t index) {
  const double lower = static_cast<double>(bucket_lower_bound(index));
  const double upper = index + 1 < kBucketCount
                           ? static_cast<double>(bucket_lower_bound(index + 1))
                           : std::ldexp(1.0, 63);
  return lower + (upper - lower - 1.0) / 2.0;
}

void Histogram::record(std::int64_t value) {
  const std::int64_t v = std::max<std::int64_t>(value, 0);
  min_ = count_ > 0 ? std::min(min_, v) : v;
  max_ = std::max(max_, v);
  ++count_;
  sum_ += static_cast<std::uint64_t>(v);
  ++buckets_[bucket_index(v)];
}

HistogramSnapshot Histogram::snapshot() const {
  return HistogramSnapshot{
      .count = count_,
      .sum = sum_,
      .min = min_,
      .max = max_,
      .buckets = std::vector<std::uint64_t>(std::begin(buckets_), std::end(buckets_))};
}

void Histogram::restore(const HistogramSnapshot& snap) {
  count_ = snap.count;
  sum_ = snap.sum;
  min_ = snap.min;
  max_ = snap.max;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    buckets_[i] = i < snap.buckets.size() ? snap.buckets[i] : 0;
  }
}

double HistogramSnapshot::mean() const {
  return count > 0 ? static_cast<double>(sum) / static_cast<double>(count) : 0.0;
}

double HistogramSnapshot::percentile(double p) const {
  if (count == 0) return 0.0;
  const double clamped = std::clamp(p, 0.0, 1.0);
  const auto rank = static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(clamped * static_cast<double>(count))));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    cumulative += buckets[i];
    if (cumulative >= rank) {
      return std::clamp(Histogram::bucket_midpoint(i), static_cast<double>(min),
                        static_cast<double>(max));
    }
  }
  return static_cast<double>(max);
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  count += other.count;
  sum += other.sum;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  if (buckets.size() < other.buckets.size()) buckets.resize(other.buckets.size());
  for (std::size_t i = 0; i < other.buckets.size(); ++i) buckets[i] += other.buckets[i];
}

void RegistrySnapshot::merge(const RegistrySnapshot& other) {
  for (const auto& [name, value] : other.counters) counters[name] += value;
  for (const auto& [name, gauge] : other.gauges) {
    GaugeSnapshot& mine = gauges[name];
    if (gauge.updates > 0) mine.last = gauge.last;
    mine.max = std::max(mine.max, gauge.max);
    mine.updates += gauge.updates;
  }
  for (const auto& [name, histogram] : other.histograms) {
    histograms[name].merge(histogram);
  }
}

namespace {

/// Find-or-create for one of the three metric maps; `conflict` names the
/// maps this name must NOT already exist in (one kind per name).
template <typename T, typename MapA, typename MapB>
T& find_or_create(MetricsRegistry::MetricMap<T>& own, const MapA& other_a,
                  const MapB& other_b, std::string_view name) {
  if (const auto it = own.find(name); it != own.end()) return *it->second;
  if (other_a.find(name) != other_a.end() || other_b.find(name) != other_b.end()) {
    throw std::logic_error("metric '" + std::string{name} +
                           "' already registered as a different kind");
  }
  return *own.emplace(std::string{name}, std::make_unique<T>()).first->second;
}

}  // namespace

Counter& MetricsRegistry::counter(std::string_view name) {
  return find_or_create(counters_, gauges_, histograms_, name);
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  return find_or_create(gauges_, counters_, histograms_, name);
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  return find_or_create(histograms_, counters_, gauges_, name);
}

RegistrySnapshot MetricsRegistry::snapshot() const {
  RegistrySnapshot snap;
  for (const auto& [name, counter] : counters_) snap.counters[name] = counter->value();
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges[name] =
        GaugeSnapshot{.last = gauge->value(), .max = gauge->max(), .updates = gauge->updates()};
  }
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms[name] = histogram->snapshot();
  }
  return snap;
}

void MetricsRegistry::restore(const RegistrySnapshot& snap) {
  for (const auto& [name, value] : snap.counters) counter(name).restore(value);
  for (const auto& [name, gs] : snap.gauges) {
    gauge(name).restore(gs.last, gs.max, gs.updates);
  }
  for (const auto& [name, hs] : snap.histograms) histogram(name).restore(hs);
}

MetricsRegistry* MetricsRegistry::current() { return t_current; }

ScopedMetrics::ScopedMetrics() : previous_{t_current} { t_current = &registry_; }

ScopedMetrics::~ScopedMetrics() {
  t_current = previous_;
  if (previous_ == nullptr) return;
  RegistrySnapshot folded = previous_->snapshot();
  folded.merge(registry_.snapshot());
  previous_->restore(folded);
}

CounterHandle CounterHandle::lookup(std::string_view name) {
  MetricsRegistry* registry = MetricsRegistry::current();
  return registry != nullptr ? CounterHandle{&registry->counter(name)} : CounterHandle{};
}

GaugeHandle GaugeHandle::lookup(std::string_view name) {
  MetricsRegistry* registry = MetricsRegistry::current();
  return registry != nullptr ? GaugeHandle{&registry->gauge(name)} : GaugeHandle{};
}

HistogramHandle HistogramHandle::lookup(std::string_view name) {
  MetricsRegistry* registry = MetricsRegistry::current();
  return registry != nullptr ? HistogramHandle{&registry->histogram(name)} : HistogramHandle{};
}

}  // namespace bufq::obs
