// Envelope-class interning under the million-flow FlowTable.
//
// At 1e6+ resident flows, storing (sigma, rho, threshold) per flow is
// 24 bytes of redundancy: real traffic mixes draw flows from a handful
// of service profiles (the paper's "IP telephony flows in one queue,
// video in another" picture, and the class-segregation model of
// Al-Bawani & Souza).  The registry interns each distinct
// (sigma, rho, threshold) triple once, giving flows a dense 4-byte
// ClassId; per-class state lives in structure-of-arrays lanes that stay
// resident in L1 no matter how many flows share them.  Per-packet
// threshold checks become two dependent loads — class_[slot] then
// threshold_[class] — O(1) regardless of resident-flow count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/flow_spec.h"
#include "util/units.h"

namespace bufq {
class CheckpointReader;
class CheckpointWriter;
}  // namespace bufq

namespace bufq::admission {

/// Dense identifier of an interned (sigma, rho, threshold) envelope
/// class.  Ids are assigned in first-intern order, so identical runs
/// intern identical tables.
using ClassId = std::uint32_t;

class FlowClassRegistry {
 public:
  /// Returns the class id for this exact (sigma, rho, threshold)
  /// triple, interning it on first sight.  Amortized O(1); in steady
  /// state every admission hits an existing class.
  ClassId intern(const FlowSpec& spec, std::int64_t threshold_bytes);

  [[nodiscard]] std::size_t class_count() const { return sigma_bytes_.size(); }

  [[nodiscard]] std::int64_t threshold(ClassId c) const { return threshold_[c]; }
  [[nodiscard]] std::int64_t sigma_bytes(ClassId c) const { return sigma_bytes_[c]; }
  [[nodiscard]] double rho_bps(ClassId c) const { return rho_bps_[c]; }
  [[nodiscard]] FlowSpec spec(ClassId c) const {
    return FlowSpec{.rho = Rate::bits_per_second(rho_bps_[c]),
                    .sigma = ByteSize::bytes(sigma_bytes_[c])};
  }

  /// Bytes of per-class state: threshold + sigma + rho.  Amortized over
  /// the flows sharing the class this is ~0; it is the budget-table line
  /// item for the registry itself.
  [[nodiscard]] static constexpr std::size_t bytes_per_class() {
    return sizeof(std::int64_t)    // threshold
           + sizeof(std::int64_t)  // sigma
           + sizeof(double);       // rho
  }

  /// Checkpointable: the class lanes in id order.  The intern map is
  /// rebuilt from the lanes on restore.
  void save_state(CheckpointWriter& w) const;
  void restore_state(CheckpointReader& r);

 private:
  struct Key {
    std::int64_t sigma;
    std::uint64_t rho_bits;  ///< Exact bit pattern: interning must not merge nearly-equal rates.
    std::int64_t threshold;

    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      // splitmix64-style mixing of the three words.
      auto mix = [](std::uint64_t x) {
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ULL;
        x ^= x >> 27;
        x *= 0x94d049bb133111ebULL;
        x ^= x >> 31;
        return x;
      };
      return static_cast<std::size_t>(
          mix(static_cast<std::uint64_t>(k.sigma) + 0x9e3779b97f4a7c15ULL * k.rho_bits +
              mix(static_cast<std::uint64_t>(k.threshold))));
    }
  };

  static Key make_key(const FlowSpec& spec, std::int64_t threshold_bytes);

  // Structure-of-arrays class lanes, indexed by ClassId.
  std::vector<std::int64_t> threshold_;
  std::vector<std::int64_t> sigma_bytes_;
  std::vector<double> rho_bps_;
  /// Lookup index; never iterated, so its unordered order cannot leak
  /// into any trajectory.
  std::unordered_map<Key, ClassId, KeyHash> index_;
};

}  // namespace bufq::admission
