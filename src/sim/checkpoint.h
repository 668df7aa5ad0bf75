// Deterministic checkpoint/restore substrate.
//
// A checkpoint is a CRC-guarded binary snapshot of every piece of mutable
// simulation state, written so that a restored run is *bit-identical* to
// one that never stopped.  InlineAction closures cannot be serialized, so
// the layer is a component-registry protocol rather than a continuation
// dump: each stateful component implements the Checkpointable protocol —
//
//     void save_state(CheckpointWriter&) const;
//     void restore_state(CheckpointReader&);
//
// — serializing its POD state (plus, for components with outstanding
// calendar events, the (absolute time, sequence number) of each pending
// event) into a named section of a tagged stream.  On restore the
// component rebuilds its fields and re-arms its events through
// Simulator::rearm with the *original* sequence numbers, which preserves
// the (time, seq) tie-break order exactly; the run harness
// (expt/run_harness) restores components in a fixed registry order so the
// protocol itself is deterministic.
//
// File format (little-endian):
//
//     magic "BUFQCKPT" | u32 version | u32 reserved | u64 scenario
//     fingerprint | u64 payload size | u32 payload crc32 | payload
//
// The payload is a flat sequence of named sections; every primitive is
// preceded by a 1-byte type tag so a protocol mismatch fails loudly as a
// CheckpointFormatError instead of misinterpreting bytes.  Corruption is
// caught by the CRC (CheckpointCrcError), version skew by
// CheckpointVersionError, and restoring into a differently-configured
// experiment by the scenario fingerprint (CheckpointScenarioError).
// Per-section CRCs (checkpoint_section_digests) give the golden-state
// regression corpus compact component-wise hashes without committing
// blobs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "sim/packet.h"
#include "util/rng.h"
#include "util/units.h"

namespace bufq {

/// Base of every checkpoint failure; all are thrown, never silently
/// swallowed — a checkpoint that cannot be restored exactly must not be
/// restored at all.
class CheckpointError : public std::runtime_error {
 public:
  explicit CheckpointError(const std::string& what) : std::runtime_error(what) {}
};

/// Structural damage: truncation, bad magic, tag or section mismatch,
/// trailing bytes, or an unreadable file.
class CheckpointFormatError : public CheckpointError {
 public:
  explicit CheckpointFormatError(const std::string& what) : CheckpointError(what) {}
};

/// The file was written by an incompatible checkpoint-format version.
class CheckpointVersionError : public CheckpointError {
 public:
  explicit CheckpointVersionError(const std::string& what) : CheckpointError(what) {}
};

/// Payload bytes do not match the stored CRC32 (bit rot, flipped bytes).
class CheckpointCrcError : public CheckpointError {
 public:
  explicit CheckpointCrcError(const std::string& what) : CheckpointError(what) {}
};

/// The checkpoint was taken under a different experiment configuration
/// (scenario fingerprint mismatch) — restoring it would diverge silently.
class CheckpointScenarioError : public CheckpointError {
 public:
  explicit CheckpointScenarioError(const std::string& what) : CheckpointError(what) {}
};

/// Checkpointing was requested for a sharded (parallel) run.  Per-shard
/// calendars and in-flight boundary-channel state are not serialized;
/// the engine rejects the combination loudly instead of writing a
/// checkpoint that could not replay deterministically.  Run serial
/// (shards = 1) to checkpoint.
class CheckpointShardingError : public CheckpointError {
 public:
  explicit CheckpointShardingError(const std::string& what) : CheckpointError(what) {}
};

/// Format version stamped into every header; bump on any layout change.
inline constexpr std::uint32_t kCheckpointVersion = 9;

/// CRC-32 (IEEE 802.3 polynomial, table-driven — no external deps).
[[nodiscard]] std::uint32_t checkpoint_crc32(std::span<const std::byte> data);

/// FNV-1a-based accumulator for scenario fingerprints: engines mix every
/// configuration field that affects the event trajectory, so a checkpoint
/// can refuse restoration into the wrong scenario.  Doubles are mixed by
/// bit pattern — the fingerprint is exact, not approximate.
class FingerprintHasher {
 public:
  /// Starts from FNV-1a's 64-bit offset basis, or from `basis`.
  explicit FingerprintHasher(std::uint64_t basis = 0xCBF29CE484222325ull) : hash_{basis} {}

  /// FNV-1a over the value's 8 bytes, little-endian.  Inline: the fabric
  /// mixes one delivery tuple per packet into its egress audit.
  void mix_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFFu;
      hash_ *= 0x100000001B3ull;
    }
  }
  void mix_i64(std::int64_t v) { mix_u64(static_cast<std::uint64_t>(v)); }
  void mix_f64(double v);
  void mix_bool(bool v) { mix_u64(v ? 1 : 0); }
  void mix_time(Time t) { mix_i64(t.ns()); }
  void mix_string(std::string_view s);

  [[nodiscard]] std::uint64_t digest() const { return hash_; }

 private:
  std::uint64_t hash_;
};

/// Serializes tagged primitives into named sections.  Single-use: call the
/// section/write methods, then finish() exactly once.
class CheckpointWriter {
 public:
  CheckpointWriter() = default;

  /// Opens a named section.  Sections do not nest; names are unique per
  /// checkpoint and checked on read, so save/restore mismatches surface as
  /// typed errors instead of silent state skew.
  void begin_section(std::string_view name);
  void end_section();

  void write_bool(bool v);
  void write_u8(std::uint8_t v);
  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_i64(std::int64_t v);
  /// Exact bit-pattern round trip (bit_cast) — restored doubles are the
  /// same object representation, not a decimal approximation.
  void write_f64(double v);
  void write_time(Time t);
  void write_string(std::string_view s);
  /// u64 element count followed by the elements; the reader checks the
  /// count tag, so container boundaries are self-describing.
  void write_u64_vector(const std::vector<std::uint64_t>& v);
  void write_i64_vector(const std::vector<std::int64_t>& v);

  /// Seals the checkpoint: header (magic, version, `scenario_fingerprint`,
  /// payload size, CRC32) + payload.  The writer is spent afterwards.
  [[nodiscard]] std::vector<std::byte> finish(std::uint64_t scenario_fingerprint);

 private:
  void put_tag(std::uint8_t tag);
  void put_raw(const void* data, std::size_t size);

  std::vector<std::byte> payload_;
  bool in_section_{false};
  /// Offset of the open section's body-size field, patched by end_section.
  std::size_t section_size_at_{0};
};

/// Validates and deserializes a checkpoint produced by CheckpointWriter.
/// The constructor verifies magic, version, size and CRC (throwing the
/// matching typed error); require_scenario() additionally pins the
/// scenario fingerprint.  Every read checks its type tag.
class CheckpointReader {
 public:
  explicit CheckpointReader(std::span<const std::byte> blob);

  /// Throws CheckpointScenarioError unless the checkpoint was written for
  /// `expected` (see FingerprintHasher).
  void require_scenario(std::uint64_t expected) const;

  [[nodiscard]] std::uint64_t scenario_fingerprint() const { return fingerprint_; }

  /// Opens the next section, which must be named `name` (restore order is
  /// part of the protocol).
  void begin_section(std::string_view name);
  void end_section();

  [[nodiscard]] bool read_bool();
  [[nodiscard]] std::uint8_t read_u8();
  [[nodiscard]] std::uint32_t read_u32();
  [[nodiscard]] std::uint64_t read_u64();
  [[nodiscard]] std::int64_t read_i64();
  [[nodiscard]] double read_f64();
  [[nodiscard]] Time read_time();
  [[nodiscard]] std::string read_string();
  [[nodiscard]] std::vector<std::uint64_t> read_u64_vector();
  [[nodiscard]] std::vector<std::int64_t> read_i64_vector();

  /// True once every payload byte has been consumed; engines assert this
  /// after the last component restores so trailing garbage is caught.
  [[nodiscard]] bool exhausted() const { return cursor_ == payload_.size(); }

 private:
  void expect_tag(std::uint8_t tag, const char* what);
  void take_raw(void* out, std::size_t size, const char* what);

  std::span<const std::byte> payload_;
  std::size_t cursor_{0};
  std::uint64_t fingerprint_{0};
  bool in_section_{false};
  std::size_t section_end_{0};
};

/// Abstract protocol for components reached only through a base pointer
/// (QueueDiscipline, BufferManager).  Concrete value-type components just
/// implement the same-named methods without inheriting.
class Checkpointable {
 public:
  virtual ~Checkpointable() = default;
  virtual void save_state(CheckpointWriter& w) const = 0;
  virtual void restore_state(CheckpointReader& r) = 0;
};

// Shared codecs so every component serializes common aggregates the same
// way (and fixes in one place propagate everywhere).

void save_packet(CheckpointWriter& w, const Packet& packet);
[[nodiscard]] Packet load_packet(CheckpointReader& r);

void save_rng(CheckpointWriter& w, const Rng& rng);
void load_rng(CheckpointReader& r, Rng& rng);

void save_registry_snapshot(CheckpointWriter& w, const obs::RegistrySnapshot& snap);
[[nodiscard]] obs::RegistrySnapshot load_registry_snapshot(CheckpointReader& r);

/// Component-wise digests: section name -> CRC32 of the section body.
/// This is what the golden-state corpus commits (compact, bisectable)
/// instead of whole blobs.  Validates the header/CRC like a reader.
[[nodiscard]] std::map<std::string, std::uint32_t> checkpoint_section_digests(
    std::span<const std::byte> blob);

/// Writes `blob` to `path` atomically enough for test/CLI use (truncate +
/// write + flush); throws CheckpointFormatError when the file cannot be
/// written.
void write_checkpoint_file(const std::string& path, std::span<const std::byte> blob);

/// Reads a whole checkpoint file; throws CheckpointFormatError when the
/// file is missing or unreadable.  Validation happens in CheckpointReader.
[[nodiscard]] std::vector<std::byte> read_checkpoint_file(const std::string& path);

}  // namespace bufq
