#include "sim/checkpoint.h"

#include <array>
#include <bit>
#include <cstdio>
#include <cstring>

namespace bufq {
namespace {

constexpr std::array<char, 8> kMagic = {'B', 'U', 'F', 'Q', 'C', 'K', 'P', 'T'};
constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 8 + 8 + 4;

// Primitive type tags.  Every value in the payload is preceded by one of
// these so format skew is detected at the first misread, not after.
constexpr std::uint8_t kTagU8 = 1;
constexpr std::uint8_t kTagU32 = 2;
constexpr std::uint8_t kTagU64 = 3;
constexpr std::uint8_t kTagI64 = 4;
constexpr std::uint8_t kTagF64 = 5;
constexpr std::uint8_t kTagBool = 6;
constexpr std::uint8_t kTagString = 7;
constexpr std::uint8_t kTagSectionBegin = 8;
constexpr std::uint8_t kTagSectionEnd = 9;

struct Crc32Table {
  std::array<std::uint32_t, 256> entries{};
  constexpr Crc32Table() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      entries[i] = c;
    }
  }
};

constexpr Crc32Table kCrcTable{};

void append_le(std::vector<std::byte>& out, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::byte*>(data);
  out.insert(out.end(), bytes, bytes + size);
}

template <typename T>
T load_le(const std::byte* at) {
  T v;
  std::memcpy(&v, at, sizeof(T));
  return v;
}

}  // namespace

std::uint32_t checkpoint_crc32(std::span<const std::byte> data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::byte b : data) {
    crc = kCrcTable.entries[(crc ^ static_cast<std::uint8_t>(b)) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void FingerprintHasher::mix_u64(std::uint64_t v) {
  // FNV-1a over the value's 8 bytes, little-endian.
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (v >> (8 * i)) & 0xFFu;
    hash_ *= 0x100000001B3ull;
  }
}

void FingerprintHasher::mix_f64(double v) { mix_u64(std::bit_cast<std::uint64_t>(v)); }

void FingerprintHasher::mix_string(std::string_view s) {
  mix_u64(s.size());
  for (char c : s) {
    hash_ ^= static_cast<std::uint8_t>(c);
    hash_ *= 0x100000001B3ull;
  }
}

void CheckpointWriter::put_tag(std::uint8_t tag) {
  payload_.push_back(static_cast<std::byte>(tag));
}

void CheckpointWriter::put_raw(const void* data, std::size_t size) {
  append_le(payload_, data, size);
}

void CheckpointWriter::begin_section(std::string_view name) {
  if (in_section_) throw CheckpointFormatError("begin_section inside open section");
  in_section_ = true;
  put_tag(kTagSectionBegin);
  const auto len = static_cast<std::uint32_t>(name.size());
  put_raw(&len, sizeof(len));
  put_raw(name.data(), name.size());
  section_size_at_ = payload_.size();
  const std::uint64_t placeholder = 0;
  put_raw(&placeholder, sizeof(placeholder));
}

void CheckpointWriter::end_section() {
  if (!in_section_) throw CheckpointFormatError("end_section without open section");
  in_section_ = false;
  const std::uint64_t body =
      payload_.size() - (section_size_at_ + sizeof(std::uint64_t));
  std::memcpy(payload_.data() + section_size_at_, &body, sizeof(body));
  put_tag(kTagSectionEnd);
}

void CheckpointWriter::write_bool(bool v) {
  put_tag(kTagBool);
  const std::uint8_t raw = v ? 1 : 0;
  put_raw(&raw, sizeof(raw));
}

void CheckpointWriter::write_u8(std::uint8_t v) {
  put_tag(kTagU8);
  put_raw(&v, sizeof(v));
}

void CheckpointWriter::write_u32(std::uint32_t v) {
  put_tag(kTagU32);
  put_raw(&v, sizeof(v));
}

void CheckpointWriter::write_u64(std::uint64_t v) {
  put_tag(kTagU64);
  put_raw(&v, sizeof(v));
}

void CheckpointWriter::write_i64(std::int64_t v) {
  put_tag(kTagI64);
  put_raw(&v, sizeof(v));
}

void CheckpointWriter::write_f64(double v) {
  put_tag(kTagF64);
  const auto bits = std::bit_cast<std::uint64_t>(v);
  put_raw(&bits, sizeof(bits));
}

void CheckpointWriter::write_time(Time t) { write_i64(t.ns()); }

void CheckpointWriter::write_string(std::string_view s) {
  put_tag(kTagString);
  const auto len = static_cast<std::uint32_t>(s.size());
  put_raw(&len, sizeof(len));
  put_raw(s.data(), s.size());
}

void CheckpointWriter::write_u64_vector(const std::vector<std::uint64_t>& v) {
  write_u64(v.size());
  for (std::uint64_t x : v) write_u64(x);
}

void CheckpointWriter::write_i64_vector(const std::vector<std::int64_t>& v) {
  write_u64(v.size());
  for (std::int64_t x : v) write_i64(x);
}

std::vector<std::byte> CheckpointWriter::finish(std::uint64_t scenario_fingerprint) {
  if (in_section_) throw CheckpointFormatError("finish with open section");
  std::vector<std::byte> blob;
  blob.reserve(kHeaderBytes + payload_.size());
  append_le(blob, kMagic.data(), kMagic.size());
  const std::uint32_t version = kCheckpointVersion;
  append_le(blob, &version, sizeof(version));
  const std::uint32_t reserved = 0;
  append_le(blob, &reserved, sizeof(reserved));
  append_le(blob, &scenario_fingerprint, sizeof(scenario_fingerprint));
  const std::uint64_t size = payload_.size();
  append_le(blob, &size, sizeof(size));
  const std::uint32_t crc = checkpoint_crc32(payload_);
  append_le(blob, &crc, sizeof(crc));
  blob.insert(blob.end(), payload_.begin(), payload_.end());
  payload_.clear();
  return blob;
}

CheckpointReader::CheckpointReader(std::span<const std::byte> blob) {
  if (blob.size() < kHeaderBytes) {
    throw CheckpointFormatError("checkpoint truncated: " + std::to_string(blob.size()) +
                                " bytes, header needs " + std::to_string(kHeaderBytes));
  }
  if (std::memcmp(blob.data(), kMagic.data(), kMagic.size()) != 0) {
    throw CheckpointFormatError("bad checkpoint magic");
  }
  const auto version = load_le<std::uint32_t>(blob.data() + 8);
  if (version != kCheckpointVersion) {
    throw CheckpointVersionError("checkpoint version " + std::to_string(version) +
                                 " unsupported (expected " +
                                 std::to_string(kCheckpointVersion) + ")");
  }
  // The reserved word is outside the payload CRC; requiring it to be zero
  // keeps every header byte validated (and the word usable for a future
  // version to repurpose, which this version would then reject).
  const auto reserved = load_le<std::uint32_t>(blob.data() + 12);
  if (reserved != 0) {
    throw CheckpointFormatError("checkpoint reserved header word is nonzero");
  }
  fingerprint_ = load_le<std::uint64_t>(blob.data() + 16);
  const auto payload_size = load_le<std::uint64_t>(blob.data() + 24);
  const auto stored_crc = load_le<std::uint32_t>(blob.data() + 32);
  if (blob.size() - kHeaderBytes != payload_size) {
    throw CheckpointFormatError(
        "checkpoint payload truncated: header says " + std::to_string(payload_size) +
        " bytes, file has " + std::to_string(blob.size() - kHeaderBytes));
  }
  payload_ = blob.subspan(kHeaderBytes);
  const std::uint32_t actual_crc = checkpoint_crc32(payload_);
  if (actual_crc != stored_crc) {
    throw CheckpointCrcError("checkpoint payload CRC mismatch (corrupt file)");
  }
}

void CheckpointReader::require_scenario(std::uint64_t expected) const {
  if (fingerprint_ != expected) {
    throw CheckpointScenarioError(
        "checkpoint was taken under a different scenario configuration "
        "(fingerprint mismatch) — refusing to restore");
  }
}

void CheckpointReader::expect_tag(std::uint8_t tag, const char* what) {
  if (cursor_ >= payload_.size()) {
    throw CheckpointFormatError(std::string("checkpoint ended while reading ") + what);
  }
  const auto got = static_cast<std::uint8_t>(payload_[cursor_]);
  if (got != tag) {
    throw CheckpointFormatError(std::string("checkpoint tag mismatch reading ") + what +
                                ": expected " + std::to_string(tag) + ", got " +
                                std::to_string(got));
  }
  ++cursor_;
}

void CheckpointReader::take_raw(void* out, std::size_t size, const char* what) {
  if (payload_.size() - cursor_ < size) {
    throw CheckpointFormatError(std::string("checkpoint ended while reading ") + what);
  }
  std::memcpy(out, payload_.data() + cursor_, size);
  cursor_ += size;
}

void CheckpointReader::begin_section(std::string_view name) {
  if (in_section_) throw CheckpointFormatError("begin_section inside open section");
  expect_tag(kTagSectionBegin, "section header");
  std::uint32_t len = 0;
  take_raw(&len, sizeof(len), "section name length");
  if (payload_.size() - cursor_ < len) {
    throw CheckpointFormatError("checkpoint ended inside section name");
  }
  const std::string_view got{reinterpret_cast<const char*>(payload_.data() + cursor_),
                             len};
  if (got != name) {
    throw CheckpointFormatError("checkpoint section mismatch: expected '" +
                                std::string(name) + "', got '" + std::string(got) + "'");
  }
  cursor_ += len;
  std::uint64_t body = 0;
  take_raw(&body, sizeof(body), "section body size");
  if (payload_.size() - cursor_ < body) {
    throw CheckpointFormatError("checkpoint ended inside section '" + std::string(name) +
                                "'");
  }
  section_end_ = cursor_ + body;
  in_section_ = true;
}

void CheckpointReader::end_section() {
  if (!in_section_) throw CheckpointFormatError("end_section without open section");
  if (cursor_ != section_end_) {
    throw CheckpointFormatError("section not fully consumed: " +
                                std::to_string(section_end_ - cursor_) +
                                " bytes left (save/restore protocol skew)");
  }
  in_section_ = false;
  expect_tag(kTagSectionEnd, "section trailer");
}

bool CheckpointReader::read_bool() {
  expect_tag(kTagBool, "bool");
  std::uint8_t raw = 0;
  take_raw(&raw, sizeof(raw), "bool");
  if (raw > 1) throw CheckpointFormatError("bool value out of range");
  return raw != 0;
}

std::uint8_t CheckpointReader::read_u8() {
  expect_tag(kTagU8, "u8");
  std::uint8_t v = 0;
  take_raw(&v, sizeof(v), "u8");
  return v;
}

std::uint32_t CheckpointReader::read_u32() {
  expect_tag(kTagU32, "u32");
  std::uint32_t v = 0;
  take_raw(&v, sizeof(v), "u32");
  return v;
}

std::uint64_t CheckpointReader::read_u64() {
  expect_tag(kTagU64, "u64");
  std::uint64_t v = 0;
  take_raw(&v, sizeof(v), "u64");
  return v;
}

std::int64_t CheckpointReader::read_i64() {
  expect_tag(kTagI64, "i64");
  std::int64_t v = 0;
  take_raw(&v, sizeof(v), "i64");
  return v;
}

double CheckpointReader::read_f64() {
  expect_tag(kTagF64, "f64");
  std::uint64_t bits = 0;
  take_raw(&bits, sizeof(bits), "f64");
  return std::bit_cast<double>(bits);
}

Time CheckpointReader::read_time() { return Time::nanoseconds(read_i64()); }

std::string CheckpointReader::read_string() {
  expect_tag(kTagString, "string");
  std::uint32_t len = 0;
  take_raw(&len, sizeof(len), "string length");
  if (payload_.size() - cursor_ < len) {
    throw CheckpointFormatError("checkpoint ended inside string");
  }
  std::string s{reinterpret_cast<const char*>(payload_.data() + cursor_), len};
  cursor_ += len;
  return s;
}

std::vector<std::uint64_t> CheckpointReader::read_u64_vector() {
  const std::uint64_t count = read_u64();
  if (count > payload_.size()) {
    // Each element needs at least one payload byte; a count beyond the
    // remaining payload is corruption, not a huge vector.
    throw CheckpointFormatError("u64 vector count exceeds payload");
  }
  std::vector<std::uint64_t> v;
  v.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) v.push_back(read_u64());
  return v;
}

std::vector<std::int64_t> CheckpointReader::read_i64_vector() {
  const std::uint64_t count = read_u64();
  if (count > payload_.size()) {
    throw CheckpointFormatError("i64 vector count exceeds payload");
  }
  std::vector<std::int64_t> v;
  v.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) v.push_back(read_i64());
  return v;
}

void save_packet(CheckpointWriter& w, const Packet& packet) {
  w.write_i64(packet.flow);
  w.write_i64(packet.size_bytes);
  w.write_u64(packet.seq);
  w.write_time(packet.created);
}

Packet load_packet(CheckpointReader& r) {
  Packet p;
  p.flow = static_cast<FlowId>(r.read_i64());
  p.size_bytes = r.read_i64();
  p.seq = r.read_u64();
  p.created = r.read_time();
  return p;
}

void save_rng(CheckpointWriter& w, const Rng& rng) {
  const Rng::State st = rng.state();
  for (std::uint64_t word : st.s) w.write_u64(word);
  w.write_u64(st.seed);
}

void load_rng(CheckpointReader& r, Rng& rng) {
  Rng::State st;
  for (std::uint64_t& word : st.s) word = r.read_u64();
  st.seed = r.read_u64();
  rng.restore(st);
}

void save_registry_snapshot(CheckpointWriter& w, const obs::RegistrySnapshot& snap) {
  // std::map iteration is sorted by name, so the byte stream (and the
  // section digest) is deterministic.
  w.write_u64(snap.counters.size());
  for (const auto& [name, value] : snap.counters) {
    w.write_string(name);
    w.write_u64(value);
  }
  w.write_u64(snap.gauges.size());
  for (const auto& [name, g] : snap.gauges) {
    w.write_string(name);
    w.write_i64(g.last);
    w.write_i64(g.max);
    w.write_u64(g.updates);
  }
  w.write_u64(snap.histograms.size());
  for (const auto& [name, h] : snap.histograms) {
    w.write_string(name);
    w.write_u64(h.count);
    w.write_u64(h.sum);
    w.write_i64(h.min);
    w.write_i64(h.max);
    w.write_u64_vector(h.buckets);
  }
}

obs::RegistrySnapshot load_registry_snapshot(CheckpointReader& r) {
  obs::RegistrySnapshot snap;
  const std::uint64_t counters = r.read_u64();
  for (std::uint64_t i = 0; i < counters; ++i) {
    std::string name = r.read_string();
    snap.counters[std::move(name)] = r.read_u64();
  }
  const std::uint64_t gauges = r.read_u64();
  for (std::uint64_t i = 0; i < gauges; ++i) {
    std::string name = r.read_string();
    obs::GaugeSnapshot g;
    g.last = r.read_i64();
    g.max = r.read_i64();
    g.updates = r.read_u64();
    snap.gauges[std::move(name)] = g;
  }
  const std::uint64_t histograms = r.read_u64();
  for (std::uint64_t i = 0; i < histograms; ++i) {
    std::string name = r.read_string();
    obs::HistogramSnapshot h;
    h.count = r.read_u64();
    h.sum = r.read_u64();
    h.min = r.read_i64();
    h.max = r.read_i64();
    h.buckets = r.read_u64_vector();
    snap.histograms[std::move(name)] = std::move(h);
  }
  return snap;
}

std::map<std::string, std::uint32_t> checkpoint_section_digests(
    std::span<const std::byte> blob) {
  CheckpointReader header_check{blob};  // validates magic/version/size/CRC
  (void)header_check;
  std::span<const std::byte> payload = blob.subspan(kHeaderBytes);
  std::map<std::string, std::uint32_t> digests;
  std::size_t cursor = 0;
  while (cursor < payload.size()) {
    if (static_cast<std::uint8_t>(payload[cursor]) != kTagSectionBegin) {
      throw CheckpointFormatError("expected section at payload offset " +
                                  std::to_string(cursor));
    }
    ++cursor;
    if (payload.size() - cursor < sizeof(std::uint32_t)) {
      throw CheckpointFormatError("checkpoint ended inside section name length");
    }
    const auto len = load_le<std::uint32_t>(payload.data() + cursor);
    cursor += sizeof(std::uint32_t);
    if (payload.size() - cursor < len) {
      throw CheckpointFormatError("checkpoint ended inside section name");
    }
    std::string name{reinterpret_cast<const char*>(payload.data() + cursor), len};
    cursor += len;
    if (payload.size() - cursor < sizeof(std::uint64_t)) {
      throw CheckpointFormatError("checkpoint ended inside section body size");
    }
    const auto body = load_le<std::uint64_t>(payload.data() + cursor);
    cursor += sizeof(std::uint64_t);
    if (payload.size() - cursor < body + 1) {
      throw CheckpointFormatError("checkpoint ended inside section '" + name + "'");
    }
    digests[name] = checkpoint_crc32(payload.subspan(cursor, body));
    cursor += body;
    if (static_cast<std::uint8_t>(payload[cursor]) != kTagSectionEnd) {
      throw CheckpointFormatError("missing section trailer for '" + name + "'");
    }
    ++cursor;
  }
  return digests;
}

void write_checkpoint_file(const std::string& path, std::span<const std::byte> blob) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw CheckpointFormatError("cannot open checkpoint file for writing: " + path);
  }
  const std::size_t written = std::fwrite(blob.data(), 1, blob.size(), f);
  const bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (written != blob.size() || !flushed) {
    throw CheckpointFormatError("short write to checkpoint file: " + path);
  }
}

std::vector<std::byte> read_checkpoint_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw CheckpointFormatError("cannot open checkpoint file: " + path);
  }
  std::vector<std::byte> blob;
  std::array<std::byte, 65536> chunk;
  std::size_t got = 0;
  while ((got = std::fread(chunk.data(), 1, chunk.size(), f)) > 0) {
    blob.insert(blob.end(), chunk.begin(), chunk.begin() + got);
  }
  const bool err = std::ferror(f) != 0;
  std::fclose(f);
  if (err) throw CheckpointFormatError("error reading checkpoint file: " + path);
  return blob;
}

}  // namespace bufq
