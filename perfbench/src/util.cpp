#include "util.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

/// Parses a whole decimal string into [lo, hi]; false on anything else
/// (sign, spaces, trailing junk, overflow).
bool parse_uint(const std::string& text, std::uint64_t lo, std::uint64_t hi,
                std::uint64_t& out) {
  if (text.empty() || text.size() > 20) return false;
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return false;
  if (value < lo || value > hi) return false;
  out = value;
  return true;
}

bool known_workload(const std::string& name) {
  return std::find(std::begin(kWorkloads), std::end(kWorkloads), name) != std::end(kWorkloads);
}

std::string workload_list() {
  std::string list;
  for (const auto name : kWorkloads) {
    if (!list.empty()) list += ", ";
    list += name;
  }
  return list;
}

}  // namespace

std::optional<std::string> parse_args(const std::vector<std::string>& argv,
                                      unsigned hardware_threads, Args& out) {
  Args args;
  bool have_workload = false;
  for (std::size_t i = 0; i < argv.size(); i += 2) {
    const std::string& flag = argv[i];
    if (i + 1 >= argv.size()) return "missing value for " + flag;
    const std::string& value = argv[i + 1];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      if (!known_workload(value)) {
        return "unknown workload '" + value + "' (known: " + workload_list() + ")";
      }
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_uint(value, 0, 0xFFFFFFFFull, number)) {
        return "--seed must be an integer in [0, 4294967295], got '" + value + "'";
      }
      args.seed = number;
    } else if (flag == "--seconds") {
      if (!parse_uint(value, 1, 600, number)) {
        return "--seconds must be an integer in [1, 600], got '" + value + "'";
      }
      args.seconds = static_cast<int>(number);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return "--trace must be 0 or 1, got '" + value + "'";
      args.trace = value == "1";
    } else if (flag == "--shards") {
      const unsigned cap = std::max(hardware_threads, 1u);
      if (!parse_uint(value, 1, cap, number)) {
        return "--shards must be an integer in [1, " + std::to_string(cap) +
               "] (the usable CPU count), got '" + value + "'";
      }
      args.shards = static_cast<int>(number);
    } else if (flag == "--reference") {
      args.reference = value;
    } else {
      return "unknown argument '" + flag + "'";
    }
  }
  if (!have_workload) return "--workload is required (known: " + workload_list() + ")";
  if (args.shards != 0 && args.workload != "leaf_spine_sharded") {
    return "--shards applies to leaf_spine_sharded only";
  }
  out = args;
  return std::nullopt;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void Digest::mix(std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    hash_ ^= (word >> (8 * byte)) & 0xFFu;
    hash_ *= 1099511628211ull;
  }
}

std::optional<std::uint64_t> load_reference(const std::string& path, std::string_view scenario,
                                            std::uint64_t seed) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error("cannot read reference digests '" + path + "'");
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (const auto hash = line.find('#'); hash != std::string::npos) line.resize(hash);
    std::istringstream fields{line};
    std::string name;
    std::string seed_text;
    std::string digest_text;
    if (!(fields >> name)) continue;
    std::uint64_t line_seed = 0;
    std::uint64_t digest = 0;
    const bool ok = (fields >> seed_text >> digest_text) &&
                    parse_uint(seed_text, 0, ~std::uint64_t{0}, line_seed) &&
                    std::from_chars(digest_text.data(), digest_text.data() + digest_text.size(),
                                    digest, 16)
                            .ec == std::errc{};
    if (!ok) {
      throw std::runtime_error(path + ":" + std::to_string(line_no) +
                               ": expected '<scenario> <seed> <hex digest>'");
    }
    if (name == scenario && line_seed == seed) return digest;
  }
  return std::nullopt;
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    if (!first) json += ", ";
    first = false;
    char value[40];
    std::snprintf(value, sizeof value, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  return json;
}

}  // namespace perfbench
