// Minimal command-line flag parsing for the bench binaries and examples.
// Supports `--name=value` and `--name value`; anything else is a
// positional argument.  Unknown flags are an error so typos fail fast, and
// so is a numeric value that does not parse in full (`--seed=5x`).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace bufq {

class Flags {
 public:
  /// Parses argv.  Throws std::invalid_argument on malformed input.
  Flags(int argc, const char* const* argv);

  [[nodiscard]] std::optional<std::string> get(const std::string& name) const;
  [[nodiscard]] std::string get_string(const std::string& name, const std::string& fallback) const;
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  /// get_int for counts (jobs, seeds, flows): throws std::invalid_argument
  /// on a negative value instead of letting it wrap to a huge size_t.
  [[nodiscard]] std::size_t get_count(const std::string& name, std::size_t fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;
  /// Comma-separated list (`--buffers=0.5,1,2`), every item parsed as
  /// strictly as get_double (T = double) or get_int (T = std::int64_t).
  template <typename T>
  [[nodiscard]] std::vector<T> get_list(const std::string& name, std::vector<T> fallback) const;

  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }

  /// Names that were provided but never read; used to reject typos.
  [[nodiscard]] std::vector<std::string> unused() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> read_;
  std::vector<std::string> positional_;
};

}  // namespace bufq
