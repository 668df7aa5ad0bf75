#include "util/flags.h"

#include <stdexcept>
#include <type_traits>

namespace bufq {
namespace {

/// Parses the whole of `text` as a T; anything left over is an error.
template <typename T>
T parse_number(const std::string& name, const std::string& text) {
  std::size_t used = 0;
  T value{};
  try {
    if constexpr (std::is_same_v<T, double>) {
      value = std::stod(text, &used);
    } else {
      value = std::stoll(text, &used);
    }
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != text.size()) {
    throw std::invalid_argument("flag --" + name +
                                (std::is_same_v<T, double> ? " expects a number, got '"
                                                           : " expects an integer, got '") +
                                text + "'");
  }
  return value;
}

}  // namespace

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";  // bare flag, boolean style
    }
  }
  for (const auto& [k, _] : values_) read_[k] = false;
}

std::optional<std::string> Flags::get(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  read_[name] = true;
  return it->second;
}

std::string Flags::get_string(const std::string& name, const std::string& fallback) const {
  return get(name).value_or(fallback);
}

double Flags::get_double(const std::string& name, double fallback) const {
  const auto v = get(name);
  return v ? parse_number<double>(name, *v) : fallback;
}

std::int64_t Flags::get_int(const std::string& name, std::int64_t fallback) const {
  const auto v = get(name);
  return v ? parse_number<std::int64_t>(name, *v) : fallback;
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  if (*v == "true" || *v == "1" || *v == "yes") return true;
  if (*v == "false" || *v == "0" || *v == "no") return false;
  throw std::invalid_argument("flag --" + name + " expects a boolean, got '" + *v + "'");
}

template <typename T>
std::vector<T> Flags::get_list(const std::string& name, std::vector<T> fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  std::vector<T> values;
  std::size_t begin = 0;
  for (;;) {
    const std::size_t comma = v->find(',', begin);
    values.push_back(parse_number<T>(name, v->substr(begin, comma - begin)));
    if (comma == std::string::npos) return values;
    begin = comma + 1;
  }
}

template std::vector<double> Flags::get_list(const std::string&, std::vector<double>) const;
template std::vector<std::int64_t> Flags::get_list(const std::string&,
                                                   std::vector<std::int64_t>) const;

std::vector<std::string> Flags::unused() const {
  std::vector<std::string> result;
  for (const auto& [name, was_read] : read_) {
    if (!was_read) result.push_back(name);
  }
  return result;
}

}  // namespace bufq
