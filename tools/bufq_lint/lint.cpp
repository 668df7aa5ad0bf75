#include "bufq_lint/lint.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string_view>

namespace bufq::lint {
namespace {

namespace fs = std::filesystem;

constexpr std::string_view kDeterminismDirs[] = {
    "src/sim/",     "src/sched/",   "src/core/", "src/net/",
    "src/fabric/",  "src/expt/",    "src/traffic/", "src/admission/",
};

/// Path prefixes of the parallel engine's shard-boundary files, where
/// determinism-shard-boundary applies (see lint.h).
constexpr std::string_view kShardScopePrefixes[] = {
    "src/sim/parallel",
    "src/sim/shard",
    "src/fabric/parallel",
    "src/fabric/shard",
};

std::string normalize(std::string path) {
  std::replace(path.begin(), path.end(), '\\', '/');
  while (path.rfind("./", 0) == 0) path.erase(0, 2);
  return path;
}

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cpp";
}

std::string read_file(const fs::path& p, bool& ok) {
  std::ifstream in{p, std::ios::binary};
  if (!in) {
    ok = false;
    return {};
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  ok = true;
  return std::move(buf).str();
}

/// FNV-1a over the trimmed text of a line: the baseline key component
/// that survives unrelated edits shifting line numbers.
std::uint64_t line_hash(std::string_view line) {
  const std::size_t b = line.find_first_not_of(" \t");
  const std::size_t e = line.find_last_not_of(" \t\r");
  std::string_view trimmed =
      b == std::string_view::npos ? std::string_view{} : line.substr(b, e - b + 1);
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : trimmed) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string nth_line(const std::string& source, int line) {
  std::size_t begin = 0;
  for (int i = 1; i < line; ++i) {
    begin = source.find('\n', begin);
    if (begin == std::string::npos) return {};
    ++begin;
  }
  const std::size_t end = source.find('\n', begin);
  return source.substr(begin, end == std::string::npos ? end : end - begin);
}

std::string baseline_key(const Finding& f, const std::string& source) {
  std::ostringstream key;
  key << f.rule << '\t' << f.file << '\t' << std::hex << line_hash(nth_line(source, f.line));
  return std::move(key).str();
}

/// Pulls every "file" value out of a compile_commands.json.  A purpose
/// -built scanner (the schema is one flat array of objects) so the tool
/// needs no JSON dependency; a parse failure just reports an empty set
/// and run() falls back to the tree walk.
std::vector<std::string> compdb_files(const fs::path& compdb) {
  bool ok = false;
  const std::string text = read_file(compdb, ok);
  if (!ok) return {};
  std::vector<std::string> out;
  std::size_t pos = 0;
  while ((pos = text.find("\"file\"", pos)) != std::string::npos) {
    pos += 6;
    pos = text.find('"', text.find(':', pos));
    if (pos == std::string::npos) break;
    ++pos;
    std::string value;
    while (pos < text.size() && text[pos] != '"') {
      if (text[pos] == '\\' && pos + 1 < text.size()) ++pos;
      value.push_back(text[pos]);
      ++pos;
    }
    out.push_back(std::move(value));
  }
  return out;
}

void walk(const fs::path& dir, std::vector<fs::path>& out) {
  if (!fs::exists(dir)) return;
  for (const auto& entry : fs::recursive_directory_iterator{dir}) {
    if (entry.is_regular_file() && lintable(entry.path())) out.push_back(entry.path());
  }
}

}  // namespace

const std::vector<std::string>& known_rules() {
  static const std::vector<std::string> rules = {
      "determinism-wall-clock",
      "determinism-random-source",
      "determinism-unordered-iteration",
      "determinism-shard-boundary",
      "hot-path-std-function",
      "hot-path-allocation",
      "hot-path-throw",
      "hot-path-container-growth",
      "hygiene-pragma-once",
      "hygiene-include-order",
      "hygiene-bad-suppression",
      "hygiene-unused-suppression",
  };
  return rules;
}

FileContext classify(const std::string& rel_path) {
  FileContext ctx;
  ctx.path = normalize(rel_path);
  ctx.header = ctx.path.size() > 2 && ctx.path.rfind(".h") == ctx.path.size() - 2;
  for (const std::string_view dir : kDeterminismDirs) {
    if (ctx.path.rfind(dir, 0) == 0) {
      ctx.determinism_scope = true;
      break;
    }
  }
  for (const std::string_view prefix : kShardScopePrefixes) {
    if (ctx.path.rfind(prefix, 0) == 0) {
      ctx.shard_scope = true;
      break;
    }
  }
  return ctx;
}

Result run(const Options& options) {
  Result result;
  const fs::path root = options.root.empty() ? fs::path{"."} : options.root;

  // Assemble the root-relative file list.
  std::set<std::string> files;
  for (const std::string& f : options.files) files.insert(normalize(f));
  if (files.empty()) {
    std::vector<fs::path> found;
    if (options.fixture_mode) {
      walk(root, found);
    } else {
      // The compilation database narrows the .cpp set to what the build
      // actually compiles; headers are always tree-walked (a compdb has
      // no entries for them).  Without a compdb the whole tree is
      // walked, so the check can never silently skip files.
      bool used_compdb = false;
      if (!options.compdb.empty()) {
        for (const std::string& f : compdb_files(options.compdb)) {
          std::error_code ec;
          const std::string rel =
              normalize(fs::relative(fs::path{f}, root, ec).generic_string());
          if (ec || rel.rfind("..", 0) == 0) continue;
          if (rel.rfind("src/", 0) == 0 || rel.rfind("tools/", 0) == 0) {
            files.insert(rel);
            used_compdb = true;
          }
        }
      }
      if (used_compdb) {
        result.notes.push_back("engine: tokenizer; sources from " +
                               options.compdb.string());
        for (const char* sub : {"src", "tools"}) {
          std::vector<fs::path> headers;
          walk(root / sub, headers);
          for (const fs::path& h : headers) {
            if (h.extension() == ".h") {
              files.insert(normalize(fs::relative(h, root).generic_string()));
            }
          }
        }
      } else {
        if (!options.compdb.empty()) {
          result.notes.push_back("compilation database " + options.compdb.string() +
                                 " missing or empty; falling back to full tree walk");
        } else {
          result.notes.push_back("engine: tokenizer; full tree walk of src/ and tools/");
        }
        walk(root / "src", found);
        walk(root / "tools", found);
      }
    }
    for (const fs::path& p : found) {
      files.insert(normalize(fs::relative(p, root).generic_string()));
    }
  }

  // Lint each file; keep sources for baseline hashing.
  std::map<std::string, std::string> sources;
  for (const std::string& rel : files) {
    bool ok = false;
    std::string source = read_file(root / rel, ok);
    if (!ok) {
      result.findings.push_back(Finding{"io-error", rel, 0, "unreadable file"});
      continue;
    }
    ++result.files_checked;
    for (Finding& f : lint_source(classify(rel), source)) {
      result.findings.push_back(std::move(f));
    }
    sources.emplace(rel, std::move(source));
  }

  // Subtract the committed baseline (each entry forgives one finding).
  if (!options.baseline.empty()) {
    bool ok = false;
    const std::string text = read_file(options.baseline, ok);
    if (ok) {
      std::multiset<std::string> allowed;
      std::istringstream lines{text};
      for (std::string line; std::getline(lines, line);) {
        if (line.empty() || line[0] == '#') continue;
        // Keys are the first three tab-separated fields.
        std::size_t tabs = 0;
        std::size_t end = 0;
        for (; end < line.size(); ++end) {
          if (line[end] == '\t' && ++tabs == 3) break;
        }
        allowed.insert(line.substr(0, end));
      }
      std::vector<Finding> kept;
      for (Finding& f : result.findings) {
        const auto it = allowed.find(baseline_key(f, sources[f.file]));
        if (it != allowed.end()) {
          allowed.erase(it);
        } else {
          kept.push_back(std::move(f));
        }
      }
      result.findings = std::move(kept);
    } else {
      result.notes.push_back("baseline " + options.baseline.string() +
                             " not readable; treating every finding as new");
    }
  }

  std::sort(result.findings.begin(), result.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return result;
}

std::string to_baseline(const std::vector<Finding>& findings, const fs::path& root) {
  std::ostringstream out;
  out << "# bufq-lint baseline: one line per forgiven finding.\n"
         "# rule<TAB>file<TAB>hash-of-flagged-line<TAB>line (informational)\n";
  for (const Finding& f : findings) {
    bool ok = false;
    const std::string source = read_file(root / f.file, ok);
    out << f.rule << '\t' << f.file << '\t' << std::hex
        << line_hash(nth_line(source, f.line)) << std::dec << '\t' << f.line << '\n';
  }
  return std::move(out).str();
}

}  // namespace bufq::lint
