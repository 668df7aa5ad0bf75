// Tokenizer-engine rule passes for bufq-lint.  Every pass works on the
// flat token stream from lexer.h: the rules match token shapes (never
// text inside comments or string literals), which is precise enough for
// this codebase's conventions and keeps the tool dependency-free.  The
// known imprecisions are documented per rule; the libclang cross-check
// re-derives the determinism findings from a real AST when available.
#include <algorithm>
#include <cstddef>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "bufq_lint/lexer.h"
#include "bufq_lint/lint.h"

namespace bufq::lint {
namespace {

constexpr std::string_view kWallClockIdents[] = {
    "system_clock", "steady_clock", "high_resolution_clock",
    "gettimeofday", "clock_gettime", "timespec_get",
};
constexpr std::string_view kRandomIdents[] = {
    "random_device", "srand", "rand_r", "drand48", "lrand48",
};
constexpr std::string_view kUnorderedTypes[] = {
    "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset",
};
constexpr std::string_view kAllocIdents[] = {
    "malloc", "calloc", "realloc", "strdup", "make_unique", "make_shared",
};
constexpr std::string_view kGrowthMethods[] = {
    "push_back", "emplace_back", "push_front", "emplace_front",
    "emplace",   "insert",       "resize",     "append",
};

template <typename Range>
bool contains(const Range& range, std::string_view text) {
  return std::find(std::begin(range), std::end(range), text) != std::end(range);
}

bool is_ident(const Token& t, std::string_view text) {
  return t.kind == TokKind::kIdentifier && t.text == text;
}
bool is_punct(const Token& t, std::string_view text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

std::string unquote(const std::string& literal) {
  if (literal.size() >= 2 && literal.front() == '"' && literal.back() == '"') {
    return literal.substr(1, literal.size() - 2);
  }
  return literal;
}

struct Suppression {
  std::string rule;
  std::string reason;
  int line = 0;
  bool used = false;
  bool bad = false;
};

/// Token-index bounds of one BUFQ_HOT function body ('{' .. '}').
struct HotExtent {
  std::size_t begin = 0;
  std::size_t end = 0;
};

class FilePass {
 public:
  FilePass(const FileContext& ctx, const std::string& source) : ctx_{ctx} {
    for (Token& t : lex(source)) {
      if (t.kind == TokKind::kComment) continue;
      if (t.kind == TokKind::kDirective) {
        directives_.push_back(std::move(t));
      } else {
        code_.push_back(std::move(t));
      }
    }
  }

  std::vector<Finding> run() {
    collect_suppressions();
    if (ctx_.header) pragma_once();
    include_order();
    if (ctx_.determinism_scope) {
      wall_clock();
      random_source();
      unordered_iteration();
    }
    if (ctx_.shard_scope) shard_boundary();
    hot_path_rules();
    apply_suppressions();
    std::stable_sort(findings_.begin(), findings_.end(),
                     [](const Finding& a, const Finding& b) {
                       if (a.line != b.line) return a.line < b.line;
                       return a.rule < b.rule;
                     });
    return std::move(findings_);
  }

 private:
  void add(std::string rule, int line, std::string message) {
    findings_.push_back(Finding{std::move(rule), ctx_.path, line, std::move(message)});
  }

  // --- token utilities --------------------------------------------------

  /// Index just past the group opened at `open` ('(', '{' or '[').
  std::size_t skip_balanced(std::size_t open) const {
    const std::string& o = code_[open].text;
    const std::string_view close = o == "(" ? ")" : o == "{" ? "}" : "]";
    int depth = 0;
    for (std::size_t k = open; k < code_.size(); ++k) {
      if (code_[k].kind != TokKind::kPunct) continue;
      if (code_[k].text == o) ++depth;
      if (code_[k].text == close && --depth == 0) return k + 1;
    }
    return code_.size();
  }

  // --- suppressions -----------------------------------------------------

  void collect_suppressions() {
    for (std::size_t i = 0; i + 4 < code_.size(); ++i) {
      if (!is_ident(code_[i], "BUFQ_LINT_SUPPRESS") || !is_punct(code_[i + 1], "(")) {
        continue;
      }
      Suppression s;
      s.line = code_[i].line;
      if (code_[i + 2].kind == TokKind::kString) s.rule = unquote(code_[i + 2].text);
      if (is_punct(code_[i + 3], ",") && code_[i + 4].kind == TokKind::kString) {
        s.reason = unquote(code_[i + 4].text);
      }
      if (!contains(known_rules(), s.rule)) {
        s.bad = true;
        add("hygiene-bad-suppression", s.line,
            "suppression names unknown rule '" + s.rule + "'");
      } else if (s.reason.empty()) {
        s.bad = true;
        add("hygiene-bad-suppression", s.line,
            "suppression needs a non-empty reason string literal");
      }
      suppressions_.push_back(std::move(s));
    }
  }

  void apply_suppressions() {
    std::vector<Finding> kept;
    kept.reserve(findings_.size());
    for (Finding& f : findings_) {
      bool drop = false;
      if (f.rule.rfind("hygiene-bad", 0) != 0 &&
          f.rule.rfind("hygiene-unused", 0) != 0) {
        for (Suppression& s : suppressions_) {
          if (!s.bad && s.rule == f.rule &&
              (f.line == s.line || f.line == s.line + 1)) {
            s.used = true;
            drop = true;
          }
        }
      }
      if (!drop) kept.push_back(std::move(f));
    }
    findings_ = std::move(kept);
    for (const Suppression& s : suppressions_) {
      if (!s.bad && !s.used) {
        add("hygiene-unused-suppression", s.line,
            "suppression of '" + s.rule + "' silenced nothing; remove it");
      }
    }
  }

  // --- hygiene ----------------------------------------------------------

  void pragma_once() {
    for (const Token& d : directives_) {
      std::string_view text{d.text};
      text.remove_prefix(1);  // '#'
      const std::size_t p = text.find_first_not_of(" \t");
      if (p == std::string_view::npos) continue;
      text.remove_prefix(p);
      if (text.rfind("pragma", 0) == 0 && text.find("once") != std::string_view::npos) {
        return;
      }
    }
    add("hygiene-pragma-once", 1, "header is missing #pragma once");
  }

  struct Include {
    std::string target;
    bool quoted = false;
    int line = 0;
  };

  std::vector<Include> includes() const {
    std::vector<Include> out;
    for (const Token& d : directives_) {
      std::string_view text{d.text};
      text.remove_prefix(1);
      std::size_t p = text.find_first_not_of(" \t");
      if (p == std::string_view::npos || text.compare(p, 7, "include") != 0) continue;
      text.remove_prefix(p + 7);
      p = text.find_first_not_of(" \t");
      if (p == std::string_view::npos) continue;
      const char open = text[p];
      const char close = open == '<' ? '>' : '"';
      if (open != '<' && open != '"') continue;
      const std::size_t end = text.find(close, p + 1);
      if (end == std::string_view::npos) continue;
      out.push_back(Include{std::string{text.substr(p + 1, end - p - 1)},
                            open == '"', d.line});
    }
    return out;
  }

  static std::string basename_of(const std::string& path) {
    const std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
  }

  void include_order() {
    const std::vector<Include> incs = includes();
    std::string own;
    if (!ctx_.header) {
      std::string base = basename_of(ctx_.path);
      const std::size_t dot = base.find_last_of('.');
      if (dot != std::string::npos) base.resize(dot);
      own = base + ".h";
    }
    bool seen_project = false;
    for (std::size_t i = 0; i < incs.size(); ++i) {
      const Include& inc = incs[i];
      if (inc.quoted && !own.empty() && basename_of(inc.target) == own) {
        if (i != 0) {
          add("hygiene-include-order", inc.line,
              "own header \"" + inc.target + "\" must be the first include");
        }
        continue;
      }
      if (inc.quoted) {
        seen_project = true;
      } else if (seen_project) {
        add("hygiene-include-order", inc.line,
            "system include <" + inc.target + "> after project includes");
      }
    }
  }

  // --- determinism ------------------------------------------------------

  void wall_clock() {
    for (const Token& t : code_) {
      if (t.kind == TokKind::kIdentifier && contains(kWallClockIdents, t.text)) {
        add("determinism-wall-clock", t.line,
            "wall-clock source '" + t.text + "' in a result-affecting path");
      }
    }
  }

  void random_source() {
    for (std::size_t i = 0; i < code_.size(); ++i) {
      const Token& t = code_[i];
      if (t.kind != TokKind::kIdentifier) continue;
      const bool named = contains(kRandomIdents, t.text);
      const bool bare_rand = t.text == "rand" && i + 1 < code_.size() &&
                             is_punct(code_[i + 1], "(");
      if (named || bare_rand) {
        add("determinism-random-source", t.line,
            "non-seeded randomness '" + t.text + "'; use util/rng.h (SeedSequence)");
      }
    }
  }

  void unordered_iteration() {
    // Pass 1: names whose declared type is an unordered container,
    // either directly (std::unordered_map<...> name) or through a
    // same-file alias (using M = std::unordered_map<...>; M name).
    std::set<std::string> aliases;
    for (std::size_t i = 0; i + 2 < code_.size(); ++i) {
      if (!is_ident(code_[i], "using") || code_[i + 1].kind != TokKind::kIdentifier ||
          !is_punct(code_[i + 2], "=")) {
        continue;
      }
      for (std::size_t k = i + 3; k < code_.size() && !is_punct(code_[k], ";"); ++k) {
        if (code_[k].kind == TokKind::kIdentifier && contains(kUnorderedTypes, code_[k].text)) {
          aliases.insert(code_[i + 1].text);
          break;
        }
      }
    }
    std::set<std::string> tracked;
    for (std::size_t i = 0; i < code_.size(); ++i) {
      const Token& t = code_[i];
      if (t.kind != TokKind::kIdentifier) continue;
      if (contains(kUnorderedTypes, t.text) && i + 1 < code_.size() &&
          is_punct(code_[i + 1], "<")) {
        int depth = 0;
        std::size_t k = i + 1;
        for (; k < code_.size(); ++k) {
          if (is_punct(code_[k], "<")) ++depth;
          if (is_punct(code_[k], ">") && --depth == 0) break;
          if (is_punct(code_[k], ";")) break;
        }
        if (k + 1 < code_.size() && code_[k + 1].kind == TokKind::kIdentifier) {
          tracked.insert(code_[k + 1].text);
        }
      } else if (aliases.count(t.text) != 0 && i + 1 < code_.size() &&
                 code_[i + 1].kind == TokKind::kIdentifier) {
        tracked.insert(code_[i + 1].text);
      }
    }
    if (tracked.empty()) return;

    // Pass 2: range-for over a tracked name, or explicit .begin().
    for (std::size_t i = 0; i + 1 < code_.size(); ++i) {
      if (is_ident(code_[i], "for") && is_punct(code_[i + 1], "(")) {
        const std::size_t close = skip_balanced(i + 1);
        int depth = 0;
        std::size_t colon = 0;
        for (std::size_t k = i + 1; k < close; ++k) {
          if (is_punct(code_[k], "(")) ++depth;
          if (is_punct(code_[k], ")")) --depth;
          if (depth == 1 && is_punct(code_[k], ":")) {
            colon = k;
            break;
          }
        }
        if (colon == 0) continue;
        for (std::size_t k = colon + 1; k + 1 < close; ++k) {
          if (code_[k].kind == TokKind::kIdentifier && tracked.count(code_[k].text) != 0) {
            add("determinism-unordered-iteration", code_[i].line,
                "iteration order of '" + code_[k].text +
                    "' is address-dependent; sort keys or use a dense container");
            break;
          }
        }
      }
      if (code_[i].kind == TokKind::kIdentifier && tracked.count(code_[i].text) != 0 &&
          is_punct(code_[i + 1], ".") && i + 2 < code_.size() &&
          (is_ident(code_[i + 2], "begin") || is_ident(code_[i + 2], "cbegin") ||
           is_ident(code_[i + 2], "rbegin"))) {
        add("determinism-unordered-iteration", code_[i].line,
            "iteration order of '" + code_[i].text +
                "' is address-dependent; sort keys or use a dense container");
      }
    }
  }

  // --- shard boundary ---------------------------------------------------

  /// The parallel engine's bit-identical contract requires every piece of
  /// cross-shard state to flow through BoundaryChannel and synchronize
  /// through PhaseBarrier.  Shared mutable state reachable from more than
  /// one worker — thread_local caches, atomics, volatile, mutable statics
  /// — would let shards communicate out of band and break replay, so the
  /// shard-boundary files ban them outright.  Known imprecision: the
  /// mutable-static heuristic treats "first '(' before ';'/'='/'{'" as a
  /// function declaration, so a static whose *type* contains parentheses
  /// (e.g. a function pointer) is not flagged.
  void shard_boundary() {
    for (std::size_t i = 0; i < code_.size(); ++i) {
      const Token& t = code_[i];
      if (t.kind != TokKind::kIdentifier) continue;
      if (t.text == "thread_local") {
        add("determinism-shard-boundary", t.line,
            "thread_local in shard-boundary code; shard state must live in "
            "the shard object, confined to its worker");
      } else if (t.text == "volatile") {
        add("determinism-shard-boundary", t.line,
            "volatile in shard-boundary code; cross-shard data must flow "
            "through BoundaryChannel");
      } else if (t.text == "atomic") {
        add("determinism-shard-boundary", t.line,
            "atomics in shard-boundary code; synchronize through "
            "PhaseBarrier, not ad-hoc shared state");
      } else if (t.text == "static") {
        bool mutable_static = false;
        for (std::size_t k = i + 1; k < code_.size(); ++k) {
          const Token& u = code_[k];
          if (is_ident(u, "const") || is_ident(u, "constexpr") ||
              is_punct(u, "(")) {
            break;  // immutable, or a function declaration
          }
          if (is_punct(u, ";") || is_punct(u, "=") || is_punct(u, "{")) {
            mutable_static = true;
            break;
          }
        }
        if (mutable_static) {
          add("determinism-shard-boundary", t.line,
              "mutable static in shard-boundary code; shared mutable state "
              "breaks the bit-identical serial/parallel contract");
        }
      }
    }
  }

  // --- hot path ---------------------------------------------------------

  std::vector<HotExtent> hot_extents() const {
    std::vector<HotExtent> out;
    for (std::size_t i = 0; i < code_.size(); ++i) {
      if (!is_ident(code_[i], "BUFQ_HOT")) continue;
      std::size_t j = i + 1;
      // Find the parameter list, stepping over an operator's symbol
      // tokens (operator()'s name parens are exactly "( )").
      std::size_t params = 0;
      for (int guard = 0; j < code_.size() && guard < 300; ++guard) {
        const Token& t = code_[j];
        if (is_punct(t, ";") || is_punct(t, "{")) break;
        if (is_ident(t, "operator")) {
          ++j;
          if (j + 1 < code_.size() && is_punct(code_[j], "(") && is_punct(code_[j + 1], ")")) {
            j += 2;
          } else {
            while (j < code_.size() && code_[j].kind == TokKind::kPunct &&
                   !is_punct(code_[j], "(")) {
              ++j;
            }
          }
          continue;
        }
        if (is_punct(t, "(")) {
          params = j;
          break;
        }
        ++j;
      }
      if (params == 0) continue;
      j = skip_balanced(params);
      // Step over trailing specifiers / noexcept(...) / trailing return
      // type / a constructor init list, down to the body brace.
      bool found_body = false;
      while (j < code_.size()) {
        const Token& t = code_[j];
        if (is_punct(t, ";")) break;  // declaration only
        if (is_punct(t, "{")) {
          found_body = true;
          break;
        }
        if (is_punct(t, "(")) {
          j = skip_balanced(j);
          continue;
        }
        if (is_punct(t, ":")) {
          // Constructor init list: consume name (group) [, name (group)]*
          ++j;
          while (j < code_.size()) {
            while (j < code_.size() && !is_punct(code_[j], "(") &&
                   !is_punct(code_[j], "{") && !is_punct(code_[j], ";")) {
              ++j;
            }
            if (j >= code_.size() || is_punct(code_[j], ";")) break;
            j = skip_balanced(j);
            if (j < code_.size() && is_punct(code_[j], ",")) {
              ++j;
              continue;
            }
            break;
          }
          continue;
        }
        ++j;
      }
      if (!found_body || j >= code_.size()) continue;
      out.push_back(HotExtent{j, skip_balanced(j)});
    }
    return out;
  }

  /// Nearest identifier to the left of the access dot at `dot`, with
  /// trailing call/subscript groups stripped: `buckets_[i].push_back`
  /// resolves to `buckets_`.
  std::string receiver_of(std::size_t dot) const {
    std::size_t k = dot;
    while (k > 0) {
      --k;
      const Token& t = code_[k];
      if (is_punct(t, "]") || is_punct(t, ")")) {
        const std::string_view open = t.text == "]" ? "[" : "(";
        int depth = 0;
        while (k > 0) {
          if (code_[k].kind == TokKind::kPunct && code_[k].text == t.text) ++depth;
          if (code_[k].kind == TokKind::kPunct && code_[k].text == open && --depth == 0) break;
          --k;
        }
        continue;
      }
      if (t.kind == TokKind::kIdentifier) return t.text;
      return {};
    }
    return {};
  }

  /// True when `member` has a reserve() call (or definition) somewhere
  /// in this file — the tokenizer's stand-in for "growth is into
  /// reserved capacity".
  bool has_reserve(const std::string& member) const {
    for (std::size_t k = 0; k + 2 < code_.size(); ++k) {
      if (!is_ident(code_[k], member)) continue;
      if (is_punct(code_[k + 1], ".") && is_ident(code_[k + 2], "reserve")) return true;
      if (k + 3 < code_.size() && is_punct(code_[k + 1], "-") &&
          is_punct(code_[k + 2], ">") && is_ident(code_[k + 3], "reserve")) {
        return true;
      }
    }
    return false;
  }

  void hot_path_rules() {
    for (const HotExtent& ext : hot_extents()) {
      for (std::size_t k = ext.begin; k < ext.end; ++k) {
        const Token& t = code_[k];
        if (t.kind != TokKind::kIdentifier) continue;
        if (t.text == "std" && k + 2 < ext.end && is_punct(code_[k + 1], "::") &&
            is_ident(code_[k + 2], "function")) {
          add("hot-path-std-function", t.line,
              "std::function in a BUFQ_HOT body; use InlineAction or a template");
        }
        if (t.text == "new" && !(k + 1 < code_.size() && is_punct(code_[k + 1], "("))) {
          add("hot-path-allocation", t.line, "heap allocation in a BUFQ_HOT body");
        }
        if (contains(kAllocIdents, t.text)) {
          add("hot-path-allocation", t.line,
              "'" + t.text + "' allocates in a BUFQ_HOT body");
        }
        if (t.text == "throw") {
          add("hot-path-throw", t.line, "throw in a BUFQ_HOT body");
        }
        if (is_punct(code_[k - 1], ".") && contains(kGrowthMethods, t.text) &&
            k + 1 < ext.end && is_punct(code_[k + 1], "(")) {
          const std::string member = receiver_of(k - 1);
          if (member.empty() || !has_reserve(member)) {
            add("hot-path-container-growth", t.line,
                "'" + (member.empty() ? std::string{"?"} : member) + "." + t.text +
                    "' may allocate in a BUFQ_HOT body; reserve() it or suppress "
                    "with a reason");
          }
        }
      }
    }
  }

  FileContext ctx_;
  std::vector<Token> code_;
  std::vector<Token> directives_;
  std::vector<Suppression> suppressions_;
  std::vector<Finding> findings_;
};

}  // namespace

std::vector<Finding> lint_source(const FileContext& ctx, const std::string& source) {
  return FilePass{ctx, source}.run();
}

}  // namespace bufq::lint
