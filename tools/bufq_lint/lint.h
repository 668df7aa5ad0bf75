// bufq-lint: project-specific static analysis enforcing the
// determinism and hot-path contracts (DESIGN.md "Static analysis
// layer").
//
// The tool is compilation-database-driven when one is available (the
// compdb names the .cpp files actually built; headers are discovered by
// walking the tree) and falls back to a full tree walk otherwise, so a
// missing build directory can never silently skip the check.  The
// analysis itself runs on the tokenizer engine in rules.cpp; an
// optional libclang cross-check (libclang_check.py) re-derives the
// determinism findings from a real AST when clang bindings are
// installed.
//
// Rules (ids are what BUFQ_LINT_SUPPRESS takes):
//
//   determinism-wall-clock        wall-clock reads (system_clock,
//                                 steady_clock, ...) in result-affecting
//                                 directories
//   determinism-random-source     rand()/srand()/std::random_device/...
//   determinism-unordered-iteration  iterating an unordered container
//                                 (address-dependent order) in
//                                 result-affecting directories
//   determinism-shard-boundary    thread_local / volatile / atomics /
//                                 mutable statics in the parallel-engine
//                                 shard-boundary files, where all
//                                 cross-shard communication must flow
//                                 through BoundaryChannel + PhaseBarrier
//   hot-path-std-function         std::function inside a BUFQ_HOT body
//   hot-path-allocation           non-placement new / malloc /
//                                 make_unique / make_shared inside a
//                                 BUFQ_HOT body
//   hot-path-throw                throw inside a BUFQ_HOT body
//   hot-path-container-growth     push_back/insert/resize/... inside a
//                                 BUFQ_HOT body on a member with no
//                                 reserve() call in the same file
//   hygiene-pragma-once           header missing #pragma once
//   hygiene-include-order         own header first, then <system>, then
//                                 "project" includes
//   hygiene-bad-suppression       BUFQ_LINT_SUPPRESS naming an unknown
//                                 rule or an empty reason
//   hygiene-unused-suppression    BUFQ_LINT_SUPPRESS that silenced
//                                 nothing
#pragma once

#include <filesystem>
#include <string>
#include <vector>

namespace bufq::lint {

struct Finding {
  std::string rule;
  std::string file;  // root-relative, forward slashes
  int line = 0;
  std::string message;
};

/// Path-derived scope for one file.
struct FileContext {
  std::string path;  // root-relative
  bool header = false;
  /// True under src/{sim,sched,core,net,fabric,expt,traffic,admission}:
  /// the result-affecting subsystems where the determinism rules apply.
  bool determinism_scope = false;
  /// True for the parallel engine's shard-boundary files
  /// (src/{sim,fabric}/parallel*, src/{sim,fabric}/shard*): shared
  /// mutable state there breaks the bit-identical contract, so the
  /// determinism-shard-boundary rule applies.
  bool shard_scope = false;
};

/// Derives the per-file scope flags from a root-relative path.
FileContext classify(const std::string& rel_path);

/// All rule ids, sorted; suppressions must name one of these.
const std::vector<std::string>& known_rules();

/// Runs every rule pass over one in-memory source file and applies its
/// BUFQ_LINT_SUPPRESS annotations.  Findings are sorted by line.
std::vector<Finding> lint_source(const FileContext& ctx, const std::string& source);

struct Options {
  std::filesystem::path root;          // repo root (contains src/, tools/)
  std::vector<std::string> files;      // explicit root-relative paths; empty = discover
  std::filesystem::path compdb;        // optional compile_commands.json
  std::filesystem::path baseline;      // optional baseline to subtract
  bool fixture_mode = false;           // lint every .h/.cpp under root
};

struct Result {
  std::vector<Finding> findings;  // after baseline subtraction, sorted
  std::size_t files_checked = 0;
  std::vector<std::string> notes;  // engine/fallback notices for the log
};

Result run(const Options& options);

/// Serializes findings in the baseline format (rule, path, and a hash
/// of the flagged line's text, so baselines survive unrelated edits).
std::string to_baseline(const std::vector<Finding>& findings,
                        const std::filesystem::path& root);

}  // namespace bufq::lint
