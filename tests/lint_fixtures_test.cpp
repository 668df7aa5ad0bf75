// Drives the bufq-lint rule passes over tests/lint_fixtures/: every
// fixture file carries `LINT[rule-id]` markers on the lines it expects
// findings at, so this suite pins each rule's id AND the exact line it
// anchors to.  Marker-free fixtures are clean controls (valid
// suppressions, out-of-scope directories, reserved growth) and must
// produce zero findings.
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bufq_lint/lint.h"

namespace bufq::lint {
namespace {

namespace fs = std::filesystem;

fs::path fixtures_root() { return fs::path{BUFQ_LINT_FIXTURES_DIR}; }

/// (rule, line) pairs declared by `LINT[rule-id]` markers in one file.
std::multiset<std::pair<std::string, int>> expected_markers(const fs::path& file) {
  std::multiset<std::pair<std::string, int>> expected;
  std::ifstream in{file};
  std::string line;
  for (int number = 1; std::getline(in, line); ++number) {
    std::size_t pos = 0;
    while ((pos = line.find("LINT[", pos)) != std::string::npos) {
      pos += 5;
      const std::size_t end = line.find(']', pos);
      EXPECT_NE(end, std::string::npos) << file << ":" << number << ": unterminated marker";
      if (end == std::string::npos) break;
      expected.emplace(line.substr(pos, end - pos), number);
    }
  }
  return expected;
}

Result lint_fixtures() {
  Options options;
  options.root = fixtures_root();
  options.fixture_mode = true;
  return run(options);
}

TEST(LintFixtures, CorpusIsPresent) {
  ASSERT_TRUE(fs::is_directory(fixtures_root()))
      << "fixture directory missing: " << fixtures_root();
  EXPECT_GE(lint_fixtures().files_checked, 16u);
}

TEST(LintFixtures, EveryFileMatchesItsMarkersExactly) {
  const Result result = lint_fixtures();
  std::map<std::string, std::multiset<std::pair<std::string, int>>> actual;
  for (const Finding& f : result.findings) {
    actual[f.file].emplace(f.rule, f.line);
  }
  std::size_t files_seen = 0;
  for (const auto& entry : fs::recursive_directory_iterator{fixtures_root()}) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".h" && ext != ".cpp") continue;
    ++files_seen;
    const std::string rel =
        fs::relative(entry.path(), fixtures_root()).generic_string();
    const auto expected = expected_markers(entry.path());
    const auto it = actual.find(rel);
    const auto got = it == actual.end()
                         ? std::multiset<std::pair<std::string, int>>{}
                         : it->second;
    std::ostringstream diff;
    for (const auto& [rule, line] : expected) diff << "  expected " << rule << " @" << line << '\n';
    for (const auto& [rule, line] : got) diff << "  actual   " << rule << " @" << line << '\n';
    EXPECT_EQ(got, expected) << rel << " finding mismatch:\n" << diff.str();
  }
  EXPECT_GE(files_seen, 16u);
}

TEST(LintFixtures, CorpusCoversEveryRule) {
  std::set<std::string> covered;
  for (const auto& entry : fs::recursive_directory_iterator{fixtures_root()}) {
    if (!entry.is_regular_file()) continue;
    for (const auto& [rule, line] : expected_markers(entry.path())) covered.insert(rule);
  }
  for (const std::string& rule : known_rules()) {
    EXPECT_TRUE(covered.count(rule) != 0) << "no fixture exercises rule " << rule;
  }
}

TEST(LintFixtures, SuppressionSilencesAndCountsAsUsed) {
  // The positive control: a real violation plus a valid suppression must
  // yield zero findings (neither the violation nor an unused-suppression
  // complaint).  Pinned here explicitly, independent of the marker scan.
  const Result result = lint_fixtures();
  for (const Finding& f : result.findings) {
    EXPECT_NE(f.file, "src/sim/suppressed_wall_clock_fixture.cpp") << f.rule;
    EXPECT_NE(f.file, "src/obs/out_of_scope_fixture.cpp") << f.rule;
    EXPECT_NE(f.file, "src/sim/reserved_growth_fixture.cpp") << f.rule;
    EXPECT_NE(f.file, "src/sim/shard_clean_fixture.cpp") << f.rule;
  }
}

TEST(LintFixtures, TwelveRulesAreKnown) {
  EXPECT_EQ(known_rules().size(), 12u);
}

}  // namespace
}  // namespace bufq::lint
