// The benchmark's pure helpers: argument checking, percentiles, the output
// digest and guarantee checks, reference files and the result line.
#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "util.h"
#include "workloads.h"

namespace perfbench {
namespace {

bool rejected(std::vector<std::string> argv, Args& out, unsigned cpus = 4) {
  return parse_args(argv, cpus, out).has_value();
}

TEST(ParseArgs, AcceptsNameValuePairs) {
  Args args;
  ASSERT_FALSE(rejected(
      {"--workload", "churn", "--seed", "7", "--seconds", "10", "--trace", "1"}, args));
  EXPECT_EQ(args.workload, "churn");
  EXPECT_EQ(args.seed, 7u);
  EXPECT_EQ(args.seconds, 10);
  EXPECT_TRUE(args.trace);
  EXPECT_EQ(args.shards, 0);
}

TEST(ParseArgs, RejectsUnknownWorkloads) {
  Args args;
  const auto error = parse_args({"--workload", "fat_tree"}, 4, args);
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("unknown workload 'fat_tree'"), std::string::npos);
  EXPECT_TRUE(rejected({"--seed", "1"}, args)) << "a workload is required";
}

TEST(ParseArgs, RejectsNonNumericAndOutOfRangeSeeds) {
  Args args;
  for (const char* bad :
       {"abc", "-1", "1.5", "", " 1", "1x", "4294967296", "99999999999999999999999"}) {
    const auto error = parse_args({"--workload", "churn", "--seed", bad}, 4, args);
    ASSERT_TRUE(error.has_value()) << "seed '" << bad << "'";
    EXPECT_NE(error->find("--seed"), std::string::npos);
  }
  EXPECT_FALSE(rejected({"--workload", "churn", "--seed", "4294967295"}, args));
  EXPECT_FALSE(rejected({"--workload", "churn", "--seed", "0"}, args));
}

TEST(ParseArgs, RejectsShardCountsAboveTheCpuCount) {
  Args args;
  EXPECT_FALSE(rejected({"--workload", "leaf_spine_sharded", "--shards", "4"}, args, 4));
  EXPECT_EQ(args.shards, 4);
  for (const char* bad : {"5", "0", "two", "-4"}) {
    const auto error = parse_args({"--workload", "leaf_spine_sharded", "--shards", bad}, 4, args);
    ASSERT_TRUE(error.has_value()) << "shards '" << bad << "'";
    EXPECT_NE(error->find("--shards"), std::string::npos);
  }
  EXPECT_TRUE(rejected({"--workload", "leaf_spine", "--shards", "2"}, args, 4))
      << "only the sharded workload takes a shard count";
}

TEST(ParseArgs, RejectsMalformedFlags) {
  Args args;
  EXPECT_TRUE(rejected({"--workload", "churn", "--seconds", "0"}, args));
  EXPECT_TRUE(rejected({"--workload", "churn", "--seconds", "601"}, args));
  EXPECT_TRUE(rejected({"--workload", "churn", "--trace", "2"}, args));
  EXPECT_TRUE(rejected({"--workload", "churn", "--seed"}, args));
  EXPECT_TRUE(rejected({"--workload", "churn", "--jobs", "4"}, args));
}

TEST(Percentile, InterpolatesLinearlyBetweenRanks) {
  EXPECT_EQ(percentile({}, 0.5), 0.0);
  EXPECT_EQ(percentile({3.0}, 0.9), 3.0);
  EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5);
  std::vector<double> ten;
  for (int i = 1; i <= 10; ++i) ten.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(ten, 0.9), 9.1);
  EXPECT_DOUBLE_EQ(percentile(ten, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(ten, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(median({5.0, 1.0, 9.0}), 5.0);
}

TEST(Digest, IsFnv1aOverLittleEndianWords) {
  const Digest empty;
  EXPECT_EQ(empty.value(), 14695981039346656037ull);
  Digest a;
  a.mix(1);
  Digest b;
  b.mix(1);
  EXPECT_EQ(a.value(), b.value());
  b.mix(0);
  EXPECT_NE(a.value(), b.value());
}

RunOutput sample_output() {
  RunOutput out;
  out.per_flow.resize(3);
  out.per_flow[0] = bufq::FlowCounters{1000, 900, 100, 2, 1, 1};
  out.per_flow[2] = bufq::FlowCounters{500, 500, 0, 1, 1, 0};
  out.extra = {42};
  return out;
}

TEST(DigestOf, ChangesWithEveryCounterAndWithOrder) {
  const std::vector<RunOutput> base{sample_output(), RunOutput{}};
  const std::uint64_t reference = digest_of(base);
  EXPECT_EQ(digest_of(base), reference);
  EXPECT_NE(digest_of({base[1], base[0]}), reference);

  for (int field = 0; field < 6; ++field) {
    std::vector<RunOutput> changed = base;
    bufq::FlowCounters& c = changed[0].per_flow[2];
    switch (field) {
      case 0: ++c.offered_bytes; break;
      case 1: ++c.delivered_bytes; break;
      case 2: ++c.dropped_bytes; break;
      case 3: ++c.offered_packets; break;
      case 4: ++c.delivered_packets; break;
      default: ++c.dropped_packets; break;
    }
    EXPECT_NE(digest_of(changed), reference) << "field " << field;
  }
  std::vector<RunOutput> extra = base;
  extra[0].extra[0] = 43;
  EXPECT_NE(digest_of(extra), reference);
  std::vector<RunOutput> violated = base;
  violated[0].check_violations = 1;
  EXPECT_NE(digest_of(violated), reference);
  std::vector<RunOutput> failed = base;
  failed[1].error = "boom";
  EXPECT_NE(digest_of(failed), reference);
}

TEST(GuaranteeFailure, FlagsEachBrokenGuarantee) {
  RunOutput ok = sample_output();
  ok.lossless = {2};
  EXPECT_EQ(guarantee_failure({ok}), "");

  RunOutput lost = ok;
  lost.lossless = {0};
  EXPECT_NE(guarantee_failure({ok, lost}).find("protected flow 0 lost 1 packets"),
            std::string::npos);

  RunOutput churn = ok;
  churn.conformant_drops = 3;
  EXPECT_NE(guarantee_failure({churn}), "");

  RunOutput violated = ok;
  violated.check_violations = 2;
  EXPECT_NE(guarantee_failure({violated}), "");

  RunOutput thrown = ok;
  thrown.error = "boom";
  EXPECT_NE(guarantee_failure({thrown}).find("boom"), std::string::npos);
}

TEST(Reference, FindsTheScenarioAndSeed) {
  const std::string path = "perfbench_reference_test.txt";
  {
    std::ofstream out{path};
    out << "# comment line\n"
        << "paper_sweep 1 00000000000000ff  # trailing comment\n"
        << "\n"
        << "leaf_spine 1 deadbeefdeadbeef\n";
  }
  EXPECT_EQ(load_reference(path, "paper_sweep", 1), std::optional<std::uint64_t>{0xffu});
  EXPECT_EQ(load_reference(path, "leaf_spine", 1),
            std::optional<std::uint64_t>{0xdeadbeefdeadbeefull});
  EXPECT_FALSE(load_reference(path, "leaf_spine", 2).has_value());
  EXPECT_FALSE(load_reference(path, "churn", 1).has_value());
  {
    std::ofstream out{path};
    out << "churn one 12\n";
  }
  EXPECT_THROW((void)load_reference(path, "churn", 1), std::runtime_error);
  EXPECT_THROW((void)load_reference("no/such/file.txt", "churn", 1), std::runtime_error);
  EXPECT_EQ(hex64(0xffu), "00000000000000ff");
}

TEST(ResultJson, HasExactlyTheContractKeys) {
  const std::string json =
      result_json(true, 12, 0,
                  {{"setup_s", 0.25, "s"}, {"x", std::numeric_limits<double>::infinity(), "ms"}});
  EXPECT_EQ(json,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": "
            "{\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, "
            "\"x\": {\"value\": 0, \"unit\": \"ms\"}}}");
}

}  // namespace
}  // namespace perfbench
