// Golden-state regression corpus: component-wise checkpoint digests for
// three canonical scenarios, committed under tests/golden/.  Each run
// re-derives the digests (section name -> CRC32 of the serialized state
// at a fixed event count) and compares them to the committed files, so
// any unintended change to a component's trajectory *or* its serialized
// layout is caught and attributed to the section that moved.
//
// The `checker` section records how many invariant checks ran, which is
// zero unless checks are compiled in, so builds with BUFQ_CHECKS_ENABLED
// compare against their own corpus, <name>.checks.digest; every section
// is compared in both build flavours.
//
// To regenerate after an intentional change, in each build flavour:
//   BUFQ_UPDATE_GOLDEN=1 ctest -R GoldenState
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "check/invariants.h"
#include "expt/experiment.h"
#include "expt/workloads.h"
#include "fabric/scenario.h"
#include "sim/checkpoint.h"

namespace bufq {
namespace {

/// Digests are pinned at a fixed mid-run event count so they cover a
/// non-trivial amount of trajectory without depending on run length.
constexpr std::uint64_t kGoldenEvents = 30'000;

using Digests = std::map<std::string, std::uint32_t>;

std::string golden_path(const std::string& name) {
  constexpr const char* kSuffix = BUFQ_CHECKS_ENABLED ? ".checks.digest" : ".digest";
  return std::string{BUFQ_GOLDEN_DIR} + "/" + name + kSuffix;
}

std::string render(const Digests& digests) {
  std::ostringstream out;
  for (const auto& [section, crc] : digests) {
    out << section << " " << std::hex << crc << std::dec << "\n";
  }
  return out.str();
}

Digests parse(std::istream& in) {
  Digests digests;
  std::string section;
  std::string crc;
  while (in >> section >> crc) {
    digests[section] = static_cast<std::uint32_t>(std::stoul(crc, nullptr, 16));
  }
  return digests;
}

void expect_matches_golden(const std::string& name, const Digests& derived) {
  const std::string path = golden_path(name);
  if (std::getenv("BUFQ_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out{path};
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << render(derived);
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in{path};
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — run with BUFQ_UPDATE_GOLDEN=1 to create it";
  const Digests golden = parse(in);
  EXPECT_EQ(derived.size(), golden.size()) << "section set changed for " << name;
  for (const auto& [section, crc] : golden) {
    const auto it = derived.find(section);
    if (it == derived.end()) {
      ADD_FAILURE() << name << ": committed section '" << section << "' no longer serialized";
      continue;
    }
    EXPECT_EQ(it->second, crc) << name << ": state digest moved for section '" << section
                               << "' — the component's trajectory or layout changed";
  }
  for (const auto& [section, crc] : derived) {
    EXPECT_TRUE(golden.contains(section))
        << name << ": new section '" << section << "' not in the committed corpus";
  }
}

ExperimentConfig canonical_config(SchedulerKind scheduler, ManagerKind manager) {
  ExperimentConfig config;
  config.link_rate = paper_link_rate();
  config.buffer = ByteSize::megabytes(1.0);
  config.flows = table1_flows();
  config.scheme.scheduler = scheduler;
  config.scheme.manager = manager;
  config.warmup = Time::from_seconds(0.5);
  config.duration = Time::from_seconds(1.0);
  config.seed = 1;
  config.record_delays = true;
  return config;
}

Digests experiment_digests(const ExperimentConfig& config) {
  CheckpointTrigger trigger;
  trigger.events = kGoldenEvents;
  const CheckpointedRun run = experiment_harness(config).finish_with_checkpoint(trigger);
  return checkpoint_section_digests(run.checkpoint);
}

TEST(GoldenStateTest, Table1FifoThreshold) {
  expect_matches_golden(
      "table1_fifo_threshold",
      experiment_digests(canonical_config(SchedulerKind::kFifo, ManagerKind::kThreshold)));
}

TEST(GoldenStateTest, Table1WfqSharing) {
  expect_matches_golden(
      "table1_wfq_sharing",
      experiment_digests(canonical_config(SchedulerKind::kWfq, ManagerKind::kSharing)));
}

TEST(GoldenStateTest, FabricParkingLot) {
  fabric::FabricConfig config;
  config.topology = fabric::FabricTopologyKind::kParkingLot;
  config.size = 3;
  config.warmup = Time::from_seconds(0.5);
  config.duration = Time::from_seconds(1.0);
  config.seed = 1;

  CheckpointTrigger trigger;
  trigger.events = kGoldenEvents;
  const fabric::FabricScenario sc = fabric::build_fabric_scenario(config);
  const CheckpointedRun run = fabric::fabric_harness(config, sc).finish_with_checkpoint(trigger);
  expect_matches_golden("fabric_parking_lot", checkpoint_section_digests(run.checkpoint));
}

}  // namespace
}  // namespace bufq
