// Checkpoint substrate tests: format round trips, typed-error fuzzing
// (truncation, bit flips, version skew, wrong scenario), and component
// save/load — plus end-to-end resume_experiment equivalence on a small
// Table-1 run.
#include "sim/checkpoint.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "admission/admission_controller.h"
#include "admission/dynamic_manager.h"
#include "admission/flow_table.h"
#include "core/sharing.h"
#include "expt/experiment.h"
#include "expt/workloads.h"
#include "fabric/scenario.h"
#include "sim/simulator.h"
#include "traffic/aimd.h"
#include "util/rng.h"

namespace bufq {
namespace {

constexpr std::uint64_t kFingerprint = 0xABCDEF0123456789ull;

std::vector<std::byte> sample_blob() {
  CheckpointWriter w;
  w.begin_section("alpha");
  w.write_bool(true);
  w.write_u8(7);
  w.write_u32(0xDEADBEEF);
  w.write_u64(0x0123456789ABCDEFull);
  w.write_i64(-42);
  w.write_f64(3.141592653589793);
  w.write_time(Time::milliseconds(125));
  w.write_string("hello checkpoint");
  w.end_section();
  w.begin_section("beta");
  w.write_u64_vector({1, 2, 3});
  w.write_i64_vector({-1, 0, 1});
  w.end_section();
  return w.finish(kFingerprint);
}

TEST(CheckpointFormatTest, PrimitiveRoundTrip) {
  const auto blob = sample_blob();
  CheckpointReader r{blob};
  r.require_scenario(kFingerprint);
  EXPECT_EQ(r.scenario_fingerprint(), kFingerprint);

  r.begin_section("alpha");
  EXPECT_TRUE(r.read_bool());
  EXPECT_EQ(r.read_u8(), 7);
  EXPECT_EQ(r.read_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.read_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.read_i64(), -42);
  EXPECT_EQ(r.read_f64(), 3.141592653589793);
  EXPECT_EQ(r.read_time(), Time::milliseconds(125));
  EXPECT_EQ(r.read_string(), "hello checkpoint");
  r.end_section();

  r.begin_section("beta");
  EXPECT_EQ(r.read_u64_vector(), (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(r.read_i64_vector(), (std::vector<std::int64_t>{-1, 0, 1}));
  r.end_section();
  EXPECT_TRUE(r.exhausted());
}

TEST(CheckpointFormatTest, SectionNameMismatchThrows) {
  const auto blob = sample_blob();
  CheckpointReader r{blob};
  EXPECT_THROW(r.begin_section("omega"), CheckpointFormatError);
}

TEST(CheckpointFormatTest, TypeTagMismatchThrows) {
  const auto blob = sample_blob();
  CheckpointReader r{blob};
  r.begin_section("alpha");
  EXPECT_THROW((void)r.read_u64(), CheckpointFormatError);  // actually a bool
}

TEST(CheckpointFormatTest, ScenarioMismatchThrows) {
  const auto blob = sample_blob();
  CheckpointReader r{blob};
  EXPECT_THROW(r.require_scenario(kFingerprint + 1), CheckpointScenarioError);
}

TEST(CheckpointFormatTest, VersionMismatchThrows) {
  auto blob = sample_blob();
  // Header layout: magic[8] | u32 version | ...; the version is outside
  // the payload CRC, so skew must be caught by its own check.
  blob[8] = static_cast<std::byte>(static_cast<std::uint8_t>(blob[8]) ^ 0x40u);
  EXPECT_THROW(CheckpointReader{blob}, CheckpointVersionError);
}

TEST(CheckpointFuzzTest, EveryTruncationThrowsTypedError) {
  const auto blob = sample_blob();
  for (std::size_t len = 0; len < blob.size(); ++len) {
    const std::span<const std::byte> cut{blob.data(), len};
    EXPECT_THROW(CheckpointReader{cut}, CheckpointError) << "length " << len;
  }
}

TEST(CheckpointFuzzTest, EverySingleByteFlipIsCaught) {
  const auto blob = sample_blob();
  for (std::size_t i = 0; i < blob.size(); ++i) {
    auto corrupt = blob;
    corrupt[i] = static_cast<std::byte>(static_cast<std::uint8_t>(corrupt[i]) ^ 0xA5u);
    // Header damage surfaces in the constructor; a flipped fingerprint
    // only at require_scenario; payload damage as a CRC mismatch.  Either
    // way no flip may slip through unnoticed.
    EXPECT_THROW(
        {
          CheckpointReader r{corrupt};
          r.require_scenario(kFingerprint);
        },
        CheckpointError)
        << "byte " << i;
  }
}

TEST(CheckpointFuzzTest, PayloadFlipIsSpecificallyACrcError) {
  auto blob = sample_blob();
  const std::size_t last = blob.size() - 1;  // deep inside the payload
  blob[last] = static_cast<std::byte>(static_cast<std::uint8_t>(blob[last]) ^ 0xFFu);
  EXPECT_THROW(CheckpointReader{blob}, CheckpointCrcError);
}

TEST(CheckpointFileTest, FileRoundTripAndMissingFile) {
  const auto blob = sample_blob();
  const std::string path = testing::TempDir() + "/bufq_checkpoint_roundtrip.bufq";
  write_checkpoint_file(path, blob);
  EXPECT_EQ(read_checkpoint_file(path), blob);
  std::remove(path.c_str());
  EXPECT_THROW((void)read_checkpoint_file(path), CheckpointFormatError);
}

TEST(CheckpointDigestTest, SectionDigestsAreNamedAndStable) {
  const auto digests = checkpoint_section_digests(sample_blob());
  ASSERT_EQ(digests.size(), 2u);
  EXPECT_TRUE(digests.contains("alpha"));
  EXPECT_TRUE(digests.contains("beta"));
  EXPECT_EQ(digests, checkpoint_section_digests(sample_blob()));

  // Different content, different digest for the touched section only.
  CheckpointWriter w;
  w.begin_section("alpha");
  w.write_bool(false);
  w.end_section();
  w.begin_section("beta");
  w.write_u64_vector({1, 2, 3});
  w.write_i64_vector({-1, 0, 1});
  w.end_section();
  const auto other = checkpoint_section_digests(w.finish(kFingerprint));
  EXPECT_NE(other.at("alpha"), digests.at("alpha"));
  EXPECT_EQ(other.at("beta"), digests.at("beta"));
}

TEST(FingerprintTest, SensitiveToEveryMixedField) {
  FingerprintHasher a;
  a.mix_string("expt");
  a.mix_f64(48e6);
  FingerprintHasher b;
  b.mix_string("expt");
  b.mix_f64(48e6 + 1.0);
  EXPECT_NE(a.digest(), b.digest());

  // Order matters: (1, 2) != (2, 1).
  FingerprintHasher c;
  c.mix_u64(1);
  c.mix_u64(2);
  FingerprintHasher d;
  d.mix_u64(2);
  d.mix_u64(1);
  EXPECT_NE(c.digest(), d.digest());
}

// --- Component save/load ---------------------------------------------------

/// Save -> restore into a fresh instance -> save again must reproduce the
/// exact bytes: the strongest statement a unit test can make without
/// reaching into private state.
template <typename Component>
void expect_state_round_trips(const Component& original, Component& fresh) {
  CheckpointWriter w1;
  original.save_state(w1);
  const auto blob = w1.finish(kFingerprint);

  CheckpointReader r{blob};
  fresh.restore_state(r);
  EXPECT_TRUE(r.exhausted());

  CheckpointWriter w2;
  fresh.save_state(w2);
  EXPECT_EQ(w2.finish(kFingerprint), blob);
}

TEST(FlowTableCheckpointTest, StateRoundTripsThroughFreshTable) {
  admission::FlowTable table{4};
  const FlowSpec small{.rho = Rate::megabits_per_second(2.0), .sigma = ByteSize::kilobytes(50.0)};
  const FlowSpec big{.rho = Rate::megabits_per_second(8.0), .sigma = ByteSize::kilobytes(100.0)};
  const auto h0 = table.admit(small, 60'000);
  const auto h1 = table.admit(big, 120'000);
  const auto h2 = table.admit(small, 60'000);
  table.add_occupancy(h1.slot, 4'000);
  table.teardown(h0);                      // slot 0 joins the free list
  const auto h3 = table.admit(big, 90'000);  // recycles slot 0, new generation
  static_cast<void>(h2);
  static_cast<void>(h3);

  admission::FlowTable fresh{4};
  expect_state_round_trips(table, fresh);
  EXPECT_EQ(fresh.active_count(), table.active_count());
  EXPECT_EQ(fresh.occupancy(h1.slot), 4'000);
  EXPECT_TRUE(fresh.valid(h3));
  EXPECT_FALSE(fresh.valid(h0));
}

TEST(AdmissionControllerCheckpointTest, StateRoundTripsThroughFreshController) {
  admission::AdmissionController::Config config;
  config.scheme = admission::Scheme::kFifoThreshold;
  config.link_rate = paper_link_rate();
  config.buffer = ByteSize::megabytes(2.0);
  admission::AdmissionController controller{config};
  const FlowSpec spec{.rho = Rate::megabits_per_second(4.0), .sigma = ByteSize::kilobytes(80.0)};
  ASSERT_EQ(controller.try_admit(spec), AdmissionVerdict::kAccepted);
  ASSERT_EQ(controller.try_admit(spec), AdmissionVerdict::kAccepted);
  controller.release(spec);

  admission::AdmissionController fresh{config};
  expect_state_round_trips(controller, fresh);
  EXPECT_EQ(fresh.required_buffer_bytes(), controller.required_buffer_bytes());
}

/// A `bm` section as BufferSharingManager lays it out, with the holes and
/// headroom given explicitly.
std::vector<std::byte> sharing_section(const std::vector<std::int64_t>& per_flow,
                                       std::int64_t total, std::int64_t holes,
                                       std::int64_t headroom) {
  CheckpointWriter w;
  w.begin_section("bm");
  w.write_i64_vector(per_flow);
  w.write_i64(total);
  w.write_u64(0);  // admit count
  w.write_i64(holes);
  w.write_i64(headroom);
  w.end_section();
  return w.finish(kFingerprint);
}

/// A `bm.dynamic` section with the holes and headroom given explicitly.
std::vector<std::byte> dynamic_section(std::int64_t total, std::int64_t holes,
                                       std::int64_t headroom) {
  CheckpointWriter w;
  w.begin_section("bm.dynamic");
  w.write_i64(total);
  w.write_i64(holes);
  w.write_i64(headroom);
  w.end_section();
  return w.finish(kFingerprint);
}

BufferSharingManager sharing_manager() {
  return BufferSharingManager{ByteSize::bytes(10'000), std::vector<std::int64_t>{2'000, 8'000},
                              ByteSize::bytes(3'000)};
}

TEST(SharingCheckpointTest, DerivedPoolsRoundTrip) {
  BufferSharingManager mgr = sharing_manager();
  ASSERT_TRUE(mgr.try_admit(0, 2'000, Time::zero()));
  ASSERT_TRUE(mgr.try_admit(1, 5'500, Time::zero()));
  BufferSharingManager fresh = sharing_manager();
  expect_state_round_trips(mgr, fresh);
  EXPECT_EQ(fresh.holes(), mgr.holes());
  EXPECT_EQ(fresh.headroom(), mgr.headroom());
}

TEST(SharingCheckpointTest, PoolsDisagreeingWithTotalAreRejected) {
  // 7.5 KB held of 10 KB with H = 3 KB: the pools must be 0 holes and
  // 2.5 KB headroom.
  {
    BufferSharingManager mgr = sharing_manager();
    const auto blob = sharing_section({2'000, 5'500}, 7'500, 0, 2'500);
    CheckpointReader r{blob};
    EXPECT_NO_THROW(mgr.restore_state(r));
    EXPECT_EQ(mgr.headroom(), 2'500);
  }
  for (const auto& [holes, headroom] :
       std::vector<std::pair<std::int64_t, std::int64_t>>{{500, 2'000}, {0, 3'000}, {1, 2'500}}) {
    BufferSharingManager mgr = sharing_manager();
    const auto blob = sharing_section({2'000, 5'500}, 7'500, holes, headroom);
    CheckpointReader r{blob};
    EXPECT_THROW(mgr.restore_state(r), CheckpointFormatError)
        << "holes " << holes << " headroom " << headroom;
  }
}

TEST(DynamicManagerCheckpointTest, DerivedPoolsRoundTrip) {
  admission::FlowTable table{4};
  const FlowSpec spec{.rho = Rate::megabits_per_second(2.0), .sigma = ByteSize::kilobytes(1.0)};
  const auto h = table.admit(spec, 8'000);
  admission::DynamicBufferManager mgr{ByteSize::bytes(10'000), table,
                                      admission::DynamicBufferManager::Policy::kSharing,
                                      ByteSize::bytes(3'000)};
  ASSERT_TRUE(mgr.try_admit(static_cast<FlowId>(h.slot), 7'500, Time::zero()));
  admission::DynamicBufferManager fresh{ByteSize::bytes(10'000), table,
                                        admission::DynamicBufferManager::Policy::kSharing,
                                        ByteSize::bytes(3'000)};
  expect_state_round_trips(mgr, fresh);
  EXPECT_EQ(fresh.total_occupancy(), 7'500);
  EXPECT_EQ(fresh.holes(), 0);
  EXPECT_EQ(fresh.headroom(), 2'500);
}

TEST(DynamicManagerCheckpointTest, PoolsDisagreeingWithTotalAreRejected) {
  admission::FlowTable table{4};
  for (const auto policy : {admission::DynamicBufferManager::Policy::kThreshold,
                            admission::DynamicBufferManager::Policy::kSharing}) {
    admission::DynamicBufferManager mgr{ByteSize::bytes(10'000), table, policy,
                                        ByteSize::bytes(3'000)};
    {
      const auto blob = dynamic_section(4'000, 3'000, 3'000);
      CheckpointReader r{blob};
      EXPECT_NO_THROW(mgr.restore_state(r));
    }
    // The pools of an empty buffer next to a non-empty total.
    const auto blob = dynamic_section(4'000, 7'000, 3'000);
    CheckpointReader r{blob};
    EXPECT_THROW(mgr.restore_state(r), CheckpointFormatError);
  }
}

/// Counts what the AIMD source emits.
struct CountingSink final : PacketSink {
  std::uint64_t packets{0};
  std::int64_t bytes{0};
  void accept(const Packet& p) override {
    ++packets;
    bytes += p.size_bytes;
  }
};

TEST(AimdCheckpointTest, RestoredSourceContinuesIdentically) {
  AimdSource::Params params;
  params.initial_rate = Rate::megabits_per_second(4.0);
  params.floor_rate = Rate::megabits_per_second(1.0);
  params.ceiling_rate = Rate::megabits_per_second(40.0);
  params.additive_increase = Rate::megabits_per_second(1.0);

  const Time checkpoint_at = Time::milliseconds(200);
  const Time horizon = Time::milliseconds(600);

  // Reference: uninterrupted run.
  Simulator ref_sim;
  CountingSink ref_sink;
  AimdSource ref{ref_sim, ref_sink, params};
  ref.start();
  ref_sim.run_until(horizon);

  // Checkpointed run: snapshot at checkpoint_at, restore into a fresh
  // simulator + source, continue to the same horizon.
  std::vector<std::byte> blob;
  CountingSink before;
  {
    Simulator sim;
    AimdSource source{sim, before, params};
    source.start();
    sim.run_until(checkpoint_at);
    CheckpointWriter w;
    sim.save_state(w);
    source.save_state(w);
    blob = w.finish(kFingerprint);
  }
  Simulator sim;
  CountingSink after;
  AimdSource source{sim, after, params};
  CheckpointReader r{blob};
  const std::uint64_t expected_pending = sim.restore_state(r);
  source.restore_state(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(sim.events_pending(), expected_pending);
  sim.run_until(horizon);

  EXPECT_EQ(before.packets + after.packets, ref_sink.packets);
  EXPECT_EQ(before.bytes + after.bytes, ref_sink.bytes);
  EXPECT_EQ(source.current_rate().bps(), ref.current_rate().bps());
  EXPECT_EQ(sim.events_processed(), ref_sim.events_processed());
}

// --- End-to-end experiment resume ------------------------------------------

ExperimentConfig small_table1_config() {
  ExperimentConfig config;
  config.link_rate = paper_link_rate();
  config.buffer = ByteSize::megabytes(1.0);
  config.flows = table1_flows();
  config.scheme.scheduler = SchedulerKind::kFifo;
  config.scheme.manager = ManagerKind::kThreshold;
  config.warmup = Time::from_seconds(0.3);
  config.duration = Time::from_seconds(0.7);
  config.seed = 7;
  config.record_delays = true;
  return config;
}

void expect_identical_results(const ExperimentResult& a, const ExperimentResult& b) {
  ASSERT_EQ(a.per_flow.size(), b.per_flow.size());
  for (std::size_t f = 0; f < a.per_flow.size(); ++f) {
    EXPECT_EQ(a.per_flow[f].offered_bytes, b.per_flow[f].offered_bytes) << "flow " << f;
    EXPECT_EQ(a.per_flow[f].delivered_bytes, b.per_flow[f].delivered_bytes) << "flow " << f;
    EXPECT_EQ(a.per_flow[f].dropped_bytes, b.per_flow[f].dropped_bytes) << "flow " << f;
    EXPECT_EQ(a.per_flow[f].offered_packets, b.per_flow[f].offered_packets) << "flow " << f;
    EXPECT_EQ(a.per_flow[f].delivered_packets, b.per_flow[f].delivered_packets) << "flow " << f;
    EXPECT_EQ(a.per_flow[f].dropped_packets, b.per_flow[f].dropped_packets) << "flow " << f;
  }
  ASSERT_EQ(a.delays.size(), b.delays.size());
  for (std::size_t f = 0; f < a.delays.size(); ++f) {
    EXPECT_EQ(a.delays[f].mean_s, b.delays[f].mean_s) << "flow " << f;
    EXPECT_EQ(a.delays[f].max_s, b.delays[f].max_s) << "flow " << f;
    EXPECT_EQ(a.delays[f].p50_s, b.delays[f].p50_s) << "flow " << f;
    EXPECT_EQ(a.delays[f].p99_s, b.delays[f].p99_s) << "flow " << f;
    EXPECT_EQ(a.delays[f].packets, b.delays[f].packets) << "flow " << f;
  }
  EXPECT_EQ(a.interval, b.interval);
  EXPECT_EQ(a.checks_run, b.checks_run);
  EXPECT_EQ(a.check_violations, b.check_violations);
}

TEST(ExperimentCheckpointTest, TriggeredRunMatchesPlainRun) {
  const auto config = small_table1_config();
  const ExperimentResult plain = run_experiment(config);
  const CheckpointedRun run = run_experiment_with_checkpoint(config);
  // The trigger never schedules an event, so the completed run is the
  // same trajectory.
  expect_identical_results(plain, run.result);
  EXPECT_EQ(run.time_at_checkpoint, config.warmup);
  EXPECT_GT(run.events_at_checkpoint, 0u);
  EXPECT_FALSE(run.checkpoint.empty());
}

TEST(ExperimentCheckpointTest, ResumeIsBitIdentical) {
  const auto config = small_table1_config();
  const CheckpointedRun run = run_experiment_with_checkpoint(config);
  const ExperimentResult resumed = resume_experiment(config, run.checkpoint);
  expect_identical_results(run.result, resumed);
}

TEST(ExperimentCheckpointTest, EventCountTriggerResumesIdentically) {
  const auto config = small_table1_config();
  CheckpointTrigger trigger;
  trigger.events = 12'345;
  const CheckpointedRun run = run_experiment_with_checkpoint(config, trigger);
  EXPECT_EQ(run.events_at_checkpoint, trigger.events);
  const ExperimentResult resumed = resume_experiment(config, run.checkpoint);
  expect_identical_results(run.result, resumed);
}

TEST(ExperimentCheckpointTest, RestoreIntoWrongScenarioThrows) {
  const auto config = small_table1_config();
  const CheckpointedRun run = run_experiment_with_checkpoint(config);

  ExperimentConfig other = config;
  other.seed = config.seed + 1;
  EXPECT_THROW((void)resume_experiment(other, run.checkpoint), CheckpointScenarioError);

  other = config;
  other.scheme.manager = ManagerKind::kSharing;
  EXPECT_THROW((void)resume_experiment(other, run.checkpoint), CheckpointScenarioError);

  other = config;
  other.buffer = ByteSize::megabytes(2.0);
  EXPECT_THROW((void)resume_experiment(other, run.checkpoint), CheckpointScenarioError);
}

TEST(ExperimentCheckpointTest, CorruptedCheckpointNeverRestores) {
  const auto config = small_table1_config();
  CheckpointedRun run = run_experiment_with_checkpoint(config);
  // Probe a spread of payload positions instead of every byte — the blob
  // is large and the CRC math is already covered exhaustively above.
  for (std::size_t i = 40; i < run.checkpoint.size(); i += run.checkpoint.size() / 17) {
    auto corrupt = run.checkpoint;
    corrupt[i] = static_cast<std::byte>(static_cast<std::uint8_t>(corrupt[i]) ^ 0x10u);
    EXPECT_THROW((void)resume_experiment(config, corrupt), CheckpointError) << "byte " << i;
  }
}

// --- Cross-family restores ------------------------------------------------

fabric::FabricConfig small_fabric_config() {
  fabric::FabricConfig config;
  config.topology = fabric::FabricTopologyKind::kParkingLot;
  config.size = 3;
  config.warmup = Time::from_seconds(0.2);
  config.duration = Time::from_seconds(0.3);
  config.seed = 7;
  return config;
}

TEST(CrossFamilyCheckpointTest, ExperimentCheckpointRejectedByFabricResume) {
  const CheckpointedRun run = run_experiment_with_checkpoint(small_table1_config());
  EXPECT_THROW((void)fabric::resume_fabric_experiment(small_fabric_config(), run.checkpoint),
               CheckpointScenarioError);
}

TEST(CrossFamilyCheckpointTest, FabricCheckpointRejectedByExperimentResume) {
  const CheckpointedRun run = fabric::run_fabric_experiment_with_checkpoint(small_fabric_config());
  EXPECT_THROW((void)resume_experiment(small_table1_config(), run.checkpoint),
               CheckpointScenarioError);
}

}  // namespace
}  // namespace bufq
