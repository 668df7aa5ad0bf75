// FifoRing against std::deque, the container it replaces: the same
// entries in the same order under any mix of pushes and pops, growth
// with the head wrapped included, and checkpoints that walk a wrapped
// ring in FIFO order.
#include "util/fifo_ring.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <vector>

#include "core/threshold.h"
#include "sched/fifo.h"
#include "sim/checkpoint.h"
#include "util/rng.h"

namespace bufq {
namespace {

void expect_same(const FifoRing<std::uint64_t>& ring, const std::deque<std::uint64_t>& model) {
  ASSERT_EQ(ring.size(), model.size());
  ASSERT_EQ(ring.empty(), model.empty());
  if (!model.empty()) {
    EXPECT_EQ(ring.front(), model.front());
  }
  for (std::size_t i = 0; i < model.size(); ++i) ASSERT_EQ(ring[i], model[i]) << "entry " << i;
  std::vector<std::uint64_t> walked;
  for (const std::uint64_t value : ring) walked.push_back(value);
  EXPECT_EQ(walked, std::vector<std::uint64_t>(model.begin(), model.end()));
}

TEST(FifoRingTest, RandomPushPopMixesMatchDeque) {
  Rng rng{2024};
  FifoRing<std::uint64_t> ring;
  std::deque<std::uint64_t> model;
  std::uint64_t next = 0;
  // Phases that lean towards pushing, then popping, so the ring grows,
  // drains and grows again from wherever its head has come to rest.
  for (int phase = 0; phase < 40; ++phase) {
    const double push_share = phase % 2 == 0 ? 0.7 : 0.3;
    for (int op = 0; op < 500; ++op) {
      if (model.empty() || rng.uniform() < push_share) {
        ring.push_back(next);
        model.push_back(next);
        ++next;
      } else {
        ring.pop_front();
        model.pop_front();
      }
      ring.prefetch(1);  // a hint only: never changes the contents
      ASSERT_EQ(ring.size(), model.size());
      if (!model.empty()) {
        ASSERT_EQ(ring.front(), model.front());
      }
    }
    expect_same(ring, model);
  }
  EXPECT_GT(ring.capacity(), 16u) << "the mix never made the ring grow";
}

TEST(FifoRingTest, GrowsWhileHeadHasWrapped) {
  FifoRing<std::uint64_t> ring;
  std::deque<std::uint64_t> model;
  std::uint64_t next = 0;
  const auto push = [&] {
    ring.push_back(next);
    model.push_back(next++);
  };
  for (int i = 0; i < 16; ++i) push();
  const std::size_t capacity = ring.capacity();
  for (int i = 0; i < 11; ++i) {
    ring.pop_front();
    model.pop_front();
  }
  // Refill to capacity: the tail wraps round behind the head.
  while (ring.size() < capacity) push();
  ASSERT_EQ(ring.capacity(), capacity);
  push();  // full with the head at 11: this push grows the ring
  ASSERT_GT(ring.capacity(), capacity);
  expect_same(ring, model);
  for (int i = 0; i < 40; ++i) push();
  expect_same(ring, model);
}

TEST(FifoRingTest, ClearKeepsCapacity) {
  FifoRing<std::uint64_t> ring;
  for (std::uint64_t i = 0; i < 100; ++i) ring.push_back(i);
  const std::size_t capacity = ring.capacity();
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), capacity);
  ring.push_back(7);
  EXPECT_EQ(ring.front(), 7u);
}

TEST(FifoRingTest, CheckpointWalksAWrappedQueueInFifoOrder) {
  TailDropManager manager{ByteSize::bytes(1'000'000), 1};
  FifoScheduler fifo{manager};
  std::uint64_t next = 0;
  const auto enqueue = [&] {
    ASSERT_TRUE(fifo.enqueue(Packet{.flow = 0, .size_bytes = 100, .seq = next++}, Time::zero()));
  };
  // Leave the head part-way round the ring and the tail wrapped past it.
  for (int i = 0; i < 16; ++i) enqueue();
  for (int i = 0; i < 12; ++i) ASSERT_TRUE(fifo.dequeue(Time::zero()).has_value());
  for (int i = 0; i < 10; ++i) enqueue();
  ASSERT_EQ(fifo.queue_length(), 14u);

  CheckpointWriter writer;
  manager.save_state(writer);
  fifo.save_state(writer);
  TailDropManager restored_manager{ByteSize::bytes(1'000'000), 1};
  FifoScheduler restored{restored_manager};
  const std::vector<std::byte> blob = writer.finish(0);
  CheckpointReader reader{blob};
  restored_manager.restore_state(reader);
  restored.restore_state(reader);

  ASSERT_EQ(restored.queue_length(), 14u);
  EXPECT_EQ(restored.backlog_bytes(), fifo.backlog_bytes());
  for (std::uint64_t seq = 12; seq < next; ++seq) {
    const auto packet = restored.dequeue(Time::zero());
    ASSERT_TRUE(packet.has_value());
    EXPECT_EQ(packet->seq, seq);
  }
  EXPECT_TRUE(restored.empty());
}

}  // namespace
}  // namespace bufq
