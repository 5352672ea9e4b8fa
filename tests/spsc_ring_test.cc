// SPSC ingest-ring suite (PR 10): unit edges of serve::SpscRing
// (capacity rounding, wraparound, empty/full transitions, peek), the
// IngestQueue credit/timeout path those rings compose into, and the
// TSan-gated concurrency hammers — one ring per producer with a
// concurrent batcher drain, and shutdown while producers are parked on
// a full queue. The hammers assert the two properties the lock-free
// fast path must deliver: no event is lost or duplicated (multiset
// equality), and each producer's events stay in its push order
// (per-producer FIFO through the drained windows).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/ingest_queue.h"
#include "serve/spsc_ring.h"
#include "util/value.h"

namespace ringdb {
namespace serve {
namespace {

Symbol R() { return Symbol::Intern("r"); }

ring::Update Tagged(int64_t tag) {
  return ring::Update::Insert(R(), {Value(tag)});
}

int64_t TagOf(const ring::Update& u) { return u.values[0].AsInt(); }

TEST(SpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(0).capacity(), 1u);
  EXPECT_EQ(SpscRing<int>(1).capacity(), 1u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(8).capacity(), 8u);
  EXPECT_EQ(SpscRing<int>(1000).capacity(), 1024u);
}

TEST(SpscRingTest, EmptyFullEdgesAndPeek) {
  SpscRing<int> ring(2);
  int out = 0;
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.TryPop(&out));
  EXPECT_EQ(ring.Front(), nullptr);
  EXPECT_TRUE(ring.TryPush(10));
  EXPECT_TRUE(ring.TryPush(20));
  EXPECT_EQ(ring.size(), 2u);
  int rejected = 30;
  EXPECT_FALSE(ring.TryPush(std::move(rejected)));  // full
  ASSERT_NE(ring.Front(), nullptr);
  EXPECT_EQ(*ring.Front(), 10);
  ASSERT_TRUE(ring.TryPop(&out));
  EXPECT_EQ(out, 10);
  EXPECT_TRUE(ring.TryPush(30));  // space reopened
  ASSERT_TRUE(ring.TryPop(&out));
  EXPECT_EQ(out, 20);
  ASSERT_TRUE(ring.TryPop(&out));
  EXPECT_EQ(out, 30);
  EXPECT_FALSE(ring.TryPop(&out));
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRingTest, WraparoundPreservesFifoAcrossManyLaps) {
  // A capacity-4 ring cycled far past its index space start would
  // expose any masking bug; FIFO must hold through every lap.
  SpscRing<uint64_t> ring(4);
  uint64_t next_pop = 0;
  uint64_t next_push = 0;
  while (next_pop < 10000) {
    while (next_push < 10000 && ring.TryPush(uint64_t{next_push})) {
      ++next_push;
    }
    uint64_t got = 0;
    while (ring.TryPop(&got)) {
      ASSERT_EQ(got, next_pop);
      ++next_pop;
    }
  }
  EXPECT_EQ(next_push, 10000u);
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRingTest, ConcurrentSingleProducerSingleConsumer) {
  // The raw ring under its contract: one pusher, one popper, tiny
  // capacity so the indexes wrap constantly. TSan gates the
  // acquire/release publication; the sequence check gates FIFO.
  constexpr uint64_t kEvents = 200000;
  SpscRing<uint64_t> ring(8);
  std::thread producer([&] {
    for (uint64_t i = 0; i < kEvents; ++i) {
      while (!ring.TryPush(uint64_t{i})) std::this_thread::yield();
    }
  });
  uint64_t expected = 0;
  while (expected < kEvents) {
    uint64_t got = 0;
    if (ring.TryPop(&got)) {
      ASSERT_EQ(got, expected);
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_TRUE(ring.empty());
}

TEST(IngestQueueSpscTest, TimeoutPathLeavesQueueUnchanged) {
  IngestQueue queue(2);
  ASSERT_TRUE(queue.Push(Tagged(1)));
  ASSERT_TRUE(queue.Push(Tagged(2)));
  EXPECT_EQ(queue.size(), 2u);
  // No credits left: the bounded wait must give the update back.
  EXPECT_EQ(queue.TryPushFor(Tagged(3), std::chrono::milliseconds(20)),
            IngestQueue::PushResult::kTimedOut);
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.GetStats().timeouts, 1u);
  std::vector<ring::Update> window;
  ASSERT_TRUE(queue.PopWindow(16, &window));
  ASSERT_EQ(window.size(), 2u);
  EXPECT_EQ(TagOf(window[0]), 1);
  EXPECT_EQ(TagOf(window[1]), 2);
  // Space reopened: the same push now lands.
  EXPECT_EQ(queue.TryPushFor(Tagged(3), std::chrono::milliseconds(20)),
            IngestQueue::PushResult::kAccepted);
  queue.Close();
  ASSERT_TRUE(queue.PopWindow(16, &window));
  ASSERT_EQ(window.size(), 1u);
  EXPECT_EQ(TagOf(window[0]), 3);
  EXPECT_FALSE(queue.PopWindow(16, &window));
}

// Multi-producer hammer: every producer gets its own SPSC lane inside
// the queue; the batcher drains concurrently. Verifies multiset
// equality (nothing lost, nothing duplicated) and per-producer FIFO.
TEST(IngestQueueSpscTest, MultiProducerHammerDrainsEverythingInOrder) {
  constexpr int kProducers = 4;
  constexpr int64_t kPerProducer = 3000;
  IngestQueue queue(64);  // small bound: backpressure engages constantly
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (int64_t i = 0; i < kPerProducer; ++i) {
        // Tag = producer * 1e6 + sequence: recoverable on the far side.
        ASSERT_TRUE(queue.Push(Tagged(p * 1000000 + i)));
      }
    });
  }
  std::vector<ring::Update> window;
  std::vector<int64_t> next_seq(kProducers, 0);
  int64_t drained = 0;
  while (drained < kProducers * kPerProducer) {
    ASSERT_TRUE(queue.PopWindow(48, &window));
    ASSERT_LE(window.size(), 48u);
    for (const ring::Update& u : window) {
      const int64_t tag = TagOf(u);
      const int p = static_cast<int>(tag / 1000000);
      const int64_t seq = tag % 1000000;
      ASSERT_GE(p, 0);
      ASSERT_LT(p, kProducers);
      // Per-producer FIFO: each lane's events arrive in push order.
      ASSERT_EQ(seq, next_seq[p]) << "producer " << p;
      ++next_seq[p];
      ++drained;
    }
  }
  for (std::thread& t : producers) t.join();
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next_seq[p], kPerProducer) << "producer " << p;
  }
  EXPECT_EQ(queue.size(), 0u);
  queue.Close();
  EXPECT_FALSE(queue.PopWindow(16, &window));
}

// Mixed blocking and bounded-wait producers against a slow consumer:
// TryPushFor timeouts shed load, but every *accepted* event must still
// drain exactly once.
TEST(IngestQueueSpscTest, TimeoutsUnderContentionLoseNothingAccepted) {
  constexpr int kProducers = 3;
  constexpr int64_t kPerProducer = 400;
  IngestQueue queue(8);
  std::atomic<int64_t> accepted{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int64_t i = 0; i < kPerProducer; ++i) {
        const auto result = queue.TryPushFor(Tagged(p * 1000000 + i),
                                             std::chrono::milliseconds(2));
        ASSERT_NE(result, IngestQueue::PushResult::kClosed);
        if (result == IngestQueue::PushResult::kAccepted) {
          accepted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::vector<ring::Update> window;
  int64_t drained = 0;
  std::thread consumer([&] {
    while (queue.PopWindow(4, &window)) {
      drained += static_cast<int64_t>(window.size());
      // Slow consumer: give the producers time to hit the bound.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  for (std::thread& t : producers) t.join();
  queue.Close();
  consumer.join();
  EXPECT_EQ(drained, accepted.load());
  EXPECT_EQ(queue.size(), 0u);
}

// Shutdown-while-full: producers parked on a full queue must all be
// released by Close() with their pushes rejected, and the events
// accepted before the close must still drain.
TEST(IngestQueueSpscTest, CloseReleasesProducersBlockedOnFullQueue) {
  constexpr int kBlocked = 3;
  IngestQueue queue(2);
  ASSERT_TRUE(queue.Push(Tagged(1)));
  ASSERT_TRUE(queue.Push(Tagged(2)));
  std::atomic<int> rejected{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kBlocked; ++p) {
    producers.emplace_back([&, p] {
      // Full queue, nobody draining: this blocks until Close.
      if (!queue.Push(Tagged(100 + p))) {
        rejected.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Let the producers reach the wait (best effort; Close is correct
  // whether or not they are parked yet). The stall counter is a metric:
  // with -DRINGDB_NO_METRICS it stays 0, so the wait would never end.
#ifndef RINGDB_NO_METRICS
  while (queue.GetStats().stalls < kBlocked) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
#endif
  queue.Close();
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(rejected.load(), kBlocked);
  std::vector<ring::Update> window;
  ASSERT_TRUE(queue.PopWindow(16, &window));
  std::vector<int64_t> tags;
  for (const ring::Update& u : window) tags.push_back(TagOf(u));
  std::sort(tags.begin(), tags.end());
  EXPECT_EQ(tags, (std::vector<int64_t>{1, 2}));
  EXPECT_FALSE(queue.PopWindow(16, &window));
}

}  // namespace
}  // namespace serve
}  // namespace ringdb
