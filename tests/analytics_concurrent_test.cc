// Tests for the concurrent store (ShardedCounterStore) under parallel
// writers: one thread per lane, each the single writer of its own shard.

#include "analytics/sharded_counter_store.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "stats/error_metrics.h"

namespace countlib {
namespace {

using analytics::KeyWeight;
using analytics::ShardedCounterStore;

TEST(ConcurrentStoreTest, SingleThreadedSemanticsMatchPlainStore) {
  auto store = ShardedCounterStore::Make(8, CounterKind::kExact, 24,
                                         (1u << 24) - 1, 1)
                   .ValueOrDie();
  for (uint64_t key = 0; key < 100; ++key) {
    const KeyWeight update{key, key + 1};
    ASSERT_TRUE(store->IncrementBatch(key % 8, &update, 1).ok());
  }
  EXPECT_EQ(store->NumKeys(), 100u);
  for (uint64_t key = 0; key < 100; ++key) {
    ASSERT_DOUBLE_EQ(store->Estimate(key).ValueOrDie(),
                     static_cast<double>(key + 1));
  }
  EXPECT_TRUE(store->Estimate(12345).status().IsNotFound());
}

TEST(ConcurrentStoreTest, StatsCountIncrementsAndBatches) {
  auto store = ShardedCounterStore::Make(4, CounterKind::kExact, 24,
                                         (1u << 24) - 1, 1)
                   .ValueOrDie();
  std::vector<KeyWeight> batch;
  for (uint64_t key = 0; key < 25; ++key) {
    batch.push_back(KeyWeight{key, 2});
  }
  ASSERT_TRUE(store->IncrementBatch(0, batch.data(), batch.size()).ok());
  ASSERT_TRUE(store->IncrementBatch(1, batch.data(), 5).ok());
  ASSERT_TRUE(store->IncrementBatch(2, batch.data(), 0).ok());  // uncounted

  const analytics::StoreStats stats = store->Stats();
  EXPECT_EQ(stats.batch_calls, 2u);
  EXPECT_EQ(stats.batch_updates, 30u);
}

TEST(ConcurrentStoreTest, ParallelIncrementsAreNotLost) {
  // Exact counters: every increment must be accounted for when eight
  // threads write the same keys through their own lanes.
  constexpr int kThreads = 8;
  auto store = ShardedCounterStore::Make(kThreads, CounterKind::kExact, 30,
                                         (1u << 30) - 1, 1)
                   .ValueOrDie();
  constexpr uint64_t kKeys = 64;
  constexpr uint64_t kPerThreadPerKey = 500;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&store, t] {
      for (uint64_t round = 0; round < kPerThreadPerKey; ++round) {
        for (uint64_t key = 0; key < kKeys; ++key) {
          const KeyWeight update{key, 1};
          ASSERT_TRUE(store->IncrementBatch(t, &update, 1).ok());
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  for (uint64_t key = 0; key < kKeys; ++key) {
    ASSERT_DOUBLE_EQ(store->Estimate(key).ValueOrDie(),
                     static_cast<double>(kThreads * kPerThreadPerKey))
        << "key " << key;
  }
}

TEST(ConcurrentStoreTest, ParallelApproximateCountingStaysAccurate) {
  constexpr int kThreads = 8;
  auto store = ShardedCounterStore::Make(kThreads, CounterKind::kSampling, 18,
                                         1u << 24, 99)
                   .ValueOrDie();
  constexpr uint64_t kKeys = 16;
  constexpr uint64_t kWeight = 4000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&store, t] {
      for (uint64_t key = 0; key < kKeys; ++key) {
        const KeyWeight update{key, kWeight};
        ASSERT_TRUE(store->IncrementBatch(t, &update, 1).ok());
      }
    });
  }
  for (auto& t : pool) t.join();
  const double truth = static_cast<double>(kThreads) * kWeight;
  for (uint64_t key = 0; key < kKeys; ++key) {
    const double est = store->Estimate(key).ValueOrDie();
    EXPECT_LE(stats::RelativeError(est, truth), 0.3) << "key " << key;
  }
  EXPECT_EQ(store->NumKeys(), kKeys);
  // The merged cut holds one slot per key, whichever lanes wrote it.
  EXPECT_EQ(store->Snapshot().ValueOrDie().TotalStateBits(), kKeys * 18u);
}

TEST(ConcurrentStoreTest, StateAccountingSumsStripes) {
  auto store = ShardedCounterStore::Make(4, CounterKind::kSampling, 18,
                                         1u << 20, 3)
                   .ValueOrDie();
  EXPECT_EQ(store->num_shards(), 4u);
  EXPECT_EQ(store->TotalStateBits(), 0u);
  const KeyWeight first{1, 1};
  const KeyWeight second{2, 1};
  ASSERT_TRUE(store->IncrementBatch(0, &first, 1).ok());
  ASSERT_TRUE(store->IncrementBatch(3, &second, 1).ok());
  EXPECT_EQ(store->TotalStateBits(), 36u);
}

}  // namespace
}  // namespace countlib
