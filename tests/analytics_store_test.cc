// Tests for the analytics stores: the bit-packed multi-counter pool and
// the sharded, merge-based aggregation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "analytics/counter_store.h"
#include "analytics/sharded_counter_store.h"
#include "stats/error_metrics.h"
#include "stream/trace.h"

namespace countlib {
namespace {

TEST(CounterStoreTest, ExactKindStoresExactCounts) {
  auto store = analytics::CounterStore::MakeWithBitBudget(
                   CounterKind::kExact, 20, 999999, 1)
                   .ValueOrDie();
  ASSERT_TRUE(store.Increment(7, 100).ok());
  ASSERT_TRUE(store.Increment(9, 250).ok());
  ASSERT_TRUE(store.Increment(7, 11).ok());
  EXPECT_DOUBLE_EQ(store.Estimate(7).ValueOrDie(), 111.0);
  EXPECT_DOUBLE_EQ(store.Estimate(9).ValueOrDie(), 250.0);
  EXPECT_EQ(store.num_keys(), 2u);
  EXPECT_EQ(store.bits_per_key(), 20);
  EXPECT_EQ(store.TotalStateBits(), 40u);
}

TEST(CounterStoreTest, UnknownKeyIsNotFound) {
  auto store = analytics::CounterStore::MakeWithBitBudget(
                   CounterKind::kSampling, 18, 1u << 20, 1)
                   .ValueOrDie();
  EXPECT_TRUE(store.Estimate(404).status().IsNotFound());
}

TEST(CounterStoreTest, ApproximateKindsTrackZipfTrace) {
  auto trace = stream::Trace::GenerateBursty(50, 1.0, 32.0, 400000, 13).ValueOrDie();
  const auto truth = trace.ExactCounts();
  for (CounterKind kind :
       {CounterKind::kSampling, CounterKind::kMorris, CounterKind::kCsuros}) {
    auto store =
        analytics::CounterStore::MakeWithBitBudget(kind, 18, 1u << 20, 99)
            .ValueOrDie();
    for (const auto& event : trace.events()) {
      ASSERT_TRUE(store.Increment(event.key, event.weight).ok());
    }
    EXPECT_EQ(store.num_keys(), truth.size());
    // Large keys should be tracked within loose relative error; tiny keys
    // within additive slack (counters are exact in the deterministic
    // prefix).
    for (const auto& [key, count] : truth) {
      const double est = store.Estimate(key).ValueOrDie();
      if (count >= 2000) {
        EXPECT_LE(stats::RelativeError(est, static_cast<double>(count)), 0.4)
            << CounterKindToString(kind) << " key=" << key << " n=" << count;
      }
    }
  }
}

TEST(CounterStoreTest, PackingIsDenserThanMachineWords) {
  auto store = analytics::CounterStore::MakeWithBitBudget(
                   CounterKind::kSampling, 17, 999999, 5)
                   .ValueOrDie();
  for (uint64_t key = 0; key < 1000; ++key) {
    ASSERT_TRUE(store.Increment(key, 1 + key).ok());
  }
  EXPECT_EQ(store.TotalStateBits(), 17000u);  // vs 64000 for uint64 counters
  EXPECT_EQ(store.AlgorithmName().find("sampling"), 0u);
  EXPECT_GT(store.IndexBitsPerKey(), 0.0);
}

TEST(CounterStoreTest, StateSurvivesInterleavedAccess) {
  // Interleave two keys heavily; per-key streams must remain coherent
  // (deserialization/serialization must not leak state across slots).
  auto exact = analytics::CounterStore::MakeWithBitBudget(
                   CounterKind::kExact, 24, (1u << 24) - 1, 1)
                   .ValueOrDie();
  for (int round = 0; round < 1000; ++round) {
    ASSERT_TRUE(exact.Increment(0, 3).ok());
    ASSERT_TRUE(exact.Increment(1, 5).ok());
  }
  EXPECT_DOUBLE_EQ(exact.Estimate(0).ValueOrDie(), 3000.0);
  EXPECT_DOUBLE_EQ(exact.Estimate(1).ValueOrDie(), 5000.0);
}

// 15-bit sampling counters: a 1024-sample budget (10 bits) plus a 5-bit
// level, enough for counts up to 2^24.
std::unique_ptr<analytics::ShardedCounterStore> MakeShardedStore(
    uint64_t num_shards, uint64_t seed) {
  return analytics::ShardedCounterStore::Make(
             num_shards, CounterKind::kSampling, 15, uint64_t{1} << 24, seed)
      .ValueOrDie();
}

// Adds `weight` increments of `key` through shard `shard`'s lane.
Status Put(analytics::ShardedCounterStore* store, uint64_t shard,
           uint64_t key, uint64_t weight) {
  const analytics::KeyWeight update{key, weight};
  return store->IncrementBatch(shard, &update, 1);
}

TEST(ShardedStoreTest, ValidationAndRouting) {
  EXPECT_FALSE(analytics::ShardedCounterStore::Make(
                   0, CounterKind::kSampling, 15, uint64_t{1} << 24, 1)
                   .ok());
  auto store = MakeShardedStore(4, 1);
  EXPECT_TRUE(Put(store.get(), 5, 42, 10).IsInvalidArgument());
  ASSERT_TRUE(Put(store.get(), 0, 42, 10).ok());
  EXPECT_EQ(store->num_shards(), 4u);
}

TEST(ShardedStoreTest, MergedEstimateSumsAcrossShards) {
  auto store = MakeShardedStore(4, 7);
  // Key 1: 40k spread over all four shards; key 2: only shard 3.
  for (uint64_t shard = 0; shard < 4; ++shard) {
    ASSERT_TRUE(Put(store.get(), shard, 1, 10000).ok());
  }
  ASSERT_TRUE(Put(store.get(), 3, 2, 5000).ok());

  const double merged = store->Estimate(1).ValueOrDie();
  EXPECT_NEAR(merged, 40000.0, 0.25 * 40000);
  EXPECT_NEAR(store->Estimate(2).ValueOrDie(), 5000.0, 0.25 * 5000);
  EXPECT_TRUE(store->Estimate(99).status().IsNotFound());
}

TEST(ShardedStoreTest, KeysUnionAndStateAccounting) {
  auto store = MakeShardedStore(2, 7);
  ASSERT_TRUE(Put(store.get(), 0, 10, 5).ok());
  ASSERT_TRUE(Put(store.get(), 1, 10, 5).ok());
  ASSERT_TRUE(Put(store.get(), 1, 20, 5).ok());
  std::vector<uint64_t> keys;
  ASSERT_TRUE(
      store->ForEach([&keys](uint64_t key, double) { keys.push_back(key); })
          .ok());
  std::sort(keys.begin(), keys.end());
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], 10u);
  EXPECT_EQ(keys[1], 20u);
  // 3 provisioned slots (key 10 in both shards, key 20 in one) x 15 bits.
  EXPECT_EQ(store->TotalStateBits(), 3u * 15u);
}

TEST(ShardedStoreTest, MergedMatchesSingleStoreStatistically) {
  // Means across repetitions: sharded-merged vs single-shard direct.
  const uint64_t n = 60000;
  double merged_sum = 0, direct_sum = 0;
  const int reps = 60;
  for (int rep = 0; rep < reps; ++rep) {
    auto sharded = MakeShardedStore(3, 100 + rep);
    ASSERT_TRUE(Put(sharded.get(), 0, 1, n / 3).ok());
    ASSERT_TRUE(Put(sharded.get(), 1, 1, n / 3).ok());
    ASSERT_TRUE(Put(sharded.get(), 2, 1, n - 2 * (n / 3)).ok());
    merged_sum += sharded->Estimate(1).ValueOrDie();

    auto single = MakeShardedStore(1, 500 + rep);
    ASSERT_TRUE(Put(single.get(), 0, 1, n).ok());
    direct_sum += single->Estimate(1).ValueOrDie();
  }
  EXPECT_NEAR(merged_sum / reps, direct_sum / reps, 0.05 * n);
}

}  // namespace
}  // namespace countlib
