// Tests for the merge-on-read sharded store and the CounterStore merge
// primitives under it (ReadKeyState / MergeFrom / Counter::MergeFrom).

#include "analytics/sharded_counter_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "core/counter_factory.h"

namespace countlib {
namespace {

using analytics::CounterStore;
using analytics::KeyEstimate;
using analytics::KeyWeight;
using analytics::ShardedCounterStore;

std::vector<KeyWeight> MakeBatch(std::vector<KeyWeight> kw) { return kw; }

// --- CounterStore merge primitives ----------------------------------

TEST(ShardedStoreTest, CounterStoreReadKeyStateDecodesAndReportsAbsence) {
  auto store = CounterStore::MakeWithBitBudget(CounterKind::kExact, 24,
                                               (1u << 24) - 1, 1)
                   .ValueOrDie();
  ASSERT_TRUE(store.Increment(7, 41).ok());
  auto scratch =
      MakeCounterForBits(CounterKind::kExact, 24, (1u << 24) - 1, 2)
          .ValueOrDie();
  ASSERT_TRUE(store.ReadKeyState(7, scratch.get()).ValueOrDie());
  EXPECT_DOUBLE_EQ(scratch->Estimate(), 41.0);
  EXPECT_FALSE(store.ReadKeyState(8, scratch.get()).ValueOrDie());

  // A counter of the wrong width is rejected, not misdecoded.
  auto narrow =
      MakeCounterForBits(CounterKind::kExact, 16, (1u << 16) - 1, 2)
          .ValueOrDie();
  EXPECT_TRUE(store.ReadKeyState(7, narrow.get())
                  .status()
                  .IsFailedPrecondition());
}

TEST(ShardedStoreTest, CounterStoreMergeFromCombinesFreshAndSharedKeys) {
  auto a = CounterStore::MakeWithBitBudget(CounterKind::kExact, 24,
                                           (1u << 24) - 1, 1)
               .ValueOrDie();
  auto b = CounterStore::MakeWithBitBudget(CounterKind::kExact, 24,
                                           (1u << 24) - 1, 2)
               .ValueOrDie();
  ASSERT_TRUE(a.Increment(1, 10).ok());
  ASSERT_TRUE(a.Increment(2, 20).ok());
  ASSERT_TRUE(b.Increment(2, 5).ok());   // shared key: typed merge
  ASSERT_TRUE(b.Increment(3, 30).ok());  // fresh key: raw bit copy
  ASSERT_TRUE(a.MergeFrom(b).ok());
  EXPECT_EQ(a.num_keys(), 3u);
  EXPECT_DOUBLE_EQ(a.Estimate(1).ValueOrDie(), 10.0);
  EXPECT_DOUBLE_EQ(a.Estimate(2).ValueOrDie(), 25.0);
  EXPECT_DOUBLE_EQ(a.Estimate(3).ValueOrDie(), 30.0);
  // The donor is untouched.
  EXPECT_EQ(b.num_keys(), 2u);
  EXPECT_DOUBLE_EQ(b.Estimate(2).ValueOrDie(), 5.0);

  EXPECT_TRUE(a.MergeFrom(a).IsInvalidArgument());
  auto narrow = CounterStore::MakeWithBitBudget(CounterKind::kExact, 16,
                                                (1u << 16) - 1, 3)
                    .ValueOrDie();
  EXPECT_TRUE(a.MergeFrom(narrow).IsFailedPrecondition());
}

TEST(ShardedStoreTest, CounterMergeFromRejectsMismatchedTypes) {
  auto exact =
      MakeCounterForBits(CounterKind::kExact, 24, (1u << 24) - 1, 1)
          .ValueOrDie();
  auto morris =
      MakeCounterForBits(CounterKind::kMorris, 8, (1u << 24) - 1, 1)
          .ValueOrDie();
  EXPECT_TRUE(exact->MergeFrom(*morris).IsInvalidArgument());
  EXPECT_TRUE(morris->MergeFrom(*exact).IsInvalidArgument());
}

// --- Construction gates ----------------------------------------------

TEST(ShardedStoreTest, MakeValidatesShardCountAndMergeability) {
  EXPECT_TRUE(ShardedCounterStore::Make(0, CounterKind::kExact, 24,
                                        (1u << 24) - 1, 1)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ShardedCounterStore::Make(5000, CounterKind::kExact, 24,
                                        (1u << 24) - 1, 1)
                  .status()
                  .IsInvalidArgument());
  // kCsuros is bit-budget-constructible but has no MergeFrom: merge-on-read
  // cannot work, so construction (not the first snapshot) must fail.
  EXPECT_TRUE(ShardedCounterStore::Make(4, CounterKind::kCsuros, 16,
                                        (1u << 24) - 1, 1)
                  .status()
                  .IsInvalidArgument());
  // Mergeable kinds construct.
  EXPECT_TRUE(ShardedCounterStore::Make(4, CounterKind::kSampling, 18,
                                        (1u << 20) - 1, 1)
                  .ok());
  EXPECT_TRUE(ShardedCounterStore::Make(4, CounterKind::kMorris, 8,
                                        (1u << 20) - 1, 1)
                  .ok());
}

TEST(ShardedStoreTest, LaneContractEnforced) {
  auto store = ShardedCounterStore::Make(4, CounterKind::kExact, 24,
                                         (1u << 24) - 1, 1)
                   .ValueOrDie();
  EXPECT_EQ(store->num_lanes(), 4u);
  const auto batch = MakeBatch({{1, 1}});
  EXPECT_TRUE(store->IncrementBatch(4, batch.data(), batch.size())
                  .IsInvalidArgument());
  EXPECT_TRUE(store->IncrementBatch(3, batch.data(), batch.size()).ok());
  // n == 0 is a no-op on any lane in range.
  EXPECT_TRUE(store->IncrementBatch(0, nullptr, 0).ok());
}

// --- Merge-on-read semantics -----------------------------------------

TEST(ShardedStoreTest, ExactKindMergesToExactTotalsAcrossShards) {
  auto store = ShardedCounterStore::Make(3, CounterKind::kExact, 24,
                                         (1u << 24) - 1, 7)
                   .ValueOrDie();
  // Key 100 is written through every lane; keys 0..2 through one each.
  for (uint64_t lane = 0; lane < 3; ++lane) {
    const auto batch =
        MakeBatch({{100, 10 * (lane + 1)}, {lane, lane + 1}});
    ASSERT_TRUE(store->IncrementBatch(lane, batch.data(), batch.size()).ok());
  }
  EXPECT_DOUBLE_EQ(store->Estimate(100).ValueOrDie(), 60.0);
  EXPECT_DOUBLE_EQ(store->Estimate(0).ValueOrDie(), 1.0);
  EXPECT_DOUBLE_EQ(store->Estimate(1).ValueOrDie(), 2.0);
  EXPECT_DOUBLE_EQ(store->Estimate(2).ValueOrDie(), 3.0);
  EXPECT_TRUE(store->Estimate(999).status().IsNotFound());
  // Distinct keys: 100, 0, 1, 2 — key 100 lives in all three shards but
  // counts once in the merged view.
  EXPECT_EQ(store->NumKeys(), 4u);

  // ForEach iterates the same merged view.
  uint64_t seen = 0;
  double total = 0;
  ASSERT_TRUE(store
                  ->ForEach([&](uint64_t key, double est) {
                    ++seen;
                    total += est;
                    (void)key;
                  })
                  .ok());
  EXPECT_EQ(seen, 4u);
  EXPECT_DOUBLE_EQ(total, 66.0);

  // A frozen snapshot is a plain CounterStore with the same content.
  auto cut = store->Snapshot().ValueOrDie();
  EXPECT_EQ(cut.num_keys(), 4u);
  EXPECT_DOUBLE_EQ(cut.Estimate(100).ValueOrDie(), 60.0);
}

TEST(ShardedStoreTest, SamplingKindMergedEstimatesStayAccurate) {
  // Statistical sanity: a mergeable approximate kind read through the
  // merge path lands near the true totals (generous bound; the estimator's
  // own accuracy is covered by the core tests).
  auto store = ShardedCounterStore::Make(4, CounterKind::kSampling, 18,
                                         (1u << 22) - 1, 42)
                   .ValueOrDie();
  constexpr uint64_t kPerLane = 50000;
  for (uint64_t lane = 0; lane < 4; ++lane) {
    const auto batch = MakeBatch({{77, kPerLane}});
    ASSERT_TRUE(store->IncrementBatch(lane, batch.data(), batch.size()).ok());
  }
  const double est = store->Estimate(77).ValueOrDie();
  const double truth = 4.0 * kPerLane;
  EXPECT_LT(std::abs(est - truth) / truth, 0.5);
}

TEST(ShardedStoreTest, TopKTieOrderMatchesPlainStore) {
  // The pinned CounterReader contract: descending by estimate, ties broken
  // by key ascending. The reference is a plain single-threaded store fed
  // the same updates, ranked here by that rule written out independently.
  // Exact counters make the estimates deterministic, so the orders must
  // match exactly.
  auto sharded = ShardedCounterStore::Make(4, CounterKind::kExact, 24,
                                           (1u << 24) - 1, 1)
                     .ValueOrDie();
  auto plain = CounterStore::MakeWithBitBudget(CounterKind::kExact, 24,
                                               (1u << 24) - 1, 99)
                   .ValueOrDie();
  // Lots of ties: weight = (key % 5) + 1.
  for (uint64_t key = 0; key < 40; ++key) {
    const auto batch = MakeBatch({{key, (key % 5) + 1}});
    ASSERT_TRUE(
        sharded->IncrementBatch(key % 4, batch.data(), batch.size()).ok());
    ASSERT_TRUE(plain.IncrementBatch(batch.data(), batch.size()).ok());
  }
  std::vector<KeyEstimate> ranked;
  ASSERT_TRUE(plain
                  .ForEach([&ranked](uint64_t key, double estimate) {
                    ranked.push_back(KeyEstimate{key, estimate});
                  })
                  .ok());
  std::sort(ranked.begin(), ranked.end(),
            [](const KeyEstimate& a, const KeyEstimate& b) {
              return a.estimate > b.estimate ||
                     (a.estimate == b.estimate && a.key < b.key);
            });
  for (size_t k : {5u, 13u, 40u, 100u}) {
    const auto top_a = sharded->TopK(k).ValueOrDie();
    const std::vector<KeyEstimate> top_b(
        ranked.begin(), ranked.begin() + std::min(k, ranked.size()));
    ASSERT_EQ(top_a.size(), top_b.size());
    for (size_t i = 0; i < top_a.size(); ++i) {
      EXPECT_EQ(top_a[i].key, top_b[i].key) << "rank " << i << " at k=" << k;
      EXPECT_DOUBLE_EQ(top_a[i].estimate, top_b[i].estimate);
    }
    // Spot-check the tie rule itself: equal estimates ⇒ ascending keys.
    for (size_t i = 1; i < top_a.size(); ++i) {
      if (top_a[i - 1].estimate == top_a[i].estimate) {
        EXPECT_LT(top_a[i - 1].key, top_a[i].key);
      }
    }
  }
}

TEST(ShardedStoreTest, StatsCountBatchesUpdatesAndMergeReads) {
  auto store = ShardedCounterStore::Make(2, CounterKind::kExact, 24,
                                         (1u << 24) - 1, 1)
                   .ValueOrDie();
  const auto batch = MakeBatch({{1, 1}, {2, 2}, {3, 3}});
  ASSERT_TRUE(store->IncrementBatch(0, batch.data(), batch.size()).ok());
  ASSERT_TRUE(store->IncrementBatch(1, batch.data(), 2).ok());
  ASSERT_TRUE(store->IncrementBatch(0, batch.data(), 0).ok());  // uncounted

  analytics::StoreStats stats = store->Stats();
  EXPECT_EQ(stats.batch_calls, 2u);
  EXPECT_EQ(stats.batch_updates, 5u);
  EXPECT_EQ(stats.merge_reads, 0u);

  (void)store->TopK(2).ValueOrDie();
  ASSERT_TRUE(store->ForEach([](uint64_t, double) {}).ok());
  stats = store->Stats();
  EXPECT_EQ(stats.merge_reads, 2u);
}

TEST(ShardedStoreTest, MetricsRegisterAndExportShardGauges) {
  auto store = ShardedCounterStore::Make(3, CounterKind::kExact, 24,
                                         (1u << 24) - 1, 1)
                   .ValueOrDie();
  auto regs = store->RegisterMetrics();
  const auto batch = MakeBatch({{1, 1}, {2, 2}});
  ASSERT_TRUE(store->IncrementBatch(0, batch.data(), batch.size()).ok());
  ASSERT_TRUE(store->IncrementBatch(1, batch.data(), batch.size()).ok());
  (void)store->TopK(1).ValueOrDie();

  const obs::Snapshot snap = obs::GlobalSnapshot();
  EXPECT_EQ(snap.counters.at("countlib_store_batch_calls_total"), 2u);
  EXPECT_EQ(snap.counters.at("countlib_store_batch_updates_total"), 4u);
  EXPECT_EQ(snap.counters.at("countlib_store_merge_reads_total"), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("countlib_store_shards"), 3.0);
  // Two shards hold two keys each (24 bits per slot).
  EXPECT_DOUBLE_EQ(snap.gauges.at("countlib_store_shard_keys"), 4.0);
  EXPECT_DOUBLE_EQ(snap.gauges.at("countlib_store_state_bits"), 4.0 * 24.0);
  // One merge-latency sample per shard for the one merged read.
  EXPECT_EQ(
      snap.histograms.at("countlib_store_shard_merge_latency_ns").count, 3u);
  EXPECT_EQ(snap.histograms.at("countlib_store_freeze_wait_ns").count, 1u);
}

}  // namespace
}  // namespace countlib
