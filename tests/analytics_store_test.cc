// Tests for the analytics stores: the bit-packed multi-counter pool and
// the sharded, merge-based aggregation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "analytics/counter_store.h"
#include "analytics/sharded_counter_store.h"
#include "core/counter_factory.h"
#include "stats/error_metrics.h"
#include "stream/trace.h"
#include "temp_file.h"
#include "util/bit_io.h"

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

analytics::CounterStore MakeExact32(uint64_t seed = 1) {
  return analytics::CounterStore::MakeWithBitBudget(
             CounterKind::kExact, 32, (uint64_t{1} << 32) - 1, seed)
      .ValueOrDie();
}

// Every key the store holds, in ForEach order.
std::vector<uint64_t> KeysOf(const analytics::CounterStore& store) {
  std::vector<uint64_t> keys;
  EXPECT_TRUE(
      store.ForEach([&keys](uint64_t key, double) { keys.push_back(key); }).ok());
  return keys;
}

// Checks `store` holds exactly `truth` (exact counters), visiting each key
// once.
void ExpectHolds(const analytics::CounterStore& store,
                 const std::map<uint64_t, uint64_t>& truth) {
  EXPECT_EQ(store.num_keys(), truth.size());
  std::vector<uint64_t> keys = KeysOf(store);
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end())
      << "ForEach visited a key twice";
  ASSERT_EQ(keys.size(), truth.size());
  size_t i = 0;
  for (const auto& [key, count] : truth) {
    EXPECT_EQ(keys[i++], key);
    EXPECT_DOUBLE_EQ(store.Estimate(key).ValueOrDie(), static_cast<double>(count))
        << "key " << key;
  }
}

TEST(CounterStoreTableTest, ExtremeKeysAreOrdinaryKeys) {
  // 0 is the table's empty-bucket marker; ~0 and the top bit are the other
  // ends of the key space. All must store, count and enumerate like any
  // other key.
  auto store = MakeExact32();
  std::map<uint64_t, uint64_t> truth;
  const uint64_t keys[] = {0, 1, ~uint64_t{0}, uint64_t{1} << 63, 2};
  for (int round = 0; round < 3; ++round) {
    for (uint64_t key : keys) {
      const uint64_t weight = 1 + (key % 1000) + round;
      ASSERT_TRUE(store.Increment(key, weight).ok());
      truth[key] += weight;
    }
  }
  ExpectHolds(store, truth);
  EXPECT_TRUE(store.Estimate(3).status().IsNotFound());
  EXPECT_EQ(store.TotalStateBits(), 5u * 32u);

  // The empty-marker key survives a merge, a growth and a save/load.
  auto other = MakeExact32(2);
  ASSERT_TRUE(other.Increment(0, 10).ok());
  for (uint64_t key = 100; key < 200; ++key) {
    ASSERT_TRUE(other.Increment(key, key).ok());
    truth[key] += key;
  }
  truth[0] += 10;
  ASSERT_TRUE(store.MergeFrom(other).ok());
  ExpectHolds(store, truth);

  const TempFile file("edge_keys.bin");
  const char* path = file.path();
  ASSERT_TRUE(store.SaveToFile(path).ok());
  auto restored = MakeExact32(3);
  ASSERT_TRUE(restored.LoadFromFile(path).ok());
  std::remove(path);
  ExpectHolds(restored, truth);
}

TEST(CounterStoreTableTest, CollidingKeysKeepSeparateCounts) {
  // Fourteen keys in the initial sixteen buckets (the most it holds at a
  // 7/8 load) force probe chains, wrap-around included.
  auto small = MakeExact32();
  std::map<uint64_t, uint64_t> small_truth;
  for (uint64_t key = 1; key <= 14; ++key) {
    ASSERT_TRUE(small.Increment(key, key * 3).ok());
    small_truth[key] = key * 3;
  }
  ExpectHolds(small, small_truth);

  // Keys that agree in their low 40 bits, and keys that agree in their high
  // 48, still land in separate buckets with separate counts.
  auto store = MakeExact32();
  std::map<uint64_t, uint64_t> truth;
  for (uint64_t i = 1; i <= 3000; ++i) {
    const uint64_t high = (i << 40) | 0xABCDEull;
    const uint64_t low = 0xFFFF'FFFF'FFFF'0000ull | i;
    for (uint64_t key : {high, low}) {
      ASSERT_TRUE(store.Increment(key, i).ok());
      truth[key] += i;
    }
  }
  for (uint64_t i = 1; i <= 3000; i += 7) {
    ASSERT_TRUE(store.Increment(i << 40 | 0xABCDEull, 1).ok());
    truth[i << 40 | 0xABCDEull] += 1;
  }
  ExpectHolds(store, truth);
}

TEST(CounterStoreTableTest, TwelveDoublingsKeepEveryExactCount) {
  // 16 buckets doubled 13 times is 131072, the first capacity that holds
  // 100k keys under the 7/8 load cap. Every key is touched again after
  // each growth, so counts written before a rehash must survive it.
  auto store = MakeExact32();
  std::map<uint64_t, uint64_t> truth;
  constexpr uint64_t kKeys = 100000;
  double last_index_bits = 0;
  int growths = 0;
  for (uint64_t key = 0; key < kKeys; ++key) {
    const uint64_t k = key * 0x9E3779B97F4A7C15ull;
    ASSERT_TRUE(store.Increment(k, 1 + key % 5).ok());
    truth[k] += 1 + key % 5;
    const double index_bits = store.IndexBitsPerKey();
    if (index_bits > last_index_bits) ++growths;  // only a doubling raises it
    last_index_bits = index_bits;
    if ((key & (key + 1)) == 0) {  // key + 1 a power of two: revisit all
      for (uint64_t j = 0; j <= key; j += 97) {
        const uint64_t kj = j * 0x9E3779B97F4A7C15ull;
        ASSERT_TRUE(store.Increment(kj, 2).ok());
        truth[kj] += 2;
      }
    }
  }
  EXPECT_GE(growths, 12);
  ExpectHolds(store, truth);
}

TEST(CounterStoreTableTest, MergeIntoAStoreThatGrowsMidMerge) {
  // 1792 keys fill a 2048-bucket table to its cap; a donor with 1792 more
  // (1000 of them shared) forces the destination to grow during the merge.
  auto dst = MakeExact32(1);
  auto donor = MakeExact32(2);
  std::map<uint64_t, uint64_t> truth;
  for (uint64_t key = 1; key <= 1792; ++key) {
    ASSERT_TRUE(dst.Increment(key, key).ok());
    truth[key] += key;
  }
  for (uint64_t key = 793; key <= 2584; ++key) {
    ASSERT_TRUE(donor.Increment(key, 7).ok());
    truth[key] += 7;
  }
  ASSERT_TRUE(dst.MergeFrom(donor).ok());
  ExpectHolds(dst, truth);
  // The donor is untouched.
  EXPECT_EQ(donor.num_keys(), 1792u);
  EXPECT_DOUBLE_EQ(donor.Estimate(793).ValueOrDie(), 7.0);
}

// Packs `width`-bit `value` at bit `off` of `bytes`, LSB-first — the
// stride-packed pool layout of the clstore1 format, written one bit at a
// time so it does not share code with the store.
void PutBits(std::vector<uint8_t>* bytes, uint64_t off, int width, uint64_t value) {
  for (int i = 0; i < width; ++i) {
    if ((value >> i) & 1u) (*bytes)[(off + i) / 8] |= uint8_t(1u << ((off + i) % 8));
  }
}

TEST(CounterStoreTableTest, HandBuiltClstore1ImageLoads) {
  // A clstore1 file as earlier releases wrote it: magic, stride, slot
  // count, key count, (key, slot) pairs in hash-map order, pool length,
  // then the states packed at the stride. Slots are deliberately out of
  // key order.
  struct Entry {
    uint64_t key, slot, count;
  };
  const std::vector<Entry> entries = {
      {5, 2, 1000}, {9, 0, 777}, {0, 3, 123456}, {~uint64_t{0}, 1, 1}};
  const int stride = 20;
  const uint64_t slots = entries.size();
  std::vector<uint8_t> pool((slots * stride + 7) / 8, 0);
  for (const Entry& e : entries) PutBits(&pool, e.slot * stride, stride, e.count);
  std::vector<uint64_t> words;
  uint64_t magic = 0;
  std::memcpy(&magic, "clstore1", sizeof(magic));
  words = {magic, static_cast<uint64_t>(stride), slots, entries.size()};
  for (const Entry& e : entries) {
    words.push_back(e.key);
    words.push_back(e.slot);
  }
  words.push_back(pool.size());
  const TempFile file("clstore1.bin");
  const char* path = file.path();
  std::FILE* f = std::fopen(path, "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(words.data(), sizeof(uint64_t), words.size(), f),
            words.size());
  ASSERT_EQ(std::fwrite(pool.data(), 1, pool.size(), f), pool.size());
  std::fclose(f);

  auto store = analytics::CounterStore::MakeWithBitBudget(
                   CounterKind::kExact, stride, (1u << stride) - 1, 1)
                   .ValueOrDie();
  ASSERT_TRUE(store.LoadFromFile(path).ok());
  std::remove(path);
  std::map<uint64_t, uint64_t> truth;
  for (const Entry& e : entries) truth[e.key] = e.count;
  ExpectHolds(store, truth);

  // The same image with sampling states: each key's estimate is what the
  // counter decodes from that slot's bits.
  auto sampling = analytics::CounterStore::MakeWithBitBudget(
                      CounterKind::kSampling, 18, 1u << 24, 1)
                      .ValueOrDie();
  std::vector<uint8_t> spool((slots * 18 + 7) / 8, 0);
  const uint64_t states[] = {0x00123, 0x1F0FF, 0x2ABCD, 0x00001};
  for (size_t i = 0; i < entries.size(); ++i) {
    PutBits(&spool, entries[i].slot * 18, 18, states[i]);
  }
  words[1] = 18;
  words.back() = spool.size();
  f = std::fopen(path, "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(words.data(), sizeof(uint64_t), words.size(), f);
  std::fwrite(spool.data(), 1, spool.size(), f);
  std::fclose(f);
  ASSERT_TRUE(sampling.LoadFromFile(path).ok());
  std::remove(path);
  auto reference = MakeCounterForBits(CounterKind::kSampling, 18, 1u << 24, 9)
                       .ValueOrDie();
  for (size_t i = 0; i < entries.size(); ++i) {
    BitWriter writer;
    writer.WriteBits(states[i], 18);
    BitReader reader(writer.bytes().data(), writer.bit_count());
    ASSERT_TRUE(reference->DeserializeState(&reader).ok());
    EXPECT_DOUBLE_EQ(sampling.Estimate(entries[i].key).ValueOrDie(),
                     reference->Estimate())
        << "key " << entries[i].key;
  }
}

TEST(CounterStoreTableTest, IndexBitsPerKeyIsMeasured) {
  auto store = analytics::CounterStore::MakeWithBitBudget(
                   CounterKind::kMorris, 16, uint64_t{1} << 24, 1)
                   .ValueOrDie();
  EXPECT_EQ(store.IndexBitsPerKey(), 0.0);
  // Just below the growth threshold of a 2^16-bucket table: 7/8 * 2^16 - 1
  // keys. Each 80-bit bucket holds a 64-bit key and 16 state bits.
  const uint64_t keys = (uint64_t{1} << 16) / 8 * 7 - 1;
  for (uint64_t key = 1; key <= keys; ++key) {
    ASSERT_TRUE(store.Increment(key, 1).ok());
  }
  ASSERT_EQ(store.num_keys(), keys);
  const double index_bits = store.IndexBitsPerKey();
  EXPECT_NEAR(index_bits,
              (65536.0 * 80.0 - static_cast<double>(keys) * 16.0) /
                  static_cast<double>(keys),
              0.01);
  EXPECT_LE(index_bits + store.bits_per_key(), 96.0);
}

TEST(CounterStoreTableTest, StateWiderThanOneWordIsRejected) {
  // Nelson-Yu at this accuracy needs 65 bits of state.
  const Accuracy wide{0.00174, 4e-10, uint64_t{1} << 20};
  ASSERT_EQ(MakeCounter(CounterKind::kNelsonYu, wide, 1).ValueOrDie()->StateBits(),
            65);
  EXPECT_TRUE(analytics::CounterStore::MakeWithAccuracy(CounterKind::kNelsonYu,
                                                        wide, 1)
                  .status()
                  .IsInvalidArgument());

  // At 64 bits it fits, and the counter round-trips through the store's
  // generic pack path.
  const Accuracy fits{0.00218, 4e-10, uint64_t{1} << 32};
  ASSERT_EQ(MakeCounter(CounterKind::kNelsonYu, fits, 1).ValueOrDie()->StateBits(),
            64);
  auto store =
      analytics::CounterStore::MakeWithAccuracy(CounterKind::kNelsonYu, fits, 1)
          .ValueOrDie();
  EXPECT_EQ(store.bits_per_key(), 64);
  ASSERT_TRUE(store.Increment(42, 5000).ok());
  ASSERT_TRUE(store.Increment(7, 3).ok());
  ASSERT_TRUE(store.Increment(42, 5000).ok());
  EXPECT_NEAR(store.Estimate(42).ValueOrDie(), 10000.0, 1000.0);
  EXPECT_DOUBLE_EQ(store.Estimate(7).ValueOrDie(), 3.0);
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
