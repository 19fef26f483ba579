// Tests for CounterStore save/load persistence.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <vector>

#include "analytics/counter_store.h"
#include "temp_file.h"

namespace countlib {
namespace {

class PersistenceTest : public testing::Test {
 protected:
  const TempFile file_{"store.bin"};
  const char* const kPath = file_.path();
};

analytics::CounterStore MakeExactStore(uint64_t seed = 1) {
  return analytics::CounterStore::MakeWithBitBudget(
             CounterKind::kExact, 32, (uint64_t{1} << 32) - 1, seed)
      .ValueOrDie();
}

// Writes raw little-endian words; words[0] is the 8-byte magic.
void WriteWords(const char* path, const std::vector<uint64_t>& words) {
  std::FILE* f = std::fopen(path, "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(words.data(), sizeof(uint64_t), words.size(), f);
  std::fclose(f);
}

uint64_t Magic() {
  uint64_t m = 0;
  std::memcpy(&m, "clstore1", sizeof(m));
  return m;
}

analytics::CounterStore MakeStore(uint64_t seed = 1) {
  return analytics::CounterStore::MakeWithBitBudget(CounterKind::kSampling, 18,
                                                    1u << 24, seed)
      .ValueOrDie();
}

TEST_F(PersistenceTest, RoundTripPreservesEveryEstimate) {
  auto store = MakeStore();
  for (uint64_t key = 0; key < 500; ++key) {
    ASSERT_TRUE(store.Increment(key * 17, 1 + key * 13).ok());
  }
  ASSERT_TRUE(store.SaveToFile(kPath).ok());

  auto restored = MakeStore(999);
  ASSERT_TRUE(restored.LoadFromFile(kPath).ok());
  EXPECT_EQ(restored.num_keys(), store.num_keys());
  EXPECT_EQ(restored.TotalStateBits(), store.TotalStateBits());
  for (uint64_t key = 0; key < 500; ++key) {
    ASSERT_DOUBLE_EQ(restored.Estimate(key * 17).ValueOrDie(),
                     store.Estimate(key * 17).ValueOrDie())
        << "key " << key * 17;
  }
}

TEST_F(PersistenceTest, RestoredStoreKeepsCounting) {
  auto store = MakeStore();
  ASSERT_TRUE(store.Increment(42, 1000).ok());
  ASSERT_TRUE(store.SaveToFile(kPath).ok());
  auto restored = MakeStore(7);
  ASSERT_TRUE(restored.LoadFromFile(kPath).ok());
  ASSERT_TRUE(restored.Increment(42, 1000).ok());
  const double est = restored.Estimate(42).ValueOrDie();
  EXPECT_NEAR(est, 2000.0, 600.0);
}

TEST_F(PersistenceTest, EmptyStoreRoundTrips) {
  auto store = MakeStore();
  ASSERT_TRUE(store.SaveToFile(kPath).ok());
  auto restored = MakeStore(2);
  ASSERT_TRUE(restored.LoadFromFile(kPath).ok());
  EXPECT_EQ(restored.num_keys(), 0u);
}

TEST_F(PersistenceTest, StrideMismatchRejected) {
  auto store = MakeStore();
  ASSERT_TRUE(store.Increment(1, 5).ok());
  ASSERT_TRUE(store.SaveToFile(kPath).ok());
  auto other = analytics::CounterStore::MakeWithBitBudget(CounterKind::kSampling,
                                                          20, 1u << 24, 1)
                   .ValueOrDie();
  EXPECT_TRUE(other.LoadFromFile(kPath).IsFailedPrecondition());
}

TEST_F(PersistenceTest, GarbageFileRejected) {
  std::FILE* f = std::fopen(kPath, "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("definitely not a store", f);
  std::fclose(f);
  auto store = MakeStore();
  EXPECT_TRUE(store.LoadFromFile(kPath).IsIOError());
  EXPECT_TRUE(store.LoadFromFile("/nonexistent/store.bin").IsIOError());
}

TEST_F(PersistenceTest, TruncatedFileRejectedAndStateUnharmed) {
  auto store = MakeStore();
  for (uint64_t key = 0; key < 50; ++key) {
    ASSERT_TRUE(store.Increment(key, 100).ok());
  }
  ASSERT_TRUE(store.SaveToFile(kPath).ok());
  // Truncate the file to half.
  std::FILE* f = std::fopen(kPath, "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(kPath, size / 2), 0);

  auto victim = MakeStore(3);
  ASSERT_TRUE(victim.Increment(7, 123).ok());
  const double before = victim.Estimate(7).ValueOrDie();
  EXPECT_FALSE(victim.LoadFromFile(kPath).ok());
  // The failed load must not have corrupted the existing contents.
  EXPECT_DOUBLE_EQ(victim.Estimate(7).ValueOrDie(), before);
}

TEST_F(PersistenceTest, HeaderCountsBeyondFileLengthRejectedAndStateUnharmed) {
  auto victim = MakeExactStore();
  ASSERT_TRUE(victim.Increment(7, 123).ok());
  // Magic, stride 32, one slot, and a key count of 2^60 in a 32-byte file.
  WriteWords(kPath, {Magic(), 32, 1, uint64_t{1} << 60});
  EXPECT_TRUE(victim.LoadFromFile(kPath).IsIOError());
  // The same count with the pool length present.
  WriteWords(kPath, {Magic(), 32, 1, uint64_t{1} << 60, 4});
  EXPECT_TRUE(victim.LoadFromFile(kPath).IsIOError());
  // A slot count whose pool size overflows 64 bits.
  WriteWords(kPath, {Magic(), 32, uint64_t{1} << 62, 0, 0});
  EXPECT_TRUE(victim.LoadFromFile(kPath).IsIOError());
  // A slot count whose pool the file cannot hold.
  WriteWords(kPath, {Magic(), 32, uint64_t{1} << 40, 0, uint64_t{4} << 40});
  EXPECT_TRUE(victim.LoadFromFile(kPath).IsIOError());
  EXPECT_EQ(victim.num_keys(), 1u);
  EXPECT_DOUBLE_EQ(victim.Estimate(7).ValueOrDie(), 123.0);
}

TEST_F(PersistenceTest, DuplicateSlotRejectedAndStateUnharmed) {
  // Two keys, two 32-bit slots (one pool word, zero counts). With distinct
  // slots the file loads.
  WriteWords(kPath, {Magic(), 32, 2, 2, 10, 0, 20, 1, 8, 0});
  auto control = MakeExactStore();
  ASSERT_TRUE(control.LoadFromFile(kPath).ok());
  EXPECT_EQ(control.num_keys(), 2u);

  // Key 20 aliasing key 10's slot is rejected, and the store keeps its
  // contents.
  WriteWords(kPath, {Magic(), 32, 2, 2, 10, 0, 20, 0, 8, 0});
  auto victim = MakeExactStore(2);
  ASSERT_TRUE(victim.Increment(7, 123).ok());
  EXPECT_TRUE(victim.LoadFromFile(kPath).IsIOError());
  EXPECT_EQ(victim.num_keys(), 1u);
  EXPECT_DOUBLE_EQ(victim.Estimate(7).ValueOrDie(), 123.0);
  EXPECT_TRUE(victim.Estimate(10).status().IsNotFound());
}

TEST_F(PersistenceTest, OutOfRangeStateRejectedAndStateUnharmed) {
  // An accuracy-calibrated exact counter for n <= 1000 holds 10 bits, so
  // a 10-bit slot can carry 1001..1023, which no counter reaches.
  const Accuracy acc{0.1, 0.01, 1000};
  auto victim =
      analytics::CounterStore::MakeWithAccuracy(CounterKind::kExact, acc, 1)
          .ValueOrDie();
  ASSERT_EQ(victim.bits_per_key(), 10);
  ASSERT_TRUE(victim.Increment(7, 123).ok());
  // Keys 10 and 20 in slots 0 and 1 of a 20-bit pool (3 bytes): 1000 is
  // the cap and loads; 1023 is past it.
  WriteWords(kPath, {Magic(), 10, 2, 2, 10, 0, 20, 1, 3, 1000 | (1000u << 10)});
  auto control =
      analytics::CounterStore::MakeWithAccuracy(CounterKind::kExact, acc, 2)
          .ValueOrDie();
  ASSERT_TRUE(control.LoadFromFile(kPath).ok());
  EXPECT_DOUBLE_EQ(control.Estimate(20).ValueOrDie(), 1000.0);

  WriteWords(kPath, {Magic(), 10, 2, 2, 10, 0, 20, 1, 3, 1000 | (1023u << 10)});
  EXPECT_TRUE(victim.LoadFromFile(kPath).IsInvalidArgument());
  EXPECT_EQ(victim.num_keys(), 1u);
  EXPECT_DOUBLE_EQ(victim.Estimate(7).ValueOrDie(), 123.0);
  EXPECT_TRUE(victim.Estimate(10).status().IsNotFound());
}

TEST_F(PersistenceTest, ExactKindRoundTripsExactly) {
  auto store = analytics::CounterStore::MakeWithBitBudget(CounterKind::kExact, 20,
                                                          (1u << 20) - 1, 1)
                   .ValueOrDie();
  ASSERT_TRUE(store.Increment(11, 54321).ok());
  ASSERT_TRUE(store.SaveToFile(kPath).ok());
  auto restored = analytics::CounterStore::MakeWithBitBudget(
                      CounterKind::kExact, 20, (1u << 20) - 1, 2)
                      .ValueOrDie();
  ASSERT_TRUE(restored.LoadFromFile(kPath).ok());
  EXPECT_DOUBLE_EQ(restored.Estimate(11).ValueOrDie(), 54321.0);
}

}  // namespace
}  // namespace countlib
