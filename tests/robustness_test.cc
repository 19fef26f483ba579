// Fuzz-style robustness tests: deserializers and parsers must never crash
// or corrupt state on adversarial bytes — they return Status errors (or
// accept the bytes as a valid state, which is fine) and leave objects
// usable.

#include <gtest/gtest.h>

#include <vector>

#include "analytics/counter_store.h"
#include "core/counter_factory.h"
#include "random/rng.h"
#include "stream/trace.h"
#include "temp_file.h"
#include "util/bit_io.h"

namespace countlib {
namespace {

TEST(RobustnessTest, CounterDeserializeOnRandomBitsNeverCrashes) {
  Accuracy acc{0.15, 0.02, 1u << 22};
  Rng rng(0xF00D);
  for (CounterKind kind : kAllCounterKinds) {
    auto counter = MakeCounter(kind, acc, 7).ValueOrDie();
    const int bits = counter->StateBits();
    for (int round = 0; round < 200; ++round) {
      BitWriter writer;
      int remaining = bits;
      while (remaining > 0) {
        const int chunk = std::min(remaining, 64);
        writer.WriteBits(
            rng.NextU64() &
                (chunk == 64 ? ~uint64_t{0} : ((uint64_t{1} << chunk) - 1)),
            chunk);
        remaining -= chunk;
      }
      BitReader reader(writer.bytes().data(), writer.bit_count());
      Status st = counter->DeserializeState(&reader);
      if (st.ok()) {
        // Accepted: the state must be internally consistent enough to use.
        counter->Increment();
        (void)counter->Estimate();
        ASSERT_GE(counter->CurrentStateBits(), 0);
      }
      // Either way the counter must remain usable afterwards.
      counter->Reset();
      counter->IncrementMany(100);
      ASSERT_GE(counter->Estimate(), 0.0);
    }
  }
}

TEST(RobustnessTest, CounterDeserializeOnTruncatedStreams) {
  Accuracy acc{0.15, 0.02, 1u << 22};
  for (CounterKind kind : kAllCounterKinds) {
    auto counter = MakeCounter(kind, acc, 7).ValueOrDie();
    counter->IncrementMany(5000);
    BitWriter writer;
    ASSERT_TRUE(counter->SerializeState(&writer).ok());
    // Offer only half the bits: must fail with OutOfRange, not crash.
    BitReader reader(writer.bytes().data(), writer.bit_count() / 2);
    auto restored = MakeCounter(kind, acc, 9).ValueOrDie();
    Status st = restored->DeserializeState(&reader);
    EXPECT_FALSE(st.ok()) << CounterKindToString(kind);
  }
}

TEST(RobustnessTest, BitReaderNeverReadsPastLimit) {
  Rng rng(99);
  std::vector<uint8_t> bytes(64);
  for (auto& b : bytes) b = static_cast<uint8_t>(rng.NextU64());
  for (int round = 0; round < 500; ++round) {
    const size_t limit = rng.UniformBelow(bytes.size() * 8 + 1);
    BitReader reader(bytes.data(), limit);
    // Issue random read ops; position must never pass the limit.
    for (int op = 0; op < 20; ++op) {
      switch (rng.UniformBelow(4)) {
        case 0:
          (void)reader.ReadBits(static_cast<int>(rng.UniformBelow(65)));
          break;
        case 1:
          (void)reader.ReadVarint();
          break;
        case 2:
          (void)reader.ReadEliasGamma();
          break;
        default:
          (void)reader.ReadEliasDelta();
      }
      ASSERT_LE(reader.position(), limit);
    }
  }
}

TEST(RobustnessTest, TraceLoaderOnRandomTextFiles) {
  Rng rng(7);
  const TempFile file("fuzz_trace.txt");
  const char* path = file.path();
  for (int round = 0; round < 50; ++round) {
    std::FILE* f = std::fopen(path, "w");
    ASSERT_NE(f, nullptr);
    const int len = static_cast<int>(rng.UniformBelow(200));
    for (int i = 0; i < len; ++i) {
      std::fputc(" 0123456789\ncountlib-trace v"[rng.UniformBelow(24)], f);
    }
    std::fclose(f);
    auto result = stream::Trace::LoadFromFile(path);
    if (result.ok()) {
      // Extremely unlikely but legal: the random file parsed; it must be
      // internally consistent.
      (void)result->TotalIncrements();
    }
  }
  std::remove(path);
}

TEST(RobustnessTest, StoreLoadOnRandomBinaries) {
  Rng rng(13);
  const TempFile file("fuzz_store.bin");
  const char* path = file.path();
  auto store = analytics::CounterStore::MakeWithBitBudget(CounterKind::kSampling,
                                                          18, 1u << 20, 5)
                   .ValueOrDie();
  ASSERT_TRUE(store.Increment(1, 100).ok());
  const double before = store.Estimate(1).ValueOrDie();
  for (int round = 0; round < 50; ++round) {
    std::FILE* f = std::fopen(path, "wb");
    ASSERT_NE(f, nullptr);
    const int len = static_cast<int>(rng.UniformBelow(300));
    for (int i = 0; i < len; ++i) {
      std::fputc(static_cast<int>(rng.NextU64() & 0xFF), f);
    }
    std::fclose(f);
    Status st = store.LoadFromFile(path);
    if (!st.ok()) {
      // Failed loads must not corrupt existing contents.
      ASSERT_DOUBLE_EQ(store.Estimate(1).ValueOrDie(), before);
    }
  }
  std::remove(path);
}

}  // namespace
}  // namespace countlib
