// Cross-module serialization tests: every counter kind round-trips its
// program state through the bit stream at exactly StateBits() bits, and
// keeps functioning after restore — the contract the analytics pool
// depends on.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "baselines/csuros.h"
#include "baselines/exact_counter.h"
#include "core/counter_factory.h"
#include "core/morris.h"
#include "core/sampling_counter.h"
#include "random/rng.h"
#include "util/bit_io.h"
#include "util/math.h"

namespace countlib {
namespace {

class SerializationTest : public testing::TestWithParam<CounterKind> {};

TEST_P(SerializationTest, RoundTripAtExactlyStateBits) {
  const CounterKind kind = GetParam();
  Accuracy acc{0.15, 0.02, 1u << 22};
  auto counter = MakeCounter(kind, acc, 7).ValueOrDie();
  counter->IncrementMany(123457);

  BitWriter writer;
  ASSERT_TRUE(counter->SerializeState(&writer).ok());
  ASSERT_EQ(static_cast<int>(writer.bit_count()), counter->StateBits())
      << "serialization width must equal the provisioned footprint";

  auto restored = MakeCounter(kind, acc, 999).ValueOrDie();
  BitReader reader(writer.bytes().data(), writer.bit_count());
  ASSERT_TRUE(restored->DeserializeState(&reader).ok());
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_DOUBLE_EQ(restored->Estimate(), counter->Estimate());
  EXPECT_EQ(restored->CurrentStateBits(), counter->CurrentStateBits());
}

TEST_P(SerializationTest, RestoredCounterKeepsCounting) {
  const CounterKind kind = GetParam();
  Accuracy acc{0.15, 0.02, 1u << 22};
  auto counter = MakeCounter(kind, acc, 7).ValueOrDie();
  counter->IncrementMany(50000);
  BitWriter writer;
  ASSERT_TRUE(counter->SerializeState(&writer).ok());
  auto restored = MakeCounter(kind, acc, 3).ValueOrDie();
  BitReader reader(writer.bytes().data(), writer.bit_count());
  ASSERT_TRUE(restored->DeserializeState(&reader).ok());
  restored->IncrementMany(50000);
  // 100k total with ε = 0.15 and generous slack (this is a liveness check,
  // not the accuracy test).
  EXPECT_NEAR(restored->Estimate(), 100000.0, 50000.0);
}

TEST_P(SerializationTest, FreshStateSerializesToZeros) {
  const CounterKind kind = GetParam();
  Accuracy acc{0.15, 0.02, 1u << 22};
  auto counter = MakeCounter(kind, acc, 7).ValueOrDie();
  BitWriter writer;
  ASSERT_TRUE(counter->SerializeState(&writer).ok());
  // A fresh counter's registers are all-zero for every kind (X0 is a
  // program constant for Nelson-Yu, not stored — Remark 2.2)... except the
  // Nelson-Yu X register, which stores the level itself. Just verify the
  // round trip restores a fresh-equivalent counter.
  auto restored = MakeCounter(kind, acc, 11).ValueOrDie();
  BitReader reader(writer.bytes().data(), writer.bit_count());
  ASSERT_TRUE(restored->DeserializeState(&reader).ok());
  EXPECT_DOUBLE_EQ(restored->Estimate(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, SerializationTest, testing::ValuesIn(kAllCounterKinds),
    [](const testing::TestParamInfo<CounterKind>& info) {
      std::string name = CounterKindToString(info.param);
      for (char& ch : name) {
        if (ch == '-' || ch == '+') ch = '_';
      }
      return name;
    });

// --- PackState / UnpackState against the file format ----------------------
//
// The packed store keeps each counter as one word from PackState and reads
// it back with UnpackState, while files and the bit stream go through
// SerializeState / DeserializeState. The two must be the same layout with
// the same validation, for every kind a bit budget builds.

struct PackCase {
  std::string name;
  std::function<std::unique_ptr<Counter>(uint64_t seed)> make;
  // Whether some words of StateBits() bits are out of range.
  bool has_invalid_words = false;
};

// Names the case in test listings; without it gtest prints the raw bytes
// of the struct, pointers included, so the listed name would change from
// build to build.
void PrintTo(const PackCase& c, std::ostream* os) { *os << c.name; }

std::function<std::unique_ptr<Counter>(uint64_t)> ForBits(CounterKind kind,
                                                          int bits,
                                                          uint64_t n_max) {
  return [=](uint64_t seed) {
    return MakeCounterForBits(kind, bits, n_max, seed).ValueOrDie();
  };
}

template <typename T>
std::unique_ptr<Counter> Own(Result<T> made) {
  return std::make_unique<T>(std::move(made).ValueOrDie());
}

std::vector<PackCase> PackCases() {
  std::vector<PackCase> cases = {
      {"exact_1", ForBits(CounterKind::kExact, 1, 1)},
      {"exact_32", ForBits(CounterKind::kExact, 32, 1)},
      {"exact_62", ForBits(CounterKind::kExact, 62, 1)},
      {"morris_2", ForBits(CounterKind::kMorris, 2, 8)},
      {"morris_16", ForBits(CounterKind::kMorris, 16, 1u << 20)},
      {"morris_62", ForBits(CounterKind::kMorris, 62, 1u << 30)},
      {"sampling_4", ForBits(CounterKind::kSampling, 4, 2)},
      {"sampling_18", ForBits(CounterKind::kSampling, 18, 1u << 20)},
      {"sampling_62", ForBits(CounterKind::kSampling, 62, 1u << 30)},
      {"csuros_16", ForBits(CounterKind::kCsuros, 16, 1u << 20)},
      {"csuros_32", ForBits(CounterKind::kCsuros, 32, 1u << 20)},
  };
  // Bit budgets give every field an all-ones cap, so no word is out of
  // range. These caps leave room above them, so random words exercise the
  // count > n_cap, x > x_cap, t > t_cap and s >= s_max rejections.
  cases.push_back({"exact_cap1000", [](uint64_t) {
                     return Own(ExactCounter::Make(1000));
                   }, true});
  cases.push_back({"morris_cap40", [](uint64_t seed) {
                     MorrisParams p;
                     p.a = 0.5;
                     p.x_cap = 40;
                     return Own(MorrisCounter::Make(p, seed));
                   }, true});
  cases.push_back({"sampling_tcap20", [](uint64_t seed) {
                     SamplingCounterParams p;
                     p.budget = 64;
                     p.t_cap = 20;
                     return Own(SamplingCounter::Make(p, seed));
                   }, true});
  cases.push_back({"csuros_ecap20", [](uint64_t seed) {
                     CsurosParams p;
                     p.mantissa_bits = 5;
                     p.exponent_cap = 20;
                     return Own(CsurosCounter::Make(p, seed));
                   }, true});
  return cases;
}

// The low StateBits() bits SerializeState writes, as one word.
uint64_t SerializedWord(const Counter& counter) {
  BitWriter writer;
  EXPECT_TRUE(counter.SerializeState(&writer).ok());
  EXPECT_EQ(static_cast<int>(writer.bit_count()), counter.StateBits());
  BitReader reader(writer.bytes().data(), writer.bit_count());
  return reader.ReadBits(counter.StateBits()).ValueOrDie();
}

class PackStateTest : public testing::TestWithParam<PackCase> {};

TEST_P(PackStateTest, PackMatchesSerializeOnReachableStates) {
  auto counter = GetParam().make(5);
  ASSERT_LE(counter->StateBits(), 64);
  const uint64_t mask = LowBitsMask(counter->StateBits());
  Rng rng(17);
  for (int step = 0; step < 300; ++step) {
    const uint64_t packed = counter->PackState();
    ASSERT_EQ(packed & ~mask, 0u) << "bits above StateBits at step " << step;
    ASSERT_EQ(packed, SerializedWord(*counter)) << "step " << step;
    counter->IncrementMany(1 + rng.UniformBelow(uint64_t{1} << (step % 16)));
  }
}

TEST_P(PackStateTest, UnpackAgreesWithDeserializeOnRandomWords) {
  auto packed_path = GetParam().make(1);
  auto stream_path = GetParam().make(2);
  const int bits = packed_path->StateBits();
  const uint64_t mask = LowBitsMask(bits);
  Rng rng(29);
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < 10000; ++i) {
    const uint64_t word = rng.NextU64() & mask;
    BitWriter writer;
    writer.WriteBits(word, bits);
    BitReader reader(writer.bytes().data(), writer.bit_count());
    const Status via_stream = stream_path->DeserializeState(&reader);
    const Status via_word = packed_path->UnpackState(word);
    ASSERT_EQ(via_word.ok(), via_stream.ok())
        << "word " << word << ": " << via_word.ToString() << " vs "
        << via_stream.ToString();
    if (!via_word.ok()) {
      EXPECT_TRUE(via_word.IsInvalidArgument()) << via_word.ToString();
      ++rejected;
      continue;
    }
    ++accepted;
    ASSERT_DOUBLE_EQ(packed_path->Estimate(), stream_path->Estimate())
        << "word " << word;
    ASSERT_EQ(packed_path->PackState(), word);
    ASSERT_EQ(stream_path->PackState(), word);
    if (bits < 64) {
      // Bits above the state are not part of it.
      ASSERT_TRUE(packed_path->UnpackState(word | ~mask).ok());
      ASSERT_EQ(packed_path->PackState(), word);
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_EQ(rejected > 0, GetParam().has_invalid_words);
}

INSTANTIATE_TEST_SUITE_P(BitBudgetKinds, PackStateTest,
                         testing::ValuesIn(PackCases()),
                         [](const testing::TestParamInfo<PackCase>& info) {
                           return info.param.name;
                         });

}  // namespace
}  // namespace countlib
