// Tests for workload generators and trace record/replay.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "stream/trace.h"
#include "stream/workload.h"
#include "temp_file.h"

namespace countlib {
namespace {

TEST(UniformCountTest, ValidationAndRange) {
  EXPECT_FALSE(stream::UniformCountWorkload::Make(0, 10).ok());
  EXPECT_FALSE(stream::UniformCountWorkload::Make(10, 5).ok());
  auto workload = stream::UniformCountWorkload::Make(500000, 999999).ValueOrDie();
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t n = workload.Sample(&rng);
    ASSERT_GE(n, 500000u);
    ASSERT_LE(n, 999999u);
  }
}

TEST(ZipfKeyTest, SkewConcentratesOnSmallKeys) {
  auto workload = stream::ZipfKeyWorkload::Make(1000, 1.2).ValueOrDie();
  Rng rng(3);
  uint64_t head_hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (workload.Next(&rng).key < 10) ++head_hits;
  }
  // With s = 1.2 over 1000 keys, the top-10 hold the majority of the mass.
  EXPECT_GT(head_hits, n / 2);
}

TEST(BurstyKeyTest, BurstLengthsHaveRequestedMean) {
  auto workload = stream::BurstyKeyWorkload::Make(100, 0.8, 16.0).ValueOrDie();
  Rng rng(5);
  double total = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    total += static_cast<double>(workload.Next(&rng).weight);
  }
  EXPECT_NEAR(total / n, 16.0, 1.0);
}

TEST(BurstyKeyTest, RejectsSubUnitBurst) {
  EXPECT_FALSE(stream::BurstyKeyWorkload::Make(100, 1.0, 0.5).ok());
}

TEST(TraceTest, GenerateZipfShapes) {
  auto trace = stream::Trace::GenerateZipf(64, 1.0, 5000, 7).ValueOrDie();
  EXPECT_EQ(trace.num_events(), 5000u);
  EXPECT_EQ(trace.TotalIncrements(), 5000u);  // zipf events have weight 1
  auto counts = trace.ExactCounts();
  uint64_t total = 0;
  for (const auto& [key, count] : counts) {
    EXPECT_LT(key, 64u);
    total += count;
  }
  EXPECT_EQ(total, 5000u);
}

TEST(TraceTest, GenerateBurstyHitsTargetIncrements) {
  auto trace =
      stream::Trace::GenerateBursty(64, 1.0, 8.0, 100000, 9).ValueOrDie();
  EXPECT_EQ(trace.TotalIncrements(), 100000u);
}

TEST(TraceTest, SaveLoadRoundTrip) {
  auto trace = stream::Trace::GenerateZipf(32, 0.9, 1000, 11).ValueOrDie();
  const TempFile file("trace.txt");
  const std::string path = file.path();
  ASSERT_TRUE(trace.SaveToFile(path).ok());
  auto loaded = stream::Trace::LoadFromFile(path).ValueOrDie();
  ASSERT_EQ(loaded.num_events(), trace.num_events());
  for (size_t i = 0; i < trace.num_events(); ++i) {
    ASSERT_EQ(loaded.events()[i].key, trace.events()[i].key);
    ASSERT_EQ(loaded.events()[i].weight, trace.events()[i].weight);
  }
  std::remove(path.c_str());
}

TEST(TraceTest, LoadRejectsGarbage) {
  const TempFile file("garbage.txt");
  const std::string path = file.path();
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("not a trace\n", f);
  std::fclose(f);
  EXPECT_TRUE(stream::Trace::LoadFromFile(path).status().IsIOError());
  std::remove(path.c_str());
  EXPECT_TRUE(stream::Trace::LoadFromFile("/nonexistent/x").status().IsIOError());
}

}  // namespace
}  // namespace countlib
