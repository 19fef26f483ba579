// Tests for the overload-control policies: stable policy names and
// kShed's exact per-slot accounting (delivered + shed == submitted, to the
// last event).

#include "pipeline/overload.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "analytics/sharded_counter_store.h"
#include "pipeline/ingest_pipeline.h"

namespace countlib {
namespace pipeline {
namespace {

std::unique_ptr<analytics::ShardedCounterStore> MakeExactStore(uint64_t shards = 8) {
  return analytics::ShardedCounterStore::Make(
             shards, CounterKind::kExact, 32, (uint64_t{1} << 32) - 1, 1)
      .ValueOrDie();
}

TEST(OverloadPolicyTest, NamesAreStable) {
  EXPECT_STREQ(OverloadPolicyName(OverloadPolicy::kBlock), "block");
  EXPECT_STREQ(OverloadPolicyName(OverloadPolicy::kShed), "shed");
}

// The shed contract: a paused pipeline (no drain progress at all) forces
// every over-capacity Submit through the shed path, and the accounting
// must balance exactly — delivered + shed == submitted attempts, with the
// per-slot split matching what each slot actually shed.
TEST(OverloadPolicyTest, ShedAccountsExactlyPerSlot) {
  auto store = MakeExactStore();
  PipelineOptions opt;
  opt.num_producers = 2;
  opt.num_workers = 1;
  opt.queue_capacity = 64;
  opt.overload.policy = OverloadPolicy::kShed;
  auto pipeline = IngestPipeline::Make(store.get(), opt).ValueOrDie();
  EXPECT_EQ(pipeline->overload_policy(), OverloadPolicy::kShed);
  ASSERT_TRUE(pipeline->Pause().ok());  // freeze: no drains

  constexpr uint64_t kAttemptsPerSlot = 500;  // >> ring capacity of 64
  uint64_t attempts = 0;
  for (uint64_t slot = 0; slot < 2; ++slot) {
    for (uint64_t i = 0; i < kAttemptsPerSlot; ++i) {
      // Shed mode: Submit never blocks and never reports kPending, even
      // with zero workers — this loop finishing at all is the
      // bounded-latency assertion.
      ASSERT_TRUE(pipeline->Submit(slot, /*key=*/slot, 1).ok());
      ++attempts;
    }
  }
  const PipelineStats paused = pipeline->Stats();
  EXPECT_EQ(paused.events_submitted + paused.events_shed, attempts);
  EXPECT_GT(paused.events_shed, 0u);
  ASSERT_EQ(paused.shed_per_slot.size(), 2u);
  EXPECT_EQ(paused.shed_per_slot[0] + paused.shed_per_slot[1],
            paused.events_shed);
  // Both slots filled their private rings and shed the rest.
  EXPECT_EQ(paused.shed_per_slot[0], kAttemptsPerSlot - opt.queue_capacity);
  EXPECT_EQ(paused.shed_per_slot[1], kAttemptsPerSlot - opt.queue_capacity);

  ASSERT_TRUE(pipeline->Resume().ok());
  ASSERT_TRUE(pipeline->Drain().ok());
  const PipelineStats stats = pipeline->Stats();
  // The balance sheet closes: every attempt was either applied or shed.
  EXPECT_EQ(stats.events_applied + stats.events_shed, attempts);
  EXPECT_EQ(stats.events_applied, stats.events_submitted);
  const double delivered = store->Estimate(0).ValueOrDie() +
                           store->Estimate(1).ValueOrDie();
  EXPECT_EQ(delivered, static_cast<double>(stats.events_applied));
}

}  // namespace
}  // namespace pipeline
}  // namespace countlib
