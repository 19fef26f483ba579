// Runtime companion to tools/locktree.py: exercises the documented lock
// hierarchy's cross-class edges concurrently, in the documented order,
// so the TSAN CI lane (which includes this suite) would observe any
// lock-order inversion the static analyzer misses as a real deadlock or
// race. The paths covered are exactly the ones the static engine cannot
// fully see (docs/concurrency.md "Known limits"):
//
//   Registry::mu_ (60) -> ShardedCounterStore gauge callbacks
//     via std::function callbacks run under the registry lock; the
//     gauges read relaxed mirrors and must never freeze or park, so this
//     path acquires nothing;
//   IngestPipeline::workers_mu_ (10), held across Pause's join barrier
//     while stats readers fold the lock-free per-worker cells;
//   Registry::mu_ (60) -> MetricsCollector::series_mu_ (70)
//     via the collector's series-provider callback in TakeSnapshot.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "analytics/sharded_counter_store.h"
#include "obs/collector.h"
#include "obs/metrics.h"
#include "pipeline/ingest_pipeline.h"

namespace countlib {
namespace {

std::unique_ptr<analytics::ShardedCounterStore> MakeStore(uint64_t shards = 4) {
  return analytics::ShardedCounterStore::Make(
             shards, CounterKind::kExact, 32, (uint64_t{1} << 32) - 1, 1)
      .ValueOrDie();
}

// Registry (60) -> store gauges: snapshots run the sharded store's gauge
// callbacks under the registry mutex while lane writers write and a reader
// keeps freezing the store for TopK. The gauges must read only the relaxed
// per-shard mirrors: a gauge that read a shard's store directly would race
// the lane writers (TSAN reports it), and one that froze the store would
// park under the registry lock behind the reader's freezes.
TEST(LockHierarchyTest, RegistrySnapshotVsLaneWriters) {
  auto store = MakeStore();
  std::vector<obs::Registration> regs = store->RegisterMetrics();

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (uint64_t lane = 0; lane < 2; ++lane) {
    writers.emplace_back([&, lane] {
      uint64_t key = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const analytics::KeyWeight update{key++ % 64, 1};
        ASSERT_TRUE(store->IncrementBatch(lane, &update, 1).ok());
      }
    });
  }
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      ASSERT_TRUE(store->TopK(4).ok());
      std::this_thread::yield();
    }
  });
  std::thread snapshotter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      obs::Snapshot snap = obs::Registry::Default().TakeSnapshot();
      (void)snap;
      std::this_thread::yield();
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : writers) t.join();
  reader.join();
  snapshotter.join();

  // Handles must release before the store (and this test) go away.
  regs.clear();
  EXPECT_GT(store->NumKeys(), 0u);
}

// workers_mu_ (10): Pause/Resume cycles hold it across joins and spawns
// while stats readers fold the per-worker cells without any lock and
// submitters run the lock-free fast path.
TEST(LockHierarchyTest, ElasticResizeVsStatsReaders) {
  auto store = MakeStore();
  pipeline::PipelineOptions opt;
  opt.num_producers = 2;
  opt.num_workers = 2;
  auto pipe = pipeline::IngestPipeline::Make(store.get(), opt).ValueOrDie();

  std::atomic<bool> stop{false};
  std::thread resizer([&] {
    bool paused = false;
    while (!stop.load(std::memory_order_relaxed)) {
      ASSERT_TRUE(paused ? pipe->Resume().ok() : pipe->Pause().ok());
      paused = !paused;
      std::this_thread::yield();
    }
  });
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      std::vector<pipeline::WorkerStats> per = pipe->PerWorkerStats();
      (void)per;
      pipeline::PipelineStats s = pipe->Stats();
      (void)s;
      std::this_thread::yield();
    }
  });
  std::thread submitter([&] {
    uint64_t key = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      Status st = pipe->TrySubmit(0, key++ % 16, 1);
      ASSERT_TRUE(st.ok() || st.IsPending());
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true, std::memory_order_relaxed);
  resizer.join();
  reader.join();
  submitter.join();

  ASSERT_TRUE(pipe->Drain().ok());
}

// Registry (60) -> collector series (70): snapshots fold the collector's
// ring buffers in under the registry mutex while the collector thread and
// a direct Series() reader take series_mu_ on their own.
TEST(LockHierarchyTest, RegistrySnapshotVsCollectorSeries) {
  obs::Registry registry;
  obs::Counter work;
  obs::Registration counter_reg =
      registry.RegisterCounter("lock_hierarchy_work", &work);
  obs::CollectorOptions opt;
  opt.sample_interval = std::chrono::milliseconds(1);
  auto collector =
      obs::MetricsCollector::Make(&registry, opt).ValueOrDie();

  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      obs::Snapshot snap = registry.TakeSnapshot();
      (void)snap;
      std::this_thread::yield();
    }
  });
  std::thread series_reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto series = collector->Series();
      (void)series;
      work.Add(1);
      std::this_thread::yield();
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true, std::memory_order_relaxed);
  snapshotter.join();
  series_reader.join();

  collector->Stop();
  EXPECT_GT(collector->ticks(), 0u);
}

}  // namespace
}  // namespace countlib
