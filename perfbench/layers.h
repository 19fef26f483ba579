// Layer attribution for the traced run, built entirely outside the library:
// a timing CounterWriter decorator between the pipeline and the store, the
// quiescent read probe, and single-threaded replays of one layer at a time
// (wire codec, direct store, bare counter, counter merge).

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "analytics/sharded_counter_store.h"
#include "analytics/store_interface.h"
#include "core/counter_factory.h"
#include "util/status.h"

namespace perfbench {

/// The counter recipe a workload's store is built from.
struct CounterRecipe {
  countlib::CounterKind kind;
  int bits;
  uint64_t n_max;
};

/// Forwards `IncrementBatch` to the real store and times each call: wall
/// time and the calling worker's thread CPU. Optionally keeps a copy of
/// the first `record_cap` post-aggregation updates per lane so the store
/// and counter layers can be replayed alone afterwards.
class TimingWriter final : public countlib::analytics::CounterWriter {
 public:
  TimingWriter(countlib::analytics::CounterWriter* inner, uint64_t record_cap);

  uint64_t num_lanes() const override { return inner_->num_lanes(); }
  countlib::Status IncrementBatch(uint64_t lane,
                                  const countlib::analytics::KeyWeight* updates,
                                  size_t n) override;

  struct Totals {
    uint64_t calls = 0;
    uint64_t updates = 0;
    uint64_t events = 0;
    uint64_t wall_ns = 0;
    uint64_t cpu_ns = 0;
  };
  /// Sum over lanes; exact once the pipeline has been flushed.
  Totals Sum() const;

  /// Whether batches are copied for the replays (on by default); the
  /// dashboard turns it on only after its pre-fill.
  void set_recording(bool on) { recording_.store(on, std::memory_order_relaxed); }

  /// Recorded batches of `lane` (read only after the pipeline is drained).
  const std::vector<countlib::analytics::KeyWeight>& recorded(uint64_t lane) const {
    return lanes_[lane]->updates;
  }
  const std::vector<uint32_t>& recorded_sizes(uint64_t lane) const {
    return lanes_[lane]->sizes;
  }

 private:
  /// One writer per lane (the store contract), so plain relaxed stores.
  struct alignas(64) Lane {
    std::atomic<uint64_t> calls{0};
    std::atomic<uint64_t> updates_n{0};
    std::atomic<uint64_t> events{0};
    std::atomic<uint64_t> wall_ns{0};
    std::atomic<uint64_t> cpu_ns{0};
    std::vector<countlib::analytics::KeyWeight> updates;
    std::vector<uint32_t> sizes;
  };
  countlib::analytics::CounterWriter* inner_;
  uint64_t record_cap_;
  std::atomic<bool> recording_{true};
  std::vector<std::unique_ptr<Lane>> lanes_;
};

/// Read latencies of a store whose writers are idle, in rounds spread over
/// time: on a shared VM a burst of sub-microsecond calls lands in a fast or
/// slow host phase as a whole, so one burst does not repeat; the median of
/// per-round quantiles does.
struct ReadProbe {
  std::vector<std::vector<double>> estimate_ns;  ///< per round
  std::vector<std::vector<double>> topk_ns;      ///< per round
  std::vector<double> snapshot_ns;
  uint64_t calls = 0;
  uint64_t errors = 0;
};

struct ProbePlan {
  uint64_t rounds = 20;
  uint64_t estimates_per_round = 1000;
  uint64_t topk_per_round = 100;
  uint64_t snapshots = 0;  ///< bare Snapshot() calls after the rounds
  uint64_t gap_ns = 25000000;
  uint64_t topk_rounds = ~uint64_t{0};  ///< rounds that include the TopK calls
};

/// Runs `plan.rounds` rounds of Estimates of keys drawn (seeded) from the
/// first `key_limit` entries of `keys` and (in the first `topk_rounds`)
/// TopK(100) calls, each round on the next allowed CPU, sleeping
/// `plan.gap_ns` between rounds; then the bare Snapshot() calls.
ReadProbe RunReadProbe(const countlib::analytics::ShardedCounterStore& store,
                       const std::vector<uint32_t>& keys, uint64_t key_limit,
                       uint64_t seed, const ProbePlan& plan);

/// Quantile `q` of a per-round sample: the median over rounds of each
/// round's quantile, taken over the rounds holding at least
/// kMinRoundSamples samples; the quantile of all samples pooled when fewer
/// than 3 rounds qualify.
inline constexpr size_t kMinRoundSamples = 10;
double RoundQuantile(const std::vector<std::vector<double>>& rounds, double q);

/// Share of the samples slower than 10x `quiescent_ns`: calls that waited
/// on a freeze rather than doing their own work.
double WaitedFraction(const std::vector<std::vector<double>>& rounds, double quiescent_ns);

/// Single-threaded replay of the wire codec over `keys` cut into frames of
/// `frame_events`: returns encode ns/event; `*decode_ns` gets decode
/// ns/event. `*roundtrip_ok` is false if a decoded frame differs.
double ReplayWireCodec(const std::vector<uint32_t>& keys, uint64_t frame_events,
                       double* decode_ns, bool* roundtrip_ok);

/// Replays the recorded batches into a fresh store with the same recipe and
/// lane count, one thread; ns per update.
double ReplayDirectStore(const TimingWriter& rec, const CounterRecipe& recipe,
                         uint64_t lanes);

/// Drives bare counters of the recipe (4096 of them, by key) with the
/// recorded updates: ns per `IncrementMany` call. `*merge_ns` gets the
/// `MergeFrom` cost per counter pair.
double ReplayCore(const TimingWriter& rec, const CounterRecipe& recipe,
                  uint64_t lanes, double* merge_ns);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
