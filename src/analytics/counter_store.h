/// \file counter_store.h
/// \brief The paper's motivating application (§1): an analytics system
/// maintaining a very large number of per-key approximate counters
/// ("the number of visits to each page on Wikipedia"), where shaving bits
/// per counter is the whole game.
///
/// `CounterStore` is one open-addressing hash table. Each bucket holds a
/// 64-bit key followed by exactly `StateBits()` bits of counter state (the
/// provisioned program state of the chosen algorithm — e.g. 18 bits for a
/// sampling counter at ε=10%, δ=1%, n_max=2^24, vs 64 for a naive machine
/// counter), and buckets are bit-packed back to back at 64+StateBits()
/// bits in a word array. An update is one probe, one word-level extract of
/// the state into a scratch counter (`Counter::UnpackState`), the
/// increment, and one word-level deposit (`Counter::PackState`) —
/// mirroring the paper's model (Remark 2.2) where O(log N)-bit scratch
/// registers are free but *stored* state is precious.
///
/// The table doubles when its load would pass 7/8, and `IndexBitsPerKey()`
/// reports what the keys and the empty buckets cost beyond the state bits,
/// measured from the table's allocation. Every counter the store hosts
/// must pack into one word: `StateBits() > 64` is rejected at construction.

#ifndef COUNTLIB_ANALYTICS_COUNTER_STORE_H_
#define COUNTLIB_ANALYTICS_COUNTER_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/counter.h"
#include "core/counter_factory.h"
#include "util/status.h"

namespace countlib {
namespace analytics {

/// \brief One weighted update: `weight` increments to `key`. The unit of
/// the batch APIs and of the ingestion pipeline's queues.
struct KeyWeight {
  uint64_t key;
  uint64_t weight;
};

/// \brief A key together with its current estimate (snapshot accessors).
struct KeyEstimate {
  uint64_t key;
  double estimate;
};

/// \brief Bit-packed hash table of many per-key approximate counters.
class CounterStore {
 public:
  /// Builds a store whose per-key counters are `kind` calibrated to
  /// `state_bits` bits for counts up to `n_max` (kinds supported by
  /// `MakeCounterForBits`).
  static Result<CounterStore> MakeWithBitBudget(CounterKind kind, int state_bits,
                                                uint64_t n_max, uint64_t seed);

  /// Builds a store whose per-key counters achieve the accuracy target.
  /// Pass δ ≪ 1/expected_keys so all counters are simultaneously correct
  /// with high probability (the paper's δ ≪ 1/M discussion).
  /// InvalidArgument when the calibration needs more than 64 state bits.
  static Result<CounterStore> MakeWithAccuracy(CounterKind kind, const Accuracy& acc,
                                               uint64_t seed);

  /// Adds `weight` increments to `key`'s counter (creating it on first use).
  Status Increment(uint64_t key, uint64_t weight = 1);

  /// Applies `n` updates in one pass. Callers that pre-aggregate duplicate
  /// keys (the ingestion pipeline does) pay one bucket unpack/pack per
  /// *distinct* key instead of per event.
  /// Stops at the first error; already-applied updates stay applied.
  Status IncrementBatch(const KeyWeight* updates, size_t n);

  /// The key's current estimate; NotFound if never incremented.
  Result<double> Estimate(uint64_t key) const;

  /// Decodes `key`'s packed state into `into`, which must be an
  /// identically-configured counter (same algorithm and calibration, so its
  /// `StateBits()` equals this store's stride). Returns false (with `into`
  /// untouched) when the key was never incremented. The cross-shard
  /// per-key read path: merge-on-read stores decode each shard's state
  /// into scratch counters and `Counter::MergeFrom` them together.
  Result<bool> ReadKeyState(uint64_t key, Counter* into) const;

  /// Merges every key of `donor` into this store (Remark 2.4: each merged
  /// per-key counter is distributed exactly as one counter over the
  /// concatenated per-key streams). Both stores must be identically
  /// configured — the stride is checked, the algorithm is the caller's
  /// contract (as with LoadFromFile). Keys new to this store take the
  /// donor's state word as is; keys present in both are merged via
  /// `Counter::MergeFrom`.
  /// Stops at the first error; already-merged keys stay merged.
  Status MergeFrom(const CounterStore& donor);

  /// Invokes `fn(key, estimate)` for every key in the store, decoding each
  /// bucket once. Iteration order is unspecified.
  Status ForEach(const std::function<void(uint64_t, double)>& fn) const;

  /// Number of distinct keys.
  uint64_t num_keys() const { return num_keys_; }

  /// Bits of counter state per key (the bucket's state field).
  int bits_per_key() const { return stride_bits_; }

  /// Total bits of packed counter state (stride * keys).
  uint64_t TotalStateBits() const {
    return static_cast<uint64_t>(stride_bits_) * num_keys_;
  }

  /// Bits per key the table holds beyond the counter state: the stored
  /// key plus the share of empty buckets, measured from the table's
  /// allocation as (table bits - keys * stride) / keys. 0 when empty.
  double IndexBitsPerKey() const;

  /// The algorithm's display name.
  std::string AlgorithmName() const { return scratch_->Name(); }

  /// Persists the store to a binary file (format `clstore1`: the keys with
  /// dense slot numbers, then the states packed at the stride). The
  /// counter algorithm and calibration are NOT stored — the loader must
  /// construct a store with identical parameters first (they are program
  /// constants in the paper's model); a stride checksum guards against
  /// mismatches.
  Status SaveToFile(const std::string& path) const;

  /// Restores a store previously saved with `SaveToFile` into this
  /// (identically-configured) store, replacing its contents. Every state
  /// is validated (`Counter::UnpackState`) before anything is replaced, so
  /// a failed load leaves the store as it was.
  Status LoadFromFile(const std::string& path);

 private:
  CounterStore(std::unique_ptr<Counter> scratch, int stride_bits);

  static Result<CounterStore> FromScratchCounter(std::unique_ptr<Counter> scratch);

  /// Bucket index of `key`, `kAbsent` if the store does not hold it, or
  /// `kEmptyKeyBucket` for the one key equal to the empty marker.
  uint64_t Find(uint64_t key) const;
  /// Like `Find`, but inserts `key` with `state` when absent (growing the
  /// table first if needed). `*inserted` reports which happened.
  uint64_t FindOrInsert(uint64_t key, uint64_t state, bool* inserted);
  /// Probes from `key`'s home bucket to the bucket holding it or to the
  /// first empty one. Requires `key != kEmptyKey`.
  uint64_t Probe(uint64_t key) const;
  uint64_t KeyAt(uint64_t bucket) const;
  uint64_t StateAt(uint64_t bucket) const;
  void SetState(uint64_t bucket, uint64_t state);
  /// Replaces the table with `capacity` empty buckets (keys are dropped;
  /// the empty-marker bucket is left alone).
  void InitTable(uint64_t capacity);
  /// Grows the table, rehashing once, until `keys` fit under the load cap.
  void Reserve(uint64_t keys);
  /// Calls `fn(key, state)` for every held key, the empty-marker key
  /// included; stops at the first non-OK status.
  template <typename Fn>
  Status ForEachKeyState(Fn&& fn) const;
  /// Decodes `state` into the scratch counter and returns its estimate.
  Result<double> EstimateOf(uint64_t state) const;

  static constexpr uint64_t kEmptyKey = 0;
  static constexpr uint64_t kAbsent = ~uint64_t{0};
  static constexpr uint64_t kEmptyKeyBucket = kAbsent - 1;

  std::unique_ptr<Counter> scratch_;  // decode/encode scratch (Remark 2.2)
  int stride_bits_;                   // StateBits(): the state field width
  int bucket_bits_;                   // 64 + stride_bits_
  uint64_t fresh_state_ = 0;          // PackState() of a reset counter
  // capacity_ buckets packed back to back at bucket_bits_ each (the key
  // field, then the state field), then one pad word. A bucket whose key is
  // kEmptyKey is empty, and its state field is zero.
  std::vector<uint64_t> table_;
  uint64_t capacity_ = 0;  // buckets; a power of two
  int hash_shift_ = 0;     // 64 - log2(capacity_)
  uint64_t table_keys_ = 0;
  uint64_t num_keys_ = 0;  // table_keys_ plus the empty-marker key if held
  // The key equal to kEmptyKey cannot live in the table; its bucket sits
  // here.
  bool has_empty_key_ = false;
  uint64_t empty_key_state_ = 0;
};

}  // namespace analytics
}  // namespace countlib

#endif  // COUNTLIB_ANALYTICS_COUNTER_STORE_H_
