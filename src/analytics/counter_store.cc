#include "analytics/counter_store.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

#include "util/math.h"

namespace countlib {
namespace analytics {

namespace {

constexpr uint64_t kMinCapacity = 16;

/// Most keys a table of `capacity` buckets holds: a load of 7/8.
uint64_t MaxLoad(uint64_t capacity) { return capacity - capacity / 8; }

/// Smallest power-of-two capacity (>= kMinCapacity) that holds `keys`.
uint64_t CapacityFor(uint64_t keys) {
  uint64_t capacity = kMinCapacity;
  while (MaxLoad(capacity) < keys) capacity *= 2;
  return capacity;
}

/// Words holding `bits` packed bits, plus one pad word: `LoadBits` and
/// `StoreBits` always touch the word after a field's first, so they run
/// without a branch on whether the field straddles a word boundary (with
/// random keys that branch is a coin flip per access).
size_t WordsFor(uint64_t bits) { return static_cast<size_t>((bits + 63) / 64 + 1); }

/// The murmur3 64-bit finalizer: every key bit reaches the high bits the
/// bucket index is taken from.
uint64_t Mix(uint64_t key) {
  key ^= key >> 33;
  key *= 0xFF51AFD7ED558CCDull;
  key ^= key >> 33;
  key *= 0xC4CEB9FE1A85EC53ull;
  key ^= key >> 33;
  return key;
}

/// Reads the `width`-bit field (1..64) at bit `off`. Fields are packed
/// LSB-first, so a field spans at most two words; the second one's share
/// is shifted in by `(x << 1) << (63 - shift)`, which is 0 when shift is 0.
uint64_t LoadBits(const uint64_t* words, uint64_t off, int width) {
  const uint64_t* p = words + off / 64;
  const unsigned shift = static_cast<unsigned>(off % 64);
  const uint64_t value = (p[0] >> shift) | ((p[1] << 1) << (63 - shift));
  return value & LowBitsMask(width);
}

/// Writes the low `width` bits (1..64) of `value` into the field at `off`.
void StoreBits(uint64_t* words, uint64_t off, int width, uint64_t value) {
  uint64_t* p = words + off / 64;
  const unsigned shift = static_cast<unsigned>(off % 64);
  const uint64_t mask = LowBitsMask(width);
  value &= mask;
  p[0] = (p[0] & ~(mask << shift)) | (value << shift);
  // The bits that spill past the first word; none when the field fits.
  const uint64_t spill_mask = (mask >> 1) >> (63 - shift);
  p[1] = (p[1] & ~spill_mask) | ((value >> 1) >> (63 - shift));
}

}  // namespace

CounterStore::CounterStore(std::unique_ptr<Counter> scratch, int stride_bits)
    : scratch_(std::move(scratch)),
      stride_bits_(stride_bits),
      bucket_bits_(64 + stride_bits) {
  fresh_state_ = scratch_->PackState();
  InitTable(kMinCapacity);
}

Result<CounterStore> CounterStore::FromScratchCounter(
    std::unique_ptr<Counter> scratch) {
  const int stride = scratch->StateBits();
  if (stride < 1 || stride > 64) {
    return Status::InvalidArgument(
        "CounterStore: " + scratch->Name() + " needs " + std::to_string(stride) +
        " state bits; a bucket holds 1 to 64");
  }
  scratch->Reset();
  return CounterStore(std::move(scratch), stride);
}

Result<CounterStore> CounterStore::MakeWithBitBudget(CounterKind kind,
                                                     int state_bits, uint64_t n_max,
                                                     uint64_t seed) {
  COUNTLIB_ASSIGN_OR_RETURN(std::unique_ptr<Counter> scratch,
                            MakeCounterForBits(kind, state_bits, n_max, seed));
  return FromScratchCounter(std::move(scratch));
}

Result<CounterStore> CounterStore::MakeWithAccuracy(CounterKind kind,
                                                    const Accuracy& acc,
                                                    uint64_t seed) {
  COUNTLIB_ASSIGN_OR_RETURN(std::unique_ptr<Counter> scratch,
                            MakeCounter(kind, acc, seed));
  return FromScratchCounter(std::move(scratch));
}

void CounterStore::InitTable(uint64_t capacity) {
  table_.assign(WordsFor(capacity * static_cast<uint64_t>(bucket_bits_)), 0);
  capacity_ = capacity;
  hash_shift_ = 64 - FloorLog2(capacity);
  table_keys_ = 0;
}

uint64_t CounterStore::KeyAt(uint64_t bucket) const {
  return LoadBits(table_.data(), bucket * static_cast<uint64_t>(bucket_bits_), 64);
}

uint64_t CounterStore::StateAt(uint64_t bucket) const {
  if (bucket == kEmptyKeyBucket) return empty_key_state_;
  return LoadBits(table_.data(),
                  bucket * static_cast<uint64_t>(bucket_bits_) + 64, stride_bits_);
}

void CounterStore::SetState(uint64_t bucket, uint64_t state) {
  if (bucket == kEmptyKeyBucket) {
    empty_key_state_ = state;
    return;
  }
  StoreBits(table_.data(), bucket * static_cast<uint64_t>(bucket_bits_) + 64,
            stride_bits_, state);
}

// HOTPATH: one probe per update; linear probing ends at the key or at an
// empty bucket, and the 7/8 load cap guarantees one exists.
uint64_t CounterStore::Probe(uint64_t key) const {
  const uint64_t mask = capacity_ - 1;
  uint64_t bucket = Mix(key) >> hash_shift_;
  while (true) {
    const uint64_t held = KeyAt(bucket);
    if (held == key || held == kEmptyKey) return bucket;
    bucket = (bucket + 1) & mask;
  }
}

uint64_t CounterStore::Find(uint64_t key) const {
  if (key == kEmptyKey) return has_empty_key_ ? kEmptyKeyBucket : kAbsent;
  const uint64_t bucket = Probe(key);
  return KeyAt(bucket) == key ? bucket : kAbsent;
}

uint64_t CounterStore::FindOrInsert(uint64_t key, uint64_t state, bool* inserted) {
  if (key == kEmptyKey) {
    *inserted = !has_empty_key_;
    if (*inserted) {
      has_empty_key_ = true;
      empty_key_state_ = state;
      ++num_keys_;
    }
    return kEmptyKeyBucket;
  }
  uint64_t bucket = Probe(key);
  *inserted = KeyAt(bucket) != key;
  if (!*inserted) return bucket;
  if (table_keys_ + 1 > MaxLoad(capacity_)) {
    Reserve(table_keys_ + 1);
    bucket = Probe(key);
  }
  const uint64_t off = bucket * static_cast<uint64_t>(bucket_bits_);
  StoreBits(table_.data(), off, 64, key);
  StoreBits(table_.data(), off + 64, stride_bits_, state);
  ++table_keys_;
  ++num_keys_;
  return bucket;
}

void CounterStore::Reserve(uint64_t keys) {
  const uint64_t capacity = CapacityFor(keys);
  if (capacity <= capacity_) return;
  const std::vector<uint64_t> old = std::move(table_);
  const uint64_t old_capacity = capacity_;
  const uint64_t moved = table_keys_;
  InitTable(capacity);
  for (uint64_t b = 0; b < old_capacity; ++b) {
    const uint64_t off = b * static_cast<uint64_t>(bucket_bits_);
    const uint64_t key = LoadBits(old.data(), off, 64);
    if (key == kEmptyKey) continue;
    const uint64_t dst = Probe(key) * static_cast<uint64_t>(bucket_bits_);
    StoreBits(table_.data(), dst, 64, key);
    StoreBits(table_.data(), dst + 64, stride_bits_,
              LoadBits(old.data(), off + 64, stride_bits_));
  }
  table_keys_ = moved;
}

template <typename Fn>
Status CounterStore::ForEachKeyState(Fn&& fn) const {
  if (has_empty_key_) COUNTLIB_RETURN_NOT_OK(fn(kEmptyKey, empty_key_state_));
  for (uint64_t b = 0; b < capacity_; ++b) {
    const uint64_t key = KeyAt(b);
    if (key != kEmptyKey) COUNTLIB_RETURN_NOT_OK(fn(key, StateAt(b)));
  }
  return Status::OK();
}

Result<double> CounterStore::EstimateOf(uint64_t state) const {
  COUNTLIB_RETURN_NOT_OK(scratch_->UnpackState(state));
  return scratch_->Estimate();
}

// HOTPATH
Status CounterStore::Increment(uint64_t key, uint64_t weight) {
  bool inserted = false;
  const uint64_t bucket = FindOrInsert(key, fresh_state_, &inserted);
  COUNTLIB_RETURN_NOT_OK(scratch_->UnpackState(StateAt(bucket)));
  scratch_->IncrementMany(weight);
  const uint64_t state = scratch_->PackState();
  if (state > LowBitsMask(stride_bits_)) {
    return Status::Internal("counter state wider than its StateBits");
  }
  SetState(bucket, state);
  return Status::OK();
}

// HOTPATH
Status CounterStore::IncrementBatch(const KeyWeight* updates, size_t n) {
  // Keys spread over a large table miss the cache on nearly every probe.
  // Requesting the home bucket of an update a few places ahead overlaps
  // those misses with the work on the current one.
  constexpr size_t kAhead = 8;
  for (size_t i = 0; i < n; ++i) {
    if (i + kAhead < n) {
      const uint64_t home = Mix(updates[i + kAhead].key) >> hash_shift_;
      __builtin_prefetch(table_.data() +
                         home * static_cast<uint64_t>(bucket_bits_) / 64);
    }
    COUNTLIB_RETURN_NOT_OK(Increment(updates[i].key, updates[i].weight));
  }
  return Status::OK();
}

Status CounterStore::ForEach(const std::function<void(uint64_t, double)>& fn) const {
  return ForEachKeyState([this, &fn](uint64_t key, uint64_t state) -> Status {
    COUNTLIB_ASSIGN_OR_RETURN(double estimate, EstimateOf(state));
    fn(key, estimate);
    return Status::OK();
  });
}

Result<double> CounterStore::Estimate(uint64_t key) const {
  const uint64_t bucket = Find(key);
  if (bucket == kAbsent) {
    return Status::NotFound("key " + std::to_string(key) + " never incremented");
  }
  return EstimateOf(StateAt(bucket));
}

Result<bool> CounterStore::ReadKeyState(uint64_t key, Counter* into) const {
  if (into->StateBits() != stride_bits_) {
    return Status::FailedPrecondition(
        "ReadKeyState: counter StateBits (" +
        std::to_string(into->StateBits()) + ") != store stride (" +
        std::to_string(stride_bits_) + ")");
  }
  const uint64_t bucket = Find(key);
  if (bucket == kAbsent) return false;
  COUNTLIB_RETURN_NOT_OK(into->UnpackState(StateAt(bucket)));
  return true;
}

Status CounterStore::MergeFrom(const CounterStore& donor) {
  if (&donor == this) {
    return Status::InvalidArgument("CounterStore::MergeFrom: self-merge");
  }
  if (donor.stride_bits_ != stride_bits_) {
    return Status::FailedPrecondition(
        "CounterStore::MergeFrom: stride mismatch (" +
        std::to_string(donor.stride_bits_) + " vs " +
        std::to_string(stride_bits_) + " bits/key)");
  }
  // The merged store holds at least as many keys as the larger side, so
  // size for that once instead of doubling up from a small table.
  Reserve(std::max(table_keys_, donor.table_keys_));
  return donor.ForEachKeyState([this, &donor](uint64_t key,
                                              uint64_t donor_state) -> Status {
    bool inserted = false;
    const uint64_t bucket = FindOrInsert(key, donor_state, &inserted);
    // A key only the donor has seen: its state is already distributed as
    // one counter over that key's whole stream, so taking the word as is
    // IS the merge.
    if (inserted) return Status::OK();
    // Both sides hold state: decode each into its store's scratch counter
    // and merge per Remark 2.4. Decoding through the donor's scratch is
    // within the single-caller-at-a-time contract both stores already
    // carry (the sharded store only merges frozen shards).
    COUNTLIB_RETURN_NOT_OK(donor.scratch_->UnpackState(donor_state));
    COUNTLIB_RETURN_NOT_OK(scratch_->UnpackState(StateAt(bucket)));
    Status st = scratch_->MergeFrom(*donor.scratch_);
    if (!st.ok()) {
      return st.WithContext("merging key " + std::to_string(key));
    }
    SetState(bucket, scratch_->PackState());
    return Status::OK();
  });
}

namespace {
constexpr char kStoreMagic[8] = {'c', 'l', 's', 't', 'o', 'r', 'e', '1'};
}  // namespace

Status CounterStore::SaveToFile(const std::string& path) const {
  // Slots are dense in table order; the pool packs slot s's state at bit
  // s * stride, LSB-first within bytes.
  const uint64_t pool_bits = num_keys_ * static_cast<uint64_t>(stride_bits_);
  std::vector<uint64_t> pool(WordsFor(pool_bits), 0);
  std::vector<uint64_t> index;
  index.reserve(2 * num_keys_);
  Status packed = ForEachKeyState([&](uint64_t key, uint64_t state) -> Status {
    const uint64_t slot = index.size() / 2;
    StoreBits(pool.data(), slot * static_cast<uint64_t>(stride_bits_),
              stride_bits_, state);
    index.push_back(key);
    index.push_back(slot);
    return Status::OK();
  });
  COUNTLIB_RETURN_NOT_OK(packed);
  std::vector<uint8_t> pool_bytes((pool_bits + 7) / 8);
  for (size_t i = 0; i < pool_bytes.size(); ++i) {
    pool_bytes[i] = static_cast<uint8_t>(pool[i / 8] >> (8 * (i % 8)));
  }

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot open for write: " + path);
  auto write_u64 = [f](uint64_t v) {
    return std::fwrite(&v, sizeof(v), 1, f) == 1;
  };
  bool ok = std::fwrite(kStoreMagic, sizeof(kStoreMagic), 1, f) == 1;
  ok = ok && write_u64(static_cast<uint64_t>(stride_bits_));
  ok = ok && write_u64(num_keys_);  // slots
  ok = ok && write_u64(num_keys_);  // keys
  for (uint64_t word : index) ok = ok && write_u64(word);
  ok = ok && write_u64(pool_bytes.size());
  ok = ok && (pool_bytes.empty() ||
              std::fwrite(pool_bytes.data(), 1, pool_bytes.size(), f) ==
                  pool_bytes.size());
  if (std::fclose(f) != 0 || !ok) {
    return Status::IOError("write failed: " + path);
  }
  return Status::OK();
}

Status CounterStore::LoadFromFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open for read: " + path);
  auto fail = [f, &path](const std::string& what) {
    std::fclose(f);
    return Status::IOError(what + ": " + path);
  };
  if (std::fseek(f, 0, SEEK_END) != 0) return fail("cannot size file");
  const long end = std::ftell(f);
  if (end < 0 || std::fseek(f, 0, SEEK_SET) != 0) {
    return fail("cannot size file");
  }
  const uint64_t file_bytes = static_cast<uint64_t>(end);
  char magic[8];
  if (std::fread(magic, sizeof(magic), 1, f) != 1 ||
      std::memcmp(magic, kStoreMagic, sizeof(magic)) != 0) {
    return fail("bad store header");
  }
  auto read_u64 = [f](uint64_t* v) { return std::fread(v, sizeof(*v), 1, f) == 1; };
  uint64_t stride = 0, slots = 0, keys = 0;
  if (!read_u64(&stride) || !read_u64(&slots) || !read_u64(&keys)) {
    return fail("truncated header");
  }
  if (stride != static_cast<uint64_t>(stride_bits_)) {
    std::fclose(f);
    return Status::FailedPrecondition(
        "store stride mismatch: file has " + std::to_string(stride) +
        " bits/key, this store is configured for " +
        std::to_string(stride_bits_));
  }
  // The header's counts come from the file, so bound them by what the file
  // can hold before sizing anything from them: a corrupt count must fail
  // with a Status, not throw bad_alloc. After the magic and the three
  // header words come `keys` (key, slot) pairs, the pool length, and the
  // pool itself.
  constexpr uint64_t kFixedBytes = sizeof(kStoreMagic) + 4 * sizeof(uint64_t);
  if (file_bytes < kFixedBytes) return fail("truncated pool header");
  const uint64_t payload = file_bytes - kFixedBytes;
  constexpr uint64_t kIndexEntryBytes = 2 * sizeof(uint64_t);
  if (keys > payload / kIndexEntryBytes) {
    return fail("key count exceeds file length");
  }
  if (slots > (~uint64_t{0} - 7) / stride) {
    return fail("slot count overflows the pool size");
  }
  const uint64_t expected_bytes = (slots * stride + 7) / 8;
  if (expected_bytes > payload - keys * kIndexEntryBytes) {
    return fail("pool size exceeds file length");
  }
  std::vector<uint64_t> file_keys(keys), file_slots(keys);
  // Two keys sharing a slot would alias one counter: updating either would
  // move both.
  std::vector<bool> slot_taken(slots, false);
  for (uint64_t i = 0; i < keys; ++i) {
    if (!read_u64(&file_keys[i]) || !read_u64(&file_slots[i])) {
      return fail("truncated index");
    }
    const uint64_t slot = file_slots[i];
    if (slot >= slots) return fail("slot out of range");
    if (slot_taken[slot]) return fail("duplicate slot");
    slot_taken[slot] = true;
  }
  {
    std::vector<uint64_t> sorted = file_keys;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      return fail("duplicate key");
    }
  }
  uint64_t pool_bytes = 0;
  if (!read_u64(&pool_bytes)) return fail("truncated pool header");
  if (pool_bytes != expected_bytes) return fail("pool size mismatch");
  std::vector<uint8_t> bytes(pool_bytes);
  if (pool_bytes > 0 && std::fread(bytes.data(), 1, pool_bytes, f) != pool_bytes) {
    return fail("truncated pool");
  }
  std::fclose(f);
  std::vector<uint64_t> pool(WordsFor(slots * stride), 0);
  for (size_t i = 0; i < bytes.size(); ++i) {
    pool[i / 8] |= static_cast<uint64_t>(bytes[i]) << (8 * (i % 8));
  }
  // Validate every state before committing, so a corrupt file leaves the
  // store as it was.
  std::vector<uint64_t> states(keys);
  for (uint64_t i = 0; i < keys; ++i) {
    states[i] = LoadBits(pool.data(), file_slots[i] * stride, stride_bits_);
    Status st = scratch_->UnpackState(states[i]);
    if (!st.ok()) {
      return st.WithContext("corrupt slot for key " + std::to_string(file_keys[i]));
    }
  }
  InitTable(CapacityFor(keys));
  num_keys_ = 0;
  has_empty_key_ = false;
  empty_key_state_ = 0;
  for (uint64_t i = 0; i < keys; ++i) {
    bool inserted = false;
    FindOrInsert(file_keys[i], states[i], &inserted);
  }
  return Status::OK();
}

double CounterStore::IndexBitsPerKey() const {
  if (num_keys_ == 0) return 0.0;
  const double table_bits = 64.0 * static_cast<double>(table_.size());
  const double state_bits = static_cast<double>(TotalStateBits());
  return (table_bits - state_bits) / static_cast<double>(num_keys_);
}

}  // namespace analytics
}  // namespace countlib
