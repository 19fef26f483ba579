#include "analytics/counter_store.h"

#include <cstdio>
#include <cstring>

#include "util/bit_io.h"
#include "util/logging.h"
#include "util/math.h"

namespace countlib {
namespace analytics {

namespace {

/// Copies `nbits` bits from `src` starting at bit `src_off` into `dst`
/// starting at bit `dst_off` (LSB-first within bytes, matching BitWriter).
void CopyBits(const uint8_t* src, uint64_t src_off, uint8_t* dst, uint64_t dst_off,
              uint64_t nbits) {
  for (uint64_t i = 0; i < nbits; ++i) {
    const uint64_t s = src_off + i;
    const uint64_t d = dst_off + i;
    const uint8_t bit = (src[s / 8] >> (s % 8)) & 1u;
    if (bit) {
      dst[d / 8] = static_cast<uint8_t>(dst[d / 8] | (1u << (d % 8)));
    } else {
      dst[d / 8] = static_cast<uint8_t>(dst[d / 8] & ~(1u << (d % 8)));
    }
  }
}

}  // namespace

Result<CounterStore> CounterStore::FromScratchCounter(
    std::unique_ptr<Counter> scratch) {
  scratch->Reset();
  BitWriter writer;
  COUNTLIB_RETURN_NOT_OK(scratch->SerializeState(&writer));
  const int stride = scratch->StateBits();
  if (static_cast<int>(writer.bit_count()) != stride) {
    return Status::Internal("counter serialization width (" +
                            std::to_string(writer.bit_count()) +
                            ") != StateBits (" + std::to_string(stride) + ")");
  }
  return CounterStore(std::move(scratch), writer.bytes(), stride);
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

Status CounterStore::LoadSlotInto(uint64_t slot, Counter* into) const {
  const uint64_t bit_off = slot * static_cast<uint64_t>(stride_bits_);
  slot_buf_.assign((static_cast<size_t>(stride_bits_) + 7) / 8, 0);
  CopyBits(pool_.data(), bit_off, slot_buf_.data(), 0, stride_bits_);
  BitReader reader(slot_buf_.data(), stride_bits_);
  return into->DeserializeState(&reader);
}

Status CounterStore::LoadSlot(uint64_t slot) const {
  return LoadSlotInto(slot, scratch_.get());
}

Status CounterStore::StoreSlot(uint64_t slot) {
  BitWriter writer;
  COUNTLIB_RETURN_NOT_OK(scratch_->SerializeState(&writer));
  if (static_cast<int>(writer.bit_count()) != stride_bits_) {
    return Status::Internal("slot width drift");
  }
  const uint64_t bit_off = slot * static_cast<uint64_t>(stride_bits_);
  CopyBits(writer.bytes().data(), 0, pool_.data(), bit_off, stride_bits_);
  return Status::OK();
}

Result<uint64_t> CounterStore::GetOrCreateSlot(uint64_t key) {
  auto it = index_.find(key);
  if (it != index_.end()) return it->second;
  const uint64_t slot = num_slots_++;
  const uint64_t bits_needed = num_slots_ * static_cast<uint64_t>(stride_bits_);
  pool_.resize((bits_needed + 7) / 8, 0);
  CopyBits(zero_state_.data(), 0, pool_.data(),
           slot * static_cast<uint64_t>(stride_bits_), stride_bits_);
  index_.emplace(key, slot);
  return slot;
}

Status CounterStore::Increment(uint64_t key, uint64_t weight) {
  COUNTLIB_ASSIGN_OR_RETURN(uint64_t slot, GetOrCreateSlot(key));
  COUNTLIB_RETURN_NOT_OK(LoadSlot(slot));
  scratch_->IncrementMany(weight);
  return StoreSlot(slot);
}

Status CounterStore::IncrementBatch(const KeyWeight* updates, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    COUNTLIB_RETURN_NOT_OK(Increment(updates[i].key, updates[i].weight));
  }
  return Status::OK();
}

Status CounterStore::ForEach(const std::function<void(uint64_t, double)>& fn) const {
  for (const auto& [key, slot] : index_) {
    COUNTLIB_RETURN_NOT_OK(LoadSlot(slot));
    fn(key, scratch_->Estimate());
  }
  return Status::OK();
}

Result<double> CounterStore::Estimate(uint64_t key) const {
  auto it = index_.find(key);
  if (it == index_.end()) {
    return Status::NotFound("key " + std::to_string(key) + " never incremented");
  }
  COUNTLIB_RETURN_NOT_OK(LoadSlot(it->second));
  return scratch_->Estimate();
}

Result<bool> CounterStore::ReadKeyState(uint64_t key, Counter* into) const {
  if (into->StateBits() != stride_bits_) {
    return Status::FailedPrecondition(
        "ReadKeyState: counter StateBits (" +
        std::to_string(into->StateBits()) + ") != store stride (" +
        std::to_string(stride_bits_) + ")");
  }
  auto it = index_.find(key);
  if (it == index_.end()) return false;
  COUNTLIB_RETURN_NOT_OK(LoadSlotInto(it->second, into));
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
  for (const auto& [key, donor_slot] : donor.index_) {
    auto it = index_.find(key);
    if (it == index_.end()) {
      // Key only the donor has seen: its packed state is already
      // distributed as one counter over that key's whole stream, so a raw
      // bit copy IS the merge.
      COUNTLIB_ASSIGN_OR_RETURN(uint64_t slot, GetOrCreateSlot(key));
      CopyBits(donor.pool_.data(),
               donor_slot * static_cast<uint64_t>(stride_bits_), pool_.data(),
               slot * static_cast<uint64_t>(stride_bits_), stride_bits_);
      continue;
    }
    // Both sides hold state: decode each into its store's scratch counter
    // and merge per Remark 2.4. Decoding through the donor's scratch is
    // within the single-caller-at-a-time contract both stores already
    // carry (the sharded store only merges frozen shards).
    COUNTLIB_RETURN_NOT_OK(donor.LoadSlot(donor_slot));
    COUNTLIB_RETURN_NOT_OK(LoadSlot(it->second));
    Status st = scratch_->MergeFrom(*donor.scratch_);
    if (!st.ok()) {
      return st.WithContext("merging key " + std::to_string(key));
    }
    COUNTLIB_RETURN_NOT_OK(StoreSlot(it->second));
  }
  return Status::OK();
}

namespace {
constexpr char kStoreMagic[8] = {'c', 'l', 's', 't', 'o', 'r', 'e', '1'};
}  // namespace

Status CounterStore::SaveToFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot open for write: " + path);
  auto write_u64 = [f](uint64_t v) {
    return std::fwrite(&v, sizeof(v), 1, f) == 1;
  };
  bool ok = std::fwrite(kStoreMagic, sizeof(kStoreMagic), 1, f) == 1;
  ok = ok && write_u64(static_cast<uint64_t>(stride_bits_));
  ok = ok && write_u64(num_slots_);
  ok = ok && write_u64(index_.size());
  for (const auto& [key, slot] : index_) {
    ok = ok && write_u64(key) && write_u64(slot);
  }
  ok = ok && write_u64(pool_.size());
  ok = ok && (pool_.empty() ||
              std::fwrite(pool_.data(), 1, pool_.size(), f) == pool_.size());
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
  std::unordered_map<uint64_t, uint64_t> index;
  index.reserve(keys);
  // Two keys sharing a slot would alias one counter: updating either would
  // move both.
  std::vector<bool> slot_taken(slots, false);
  for (uint64_t i = 0; i < keys; ++i) {
    uint64_t key = 0, slot = 0;
    if (!read_u64(&key) || !read_u64(&slot)) return fail("truncated index");
    if (slot >= slots) return fail("slot out of range");
    if (slot_taken[slot]) return fail("duplicate slot");
    slot_taken[slot] = true;
    if (!index.emplace(key, slot).second) return fail("duplicate key");
  }
  uint64_t pool_bytes = 0;
  if (!read_u64(&pool_bytes)) return fail("truncated pool header");
  if (pool_bytes != expected_bytes) return fail("pool size mismatch");
  std::vector<uint8_t> pool(pool_bytes);
  if (pool_bytes > 0 && std::fread(pool.data(), 1, pool_bytes, f) != pool_bytes) {
    return fail("truncated pool");
  }
  std::fclose(f);
  // Validate every slot deserializes cleanly before committing.
  std::vector<uint8_t> saved_pool = std::move(pool_);
  uint64_t saved_slots = num_slots_;
  pool_ = std::move(pool);
  num_slots_ = slots;
  for (const auto& [key, slot] : index) {
    Status st = LoadSlot(slot);
    if (!st.ok()) {
      pool_ = std::move(saved_pool);
      num_slots_ = saved_slots;
      return st.WithContext("corrupt slot for key " + std::to_string(key));
    }
  }
  index_ = std::move(index);
  return Status::OK();
}

double CounterStore::IndexBitsPerKey() const {
  // unordered_map<uint64,uint64> bookkeeping: key + value + bucket pointer,
  // ~3 machine words per entry. Reported for transparency; identical across
  // algorithms.
  return 3.0 * 64.0;
}

}  // namespace analytics
}  // namespace countlib
