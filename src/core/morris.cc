#include "core/morris.h"

#include <cmath>

#include "random/geometric.h"
#include "core/merge.h"
#include "util/logging.h"
#include "util/math.h"

namespace countlib {

Result<MorrisCounter> MorrisCounter::Make(const MorrisParams& params, uint64_t seed) {
  if (!(params.a > 0.0) || !std::isfinite(params.a)) {
    return Status::InvalidArgument("Morris: a must be finite and > 0");
  }
  if (params.x_cap < 1) {
    return Status::InvalidArgument("Morris: x_cap must be >= 1");
  }
  MorrisCounter counter(params, seed);
  counter.Reset();
  return counter;
}

Result<MorrisCounter> MorrisCounter::FromAccuracy(const Accuracy& acc, uint64_t seed) {
  COUNTLIB_ASSIGN_OR_RETURN(MorrisParams params,
                            MorrisFromAccuracy(acc, /*with_prefix=*/false));
  return Make(params, seed);
}

void MorrisCounter::Reset() {
  x_ = 0;
  saturated_ = false;
  p_current_ = 1.0;
}

double MorrisCounter::LevelProbability(uint64_t x) const {
  return std::exp(-static_cast<double>(x) * log1p_a_);
}

void MorrisCounter::Increment() {
  if (x_ >= params_.x_cap) {
    saturated_ = true;
    return;
  }
  if (rng_.Bernoulli(p_current_)) {
    ++x_;
    p_current_ = LevelProbability(x_);
  }
}

void MorrisCounter::IncrementMany(uint64_t n) {
  // Walk the waiting times Z_i ~ Geometric(p_i) of §2.2. Geometric
  // memorylessness makes it valid to abandon a partially-elapsed wait at
  // the end of the batch: the remaining wait is again geometric.
  while (n > 0) {
    if (x_ >= params_.x_cap) {
      saturated_ = true;
      return;
    }
    uint64_t wait = SampleGeometric(&rng_, p_current_);
    if (wait > n) return;
    n -= wait;
    ++x_;
    p_current_ = LevelProbability(x_);
  }
}

double MorrisCounter::Estimate() const {
  return Pow1pm1OverA(params_.a, static_cast<double>(x_));
}

int MorrisCounter::CurrentStateBits() const { return BitWidth(x_); }

void MorrisCounter::SetLevelForMerge(uint64_t x) {
  COUNTLIB_CHECK_LE(x, params_.x_cap);
  x_ = x;
  p_current_ = LevelProbability(x_);
}

Status MorrisCounter::SerializeState(BitWriter* out) const {
  out->WriteBits(PackState(), params_.XBits());
  return Status::OK();
}

Status MorrisCounter::DeserializeState(BitReader* in) {
  COUNTLIB_ASSIGN_OR_RETURN(uint64_t word, in->ReadBits(params_.XBits()));
  return UnpackState(word);
}

Status MorrisCounter::UnpackState(uint64_t word) {
  const uint64_t x = word & LowBitsMask(params_.XBits());
  if (x > params_.x_cap) {
    return Status::InvalidArgument("Morris state exceeds x_cap");
  }
  x_ = x;
  p_current_ = LevelProbability(x_);
  saturated_ = false;
  return Status::OK();
}

Status MorrisCounter::MergeFrom(const Counter& donor) {
  const auto* other = dynamic_cast<const MorrisCounter*>(&donor);
  if (other == nullptr) {
    return Status::InvalidArgument(
        "MorrisCounter::MergeFrom: donor is not a Morris counter");
  }
  return MergeInto(this, *other);
}

}  // namespace countlib
