/// \file overload.h
/// \brief Overload control for the ingestion pipeline: what a blocking
/// `Submit` does when a producer queue stays full.
///
/// Blocking `Submit` parking cheaply (the not-full eventcount) solved the
/// CPU cost of sustained backpressure, but not the policy question: the
/// event still waits in RAM and the producer still waits on the consumer.
/// Load-shedding stream systems answer it with an explicit per-pipeline
/// policy, selected here via `PipelineOptions::overload`:
///
///  - `kBlock` — wait for ring space on the not-full eventcount. Nothing
///    is lost, producers absorb the backpressure. The default, and the
///    pre-overload behavior. A burst that must not park is absorbed by
///    sizing `PipelineOptions::queue_capacity` for it: each ring has one
///    owning worker, so the buffer stays single-producer/single-consumer.
///  - `kShed` — bounded-latency drop: after the short spin budget the
///    event is discarded and `Submit` returns OK immediately. Loss is
///    deliberate and *exactly accounted*: `PipelineStats::events_shed`
///    and the per-slot `shed_per_slot[]` counters record every shed
///    event, so `delivered + shed == submitted` is checkable to the last
///    event (the overload bench asserts it).
///
/// `TrySubmit` is not affected by the policy: it is the explicitly
/// non-blocking, allocation-free probe and keeps reporting `kPending` on a
/// full ring regardless — callers that want shed semantics go through
/// `Submit`.

#ifndef COUNTLIB_PIPELINE_OVERLOAD_H_
#define COUNTLIB_PIPELINE_OVERLOAD_H_

#include <cstdint>

namespace countlib {
namespace pipeline {

/// \brief What a blocking `Submit` does on sustained ring fullness.
enum class OverloadPolicy : uint8_t {
  kBlock = 0,  ///< park until ring space frees (lossless, producer waits)
  kShed = 1,   ///< drop the event, count it per slot (bounded latency)
};

/// Stable human-readable policy name ("block" / "shed").
const char* OverloadPolicyName(OverloadPolicy policy);

/// \brief Overload-control knobs, embedded in `PipelineOptions`.
struct OverloadOptions {
  OverloadPolicy policy = OverloadPolicy::kBlock;
};

}  // namespace pipeline
}  // namespace countlib

#endif  // COUNTLIB_PIPELINE_OVERLOAD_H_
