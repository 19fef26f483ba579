// The three perfbench workloads and the metric sets they report. Every
// workload reports every end-to-end metric (untraced run) or every
// per-layer metric (traced run); see README.md for what each one means.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <vector>

#include "analytics/sharded_counter_store.h"
#include "core/counter_factory.h"
#include "harness.h"
#include "util/status.h"

namespace perfbench {

/// Design thread budget of every workload, library threads included.
inline constexpr uint64_t kThreadBudget = 4;

struct EndToEnd {
  double setup_s = 0;
  double cpu_ns_per_event = 0;
  double ingest_eps = 0;
  double rss_bytes_per_key = 0;
};

/// CPU and work of one timed ingest phase. The per-role CPU figures are
/// disjoint, so their sum never exceeds `cpu_ns` (the process total).
struct PhaseCost {
  uint64_t events = 0;
  uint64_t wall_ns = 0;
  uint64_t cpu_ns = 0;           ///< whole process, all threads
  uint64_t client_cpu_ns = 0;    ///< loadgen thread inside SubmitBatch/Flush
  uint64_t server_cpu_ns = 0;    ///< threads EventServer spawned
  uint64_t producer_cpu_ns = 0;  ///< in-process producer thread
  uint64_t worker_cpu_ns = 0;    ///< pipeline worker threads
  uint64_t read_cpu_ns = 0;      ///< dashboard reader thread
};

struct Layers {
  double net_client_cpu = 0, net_server_cpu = 0;
  double net_encode = 0, net_decode = 0;
  double net_bytes_per_event = 0, net_credit_stalls_per_mevent = 0;
  double net_decode_errors = 0;
  double producer_cpu = 0, worker_other = 0;
  double events_per_update = 0, updates_per_batch = 0;
  double idle_passes_per_mevent = 0, producer_parks_per_mevent = 0;
  double rejected_per_mevent = 0, submit_late_p99_ms = 0;
  double apply_ns_per_update = 0, apply_ns_per_event = 0, apply_busy_frac = 0;
  double direct_ns_per_update = 0, read_cpu = 0;
  double snapshot_ms = 0, topk_select_ms = 0;
  double estimate_p50_us = 0, estimate_p99_us = 0, topk_p50_ms = 0, topk_p90_ms = 0;
  double estimate_quiescent_ns = 0, estimate_waited_frac = 0;
  double core_increment_ns = 0, core_merge_ns_per_key = 0;
  double traced_cpu_ns_per_event = 0, traced_ingest_eps = 0;
  double unattributed = 0, trace_overhead_frac = 0;
};

/// Fills the CPU ledger of `l` from a traced phase: per-role CPU per event,
/// and `unattributed` as the process CPU per event that no role claims.
/// `apply_cpu_ns` is the worker CPU spent inside `IncrementBatch`.
void FillLedger(const PhaseCost& traced, uint64_t apply_cpu_ns, Layers* l);
/// The read-latency quantiles of `l` from per-window (or per-round)
/// samples; see RoundQuantile.
void FillReadLatency(const std::vector<std::vector<double>>& estimate_ns,
                     const std::vector<std::vector<double>>& topk_ns, Layers* l);
/// Sum of the attributed ledger terms; plus `unattributed` it equals
/// `traced_cpu_ns_per_event`.
double LedgerAttributed(const Layers& l);

/// Correctness-gate tolerances for approximate counters: keys with at
/// least this many events are checked one by one against this relative
/// error, and the sum of all estimates against the total.
inline constexpr uint64_t kApproxCheckedCount = 1000;
inline constexpr double kApproxKeyTolerance = 0.10;
inline constexpr double kApproxTotalTolerance = 0.01;

/// Adds `count` events of the cyclic trace `keys`, starting at `begin`, to
/// the per-key tally `expected` (indexed by key).
void AddCounts(const std::vector<uint32_t>& keys, uint64_t begin, uint64_t count,
               std::vector<uint64_t>* expected);
/// Keys with a nonzero tally.
uint64_t DistinctKeys(const std::vector<uint64_t>& counts);
/// The per-key gate: the store's merged view against `expected`. kExact
/// must match exactly; approximate kinds within the tolerances above. Any
/// key missing, unexpected, or wrong fails the run.
void CheckCounts(const countlib::analytics::ShardedCounterStore& store,
                 const std::vector<uint64_t>& expected, countlib::CounterKind kind,
                 Report* r);

void EmitEndToEnd(const EndToEnd& e, Report* r);
void EmitLayers(const Layers& l, Report* r);

/// net_hot and wide_keys: loopback EventClient -> EventServer ->
/// IngestPipeline -> ShardedCounterStore.
void RunNetWorkload(const Args& args, Report* report);
/// dashboard: in-process scheduled writes beside scheduled merged reads.
void RunDashboard(const Args& args, Report* report);

/// Threads alive now; fails the run if over `kThreadBudget`.
void CheckThreadBudget(Report* report);

/// Dies with a message on a setup error (no result is printed).
void CheckOk(const countlib::Status& st, const char* what);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
