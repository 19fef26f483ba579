// dashboard: merged reads beside live writes, in process (no network). A
// pre-filled 10k-key kExact store over 2 shards; the main thread produces on
// a fixed 1 ms schedule alternating across 2 rings (2 workers drain them);
// one reader thread issues TopK(100) at 10/s and Estimate as a Poisson
// stream of 20k/s, timing each call from when it starts.
// Threads: producer (main) + reader + 2 workers, one per CPU.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analytics/sharded_counter_store.h"
#include "layers.h"
#include "pipeline/ingest_pipeline.h"
#include "random/rng.h"
#include "stream/trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using countlib::CounterKind;
using countlib::analytics::ShardedCounterStore;
using countlib::pipeline::IngestPipeline;
using countlib::pipeline::PipelineStats;

constexpr uint64_t kShards = 2;
constexpr uint64_t kTickNs = 1000000;  ///< producer schedule: one burst per ms
constexpr uint64_t kRecordCap = uint64_t{1} << 20;
constexpr uint64_t kSetupRepeats = 3;

struct DashSpec {
  uint64_t keys = 10000;
  double skew = 1.0;
  uint64_t prefill = uint64_t{1} << 20;
  uint64_t rate = 250000;              ///< events/s
  uint64_t estimate_period_ns = 50000;   ///< mean gap: 20k Estimate/s
  uint64_t topk_period_ns = 100000000;   ///< 10 TopK/s
  /// Read latencies are summarized per window (20 TopK calls each), then
  /// as the median over windows: a few seconds of host noise, which slows
  /// every TopK in them, then moves no reported quantile.
  uint64_t window_ns = 2000000000;
  CounterRecipe recipe{CounterKind::kExact, 32, (uint64_t{1} << 32) - 1};
};

DashSpec SpecFor(const Args& a) {
  DashSpec s;
  if (a.tiny) {
    s.keys = 2000;
    s.prefill = uint64_t{1} << 14;
  }
  return s;
}

uint64_t PhaseEvents(const DashSpec& s, double seconds) {
  const uint64_t ticks = static_cast<uint64_t>(seconds * 1e9) / kTickNs;
  return ticks * (s.rate * kTickNs / 1000000000);
}

struct DashRig {
  std::vector<uint32_t> keys;  ///< pre-fill, then the timed phase
  std::vector<uint32_t> read_keys;
  uint64_t digest = 0;
  uint64_t rss_before = 0;
  uint64_t rss_after_prefill = 0;
  uint64_t submit_errors = 0;
  std::unique_ptr<ShardedCounterStore> store;
  std::unique_ptr<TimingWriter> timing;
  std::unique_ptr<IngestPipeline> pipe;
  std::vector<pid_t> worker_tids;
};

/// Set-up: trace generation, construction, pre-fill through the pipeline.
std::unique_ptr<DashRig> BuildRig(const DashSpec& s, const Args& a, bool traced) {
  auto rig = std::make_unique<DashRig>();
  const uint64_t total = s.prefill + PhaseEvents(s, a.seconds);
  {
    auto trace = countlib::stream::Trace::GenerateZipf(s.keys, s.skew, total, a.seed);
    CheckOk(trace.status(), "trace generation");
    rig->keys.reserve(total);
    for (const auto& e : trace->events()) rig->keys.push_back(static_cast<uint32_t>(e.key));
  }
  rig->digest = DigestKeys(rig->keys, a.seed);
  // Point reads target keys the pre-fill wrote, so every Estimate finds one.
  countlib::Rng rng(a.seed ^ 0x5d5d5d5dull);
  rig->read_keys.resize(1 << 16);
  for (auto& k : rig->read_keys) k = rig->keys[rng.NextU64() % s.prefill];
  rig->rss_before = RssBytes();

  auto store = ShardedCounterStore::Make(kShards, s.recipe.kind, s.recipe.bits,
                                         s.recipe.n_max, a.seed * 0x9e37 + 1);
  CheckOk(store.status(), "store");
  rig->store = std::move(store).ValueOrDie();
  countlib::analytics::CounterWriter* writer = rig->store.get();
  if (traced) {
    rig->timing = std::make_unique<TimingWriter>(writer, kRecordCap);
    rig->timing->set_recording(false);
    writer = rig->timing.get();
  }
  countlib::pipeline::PipelineOptions popt;
  popt.num_producers = kShards;
  popt.num_workers = kShards;
  const auto before = ListTids();
  auto pipe = IngestPipeline::Make(writer, popt);
  CheckOk(pipe.status(), "pipeline");
  rig->pipe = std::move(pipe).ValueOrDie();
  rig->worker_tids = NewTids(before, ListTids());

  for (uint64_t i = 0; i < s.prefill; ++i) {
    if (!rig->pipe->Submit(i % kShards, rig->keys[i]).ok()) ++rig->submit_errors;
  }
  CheckOk(rig->pipe->Flush(), "pre-fill flush");
  rig->rss_after_prefill = RssBytes();
  return rig;
}

struct DashRun {
  PhaseCost phase;
  double setup_s = 0;
  double rss_bytes_per_key = 0;
  std::vector<std::vector<double>> estimate_ns, topk_ns;  ///< per window
  std::vector<double> late_ns;
  uint64_t read_calls = 0, read_errors = 0;
  PipelineStats before, after;
  TimingWriter::Totals apply_before, apply_after;
  ReadProbe quiet;
  Layers layers;
};

/// The reader, over [t0, end): TopK at a fixed 10/s and Estimate as a
/// seeded Poisson stream of 20k/s, each call timed from when it starts.
/// Neither schedule is locked to the producer's 1 ms tick. With Estimate
/// slots on a fixed 50 us grid, the same few slots of every tick met the
/// workers mid-batch, so the share of Estimates that waited was quantized
/// near 1 in 20 and p95 flipped between ~3 us and ~80 us from run to run;
/// each TopK also gets a random offset within the tick. Even so, 4-8% of
/// the Poisson stream lands behind a batch, so the tail reported is p99. An Estimate that
/// falls due while the reader is busy is skipped, not made up in a burst
/// that would land right behind the TopK freeze.
void ReaderLoop(const ShardedCounterStore& store, const DashSpec& s,
                const std::vector<uint32_t>& read_keys, uint64_t seed, int cpu,
                uint64_t t0, uint64_t end, DashRun* run) {
  TightenTimerSlack();
  if (cpu >= 0) PinThread(0, cpu);
  const uint64_t windows = (end - t0 + s.window_ns - 1) / s.window_ns;
  run->estimate_ns.resize(windows);
  run->topk_ns.resize(windows);
  for (auto& w : run->estimate_ns) w.reserve(s.window_ns / s.estimate_period_ns + 16);
  countlib::Rng rng(seed ^ 0x7e57ab1eull);
  const auto gap = [&] {
    return static_cast<uint64_t>(-std::log(rng.NextDoublePositive()) *
                                 static_cast<double>(s.estimate_period_ns));
  };
  const auto jitter = [&] { return rng.NextU64() % kTickNs; };
  SleepUntilNs(t0);
  const uint64_t cpu0 = ThreadCpuNs();
  uint64_t next_e = t0 + gap(), topk_slot = t0 + s.topk_period_ns / 2;
  uint64_t next_t = topk_slot + jitter(), i = 0;
  while (true) {
    const uint64_t now = WallNs();
    if (now >= end) break;
    const uint64_t window = (now - t0) / s.window_ns;
    if (now >= next_t) {
      auto r = store.TopK(100);
      run->topk_ns[window].push_back(static_cast<double>(WallNs() - now));
      run->read_errors += !r.ok();
      ++run->read_calls;
      topk_slot += s.topk_period_ns;
      next_t = topk_slot + jitter();
    } else if (now >= next_e) {
      auto r = store.Estimate(read_keys[i++ % read_keys.size()]);
      run->estimate_ns[window].push_back(static_cast<double>(WallNs() - now));
      run->read_errors += !r.ok();
      ++run->read_calls;
      next_e += gap();
    } else {
      SleepUntilNs(std::min(std::min(next_e, next_t), end));
      continue;
    }
    const uint64_t after = WallNs();
    if (next_e < after) next_e = after + gap();
  }
  run->phase.read_cpu_ns = ThreadCpuNs() - cpu0;
}

DashRun RunOnce(const DashSpec& s, const Args& a, bool traced, Report* r) {
  DashRun run;
  const uint64_t s0 = WallNs();
  auto rig = BuildRig(s, a, traced);
  run.setup_s = static_cast<double>(WallNs() - s0) / 1e9;
  Info("trace_digest=%016llx events=%llu keys=%llu skew=%.2f",
       static_cast<unsigned long long>(rig->digest),
       static_cast<unsigned long long>(rig->keys.size()),
       static_cast<unsigned long long>(s.keys), s.skew);
  std::vector<uint64_t> prefilled(s.keys, 0);
  AddCounts(rig->keys, 0, s.prefill, &prefilled);
  run.rss_bytes_per_key =
      (static_cast<double>(rig->rss_after_prefill) - static_cast<double>(rig->rss_before)) /
      static_cast<double>(DistinctKeys(prefilled));

  const uint64_t phase_events = PhaseEvents(s, a.seconds);
  const uint64_t per_tick = s.rate * kTickNs / 1000000000;
  const uint64_t ticks = phase_events / per_tick;
  run.late_ns.reserve(ticks);
  run.before = rig->pipe->Stats();
  if (traced) {
    run.apply_before = rig->timing->Sum();
    rig->timing->set_recording(true);
  }

  // One CPU per thread: left to the scheduler, the reader sometimes shared
  // a CPU with a worker for a whole run, which cut the Estimate waits and
  // slowed TopK (Estimate p99 74-77 us in those runs, 103-128 us in the
  // rest). Skipped when fewer CPUs than threads are allowed.
  const std::vector<int> cpus = AllowedCpus();
  const bool pin = cpus.size() >= kThreadBudget && rig->worker_tids.size() == kShards;
  if (pin) {
    PinThread(0, cpus[0]);
    for (uint64_t w = 0; w < kShards; ++w) PinThread(rig->worker_tids[w], cpus[2 + w]);
  }
  const uint64_t t0 = WallNs() + 20000000;  // reader and producer start together
  const uint64_t end = t0 + ticks * kTickNs;
  std::thread reader(ReaderLoop, std::cref(*rig->store), std::cref(s),
                     std::cref(rig->read_keys), a.seed, pin ? cpus[1] : -1, t0, end, &run);
  CheckThreadBudget(r);
  TightenTimerSlack();
  SleepUntilNs(t0);
  const uint64_t worker0 = SumTidCpuNs(rig->worker_tids);
  const uint64_t cpu0 = ProcessCpuNs();
  const uint64_t main0 = ThreadCpuNs();
  uint64_t idx = s.prefill;
  for (uint64_t k = 0; k < ticks; ++k) {
    const uint64_t due = t0 + k * kTickNs;
    SleepUntilNs(due);
    run.late_ns.push_back(static_cast<double>(WallNs() - due));
    for (uint64_t j = 0; j < per_tick; ++j, ++idx) {
      if (!rig->pipe->Submit(idx % kShards, rig->keys[idx]).ok()) ++rig->submit_errors;
    }
  }
  run.phase.producer_cpu_ns = ThreadCpuNs() - main0;
  reader.join();
  if (pin) RunOnCpus(cpus);
  if (!rig->pipe->Flush().ok()) ++rig->submit_errors;
  run.phase.events = phase_events;
  run.phase.wall_ns = WallNs() - t0;
  run.phase.cpu_ns = ProcessCpuNs() - cpu0;
  run.phase.worker_cpu_ns = SumTidCpuNs(rig->worker_tids) - worker0;
  run.after = rig->pipe->Stats();
  if (traced) run.apply_after = rig->timing->Sum();

  if (traced) {
    run.quiet = RunReadProbe(*rig->store, rig->read_keys, rig->read_keys.size(), a.seed,
                             ProbePlan{10, 1000, 5, 20, 10000000});
  }

  // ------------------------------------------------ correctness gate
  const countlib::Status drained = rig->pipe->Drain();
  const PipelineStats fin = rig->pipe->Stats();
  const uint64_t expected_events = s.prefill + phase_events + (a.break_books ? 1 : 0);
  if (!drained.ok()) r->Fail("drain: " + drained.ToString());
  if (fin.events_applied != expected_events || fin.events_shed != 0 ||
      fin.events_dropped != 0 || rig->submit_errors != 0) {
    r->Fail("books: applied " + std::to_string(fin.events_applied) + " of " +
            std::to_string(expected_events) + " submitted, shed " +
            std::to_string(fin.events_shed) + ", dropped " +
            std::to_string(fin.events_dropped) + ", submit errors " +
            std::to_string(rig->submit_errors));
  }
  if (run.read_errors != 0 || run.quiet.errors != 0) {
    r->Fail(std::to_string(run.read_errors + run.quiet.errors) + " read calls failed");
  }
  std::vector<uint64_t> expected = prefilled;
  AddCounts(rig->keys, s.prefill, phase_events, &expected);
  CheckCounts(*rig->store, expected, s.recipe.kind, r);
  r->attempted += phase_events + run.read_calls + run.quiet.calls;
  r->failed += rig->submit_errors + fin.events_shed + run.read_errors + run.quiet.errors;

  if (!traced) return run;

  // ------------------------------------------------ per-layer attribution
  Layers& l = run.layers;
  TimingWriter::Totals apply;
  apply.calls = run.apply_after.calls - run.apply_before.calls;
  apply.updates = run.apply_after.updates - run.apply_before.updates;
  apply.wall_ns = run.apply_after.wall_ns - run.apply_before.wall_ns;
  apply.cpu_ns = run.apply_after.cpu_ns - run.apply_before.cpu_ns;
  FillLedger(run.phase, apply.cpu_ns, &l);
  const double mev = static_cast<double>(phase_events) / 1e6;
  const uint64_t updates = run.after.updates_applied - run.before.updates_applied;
  const uint64_t batches = run.after.batches_applied - run.before.batches_applied;
  l.events_per_update = static_cast<double>(phase_events) /
                        static_cast<double>(std::max<uint64_t>(1, updates));
  l.updates_per_batch = static_cast<double>(updates) /
                        static_cast<double>(std::max<uint64_t>(1, batches));
  l.idle_passes_per_mevent =
      static_cast<double>(run.after.idle_passes - run.before.idle_passes) / mev;
  l.producer_parks_per_mevent =
      static_cast<double>(run.after.producer_parks - run.before.producer_parks) / mev;
  l.rejected_per_mevent =
      static_cast<double>(run.after.events_rejected - run.before.events_rejected) / mev;
  l.submit_late_p99_ms = Quantile(run.late_ns, 0.99) / 1e6;
  l.apply_ns_per_update = static_cast<double>(apply.wall_ns) /
                          static_cast<double>(std::max<uint64_t>(1, apply.updates));
  l.apply_busy_frac = static_cast<double>(apply.wall_ns) /
                      (static_cast<double>(run.phase.wall_ns) * kShards);
  l.snapshot_ms = Median(run.quiet.snapshot_ns) / 1e6;
  l.topk_select_ms = RoundQuantile(run.quiet.topk_ns, 0.5) / 1e6 - l.snapshot_ms;
  FillReadLatency(run.estimate_ns, run.topk_ns, &l);
  l.estimate_quiescent_ns = RoundQuantile(run.quiet.estimate_ns, 0.5);
  l.estimate_waited_frac = WaitedFraction(run.estimate_ns, l.estimate_quiescent_ns);
  bool roundtrip_ok = true;
  l.net_encode = ReplayWireCodec(rig->keys, 512, &l.net_decode, &roundtrip_ok);
  if (!roundtrip_ok) r->Fail("wire codec replay: decoded frames differ");
  l.direct_ns_per_update = ReplayDirectStore(*rig->timing, s.recipe, kShards);
  l.core_increment_ns = ReplayCore(*rig->timing, s.recipe, kShards, &l.core_merge_ns_per_key);
  return run;
}

}  // namespace

void RunDashboard(const Args& a, Report* r) {
  const DashSpec s = SpecFor(a);
  if (a.trace) {
    const DashRun ref = RunOnce(s, a, false, r);
    const DashRun run = RunOnce(s, a, true, r);
    Layers l = run.layers;
    const double ref_cpu = static_cast<double>(ref.phase.cpu_ns) /
                           static_cast<double>(ref.phase.events);
    l.trace_overhead_frac = l.traced_cpu_ns_per_event / ref_cpu - 1;
    EmitLayers(l, r);
    return;
  }
  const DashRun run = RunOnce(s, a, false, r);
  std::vector<double> setups{run.setup_s};
  for (uint64_t i = 1; i < kSetupRepeats; ++i) {
    const uint64_t s0 = WallNs();
    auto rig = BuildRig(s, a, false);
    setups.push_back(static_cast<double>(WallNs() - s0) / 1e9);
    CheckOk(rig->pipe->Drain(), "drain");
  }
  EndToEnd e;
  e.setup_s = Median(setups);
  e.cpu_ns_per_event = static_cast<double>(run.phase.cpu_ns) /
                       static_cast<double>(run.phase.events);
  e.ingest_eps = static_cast<double>(run.phase.events) * 1e9 /
                 static_cast<double>(run.phase.wall_ns);
  e.rss_bytes_per_key = run.rss_bytes_per_key;
  Info("reads=%llu late_p99_ms=%.3f", static_cast<unsigned long long>(run.read_calls),
       Quantile(run.late_ns, 0.99) / 1e6);
  EmitEndToEnd(e, r);
}

}  // namespace perfbench
