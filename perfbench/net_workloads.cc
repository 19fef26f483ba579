// net_hot and wide_keys: one loadgen thread blasts 512-event frames over one
// loopback connection (EventClient -> EventServer) into a one-worker
// IngestPipeline over a one-shard ShardedCounterStore, closed loop, for the
// run's seconds. Threads: loadgen (main) + accept + connection + worker.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "analytics/sharded_counter_store.h"
#include "layers.h"
#include "net/client.h"
#include "net/server.h"
#include "pipeline/ingest_pipeline.h"
#include "stream/trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using countlib::CounterKind;
using countlib::analytics::ShardedCounterStore;
using countlib::net::ClientStats;
using countlib::net::EventClient;
using countlib::net::EventRecord;
using countlib::net::EventServer;
using countlib::net::ServerStats;
using countlib::pipeline::IngestPipeline;
using countlib::pipeline::PipelineStats;

constexpr uint64_t kFrameEvents = 512;
/// Post-aggregation updates kept per lane for the traced replays.
constexpr uint64_t kRecordCap = uint64_t{1} << 20;
constexpr uint64_t kSetupRepeats = 3;
/// net_hot's offered load. A closed-loop blast over loopback settles into
/// one of several speed modes per run (2.5-9.4M ev/s on a 4-vCPU KVM
/// host), so net_hot offers a fixed rate below the slowest mode instead;
/// its ingest_eps then only drops if the path cannot keep up. The client
/// sends a burst of kBurstFrames frames per period: with one frame per
/// period every thread sleeps and wakes per frame, and the wake-up cost
/// (which varies with where the VM places the threads) moved CPU per event
/// by up to 20% between runs; per 8-frame burst it moves it by ~1%.
constexpr uint64_t kNetHotRate = 1000000;
constexpr uint64_t kBurstFrames = 8;

struct NetSpec {
  uint64_t keys;
  double skew;
  uint64_t trace_events;  ///< a multiple of kFrameEvents
  uint64_t rate;          ///< offered events/s, or 0 for a closed loop
  CounterRecipe recipe;
  ProbePlan probe;  ///< quiescent reads; snapshots only in the traced run
};

NetSpec SpecFor(const Args& a) {
  const uint64_t n_max = (uint64_t{1} << 32) - 1;
  if (a.workload == "net_hot") {
    // The shipped server's store: kExact at 32 bits.
    NetSpec s{100, 1.2, uint64_t{4096} * kFrameEvents, kNetHotRate,
              {CounterKind::kExact, 32, n_max}, ProbePlan{}};
    s.probe.gap_ns = 100000000;
    s.probe.snapshots = 400;
    if (a.tiny) s.trace_events = 64 * kFrameEvents;
    return s;
  }
  // wide_keys: the paper's compact-counter regime at scale.
  // A merged read of ~1.8M keys takes ~1.7 s, so TopK runs in only the
  // first 3 of the 12 Estimate rounds.
  NetSpec s{2000000, 0.6, 15625 * kFrameEvents, 0,
            {CounterKind::kMorris, 16, n_max}, ProbePlan{12, 2000, 1, 2, 50000000, 3}};
  if (a.tiny) {
    s.keys = 20000;
    s.trace_events = 157 * kFrameEvents;
  }
  return s;
}

struct NetRig {
  std::vector<uint32_t> keys;
  uint64_t digest = 0;
  uint64_t rss_before = 0;
  std::unique_ptr<ShardedCounterStore> store;
  std::unique_ptr<TimingWriter> timing;
  std::unique_ptr<IngestPipeline> pipe;
  std::unique_ptr<EventServer> server;
  std::unique_ptr<EventClient> client;
  std::vector<pid_t> worker_tids;
  std::vector<pid_t> server_tids;
};

/// Set-up: trace generation, construction, connect. Timed by the caller.
std::unique_ptr<NetRig> BuildRig(const NetSpec& s, uint64_t seed, bool traced) {
  auto rig = std::make_unique<NetRig>();
  {
    auto trace = countlib::stream::Trace::GenerateZipf(s.keys, s.skew,
                                                       s.trace_events, seed);
    CheckOk(trace.status(), "trace generation");
    rig->keys.reserve(s.trace_events);
    for (const auto& e : trace->events()) rig->keys.push_back(static_cast<uint32_t>(e.key));
  }
  rig->digest = DigestKeys(rig->keys, seed);
  rig->rss_before = RssBytes();

  auto store = ShardedCounterStore::Make(1, s.recipe.kind, s.recipe.bits,
                                         s.recipe.n_max, seed * 0x9e37 + 1);
  CheckOk(store.status(), "store");
  rig->store = std::move(store).ValueOrDie();
  countlib::analytics::CounterWriter* writer = rig->store.get();
  if (traced) {
    rig->timing = std::make_unique<TimingWriter>(writer, kRecordCap);
    writer = rig->timing.get();
  }
  countlib::pipeline::PipelineOptions popt;
  popt.num_producers = 1;
  popt.num_workers = 1;
  auto before = ListTids();
  auto pipe = IngestPipeline::Make(writer, popt);
  CheckOk(pipe.status(), "pipeline");
  rig->pipe = std::move(pipe).ValueOrDie();
  rig->worker_tids = NewTids(before, ListTids());

  before = ListTids();
  auto server = EventServer::Make(rig->pipe.get(), countlib::net::ServerOptions());
  CheckOk(server.status(), "server");
  rig->server = std::move(server).ValueOrDie();
  countlib::net::ClientOptions copt;
  copt.port = rig->server->port();
  copt.max_batch_events = kFrameEvents;
  auto client = EventClient::Connect(copt);
  CheckOk(client.status(), "connect");
  rig->client = std::move(client).ValueOrDie();
  // The connection thread exists once the handshake has completed.
  rig->server_tids = NewTids(before, ListTids());
  return rig;
}

struct Books {
  ClientStats client;
  ServerStats server;
  PipelineStats pipe;
  countlib::Status close, stop, drain;
};

Books Teardown(NetRig* rig) {
  Books b;
  b.close = rig->client->Close();
  b.client = rig->client->Stats();
  b.stop = rig->server->Stop();
  b.server = rig->server->Stats();
  b.drain = rig->pipe->Drain();
  b.pipe = rig->pipe->Stats();
  return b;
}

/// The timed phase: frames from the cyclic trace, closed loop (as fast as
/// the path accepts them) or in bursts on a fixed schedule of `rate`
/// events/s. Ends with every sent event applied.
PhaseCost Blast(NetRig* rig, double seconds, uint64_t rate, bool traced,
                uint64_t* submit_errors, std::vector<double>* late_ns) {
  std::vector<EventRecord> frame(kFrameEvents);
  const uint64_t n = rig->keys.size();
  const uint64_t period_ns =
      rate == 0 ? 0 : kBurstFrames * kFrameEvents * 1000000000ull / rate;
  const uint64_t scheduled_frames =
      rate == 0 ? 0 : static_cast<uint64_t>(seconds * 1e9) / period_ns * kBurstFrames;
  if (rate != 0) TightenTimerSlack();
  PhaseCost pc;
  uint64_t pos = 0;
  const uint64_t worker0 = SumTidCpuNs(rig->worker_tids);
  const uint64_t server0 = SumTidCpuNs(rig->server_tids);
  const uint64_t cpu0 = ProcessCpuNs();
  const uint64_t t0 = WallNs();
  const uint64_t deadline = t0 + static_cast<uint64_t>(seconds * 1e9);
  for (uint64_t k = 0;; ++k) {
    if (rate != 0) {
      if (k == scheduled_frames) break;
      if (k % kBurstFrames == 0) {
        const uint64_t due = t0 + k / kBurstFrames * period_ns;
        SleepUntilNs(due);
        late_ns->push_back(static_cast<double>(WallNs() - due));
      }
    } else if (k != 0 && WallNs() >= deadline) {
      break;
    }
    for (uint64_t i = 0; i < kFrameEvents; ++i) frame[i] = EventRecord{rig->keys[pos + i], 1};
    const uint64_t c0 = traced ? ThreadCpuNs() : 0;
    const countlib::Status st = rig->client->SubmitBatch(frame.data(), kFrameEvents);
    if (traced) pc.client_cpu_ns += ThreadCpuNs() - c0;
    if (!st.ok()) {
      ++*submit_errors;
      break;
    }
    pc.events += kFrameEvents;
    pos += kFrameEvents;
    if (pos == n) pos = 0;
  }
  const uint64_t c0 = traced ? ThreadCpuNs() : 0;
  if (!rig->client->Flush().ok()) ++*submit_errors;
  if (traced) pc.client_cpu_ns += ThreadCpuNs() - c0;
  if (!rig->pipe->Flush().ok()) ++*submit_errors;
  pc.wall_ns = WallNs() - t0;
  pc.cpu_ns = ProcessCpuNs() - cpu0;
  pc.worker_cpu_ns = SumTidCpuNs(rig->worker_tids) - worker0;
  pc.server_cpu_ns = SumTidCpuNs(rig->server_tids) - server0;
  return pc;
}

void CheckBooks(const Books& b, uint64_t sent, uint64_t submit_errors,
                bool break_books, Report* r) {
  const uint64_t expected = sent + (break_books ? 1 : 0);
  const auto eq = [r](const char* what, uint64_t got, uint64_t want) {
    if (got != want) {
      r->Fail(std::string("books: ") + what + " = " + std::to_string(got) +
              ", expected " + std::to_string(want));
    }
  };
  eq("client submitted", b.client.events_submitted, expected);
  eq("client sent", b.client.events_sent, expected);
  eq("client delivered", b.client.events_delivered, expected);
  eq("server received", b.server.events_rx, expected);
  eq("server delivered", b.server.events_delivered, expected);
  eq("pipeline applied", b.pipe.events_applied, expected);
  eq("client shed", b.client.events_shed, 0);
  eq("client lost unacked", b.client.events_lost_unacked, 0);
  eq("client pending", b.client.events_pending, 0);
  eq("decode errors", b.client.decode_errors + b.server.decode_errors, 0);
  eq("pipeline dropped", b.pipe.events_dropped, 0);
  eq("pipeline shed", b.pipe.events_shed, 0);
  eq("submit errors", submit_errors, 0);
  if (!b.close.ok() || !b.stop.ok() || !b.drain.ok()) {
    r->Fail("teardown: " + b.close.ToString() + " / " + b.stop.ToString() + " / " +
            b.drain.ToString());
  }
}

struct NetRun {
  PhaseCost phase;
  double setup_s = 0;
  double rss_bytes_per_key = 0;
  ReadProbe probe;
  std::vector<double> late_ns;
  Books books;
  Layers layers;  ///< traced run only
};

/// One full pass: set-up, blast, RSS, teardown, gate, and (when traced) the
/// read probe and the per-layer replays. `reference` marks the untraced
/// twin of a traced run, kept only for its CPU per event.
NetRun RunOnce(const NetSpec& s, const Args& a, bool traced, bool reference, Report* r) {
  NetRun run;
  const uint64_t s0 = WallNs();
  auto rig = BuildRig(s, a.seed, traced);
  run.setup_s = static_cast<double>(WallNs() - s0) / 1e9;
  Info("trace_digest=%016llx events=%llu keys=%llu skew=%.2f",
       static_cast<unsigned long long>(rig->digest),
       static_cast<unsigned long long>(rig->keys.size()),
       static_cast<unsigned long long>(s.keys), s.skew);
  CheckThreadBudget(r);

  uint64_t submit_errors = 0;
  run.phase = Blast(rig.get(), a.seconds, s.rate, traced, &submit_errors, &run.late_ns);
  const uint64_t rss_after = RssBytes();

  std::vector<uint64_t> expected(s.keys, 0);
  AddCounts(rig->keys, 0, run.phase.events, &expected);
  const uint64_t distinct = DistinctKeys(expected);
  run.rss_bytes_per_key =
      distinct == 0 ? 0
                    : (static_cast<double>(rss_after) - static_cast<double>(rig->rss_before)) /
                          static_cast<double>(distinct);

  // Quiescent reads, once every thread but this one has stopped: keys are
  // drawn from the part of the trace that was sent.
  run.books = Teardown(rig.get());
  ProbePlan plan = s.probe;
  if (!traced || reference) plan.rounds = plan.snapshots = 0;
  run.probe = RunReadProbe(*rig->store, rig->keys, run.phase.events, a.seed, plan);
  CheckBooks(run.books, run.phase.events, submit_errors, a.break_books, r);
  CheckCounts(*rig->store, expected, s.recipe.kind, r);
  r->attempted += run.phase.events + run.probe.calls;
  r->failed += run.books.client.events_shed + run.books.client.events_lost_unacked +
               run.books.client.decode_errors + run.books.server.decode_errors +
               run.probe.errors + submit_errors;

  if (!traced) return run;

  // ------------------------------------------------ per-layer attribution
  Layers& l = run.layers;
  const TimingWriter::Totals apply = rig->timing->Sum();
  FillLedger(run.phase, apply.cpu_ns, &l);
  const double mev = static_cast<double>(run.phase.events) / 1e6;
  const PipelineStats& ps = run.books.pipe;
  l.events_per_update = static_cast<double>(ps.events_applied) /
                        static_cast<double>(std::max<uint64_t>(1, ps.updates_applied));
  l.updates_per_batch = static_cast<double>(ps.updates_applied) /
                        static_cast<double>(std::max<uint64_t>(1, ps.batches_applied));
  l.idle_passes_per_mevent = static_cast<double>(ps.idle_passes) / mev;
  l.producer_parks_per_mevent = static_cast<double>(ps.producer_parks) / mev;
  l.rejected_per_mevent = static_cast<double>(ps.events_rejected) / mev;
  l.submit_late_p99_ms = Quantile(run.late_ns, 0.99) / 1e6;
  l.net_bytes_per_event = static_cast<double>(run.books.client.bytes_tx) /
                          static_cast<double>(run.phase.events);
  l.net_credit_stalls_per_mevent = static_cast<double>(run.books.client.credit_stalls) / mev;
  l.net_decode_errors = static_cast<double>(run.books.client.decode_errors +
                                            run.books.server.decode_errors);
  l.apply_ns_per_update = static_cast<double>(apply.wall_ns) /
                          static_cast<double>(std::max<uint64_t>(1, apply.updates));
  l.apply_busy_frac = static_cast<double>(apply.wall_ns) /
                      static_cast<double>(run.phase.wall_ns);
  l.snapshot_ms = Median(run.probe.snapshot_ns) / 1e6;
  FillReadLatency(run.probe.estimate_ns, run.probe.topk_ns, &l);
  l.topk_select_ms = l.topk_p50_ms - l.snapshot_ms;
  l.estimate_quiescent_ns = RoundQuantile(run.probe.estimate_ns, 0.5);
  l.estimate_waited_frac = WaitedFraction(run.probe.estimate_ns, l.estimate_quiescent_ns);

  bool roundtrip_ok = true;
  l.net_encode = ReplayWireCodec(rig->keys, kFrameEvents, &l.net_decode, &roundtrip_ok);
  if (!roundtrip_ok) r->Fail("wire codec replay: decoded frames differ");
  l.direct_ns_per_update = ReplayDirectStore(*rig->timing, s.recipe, 1);
  l.core_increment_ns = ReplayCore(*rig->timing, s.recipe, 1, &l.core_merge_ns_per_key);
  return run;
}

}  // namespace

void RunNetWorkload(const Args& a, Report* r) {
  const NetSpec s = SpecFor(a);
  if (a.trace) {
    // Untraced reference first (same seed, fresh rig), for the overhead.
    const NetRun ref = RunOnce(s, a, false, true, r);
    const NetRun run = RunOnce(s, a, true, false, r);
    Layers l = run.layers;
    const double ref_cpu = static_cast<double>(ref.phase.cpu_ns) /
                           static_cast<double>(ref.phase.events);
    l.trace_overhead_frac = l.traced_cpu_ns_per_event / ref_cpu - 1;
    EmitLayers(l, r);
    return;
  }
  const NetRun run = RunOnce(s, a, false, false, r);
  std::vector<double> setups{run.setup_s};
  for (uint64_t i = 1; i < kSetupRepeats; ++i) {
    const uint64_t s0 = WallNs();
    auto rig = BuildRig(s, a.seed, false);
    setups.push_back(static_cast<double>(WallNs() - s0) / 1e9);
    (void)Teardown(rig.get());
  }
  EndToEnd e;
  e.setup_s = Median(setups);
  e.cpu_ns_per_event = static_cast<double>(run.phase.cpu_ns) /
                       static_cast<double>(run.phase.events);
  e.ingest_eps = static_cast<double>(run.phase.events) * 1e9 /
                 static_cast<double>(run.phase.wall_ns);
  e.rss_bytes_per_key = run.rss_bytes_per_key;
  Info("events=%llu wall_s=%.3f", static_cast<unsigned long long>(run.phase.events),
       static_cast<double>(run.phase.wall_ns) / 1e9);
  EmitEndToEnd(e, r);
}

}  // namespace perfbench
