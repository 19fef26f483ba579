// Pieces every workload shares: the CPU ledger, metric emission, the
// per-key correctness gate, and the thread-budget check.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "layers.h"
#include "workloads.h"

namespace perfbench {

void CheckOk(const countlib::Status& st, const char* what) {
  if (st.ok()) return;
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what, st.ToString().c_str());
  std::exit(3);
}

void CheckThreadBudget(Report* report) {
  const uint64_t threads = ListTids().size();
  Info("threads=%llu (budget %llu)", static_cast<unsigned long long>(threads),
       static_cast<unsigned long long>(kThreadBudget));
  if (threads > kThreadBudget) {
    report->Fail("workload runs " + std::to_string(threads) +
                 " threads, over the budget of " + std::to_string(kThreadBudget));
  }
}

void AddCounts(const std::vector<uint32_t>& keys, uint64_t begin, uint64_t count,
               std::vector<uint64_t>* expected) {
  const uint64_t n = keys.size();
  uint64_t pos = begin % n;
  for (uint64_t i = 0; i < count; ++i) {
    ++(*expected)[keys[pos]];
    if (++pos == n) pos = 0;
  }
}

uint64_t DistinctKeys(const std::vector<uint64_t>& counts) {
  uint64_t d = 0;
  for (uint64_t c : counts) d += c != 0;
  return d;
}

void CheckCounts(const countlib::analytics::ShardedCounterStore& store,
                 const std::vector<uint64_t>& expected, countlib::CounterKind kind,
                 Report* r) {
  std::vector<double> got(expected.size(), -1.0);
  uint64_t foreign = 0;
  const countlib::Status st = store.ForEach([&](uint64_t key, double est) {
    if (key < got.size()) {
      got[key] = est;
    } else {
      ++foreign;
    }
  });
  if (!st.ok()) {
    r->Fail("merged ForEach: " + st.ToString());
    return;
  }
  if (foreign != 0) r->Fail(std::to_string(foreign) + " keys outside the trace");
  const bool exact = kind == countlib::CounterKind::kExact;
  uint64_t missing = 0, phantom = 0, wrong = 0, checked = 0;
  double total_expected = 0, total_got = 0;
  for (size_t k = 0; k < expected.size(); ++k) {
    const double want = static_cast<double>(expected[k]);
    if (expected[k] == 0) {
      phantom += got[k] >= 0;
      continue;
    }
    if (got[k] < 0) {
      ++missing;
      continue;
    }
    total_expected += want;
    total_got += got[k];
    if (exact) {
      wrong += got[k] != want;
      ++checked;
    } else if (want >= kApproxCheckedCount) {
      // Morris at 16 bits has a ~1% relative standard error here; 10% is
      // many standard deviations even over the few hundred keys checked.
      wrong += std::fabs(got[k] - want) > kApproxKeyTolerance * want;
      ++checked;
    }
  }
  if (missing || phantom) {
    r->Fail(std::to_string(missing) + " keys missing, " + std::to_string(phantom) +
            " keys never sent");
  }
  if (wrong) {
    r->Fail(std::to_string(wrong) + " of " + std::to_string(checked) +
            " checked keys have a wrong merged count");
  }
  if (!exact && std::fabs(total_got - total_expected) >
                    kApproxTotalTolerance * total_expected) {
    r->Fail("sum of estimates " + std::to_string(total_got) + " vs " +
            std::to_string(total_expected) + " events");
  }
  Info("gate: %llu keys, %llu checked, total estimate %.0f for %.0f events",
       static_cast<unsigned long long>(DistinctKeys(expected)),
       static_cast<unsigned long long>(checked), total_got, total_expected);
}

void FillReadLatency(const std::vector<std::vector<double>>& estimate_ns,
                     const std::vector<std::vector<double>>& topk_ns, Layers* l) {
  l->estimate_p50_us = RoundQuantile(estimate_ns, 0.50) / 1e3;
  l->estimate_p99_us = RoundQuantile(estimate_ns, 0.99) / 1e3;
  l->topk_p50_ms = RoundQuantile(topk_ns, 0.50) / 1e6;
  l->topk_p90_ms = RoundQuantile(topk_ns, 0.90) / 1e6;
}

void FillLedger(const PhaseCost& t, uint64_t apply_cpu_ns, Layers* l) {
  const double ev = static_cast<double>(t.events);
  const auto per_event = [ev](double ns) { return ev == 0 ? 0 : ns / ev; };
  l->traced_cpu_ns_per_event = per_event(static_cast<double>(t.cpu_ns));
  l->traced_ingest_eps = t.wall_ns == 0 ? 0 : ev * 1e9 / static_cast<double>(t.wall_ns);
  l->net_client_cpu = per_event(static_cast<double>(t.client_cpu_ns));
  l->net_server_cpu = per_event(static_cast<double>(t.server_cpu_ns));
  l->producer_cpu = per_event(static_cast<double>(t.producer_cpu_ns));
  l->apply_ns_per_event = per_event(static_cast<double>(apply_cpu_ns));
  l->worker_other = per_event(static_cast<double>(t.worker_cpu_ns) -
                              static_cast<double>(apply_cpu_ns));
  l->read_cpu = per_event(static_cast<double>(t.read_cpu_ns));
  l->unattributed = l->traced_cpu_ns_per_event - LedgerAttributed(*l);
}

double LedgerAttributed(const Layers& l) {
  return l.net_client_cpu + l.net_server_cpu + l.producer_cpu +
         l.apply_ns_per_event + l.worker_other + l.read_cpu;
}

void EmitEndToEnd(const EndToEnd& e, Report* r) {
  r->Add("setup_s", e.setup_s, "s");
  r->Add("cpu_ns_per_event", e.cpu_ns_per_event, "ns");
  r->Add("ingest_eps", e.ingest_eps, "events/s");
  r->Add("rss_bytes_per_key", e.rss_bytes_per_key, "B");
}

void EmitLayers(const Layers& l, Report* r) {
  r->Add("net.client_cpu_ns_per_event", l.net_client_cpu, "ns");
  r->Add("net.server_cpu_ns_per_event", l.net_server_cpu, "ns");
  r->Add("net.encode_ns_per_event", l.net_encode, "ns");
  r->Add("net.decode_ns_per_event", l.net_decode, "ns");
  r->Add("net.bytes_per_event", l.net_bytes_per_event, "B");
  r->Add("net.credit_stalls_per_mevent", l.net_credit_stalls_per_mevent, "1/Mevent");
  r->Add("net.decode_errors", l.net_decode_errors, "count");
  r->Add("pipeline.producer_cpu_ns_per_event", l.producer_cpu, "ns");
  r->Add("pipeline.worker_other_ns_per_event", l.worker_other, "ns");
  r->Add("pipeline.events_per_update", l.events_per_update, "ratio");
  r->Add("pipeline.updates_per_batch", l.updates_per_batch, "ratio");
  r->Add("pipeline.idle_passes_per_mevent", l.idle_passes_per_mevent, "1/Mevent");
  r->Add("pipeline.producer_parks_per_mevent", l.producer_parks_per_mevent, "1/Mevent");
  r->Add("pipeline.rejected_per_mevent", l.rejected_per_mevent, "1/Mevent");
  r->Add("pipeline.submit_late_p99_ms", l.submit_late_p99_ms, "ms");
  r->Add("store.apply_ns_per_update", l.apply_ns_per_update, "ns");
  r->Add("store.apply_ns_per_event", l.apply_ns_per_event, "ns");
  r->Add("store.apply_busy_frac", l.apply_busy_frac, "ratio");
  r->Add("store.direct_ns_per_update", l.direct_ns_per_update, "ns");
  r->Add("store.read_cpu_ns_per_event", l.read_cpu, "ns");
  r->Add("store.snapshot_ms", l.snapshot_ms, "ms");
  r->Add("store.topk_select_ms", l.topk_select_ms, "ms");
  r->Add("store.estimate_p50_us", l.estimate_p50_us, "us");
  r->Add("store.estimate_p99_us", l.estimate_p99_us, "us");
  r->Add("store.topk_p50_ms", l.topk_p50_ms, "ms");
  r->Add("store.topk_p90_ms", l.topk_p90_ms, "ms");
  r->Add("store.estimate_quiescent_ns", l.estimate_quiescent_ns, "ns");
  r->Add("store.estimate_waited_frac", l.estimate_waited_frac, "ratio");
  r->Add("core.increment_ns", l.core_increment_ns, "ns");
  r->Add("core.merge_ns_per_key", l.core_merge_ns_per_key, "ns");
  r->Add("traced.cpu_ns_per_event", l.traced_cpu_ns_per_event, "ns");
  r->Add("traced.ingest_eps", l.traced_ingest_eps, "events/s");
  r->Add("unattributed_ns_per_event", l.unattributed, "ns");
  r->Add("trace_overhead_frac", l.trace_overhead_frac, "ratio");
}

}  // namespace perfbench
