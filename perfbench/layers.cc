#include "layers.h"

#include <algorithm>
#include <cstring>

#include "harness.h"
#include "net/wire.h"
#include "random/rng.h"

namespace perfbench {

using countlib::Counter;
using countlib::Status;
using countlib::analytics::KeyWeight;
using countlib::analytics::ShardedCounterStore;

namespace {
/// Keeps the decode replay's results observable so it is not optimized away.
volatile uint64_t g_sink = 0;
}  // namespace

TimingWriter::TimingWriter(countlib::analytics::CounterWriter* inner,
                           uint64_t record_cap)
    : inner_(inner), record_cap_(record_cap) {
  for (uint64_t i = 0; i < inner->num_lanes(); ++i) {
    lanes_.push_back(std::make_unique<Lane>());
    lanes_.back()->updates.reserve(record_cap);
  }
}

Status TimingWriter::IncrementBatch(uint64_t lane, const KeyWeight* updates,
                                    size_t n) {
  if (lane >= lanes_.size()) return inner_->IncrementBatch(lane, updates, n);
  const uint64_t c0 = ThreadCpuNs();
  const uint64_t t0 = WallNs();
  Status st = inner_->IncrementBatch(lane, updates, n);
  const uint64_t t1 = WallNs();
  const uint64_t c1 = ThreadCpuNs();
  Lane& l = *lanes_[lane];
  uint64_t events = 0;
  for (size_t i = 0; i < n; ++i) events += updates[i].weight;
  const auto bump = [](std::atomic<uint64_t>& cell, uint64_t d) {
    cell.store(cell.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
  };
  bump(l.calls, 1);
  bump(l.updates_n, n);
  bump(l.events, events);
  bump(l.wall_ns, t1 - t0);
  bump(l.cpu_ns, c1 - c0);
  if (recording_.load(std::memory_order_relaxed) &&
      l.updates.size() + n <= record_cap_) {
    l.updates.insert(l.updates.end(), updates, updates + n);
    l.sizes.push_back(static_cast<uint32_t>(n));
  }
  return st;
}

TimingWriter::Totals TimingWriter::Sum() const {
  Totals t;
  for (const auto& l : lanes_) {
    t.calls += l->calls.load(std::memory_order_relaxed);
    t.updates += l->updates_n.load(std::memory_order_relaxed);
    t.events += l->events.load(std::memory_order_relaxed);
    t.wall_ns += l->wall_ns.load(std::memory_order_relaxed);
    t.cpu_ns += l->cpu_ns.load(std::memory_order_relaxed);
  }
  return t;
}

ReadProbe RunReadProbe(const ShardedCounterStore& store,
                       const std::vector<uint32_t>& keys, uint64_t key_limit,
                       uint64_t seed, const ProbePlan& plan) {
  ReadProbe p;
  countlib::Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  const uint64_t span = std::max<uint64_t>(1, std::min<uint64_t>(key_limit, keys.size()));
  const std::vector<int> cpus = AllowedCpus();
  for (uint64_t round = 0; round < plan.rounds; ++round) {
    if (round != 0) SleepUntilNs(WallNs() + plan.gap_ns);
    PinThread(0, cpus[round % cpus.size()]);
    std::vector<double> est, topk;
    est.reserve(plan.estimates_per_round);
    for (uint64_t i = 0; i < plan.estimates_per_round; ++i) {
      const uint64_t key = keys[rng.NextU64() % span];
      const uint64_t t0 = WallNs();
      auto r = store.Estimate(key);
      est.push_back(static_cast<double>(WallNs() - t0));
      ++p.calls;
      if (!r.ok()) ++p.errors;
    }
    for (uint64_t i = 0; round < plan.topk_rounds && i < plan.topk_per_round; ++i) {
      const uint64_t t0 = WallNs();
      auto r = store.TopK(100);
      topk.push_back(static_cast<double>(WallNs() - t0));
      ++p.calls;
      if (!r.ok()) ++p.errors;
    }
    p.estimate_ns.push_back(std::move(est));
    if (!topk.empty()) p.topk_ns.push_back(std::move(topk));
  }
  RunOnCpus(cpus);
  for (uint64_t i = 0; i < plan.snapshots; ++i) {
    const uint64_t t0 = WallNs();
    auto r = store.Snapshot();
    p.snapshot_ns.push_back(static_cast<double>(WallNs() - t0));
    if (!r.ok()) ++p.errors;
  }
  return p;
}

double RoundQuantile(const std::vector<std::vector<double>>& rounds, double q) {
  std::vector<double> pooled, qs;
  for (const auto& r : rounds) {
    pooled.insert(pooled.end(), r.begin(), r.end());
    if (r.size() >= kMinRoundSamples) qs.push_back(Quantile(r, q));
  }
  if (qs.size() < 3) return Quantile(std::move(pooled), q);
  return Median(std::move(qs));
}

double WaitedFraction(const std::vector<std::vector<double>>& rounds, double quiescent_ns) {
  uint64_t waited = 0, total = 0;
  for (const auto& r : rounds) {
    for (double ns : r) waited += ns > 10 * quiescent_ns;
    total += r.size();
  }
  return total == 0 ? 0 : static_cast<double>(waited) / static_cast<double>(total);
}

double ReplayWireCodec(const std::vector<uint32_t>& keys, uint64_t frame_events,
                       double* decode_ns, bool* roundtrip_ok) {
  namespace net = countlib::net;
  // At most 256 frames (2 MB encoded), replayed until ~4M events per pass.
  const uint64_t frames = std::max<uint64_t>(
      1, std::min<uint64_t>(256, keys.size() / frame_events));
  const uint64_t payload = net::EventBatchPayloadSize(frame_events);
  const uint64_t frame_bytes = net::kFrameHeaderSize + payload;
  std::vector<uint8_t> wire(frames * frame_bytes);
  std::vector<net::EventRecord> records(frames * frame_events);
  for (uint64_t i = 0; i < records.size(); ++i) {
    records[i] = net::EventRecord{keys[i % keys.size()], 1};
  }
  std::vector<net::EventRecord> decoded(frame_events);
  const uint64_t rounds = std::max<uint64_t>(1, (uint64_t{4} << 20) / (frames * frame_events));
  *roundtrip_ok = true;
  std::vector<double> enc, dec;
  for (int rep = 0; rep < 5; ++rep) {
    uint64_t t0 = WallNs();
    for (uint64_t r = 0; r < rounds; ++r) {
      for (uint64_t f = 0; f < frames; ++f) {
        uint8_t* out = wire.data() + f * frame_bytes;
        net::FrameHeader h;
        h.type = net::FrameType::kEventBatch;
        h.payload_len = static_cast<uint32_t>(payload);
        h.seq = r * frames + f + 1;
        net::EncodeFrameHeader(h, out);
        net::EncodeEventBatch(records.data() + f * frame_events,
                              static_cast<uint32_t>(frame_events),
                              out + net::kFrameHeaderSize);
      }
    }
    enc.push_back(static_cast<double>(WallNs() - t0) /
                  static_cast<double>(rounds * frames * frame_events));
    t0 = WallNs();
    uint64_t sink = 0;
    for (uint64_t r = 0; r < rounds; ++r) {
      for (uint64_t f = 0; f < frames; ++f) {
        const uint8_t* in = wire.data() + f * frame_bytes;
        net::FrameHeader h;
        uint32_t count = 0;
        if (!net::DecodeFrameHeader(in, net::kFrameHeaderSize, payload, &h).ok() ||
            !net::DecodeEventBatch(in + net::kFrameHeaderSize, h.payload_len,
                                   decoded.data(),
                                   static_cast<uint32_t>(frame_events), &count)
                 .ok() ||
            count != frame_events) {
          *roundtrip_ok = false;
          continue;
        }
        sink += decoded[count - 1].key;
        if (r == 0 && rep == 0 &&
            std::memcmp(decoded.data(), records.data() + f * frame_events,
                        count * sizeof(net::EventRecord)) != 0) {
          *roundtrip_ok = false;
        }
      }
    }
    dec.push_back(static_cast<double>(WallNs() - t0) /
                  static_cast<double>(rounds * frames * frame_events));
    g_sink = g_sink + sink;
  }
  *decode_ns = Median(dec);
  return Median(enc);
}

double ReplayDirectStore(const TimingWriter& rec, const CounterRecipe& recipe,
                         uint64_t lanes) {
  std::vector<double> per_update;
  for (int rep = 0; rep < 3; ++rep) {
    auto store = ShardedCounterStore::Make(lanes, recipe.kind, recipe.bits,
                                           recipe.n_max, 7 + rep)
                     .ValueOrDie();
    uint64_t updates = 0;
    const uint64_t t0 = WallNs();
    for (uint64_t lane = 0; lane < lanes; ++lane) {
      const auto& u = rec.recorded(lane);
      size_t off = 0;
      for (uint32_t n : rec.recorded_sizes(lane)) {
        if (!store->IncrementBatch(lane, u.data() + off, n).ok()) return -1;
        off += n;
      }
      updates += off;
    }
    if (updates == 0) return 0;
    per_update.push_back(static_cast<double>(WallNs() - t0) /
                         static_cast<double>(updates));
  }
  return Median(per_update);
}

double ReplayCore(const TimingWriter& rec, const CounterRecipe& recipe,
                  uint64_t lanes, double* merge_ns) {
  constexpr uint64_t kCounters = 4096;
  const auto make_set = [&](uint64_t seed) {
    std::vector<std::unique_ptr<Counter>> set;
    for (uint64_t i = 0; i < kCounters; ++i) {
      set.push_back(countlib::MakeCounterForBits(recipe.kind, recipe.bits,
                                                 recipe.n_max, seed + i)
                        .ValueOrDie());
    }
    return set;
  };
  auto a = make_set(11);
  auto b = make_set(1u << 20);
  uint64_t calls = 0;
  const uint64_t t0 = WallNs();
  for (uint64_t lane = 0; lane < lanes; ++lane) {
    for (const KeyWeight& u : rec.recorded(lane)) {
      a[u.key % kCounters]->IncrementMany(u.weight);
      ++calls;
    }
  }
  const double inc_ns =
      calls == 0 ? 0 : static_cast<double>(WallNs() - t0) / static_cast<double>(calls);
  for (uint64_t lane = 0; lane < lanes; ++lane) {
    for (const KeyWeight& u : rec.recorded(lane)) b[u.key % kCounters]->IncrementMany(u.weight);
  }
  std::vector<double> rounds;
  for (int r = 0; r < 8; ++r) {
    const uint64_t m0 = WallNs();
    for (uint64_t i = 0; i < kCounters; ++i) {
      if (!a[i]->MergeFrom(*b[i]).ok()) return -1;
    }
    rounds.push_back(static_cast<double>(WallNs() - m0) / kCounters);
  }
  *merge_ns = Median(rounds);
  return inc_ns;
}

}  // namespace perfbench
