// Skewed-ingestion bench: multi-producer throughput and per-shard occupancy
// under uniform vs Zipf key traffic, plus the hot-partition rebalancer's
// balance on the skewed end.
//
// Two experiment families, one JSON artifact (BENCH_skew.json):
//
//  1. Multi-producer matrix -- workload (uniform / Zipf 0.9 / Zipf 1.2)
//     x shards K in {1,2,4,8} x producers P in {1,2,4}, all through
//     push_batch_concurrent().  Every run records events/sec and the
//     per-shard occupancy gauges (mean/peak ring depth, busy fraction):
//     skew shows up as one shard's busy fraction and queue depth running
//     away from the pack while the others idle.
//  2. Rebalance runs -- Zipf 1.2 single-producer at K=4 and K=8 with 16
//     logical partitions, plus a no-rebalance K=4 baseline for contrast.
//     The acceptance gate is load balance at K=4: max per-shard load over
//     mean <= 1.5x under rebalancing.  The gate is evaluated on per-shard
//     EVENT counts (deterministic; exactly what the rebalancer equalizes);
//     busy-fraction ratios are recorded alongside -- on a box with >= K
//     cores the two coincide, on a time-sliced single core the busy gauge
//     absorbs preemption noise.  K=8 is recorded, not gated: with Zipf 1.2
//     over 64 keys the hottest single partition carries ~25% of the
//     stream, so max/mean >= hottest_share * K ~ 2 no matter where
//     partitions are placed; the JSON records that skew floor so the K=8
//     rows are interpretable.
//
// Exact-match parity against the serial per-substream golden is the hard
// gate on EVERY run (multi-producer and rebalanced alike): any divergence
// exits nonzero and fails CI.  Parallel speedup (P=4 vs P=1) is recorded
// but only asserted with >= 4 hardware threads (skipped_insufficient_cores
// otherwise).
//
// --smoke (or ESPICE_BENCH_SMOKE=1) shrinks the streams for CI smoke runs.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "json_out.hpp"
#include "runtime/stream_engine.hpp"
#include "sim/sharded_sim.hpp"
#include "sim/zipf.hpp"

namespace espice {
namespace {

bool g_smoke = false;

constexpr std::size_t kNumKeys = 64;
constexpr std::uint64_t kStreamSeed = 0x5ce3;
constexpr std::size_t kChunk = 1024;  // per-producer push granularity

struct Workload {
  const char* name;
  double s;  // Zipf exponent; 0 = uniform
};
constexpr Workload kWorkloads[] = {
    {"uniform", 0.0}, {"zipf09", 0.9}, {"zipf12", 1.2}};

EngineQuery make_query() {
  EngineQuery q;
  q.query.pattern = make_sequence(
      {element("up", TypeSet{}, DirectionFilter::kRising),
       element("down", TypeSet{}, DirectionFilter::kFalling)});
  q.query.window.span_kind = WindowSpan::kCount;
  q.query.window.span_events = 512;
  q.query.window.open_kind = WindowOpen::kCountSlide;
  q.query.window.slide_events = 64;
  return q;
}

std::vector<std::uint64_t> signature(const std::vector<ComplexEvent>& ms) {
  std::vector<std::uint64_t> sig;
  sig.reserve(ms.size() * 3);
  for (const auto& m : ms) {
    sig.push_back(m.constituents.size());
    for (const auto& c : m.constituents) sig.push_back(c.event.seq);
  }
  return sig;
}

/// Signature of the serial golden over `shards` hash partitions.
std::vector<std::uint64_t> golden_signature(std::size_t shards,
                                            const std::vector<Event>& events) {
  const EngineQuery q = make_query();
  return signature(per_query_serial_goldens(shards, nullptr, {&q, 1},
                                            events)[0]);
}

struct ShardGauge {
  std::uint64_t events = 0;
  double mean_depth = 0.0;
  std::size_t peak_depth = 0;
  double busy_fraction = 0.0;
};

struct RunOut {
  double events_per_sec = 0.0;
  double wall_seconds = 0.0;
  std::size_t matches = 0;
  bool parity = false;
  std::uint64_t rebalance_moves = 0;
  std::vector<ShardGauge> shards;
};

RunOut summarize(const EngineReport& report,
                 const std::vector<std::uint64_t>& golden_sig) {
  RunOut out;
  out.events_per_sec = report.events_per_sec;
  out.wall_seconds = report.wall_seconds;
  out.matches = report.matches.size();
  out.parity = signature(report.matches) == golden_sig;
  out.rebalance_moves = report.rebalance_moves;
  for (const ShardStats& s : report.shards) {
    ShardGauge g;
    g.events = s.events;
    g.mean_depth = s.mean_queue_depth();
    g.peak_depth = s.peak_queue_depth;
    g.busy_fraction = report.wall_seconds > 0.0
                          ? s.busy_seconds / report.wall_seconds
                          : 0.0;
    out.shards.push_back(g);
  }
  return out;
}

/// One multi-producer run: P threads push round-robin chunk slices (each
/// producer's seqs strictly increasing), best events/sec over `repeats`.
RunOut run_mp(const std::vector<Event>& events, std::size_t shards,
              std::size_t producers,
              const std::vector<std::uint64_t>& golden_sig, int repeats) {
  StreamEngineConfig config;
  config.shards = shards;
  config.producers = producers;
  config.ring_capacity = 4096;
  config.queries = {make_query()};
  RunOut best;
  for (int r = 0; r < repeats; ++r) {
    StreamEngine engine(config);
    engine.start();
    const std::span<const Event> all(events);
    std::vector<std::thread> threads;
    threads.reserve(producers);
    for (std::size_t p = 0; p < producers; ++p) {
      threads.emplace_back([&, p] {
        for (std::size_t c = p; c * kChunk < events.size(); c += producers) {
          const std::size_t off = c * kChunk;
          engine.push_batch_concurrent(
              p, all.subspan(off, std::min(kChunk, events.size() - off)));
        }
        engine.producer_done(p);
      });
    }
    for (auto& t : threads) t.join();
    const RunOut out = summarize(engine.finish(), golden_sig);
    if (r == 0 || out.events_per_sec > best.events_per_sec) {
      const bool parity_so_far = (r == 0) || best.parity;
      best = out;
      best.parity = best.parity && parity_so_far;
    } else {
      best.parity = best.parity && out.parity;
    }
  }
  return best;
}

/// One single-producer run with (or without) hot-partition rebalancing.
RunOut run_rebalance(const std::vector<Event>& events, std::size_t shards,
                     bool rebalance, std::size_t partitions,
                     const std::vector<std::uint64_t>& golden_sig) {
  StreamEngineConfig config;
  config.shards = shards;
  config.ring_capacity = 4096;
  config.queries = {make_query()};
  if (rebalance) {
    config.rebalance.emplace();
    config.rebalance->partitions = partitions;
    config.rebalance->interval_events = 4096;
  }
  StreamEngine engine(config);
  engine.push_batch(events);
  return summarize(engine.finish(), golden_sig);
}

double max_over_mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  double mx = 0.0;
  for (double x : xs) {
    sum += x;
    mx = std::max(mx, x);
  }
  const double mean = sum / static_cast<double>(xs.size());
  return mean > 0.0 ? mx / mean : 0.0;
}

std::string shard_gauges_json(const std::vector<ShardGauge>& shards) {
  std::string j = "[";
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const ShardGauge& g = shards[s];
    j += "{\"events\": " + std::to_string(g.events) +
         ", \"mean_queue_depth\": " + bench_support::json_double(g.mean_depth) +
         ", \"peak_queue_depth\": " + std::to_string(g.peak_depth) +
         ", \"busy_fraction\": " + bench_support::json_double(g.busy_fraction) +
         "}";
    if (s + 1 < shards.size()) j += ", ";
  }
  return j + "]";
}

}  // namespace
}  // namespace espice

int main(int argc, char** argv) {
  using namespace espice;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) g_smoke = true;
  }
  if (const char* env = std::getenv("ESPICE_BENCH_SMOKE");
      env != nullptr && env[0] != '\0' && env[0] != '0') {
    g_smoke = true;
  }

  const std::size_t n_events = g_smoke ? 30'000 : 300'000;
  const int repeats = g_smoke ? 1 : 2;
  const unsigned hw_threads = std::thread::hardware_concurrency();
  const std::size_t kPartitions = 16;

  std::printf(
      "=== Skewed ingestion: multi-producer + rebalancing (%zu events, %zu "
      "keys, %u hw threads) ===\n",
      n_events, kNumKeys, hw_threads);

  bool parity_all = true;
  std::string json = bench_support::json_header("skewed_ingest", g_smoke);
  json += "  \"events\": " + std::to_string(n_events) + ",\n";
  json += "  \"keys\": " + std::to_string(kNumKeys) + ",\n";
  json += "  \"mp_runs\": [\n";

  // --- family 1: multi-producer matrix ------------------------------------
  const std::size_t ks[] = {1, 2, 4, 8};
  const std::size_t ps[] = {1, 2, 4};
  // speedup_p4[w] / baseline_p1[w]: P scaling at K=4 per workload.
  double p1_at_k4[std::size(kWorkloads)] = {};
  double p4_at_k4[std::size(kWorkloads)] = {};
  bool first_row = true;

  for (std::size_t w = 0; w < std::size(kWorkloads); ++w) {
    const Workload& wl = kWorkloads[w];
    const auto events = make_zipf_stream(n_events, kNumKeys, wl.s, kStreamSeed);
    std::printf(
        "--- workload %s (s=%.1f, hottest key %.1f%%) ---\n", wl.name, wl.s,
        ZipfGenerator(kNumKeys, wl.s).share(0) * 100.0);
    std::printf("| %-6s | %-9s | %-14s | %-7s | %-17s | %-17s |\n", "shards",
                "producers", "events/sec", "parity", "busy fractions",
                "mean depths");
    for (std::size_t k : ks) {
      const auto golden_sig = golden_signature(k, events);
      for (std::size_t p : ps) {
        const RunOut r = run_mp(events, k, p, golden_sig, repeats);
        parity_all = parity_all && r.parity;
        if (k == 4 && p == 1) p1_at_k4[w] = r.events_per_sec;
        if (k == 4 && p == 4) p4_at_k4[w] = r.events_per_sec;
        std::string busy, depth;
        for (const ShardGauge& g : r.shards) {
          char buf[32];
          std::snprintf(buf, sizeof buf, "%.2f ", g.busy_fraction);
          busy += buf;
          std::snprintf(buf, sizeof buf, "%.0f ", g.mean_depth);
          depth += buf;
        }
        std::printf("| %-6zu | %-9zu | %-14.0f | %-7s | %-17s | %-17s |\n", k,
                    p, r.events_per_sec, r.parity ? "ok" : "FAIL",
                    busy.c_str(), depth.c_str());
        if (!first_row) json += ",\n";
        first_row = false;
        json += "    {\"workload\": \"" + std::string(wl.name) +
                "\", \"shards\": " + std::to_string(k) +
                ", \"producers\": " + std::to_string(p) +
                ", \"events_per_sec\": " +
                bench_support::json_double(r.events_per_sec) +
                ", \"matches\": " + std::to_string(r.matches) +
                ", \"parity\": " + (r.parity ? "true" : "false") +
                ", \"shards_detail\": " + shard_gauges_json(r.shards) + "}";
      }
    }
  }
  json += "\n  ],\n";

  // --- family 2: rebalancing on the skewed end ----------------------------
  const auto zipf12 = make_zipf_stream(n_events, kNumKeys, 1.2, kStreamSeed);
  // The skew floor: the hottest partition's traffic share bounds achievable
  // balance -- max/mean >= hottest_share * K regardless of placement.
  std::vector<std::uint64_t> part_counts(kPartitions, 0);
  {
    StreamEngineConfig probe;
    probe.shards = 1;
    probe.rebalance.emplace();
    probe.rebalance->partitions = kPartitions;
    StreamEngine engine(probe);
    for (const Event& e : zipf12) ++part_counts[engine.partition_of(e)];
  }
  const double hottest_share =
      static_cast<double>(*std::max_element(part_counts.begin(),
                                            part_counts.end())) /
      static_cast<double>(zipf12.size());

  const auto reb_golden_sig = golden_signature(kPartitions, zipf12);
  // The non-rebalanced runs hash keys straight onto K shards: different
  // partitioning of the match space, same canonical merge order.
  std::printf("--- rebalancing, zipf12 (hottest of %zu partitions: %.1f%%) "
              "---\n",
              kPartitions, hottest_share * 100.0);
  std::printf("| %-6s | %-9s | %-5s | %-13s | %-13s | %-7s |\n", "shards",
              "rebalance", "moves", "max/mean ev", "max/mean busy", "parity");

  double k4_balance_events = 0.0;
  double k4_balance_busy = 0.0;
  json += "  \"rebalance_runs\": [\n";
  bool first_reb = true;
  for (const std::size_t k : {std::size_t{4}, std::size_t{8}}) {
    for (const bool reb : {false, true}) {
      std::vector<std::uint64_t> golden_sig_local;
      if (reb) {
        golden_sig_local = reb_golden_sig;
      } else {
        golden_sig_local = golden_signature(k, zipf12);
      }
      const RunOut r =
          run_rebalance(zipf12, k, reb, kPartitions, golden_sig_local);
      parity_all = parity_all && r.parity;
      std::vector<double> ev, busy;
      for (const ShardGauge& g : r.shards) {
        ev.push_back(static_cast<double>(g.events));
        busy.push_back(g.busy_fraction);
      }
      const double bal_ev = max_over_mean(ev);
      const double bal_busy = max_over_mean(busy);
      if (k == 4 && reb) {
        k4_balance_events = bal_ev;
        k4_balance_busy = bal_busy;
      }
      std::printf("| %-6zu | %-9s | %-5llu | %-13.2f | %-13.2f | %-7s |\n", k,
                  reb ? "on" : "off",
                  static_cast<unsigned long long>(r.rebalance_moves), bal_ev,
                  bal_busy, r.parity ? "ok" : "FAIL");
      if (!first_reb) json += ",\n";
      first_reb = false;
      json += "    {\"workload\": \"zipf12\", \"shards\": " +
              std::to_string(k) +
              ", \"rebalance\": " + (reb ? "true" : "false") +
              ", \"partitions\": " + std::to_string(kPartitions) +
              ", \"rebalance_moves\": " + std::to_string(r.rebalance_moves) +
              ", \"balance_max_over_mean_events\": " +
              bench_support::json_double(bal_ev) +
              ", \"balance_max_over_mean_busy\": " +
              bench_support::json_double(bal_busy) +
              ", \"skew_floor_max_over_mean\": " +
              bench_support::json_double(hottest_share *
                                         static_cast<double>(k)) +
              ", \"parity\": " + (r.parity ? "true" : "false") +
              ", \"shards_detail\": " + shard_gauges_json(r.shards) + "}";
    }
  }
  json += "\n  ],\n";

  // --- acceptance ---------------------------------------------------------
  const double speedup_p4 =
      p1_at_k4[2] > 0.0 ? p4_at_k4[2] / p1_at_k4[2] : 0.0;
  const std::string speedup_field =
      speedup_p4 >= 1.0
          ? "true"
          : (hw_threads >= 4 ? "false" : "\"skipped_insufficient_cores\"");
  const bool balance_ok = k4_balance_events <= 1.5;
  json += "  \"acceptance\": {\"parity_all\": " +
          std::string(parity_all ? "true" : "false") +
          ", \"zipf12_k4_rebalanced_max_over_mean_events\": " +
          bench_support::json_double(k4_balance_events) +
          ", \"zipf12_k4_rebalanced_max_over_mean_busy\": " +
          bench_support::json_double(k4_balance_busy) +
          ", \"zipf12_k4_balance_le_1p5\": " +
          std::string(balance_ok ? "true" : "false") +
          ", \"zipf12_k8_skew_floor\": " +
          bench_support::json_double(hottest_share * 8.0) +
          ", \"speedup_p4_vs_p1_zipf12_k4\": " +
          bench_support::json_double(speedup_p4) +
          ", \"speedup_p4_ge_1x\": " + speedup_field + "}\n}\n";

  const char* path = "BENCH_skew.json";
  const bool wrote = bench_support::write_json(path, json);
  if (wrote) {
    std::printf(
        "wrote %s (parity: %s, zipf12 K=4 rebalanced max/mean events %.2f, "
        "P=4 speedup %.2fx)\n",
        path, parity_all ? "ok" : "FAIL", k4_balance_events, speedup_p4);
  }
  if (hw_threads < 4) {
    std::printf(
        "note: %u hardware thread(s) -- producer-scaling targets need >= 4 "
        "cores; parity and balance are the gates here.\n",
        hw_threads);
  }
  // Parity everywhere and the K=4 rebalanced balance are the contract; the
  // JSON artifact is the deliverable.
  return (parity_all && balance_ok && wrote) ? 0 : 1;
}
