// Batched end-to-end ingestion: push_batch() vs per-event push() on a
// single-shard engine, at batch sizes {1, 16, 64, 256}.
//
// The workload is ingestion-bound by design (tumbling count windows, a
// cheap 3-element pattern): the per-event path pays its fixed costs -- one
// routing call, two ring cursor operations, one scalar pop -- per event,
// while the batched path amortizes them over whole blocks (bulk SPSC
// transfer, block-wise window routing with bulk store appends).  The
// speedup at batch 256 is the headline number; batch 1 measures the pure
// API overhead of staging a one-event span.
//
// Parity is the hard gate at every batch size: push_batch() must reproduce
// the per-event serial golden bit for bit, so the bench exits nonzero on
// any mismatch (CI fails).  The speedup criterion needs the router and the
// shard on separate cores; on fewer than 2 hardware threads the JSON
// records "skipped_insufficient_cores" instead of a boolean.
//
// Writes BENCH_batch_ingest.json.  --smoke (or ESPICE_BENCH_SMOKE=1)
// shrinks the stream for CI smoke runs.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "json_out.hpp"
#include "runtime/stream_engine.hpp"
#include "sim/sharded_sim.hpp"

namespace espice {
namespace {

bool g_smoke = false;

constexpr std::size_t kNumTypes = 64;
constexpr std::size_t kSpan = 1024;
constexpr std::size_t kSlide = 1024;  // tumbling: ingestion dominates

std::vector<Event> make_stream(std::size_t n) {
  Rng rng(0xba7c4);
  std::vector<Event> events;
  events.reserve(n);
  double ts = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    Event e;
    e.type = static_cast<EventTypeId>(rng.uniform_int(kNumTypes));
    e.seq = i;
    ts += rng.uniform(0.0, 0.01);
    e.ts = ts;
    e.value = rng.uniform(-1.0, 1.0);
    events.push_back(e);
  }
  return events;
}

StreamEngineConfig make_config() {
  StreamEngineConfig config;
  config.shards = 1;
  config.ring_capacity = 16384;
  ShardQuery& q = config.queries.emplace_back().query;
  q.pattern = make_sequence(
      {element("up", TypeSet{}, DirectionFilter::kRising),
       element("down", TypeSet{}, DirectionFilter::kFalling),
       element("up2", TypeSet{}, DirectionFilter::kRising)});
  q.window.span_kind = WindowSpan::kCount;
  q.window.span_events = kSpan;
  q.window.open_kind = WindowOpen::kCountSlide;
  q.window.slide_events = kSlide;
  return config;
}

/// Flattened (seq...) signature of a canonically ordered match list; two
/// lists are identical iff their signatures are.
std::vector<std::uint64_t> signature(const std::vector<ComplexEvent>& ms) {
  std::vector<std::uint64_t> sig;
  sig.reserve(ms.size() * 4);
  for (const auto& m : ms) {
    sig.push_back(m.constituents.size());
    for (const auto& c : m.constituents) sig.push_back(c.event.seq);
  }
  return sig;
}

struct RunResult {
  double events_per_sec = 0.0;
  double wall_seconds = 0.0;
  std::size_t matches = 0;
  bool parity = false;
};

/// One measured replay; batch == 0 means the scalar per-event path.
RunResult run_at(const std::vector<Event>& events, std::size_t batch,
                 const std::vector<std::uint64_t>& golden_sig, int repeats) {
  ShardedSimConfig config;
  config.engine = make_config();
  config.batch_size = batch;
  RunResult best;
  for (int r = 0; r < repeats; ++r) {
    ShardedSimulator sim(config);
    const auto result = sim.run(events, /*rate=*/1e6);
    const bool parity = signature(result.report.matches) == golden_sig;
    if (r == 0 || result.report.events_per_sec > best.events_per_sec) {
      best.events_per_sec = result.report.events_per_sec;
      best.wall_seconds = result.report.wall_seconds;
      best.matches = result.report.matches.size();
    }
    best.parity = (r == 0) ? parity : (best.parity && parity);
  }
  return best;
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

  const std::size_t n_events = g_smoke ? 200'000 : 1'000'000;
  const int repeats = g_smoke ? 2 : 3;
  const auto events = make_stream(n_events);
  const unsigned hw_threads = std::thread::hardware_concurrency();
  const StreamEngineConfig golden_cfg = make_config();
  const auto golden_sig = signature(
      per_query_serial_goldens(golden_cfg.shards, golden_cfg.key_of,
                               golden_cfg.queries, events)[0]);

  std::printf(
      "=== Batched ingestion, single shard (span %zu, slide %zu, %zu "
      "events, %u hw threads) ===\n",
      kSpan, kSlide, n_events, hw_threads);
  std::printf("| %-9s | %-14s | %-9s | %-8s | %-7s |\n", "batch",
              "events/sec", "wall (s)", "matches", "parity");

  double eps_per_event = 0.0, eps_b256 = 0.0;
  bool parity_all = true;
  std::string json = bench_support::json_header("batch_ingest", g_smoke);
  json += "  \"events\": " + std::to_string(n_events) + ",\n";
  json += "  \"span_events\": " + std::to_string(kSpan) + ",\n";
  json += "  \"slide_events\": " + std::to_string(kSlide) + ",\n";
  json += "  \"shards\": 1,\n";
  json += "  \"runs\": [\n";

  // batch 0 == the scalar per-event baseline.
  const std::size_t batches[] = {0, 1, 16, 64, 256};
  for (std::size_t b = 0; b < std::size(batches); ++b) {
    const auto r = run_at(events, batches[b], golden_sig, repeats);
    parity_all = parity_all && r.parity;
    if (batches[b] == 0) eps_per_event = r.events_per_sec;
    if (batches[b] == 256) eps_b256 = r.events_per_sec;
    const std::string label =
        batches[b] == 0 ? "per-event" : std::to_string(batches[b]);
    std::printf("| %-9s | %-14.0f | %-9.3f | %-8zu | %-7s |\n", label.c_str(),
                r.events_per_sec, r.wall_seconds, r.matches,
                r.parity ? "ok" : "FAIL");
    json += "    {\"mode\": \"" +
            std::string(batches[b] == 0 ? "per_event" : "batch") +
            "\", \"batch_size\": " + std::to_string(batches[b]) +
            ", \"events_per_sec\": " + bench_support::json_double(r.events_per_sec) +
            ", \"wall_seconds\": " + bench_support::json_double(r.wall_seconds) +
            ", \"matches\": " + std::to_string(r.matches) +
            ", \"parity\": " + (r.parity ? "true" : "false") + "}";
    json += (b + 1 < std::size(batches)) ? ",\n" : "\n";
  }

  const double speedup = eps_per_event > 0.0 ? eps_b256 / eps_per_event : 0.0;
  // A met criterion counts on any machine.  A missed one only counts as
  // FAILED when the router and the shard had their own cores; below that it
  // is recorded as skipped, not false (parity stays the hard gate) -- same
  // policy as bench_sharded_throughput.
  const std::string speedup_ok =
      speedup >= 1.8
          ? "true"
          : (hw_threads >= 2 ? "false" : "\"skipped_insufficient_cores\"");
  json += "  ],\n  \"acceptance\": {\"parity_all\": " +
          std::string(parity_all ? "true" : "false") +
          ", \"speedup_b256_vs_per_event\": " + bench_support::json_double(speedup) +
          ", \"speedup_b256_ge_1p8x\": " + speedup_ok + "}\n}\n";

  const char* path = "BENCH_batch_ingest.json";
  const bool wrote = bench_support::write_json(path, json);
  if (wrote) {
    std::printf("wrote %s (batch-256 speedup %.2fx, parity: %s)\n", path,
                speedup, parity_all ? "ok" : "FAIL");
  }
  if (hw_threads < 2 && speedup < 1.8) {
    std::printf(
        "note: %u hardware thread(s) -- the >= 1.8x target needs the router "
        "and the shard on separate cores; parity is the hard gate here.\n",
        hw_threads);
  }
  // Exact-match parity is the contract (nonzero exit on any mismatch), and
  // the JSON artifact is the bench's deliverable.
  return (parity_all && wrote) ? 0 : 1;
}
