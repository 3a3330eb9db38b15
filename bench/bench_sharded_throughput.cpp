// Sharded StreamEngine throughput: events/sec at K = 1, 2, 4, 8 shards on
// an overlap-heavy workload, with exact-match parity asserted against the
// serial per-substream golden at every K.
//
// Parity is the hard gate: any divergence between the concurrent engine and
// the union of serial run_pipeline() runs is a correctness bug, so the
// bench exits nonzero on mismatch (CI fails).  Speedup is hardware-bound:
// shards run on real threads, so the K = 4 target (>= 2x over K = 1) is
// only reachable with >= 4 hardware threads; the JSON records the machine's
// core count next to the measured ratios so the trajectory is
// interpretable.
//
// The single-core K=4/K=1 ratio is its own acceptance field
// (k4_vs_k1_ratio): sharding must not COST throughput when the threads
// merely time-slice one core.  The measurement is best-of-6 per K over a
// 2M-event stream -- cross-K ratios from best-of-2 over short runs swing
// +-10% from scheduler noise alone.  With the pow2-mask router, hoisted
// key extraction and the shards' idle backoff the ratio sits around 0.9x
// here; the remaining gap is consumer-side (per-shard busy_seconds grows
// ~10% at K=4: four pipelines' window/matcher state exceeds what one
// core's cache holds), not router overhead.
//
// Writes BENCH_sharded_engine.json.  --smoke (or ESPICE_BENCH_SMOKE=1)
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
constexpr std::size_t kSlide = 64;  // overlap factor 16

std::vector<Event> make_stream(std::size_t n) {
  Rng rng(0xbe7c);
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

EngineQuery make_query() {
  EngineQuery q;
  q.query.pattern = make_sequence(
      {element("up", TypeSet{}, DirectionFilter::kRising),
       element("down", TypeSet{}, DirectionFilter::kFalling),
       element("up2", TypeSet{}, DirectionFilter::kRising)});
  q.query.window.span_kind = WindowSpan::kCount;
  q.query.window.span_events = kSpan;
  q.query.window.open_kind = WindowOpen::kCountSlide;
  q.query.window.slide_events = kSlide;
  return q;
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
  std::uint64_t backpressure_waits = 0;
  bool parity = false;
  std::uint64_t latency_samples = 0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;
  std::uint64_t p999_ns = 0;
};

RunResult run_at(const std::vector<Event>& events, std::size_t shards,
                 int repeats) {
  StreamEngineConfig config;
  config.shards = shards;
  config.ring_capacity = 4096;
  config.queries = {make_query()};
  // Sampled end-to-end latency (enqueue -> block released): every 64th
  // enqueue per shard, cheap enough not to perturb the throughput numbers.
  config.latency_sample_every = 64;
  const auto golden_sig = signature(per_query_serial_goldens(
      config.shards, config.key_of, config.queries, events)[0]);
  RunResult best;
  for (int r = 0; r < repeats; ++r) {
    // Per-event push() at full speed (throughput mode).
    StreamEngine engine(config);
    for (const Event& e : events) engine.push(e);
    const EngineReport report = engine.finish();
    const bool parity = signature(report.matches) == golden_sig;
    std::uint64_t waits = 0;
    for (const auto& s : report.shards) {
      waits += s.router_backpressure_waits;
    }
    if (r == 0 || report.events_per_sec > best.events_per_sec) {
      best.events_per_sec = report.events_per_sec;
      best.wall_seconds = report.wall_seconds;
      best.matches = report.matches.size();
      best.backpressure_waits = waits;
      const LatencyHistogram& lat = report.latency;
      best.latency_samples = lat.count();
      best.p50_ns = lat.quantile(0.50);
      best.p99_ns = lat.quantile(0.99);
      best.p999_ns = lat.quantile(0.999);
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

  const std::size_t n_events = g_smoke ? 60'000 : 2'000'000;
  const auto events = make_stream(n_events);
  const unsigned hw_threads = std::thread::hardware_concurrency();

  std::printf(
      "=== Sharded StreamEngine throughput (span %zu, slide %zu, overlap "
      "%zu, %zu events, %u hw threads) ===\n",
      kSpan, kSlide, kSpan / kSlide, n_events, hw_threads);
  std::printf("| %-6s | %-14s | %-9s | %-8s | %-7s | %-12s | %-9s | %-9s |\n",
              "shards", "events/sec", "wall (s)", "matches", "parity",
              "router waits", "p50 (us)", "p99 (us)");

  const std::size_t ks[] = {1, 2, 4, 8};
  double eps_k1 = 0.0, eps_k4 = 0.0;
  bool parity_all = true;
  std::string json = bench_support::json_header("sharded_engine", g_smoke);
  json += "  \"events\": " + std::to_string(n_events) + ",\n";
  json += "  \"span_events\": " + std::to_string(kSpan) + ",\n";
  json += "  \"slide_events\": " + std::to_string(kSlide) + ",\n";
  json += "  \"overlap\": " + std::to_string(kSpan / kSlide) + ",\n";
  json += "  \"runs\": [\n";

  for (std::size_t k = 0; k < std::size(ks); ++k) {
    const auto r = run_at(events, ks[k], /*repeats=*/6);
    parity_all = parity_all && r.parity;
    if (ks[k] == 1) eps_k1 = r.events_per_sec;
    if (ks[k] == 4) eps_k4 = r.events_per_sec;
    std::printf(
        "| %-6zu | %-14.0f | %-9.3f | %-8zu | %-7s | %-12llu | %-9.1f "
        "| %-9.1f |\n",
        ks[k], r.events_per_sec, r.wall_seconds, r.matches,
        r.parity ? "ok" : "FAIL",
        static_cast<unsigned long long>(r.backpressure_waits),
        static_cast<double>(r.p50_ns) / 1000.0,
        static_cast<double>(r.p99_ns) / 1000.0);
    json += "    {\"shards\": " + std::to_string(ks[k]) +
            ", \"events_per_sec\": " + bench_support::json_double(r.events_per_sec) +
            ", \"wall_seconds\": " + bench_support::json_double(r.wall_seconds) +
            ", \"matches\": " + std::to_string(r.matches) +
            ", \"router_backpressure_waits\": " +
            std::to_string(r.backpressure_waits) +
            ", \"latency_samples\": " + std::to_string(r.latency_samples) +
            ", \"latency_p50_ns\": " + std::to_string(r.p50_ns) +
            ", \"latency_p99_ns\": " + std::to_string(r.p99_ns) +
            ", \"latency_p999_ns\": " + std::to_string(r.p999_ns) +
            ", \"parity\": " + (r.parity ? "true" : "false") + "}";
    json += (k + 1 < std::size(ks)) ? ",\n" : "\n";
  }

  const double speedup_k4 = eps_k1 > 0.0 ? eps_k4 / eps_k1 : 0.0;
  // The K=4 >= 2x criterion is only meaningful with one core per shard: a
  // met criterion counts on any machine, but a miss on fewer than 4
  // hardware threads is recorded as skipped, not failed -- asserting a
  // parallel-speedup target on a 1-core container is noise, and parity
  // stays the hard gate either way.
  const std::string speedup_ok =
      speedup_k4 >= 2.0
          ? "true"
          : (hw_threads >= 4 ? "false" : "\"skipped_insufficient_cores\"");
  json += "  ],\n  \"acceptance\": {\"parity_all\": " +
          std::string(parity_all ? "true" : "false") +
          ", \"speedup_k4_vs_k1\": " + bench_support::json_double(speedup_k4) +
          ", \"speedup_k4_ge_2x\": " + speedup_ok +
          ", \"k4_vs_k1_ratio\": " + bench_support::json_double(speedup_k4) +
          ", \"k4_vs_k1_ge_095\": " +
          std::string(speedup_k4 >= 0.95 ? "true" : "false") + "}\n}\n";

  const char* path = "BENCH_sharded_engine.json";
  const bool wrote = bench_support::write_json(path, json);
  if (wrote) {
    std::printf("wrote %s (K=4 speedup %.2fx, parity: %s)\n", path, speedup_k4,
                parity_all ? "ok" : "FAIL");
  }
  if (hw_threads < 4 && speedup_k4 < 2.0) {
    std::printf(
        "note: %u hardware thread(s) -- the K=4 >= 2x target needs >= 4 "
        "cores; parity is the hard gate here.\n",
        hw_threads);
  }
  // Exact-match parity is the contract (nonzero exit on any mismatch), and
  // the JSON artifact is the bench's deliverable -- failing to write it
  // must fail CI too, not just warn on stderr.
  return (parity_all && wrote) ? 0 : 1;
}
