// Event-time ingestion overhead and disorder parity.
//
// The event-time path puts a bounded reorder stage (min-heap on seq,
// watermark-driven release; see cep/event_time.hpp) ahead of window
// routing on every shard.  This bench answers two questions:
//
//  1. What does the stage cost?  Baseline (event time off) vs event time
//     on at disorder bounds {0, 64, 1024} over an in-order stream -- the
//     per-event overhead in ns is the heap + watermark bookkeeping alone.
//  2. Does disorder cost anything beyond the stage?  The same stream
//     shuffled within the bound must flow at comparable rate AND produce
//     bit-identical output.
//
// Parity is the hard gate: every run -- in-order or shuffled, any bound --
// must reproduce the event-time-off in-order golden match-for-match
// (constituent seq level).  Any mismatch exits nonzero, failing CI's
// bench-smoke job.  Throughput numbers are advisory (they track the perf
// trajectory in BENCH_event_time.json).
//
// Writes BENCH_event_time.json.  --smoke (or ESPICE_BENCH_SMOKE=1)
// shrinks the stream for CI smoke runs.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "cep/event_time.hpp"
#include "common/rng.hpp"
#include "json_out.hpp"
#include "runtime/stream_engine.hpp"

namespace espice {
namespace {

bool g_smoke = false;

constexpr std::size_t kNumTypes = 64;
constexpr std::size_t kSpan = 1024;
constexpr std::size_t kSlide = 1024;  // tumbling: ingestion dominates
constexpr std::size_t kShards = 2;
constexpr std::size_t kBatch = 256;

std::vector<Event> make_stream(std::size_t n) {
  Rng rng(0xe7b3a);
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

/// Fisher-Yates within consecutive blocks of `block`: measured disorder
/// < block, so a bound of `block` replays it with zero late events.
std::vector<Event> block_shuffle(std::vector<Event> events,
                                 std::size_t block) {
  Rng rng(0x5f0f71e);
  for (std::size_t base = 0; base < events.size(); base += block) {
    const std::size_t end = std::min(base + block, events.size());
    for (std::size_t i = end - 1; i > base; --i) {
      const std::size_t j = base + rng.uniform_int(i - base + 1);
      std::swap(events[i], events[j]);
    }
  }
  return events;
}

StreamEngineConfig make_config(std::int64_t disorder_bound) {
  StreamEngineConfig config;
  config.shards = kShards;
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
  if (disorder_bound >= 0) {
    EventTimeConfig et;
    et.disorder_bound = static_cast<std::uint64_t>(disorder_bound);
    config.event_time = et;
  }
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
  std::uint64_t late = 0;
  bool parity = false;
};

/// One measured replay; bound < 0 means event time off.
RunResult run_at(const std::vector<Event>& events, std::int64_t bound,
                 const std::vector<std::uint64_t>& golden_sig, int repeats) {
  RunResult best;
  for (int r = 0; r < repeats; ++r) {
    StreamEngine engine(make_config(bound));
    const std::span<const Event> all(events);
    for (std::size_t i = 0; i < all.size(); i += kBatch) {
      engine.push_batch(all.subspan(i, std::min(kBatch, all.size() - i)));
    }
    const EngineReport report = engine.finish();
    const bool parity =
        signature(report.matches) == golden_sig && report.late_events == 0;
    if (r == 0 || report.events_per_sec > best.events_per_sec) {
      best.events_per_sec = report.events_per_sec;
      best.wall_seconds = report.wall_seconds;
      best.matches = report.matches.size();
      best.late = report.late_events;
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

  const std::size_t n_events = g_smoke ? 150'000 : 1'000'000;
  const int repeats = g_smoke ? 2 : 3;
  const auto in_order = make_stream(n_events);

  // Golden: event time off, in-order input.  Every other run must
  // reproduce it bit for bit.
  StreamEngine golden_engine(make_config(-1));
  {
    const std::span<const Event> all(in_order);
    for (std::size_t i = 0; i < all.size(); i += kBatch) {
      golden_engine.push_batch(
          all.subspan(i, std::min(kBatch, all.size() - i)));
    }
  }
  const auto golden_sig = signature(golden_engine.finish().matches);

  std::printf(
      "=== Event-time reorder stage (span %zu, %zu shards, %zu events) "
      "===\n",
      kSpan, kShards, n_events);
  std::printf("| %-22s | %-14s | %-8s | %-10s | %-7s |\n", "run",
              "events/sec", "matches", "ns/event+", "parity");

  struct Case {
    const char* label;
    std::int64_t bound;
    bool shuffled;
  };
  const Case cases[] = {
      {"baseline (ET off)", -1, false}, {"bound 0, in-order", 0, false},
      {"bound 64, in-order", 64, false}, {"bound 64, shuffled", 64, true},
      {"bound 1024, in-order", 1024, false},
      {"bound 1024, shuffled", 1024, true},
  };

  double eps_baseline = 0.0;
  bool parity_all = true;
  std::string json = bench_support::json_header("event_time", g_smoke);
  json += "  \"events\": " + std::to_string(n_events) + ",\n";
  json += "  \"span_events\": " + std::to_string(kSpan) + ",\n";
  json += "  \"shards\": " + std::to_string(kShards) + ",\n";
  json += "  \"batch\": " + std::to_string(kBatch) + ",\n";
  json += "  \"runs\": [\n";

  for (std::size_t c = 0; c < std::size(cases); ++c) {
    const Case& k = cases[c];
    const auto events = k.shuffled
                            ? block_shuffle(in_order, static_cast<std::size_t>(
                                                          k.bound))
                            : in_order;
    const auto r = run_at(events, k.bound, golden_sig, repeats);
    parity_all = parity_all && r.parity;
    if (k.bound < 0) eps_baseline = r.events_per_sec;
    // Per-event overhead vs the ET-off baseline (positive = slower).
    const double ns_per_event =
        (eps_baseline > 0.0 && r.events_per_sec > 0.0)
            ? (1.0 / r.events_per_sec - 1.0 / eps_baseline) * 1e9
            : 0.0;
    std::printf("| %-22s | %-14.0f | %-8zu | %-10.1f | %-7s |\n", k.label,
                r.events_per_sec, r.matches, ns_per_event,
                r.parity ? "ok" : "FAIL");
    json += "    {\"label\": \"" + std::string(k.label) +
            "\", \"disorder_bound\": " + std::to_string(k.bound) +
            ", \"shuffled\": " + bench_support::json_bool(k.shuffled) +
            ", \"events_per_sec\": " + bench_support::json_double(r.events_per_sec) +
            ", \"wall_seconds\": " + bench_support::json_double(r.wall_seconds) +
            ", \"matches\": " + std::to_string(r.matches) +
            ", \"late_events\": " + std::to_string(r.late) +
            ", \"reorder_ns_per_event\": " + bench_support::json_double(ns_per_event) +
            ", \"parity\": " + bench_support::json_bool(r.parity) + "}";
    json += (c + 1 < std::size(cases)) ? ",\n" : "\n";
  }

  json += "  ],\n  \"acceptance\": {\"parity_all\": " +
          std::string(parity_all ? "true" : "false") + "}\n}\n";

  const char* path = "BENCH_event_time.json";
  const bool wrote = bench_support::write_json(path, json);
  if (wrote) {
    std::printf("wrote %s (parity: %s)\n", path,
                parity_all ? "ok" : "FAIL");
  }
  // Bit-identical output under within-bound disorder is the event-time
  // contract (nonzero exit on any mismatch); the JSON is the deliverable.
  return (parity_all && wrote) ? 0 : 1;
}
