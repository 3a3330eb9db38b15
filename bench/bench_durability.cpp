// Durability overhead and recovery throughput on a single-shard engine.
//
// Measures what the write-ahead log costs on a representative CEP workload
// (128x-overlapped sliding count windows, 3-element pattern, batch-256
// pushes) at every fsync policy, plus auto-checkpointing, against the
// memory-only baseline -- and then how fast the engine comes back:
// replay-from-log throughput with no snapshot (the whole stream re-runs
// through the pipeline) and recovery latency from the newest snapshot +
// log tail.
//
// Hard gates (nonzero exit): every run -- logged, checkpointed, recovered --
// must reproduce the memory-only run's matches bit for bit, and the
// fsync=none log overhead must stay within 15% of memory-only throughput
// (one write() per 256-event batch into the page cache; if that costs more
// than 15% the batching is broken).  The wal-none-degrade / wal-none-retry
// rows run the same fsync=none workload under on_wal_error =
// kDegradeToMemory / kRetryBackoff with NO faults armed: they price the
// IoEnv virtual dispatch plus the policy branch on the happy path, gated
// within 10% of the wal-none row (the policy machinery must be free when
// nothing fails).  Both overhead criteria need the router and the shard on
// separate cores; on fewer than 2 hardware threads the JSON records
// "skipped_insufficient_cores" instead of a boolean.  kInterval/kEveryBatch
// rows are recorded but not gated: their cost is the disk's, not the
// engine's.  Every row is timed in each of `repeats` rounds, the rows
// round-robin within a round, and keeps its fastest round.
//
// Writes BENCH_durability.json.  --smoke / ESPICE_BENCH_SMOKE=1 shrinks the
// stream for CI smoke runs.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "json_out.hpp"
#include "runtime/stream_engine.hpp"
#include "smoke.hpp"

namespace espice {
namespace {

constexpr std::size_t kNumTypes = 64;
constexpr std::size_t kSpan = 1024;
// 128x-overlapped sliding windows: the operator does real pattern work per
// event (the paper's premise -- an expensive CEP operator), so the measured
// overhead is logging vs a representative pipeline, not vs an empty ingest
// loop.
constexpr std::size_t kSlide = 8;
constexpr std::size_t kBatch = 256;

std::vector<Event> make_stream(std::size_t n) {
  Rng rng(0xd04ab1e);
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

StreamEngineConfig make_config(const std::string& durability_dir,
                               durability::FsyncPolicy fsync,
                               std::uint64_t snapshot_every,
                               WalErrorPolicy policy = WalErrorPolicy::kFailStop) {
  StreamEngineConfig config;
  config.shards = 1;
  config.ring_capacity = 16384;
  ShardQuery& q = config.queries.emplace_back().query;
  q.pattern =
      make_sequence({element("up", TypeSet{}, DirectionFilter::kRising),
                     element("down", TypeSet{}, DirectionFilter::kFalling),
                     element("up2", TypeSet{}, DirectionFilter::kRising)});
  q.window.span_kind = WindowSpan::kCount;
  q.window.span_events = kSpan;
  q.window.open_kind = WindowOpen::kCountSlide;
  q.window.slide_events = kSlide;
  if (!durability_dir.empty()) {
    DurabilityConfig d;
    d.dir = durability_dir;
    d.fsync = fsync;
    d.snapshot_every_events = snapshot_every;
    d.on_wal_error = policy;
    config.durability = d;
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

/// Scratch directory under the system temp root; recreated fresh per run.
std::string scratch_dir(const std::string& tag) {
  namespace fs = std::filesystem;
  const fs::path p = fs::temp_directory_path() / ("espice-bench-" + tag);
  fs::remove_all(p);
  fs::create_directories(p);
  return p.string();
}

struct RunResult {
  double events_per_sec = 0.0;
  double wall_seconds = 0.0;
  std::size_t matches = 0;
  bool parity = false;
};

/// One measured ingestion run into a fresh log/snapshot directory (a cold
/// log each time); durability off when `tag` is empty.
RunResult run_ingest(const std::vector<Event>& events, const std::string& tag,
                     durability::FsyncPolicy fsync,
                     std::uint64_t snapshot_every, WalErrorPolicy policy,
                     const std::vector<std::uint64_t>& golden_sig) {
  const std::string dir = tag.empty() ? "" : scratch_dir(tag);
  StreamEngine engine(make_config(dir, fsync, snapshot_every, policy));
  for (std::size_t i = 0; i < events.size(); i += kBatch) {
    engine.push_batch(std::span(events).subspan(
        i, std::min(kBatch, events.size() - i)));
  }
  const EngineReport report = engine.finish();
  RunResult run;
  run.events_per_sec = report.events_per_sec;
  run.wall_seconds = report.wall_seconds;
  run.matches = report.matches.size();
  run.parity = signature(report.matches) == golden_sig;
  if (!dir.empty()) std::filesystem::remove_all(dir);
  return run;
}

struct RecoveryResult {
  double replay_events_per_sec = 0.0;
  double recover_seconds = 0.0;
  std::uint64_t replayed_events = 0;
  std::uint64_t snapshot_offset = 0;
  bool parity = false;
};

/// Writes one durable run into a fresh dir, then measures a cold
/// recover_and_start() over it and parity-checks the recovered output.
RecoveryResult run_recovery(const std::vector<Event>& events,
                            const std::string& tag,
                            std::uint64_t snapshot_every,
                            const std::vector<std::uint64_t>& golden_sig) {
  const std::string dir = scratch_dir(tag);
  {
    StreamEngine engine(
        make_config(dir, durability::FsyncPolicy::kNone, snapshot_every));
    for (std::size_t i = 0; i < events.size(); i += kBatch) {
      engine.push_batch(std::span(events).subspan(
          i, std::min(kBatch, events.size() - i)));
    }
    // Abandon without finish(): recovery must work from the log + published
    // snapshots alone.  The destructor joins the shard threads.
  }
  RecoveryResult out;
  StreamEngine engine(
      make_config(dir, durability::FsyncPolicy::kNone, snapshot_every));
  const auto t0 = std::chrono::steady_clock::now();
  const RecoveryReport rep = engine.recover_and_start();
  out.recover_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  out.replayed_events = rep.replayed_events;
  out.snapshot_offset = rep.snapshot_offset;
  out.replay_events_per_sec =
      out.recover_seconds > 0.0
          ? static_cast<double>(rep.replayed_events) / out.recover_seconds
          : 0.0;
  // fsync=none still makes every in-process-completed append readable, so
  // the whole stream is durable and the recovered run must be complete.
  const std::size_t missing = events.size() - rep.durable_events;
  if (missing != 0) {
    engine.push_batch(std::span(events).subspan(rep.durable_events));
  }
  out.parity = signature(engine.finish().matches) == golden_sig;
  std::filesystem::remove_all(dir);
  return out;
}

}  // namespace
}  // namespace espice

int main(int argc, char** argv) {
  using namespace espice;
  const bool smoke = bench_support::init_smoke(argc, argv);
  const std::size_t n_events = bench_support::scaled(1'000'000);
  const int repeats = smoke ? 20 : 8;
  const std::uint64_t checkpoint_every = n_events / 8;

  const auto events = make_stream(n_events);

  std::printf(
      "=== Durability overhead, single shard (span %zu, batch %zu, %zu "
      "events) ===\n",
      kSpan, kBatch, n_events);
  std::printf("| %-16s | %-14s | %-9s | %-8s | %-7s |\n", "mode", "events/sec",
              "wall (s)", "matches", "parity");

  // Parity baseline: the memory-only run IS the golden; its signature is
  // deterministic, so one untimed run pins it down.
  const std::vector<std::uint64_t> golden_sig = [&] {
    StreamEngine engine(make_config("", durability::FsyncPolicy::kNone, 0));
    engine.push_batch(std::span(events));
    return signature(engine.finish().matches);
  }();

  struct Row {
    const char* mode;
    const char* dir_tag;  // empty => memory-only
    durability::FsyncPolicy fsync;
    std::uint64_t snapshot_every;
    WalErrorPolicy policy;
    RunResult r;
  };
  // The two trailing rows rerun the wal-none workload under the non-default
  // on_wal_error policies with no faults armed: any gap vs wal-none is pure
  // policy-branch + IoEnv-dispatch overhead on the happy path.
  std::vector<Row> rows = {
      {"memory-only", "", durability::FsyncPolicy::kNone, 0,
       WalErrorPolicy::kFailStop, {}},
      {"wal-none", "wal-none", durability::FsyncPolicy::kNone, 0,
       WalErrorPolicy::kFailStop, {}},
      {"wal-interval64", "wal-interval", durability::FsyncPolicy::kInterval, 0,
       WalErrorPolicy::kFailStop, {}},
      {"wal-every-batch", "wal-every", durability::FsyncPolicy::kEveryBatch, 0,
       WalErrorPolicy::kFailStop, {}},
      {"wal-checkpointed", "wal-ckpt", durability::FsyncPolicy::kNone,
       checkpoint_every, WalErrorPolicy::kFailStop, {}},
      {"wal-none-degrade", "wal-degrade", durability::FsyncPolicy::kNone, 0,
       WalErrorPolicy::kDegradeToMemory, {}},
      {"wal-none-retry", "wal-retry", durability::FsyncPolicy::kNone, 0,
       WalErrorPolicy::kRetryBackoff, {}},
  };

  // Round-robin, so every row samples the same stretches of host noise
  // (back-to-back repeats let memory-only and wal-none see different ones).
  bool parity_all = true;
  for (int round = 0; round < repeats; ++round) {
    for (auto& row : rows) {
      const RunResult run =
          run_ingest(events, row.dir_tag, row.fsync, row.snapshot_every,
                     row.policy, golden_sig);
      parity_all = parity_all && run.parity;
      const bool parity = run.parity && (round == 0 || row.r.parity);
      if (round == 0 || run.events_per_sec > row.r.events_per_sec) {
        row.r = run;
      }
      row.r.parity = parity;
    }
  }
  for (const auto& row : rows) {
    std::printf("| %-16s | %-14.0f | %-9.3f | %-8zu | %-7s |\n", row.mode,
                row.r.events_per_sec, row.r.wall_seconds, row.r.matches,
                row.r.parity ? "ok" : "FAIL");
  }

  const auto replay =
      run_recovery(events, "replay", /*snapshot_every=*/0, golden_sig);
  const auto snap_recovery = run_recovery(events, "snap-recovery",
                                          checkpoint_every, golden_sig);
  parity_all = parity_all && replay.parity && snap_recovery.parity;
  std::printf(
      "replay-from-log: %.0f events/sec (%llu events in %.3f s); "
      "snapshot+tail recovery: %.3f s (tail %llu events) -- parity %s\n",
      replay.replay_events_per_sec,
      static_cast<unsigned long long>(replay.replayed_events),
      replay.recover_seconds, snap_recovery.recover_seconds,
      static_cast<unsigned long long>(snap_recovery.replayed_events),
      (replay.parity && snap_recovery.parity) ? "ok" : "FAIL");

  const double base = rows[0].r.events_per_sec;
  const double logged = rows[1].r.events_per_sec;
  const double overhead_pct =
      base > 0.0 ? (1.0 - logged / base) * 100.0 : 100.0;
  const bool overhead_ok = logged >= 0.85 * base;
  // Policy gate: with no faults armed, kDegradeToMemory and kRetryBackoff
  // must price like plain wal-none -- the fault machinery is a cold branch,
  // not a tax.  10% is the noise band for best-of-repeats at full scale;
  // smoke streams are too short to resolve that, so the smoke band widens
  // to 20% (smoke is a functional gate, not a perf measurement).
  const double degraded = rows[5].r.events_per_sec;
  const double retried = rows[6].r.events_per_sec;
  const double policy_worst = std::min(degraded, retried);
  const double policy_overhead_pct =
      logged > 0.0 ? (1.0 - policy_worst / logged) * 100.0 : 100.0;
  const double policy_band_pct = smoke ? 20.0 : 10.0;
  const bool policy_ok =
      policy_worst >= (1.0 - policy_band_pct / 100.0) * logged;
  // The overhead criteria assume the log rides the router thread while
  // the shard works on its own core; on a single hardware thread every
  // append cycle is stolen from the pipeline and the measurement is mostly
  // scheduler churn.  Record them as skipped then, not false (parity stays
  // the hard gate) -- same policy as bench_batch_ingest.
  const unsigned hw_threads = std::thread::hardware_concurrency();
  const bool overhead_measurable = hw_threads >= 2;
  const std::string overhead_json =
      overhead_ok ? "true"
                  : (overhead_measurable ? "false"
                                         : "\"skipped_insufficient_cores\"");
  const std::string policy_json =
      policy_ok ? "true"
                : (overhead_measurable ? "false"
                                       : "\"skipped_insufficient_cores\"");

  std::string json = bench_support::json_header("durability", smoke);
  json += "  \"events\": " + std::to_string(n_events) + ",\n";
  json += "  \"batch_size\": " + std::to_string(kBatch) + ",\n";
  json += "  \"shards\": 1,\n";
  json += "  \"runs\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    json += "    {\"mode\": \"" + std::string(row.mode) +
            "\", \"wal_error_policy\": \"" +
            std::string(wal_error_policy_name(row.policy)) +
            "\", \"events_per_sec\": " + bench_support::json_double(row.r.events_per_sec) +
            ", \"wall_seconds\": " + bench_support::json_double(row.r.wall_seconds) +
            ", \"matches\": " + std::to_string(row.r.matches) +
            ", \"parity\": " + bench_support::json_bool(row.r.parity) + "}";
    json += (i + 1 < rows.size()) ? ",\n" : "\n";
  }
  json += "  ],\n";
  json += "  \"recovery\": {\n";
  json += "    \"replay_events_per_sec\": " +
          bench_support::json_double(replay.replay_events_per_sec) + ",\n";
  json += "    \"replay_events\": " + std::to_string(replay.replayed_events) +
          ",\n";
  json += "    \"replay_seconds\": " + bench_support::json_double(replay.recover_seconds) +
          ",\n";
  json += "    \"snapshot_recovery_seconds\": " +
          bench_support::json_double(snap_recovery.recover_seconds) + ",\n";
  json += "    \"snapshot_offset\": " +
          std::to_string(snap_recovery.snapshot_offset) + ",\n";
  json += "    \"snapshot_tail_events\": " +
          std::to_string(snap_recovery.replayed_events) + ",\n";
  json += "    \"parity\": " +
          bench_support::json_bool(replay.parity && snap_recovery.parity) +
          "\n  },\n";
  json += "  \"acceptance\": {\"parity_all\": " +
          bench_support::json_bool(parity_all) +
          ", \"wal_none_overhead_pct\": " + bench_support::json_double(overhead_pct) +
          ", \"wal_none_overhead_le_15pct\": " + overhead_json +
          ", \"policy_overhead_pct\": " +
          bench_support::json_double(policy_overhead_pct) +
          ", \"policy_overhead_band_pct\": " +
          bench_support::json_double(policy_band_pct) +
          ", \"policy_overhead_within_band\": " + policy_json + "}\n}\n";

  const char* path = "BENCH_durability.json";
  const bool wrote = bench_support::write_json(path, json);
  if (wrote) {
    std::printf(
        "wrote %s (wal-none overhead %.1f%%, policy overhead %.1f%%, "
        "parity: %s)\n",
        path, overhead_pct, policy_overhead_pct, parity_all ? "ok" : "FAIL");
  }
  return (parity_all && wrote &&
          ((overhead_ok && policy_ok) || !overhead_measurable))
             ? 0
             : 1;
}
