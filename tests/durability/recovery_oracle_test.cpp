// Kill-anywhere recovery oracle: crash the engine at EVERY instrumented
// durability crash point, recover from disk, and hold the result to the
// uninterrupted golden -- bit-for-bit.
//
// The guarantee under test (the durability design's whole point): for a
// deterministic engine, [latest valid snapshot] + [log-tail replay] +
// [re-pushing the events the crash made non-durable] is indistinguishable
// from a run that never crashed.  Matches must agree byte-for-byte and the
// deterministic counters (events, memberships, keeps, windows, shed
// decisions/drops) must agree exactly; only wall-clock-coupled gauges
// (stall times, peak depths) are exempt.
//
// Method: a census run (fault hook installed, nothing armed) counts how
// often each crash point fires for the exact drive schedule, so the sweep
// enumerates real (point, occurrence) crash sites instead of guessing --
// first, middle and last occurrence of every point.  Each armed run then
// dies at its site through the exception barrier (destructors see exactly
// the bytes a kill would leave, since hook-armed writers split their
// writes), recovers into a fresh engine, re-pushes the lost tail and must
// reproduce the golden.  Seeded via ESPICE_TEST_SEED (5-seed CI matrix).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cep/event_time.hpp"
#include "common/rng.hpp"
#include "runtime/stream_engine.hpp"
#include "support/crash_point.hpp"
#include "support/hash_shedder.hpp"
#include "support/temp_dir.hpp"
#include "support/test_seed.hpp"

namespace espice {
namespace {

using test_support::CrashHarness;
using test_support::SimulatedCrash;
using test_support::TempDir;

constexpr EventTypeId kNumTypes = 6;
constexpr EventTypeId kOpenerType = 1;
constexpr EventTypeId kCloserType = 2;
constexpr double kPredictedWs = 24.0;

// Drive schedule: batched pushes with periodic explicit checkpoints.  Small
// log segments (the 4 KiB floor) force segment rolls mid-run, so the
// segment open/seal crash points fire during the sweep too.
constexpr std::size_t kBatch = 64;
constexpr std::size_t kCheckpointEveryBatches = 3;
constexpr std::size_t kSegmentBytes = 4096;

WindowSpec make_spec(WindowSpan span_kind, WindowOpen open_kind) {
  WindowSpec spec;
  spec.span_kind = span_kind;
  spec.open_kind = open_kind;
  switch (span_kind) {
    case WindowSpan::kTime:
      spec.span_seconds = 7.5;
      break;
    case WindowSpan::kCount:
      spec.span_events = 24;
      break;
    case WindowSpan::kPredicate:
      spec.span_events = 40;  // safety cap
      spec.closer =
          element("close", TypeSet{kCloserType}, DirectionFilter::kAny);
      break;
  }
  if (open_kind == WindowOpen::kPredicate) {
    spec.opener = element("open", TypeSet{kOpenerType}, DirectionFilter::kAny);
  } else {
    spec.slide_events = 5;
  }
  return spec;
}

std::vector<Event> random_stream(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<Event> events;
  events.reserve(n);
  double ts = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    Event e;
    e.type = static_cast<EventTypeId>(rng.uniform_int(kNumTypes));
    e.seq = i;
    ts += rng.uniform(0.0, 1.2);
    e.ts = ts;
    e.value = rng.uniform(-2.0, 2.0);
    events.push_back(e);
  }
  return events;
}

using test_support::HashShedder;

ShardQuery make_query(const WindowSpec& spec) {
  ShardQuery q;
  q.pattern =
      make_sequence({element("up", TypeSet{}, DirectionFilter::kRising),
                     element("down", TypeSet{}, DirectionFilter::kFalling)});
  q.window = spec;
  return q;
}

/// One scenario drives golden, census and every armed run identically.
struct Scenario {
  WindowSpec spec;
  std::size_t shards = 4;
  /// Per-query hash-shedder mods; one entry = one query in config.queries,
  /// more = multi-query registration over the shared window spec.
  std::vector<unsigned> drop_mods = {3};
  std::uint64_t snapshot_every_events = 0;  // 0 = explicit checkpoints only
  /// Event-time mode: reorder stage + watermarks ahead of the pipeline.
  std::optional<EventTimeConfig> et;
};

StreamEngineConfig make_config(const Scenario& s, const std::string& dir) {
  StreamEngineConfig config;
  config.shards = s.shards;
  config.ring_capacity = 256;
  if (s.drop_mods.size() == 1) {
    EngineQuery& q = config.queries.emplace_back();
    q.query = make_query(s.spec);
    q.predicted_ws = kPredictedWs;
    if (const unsigned mod = s.drop_mods[0]; mod != 0) {
      q.shedder_factory = [mod](std::size_t) {
        return std::make_unique<HashShedder>(mod, 0);
      };
    }
  }
  if (s.et.has_value()) config.event_time = s.et;
  if (!dir.empty()) {
    DurabilityConfig d;
    d.dir = dir;
    d.segment_bytes = kSegmentBytes;
    d.snapshot_every_events = s.snapshot_every_events;
    config.durability = d;
  }
  return config;
}

/// Builds an engine for the scenario; `dir` empty = memory-only golden.
std::unique_ptr<StreamEngine> build_engine(const Scenario& s,
                                           const std::string& dir) {
  auto engine = std::make_unique<StreamEngine>(make_config(s, dir));
  if (s.drop_mods.size() > 1) {
    for (std::size_t i = 0; i < s.drop_mods.size(); ++i) {
      EngineQuery q;
      q.name = "q" + std::to_string(i);
      q.query = make_query(s.spec);
      q.predicted_ws = kPredictedWs;
      if (const unsigned mod = s.drop_mods[i]; mod != 0) {
        const auto salt = static_cast<unsigned>(i);
        q.shedder_factory = [mod, salt](std::size_t) {
          return std::make_unique<HashShedder>(mod, salt);
        };
      }
      engine->add_query(std::move(q));
    }
  }
  return engine;
}

/// The crash-prone part of the schedule: batched pushes + periodic
/// checkpoints (durable engines only).  A SimulatedCrash propagates to the
/// caller from whichever push_batch()/checkpoint() its site lives in.
void drive(StreamEngine& engine, std::span<const Event> events,
           bool checkpoints) {
  std::size_t batch_no = 0;
  for (std::size_t i = 0; i < events.size(); i += kBatch) {
    engine.push_batch(events.subspan(i, std::min(kBatch, events.size() - i)));
    if (checkpoints && ++batch_no % kCheckpointEveryBatches == 0) {
      engine.checkpoint();
    }
  }
}

void expect_same_matches(const std::vector<ComplexEvent>& actual,
                         const std::vector<ComplexEvent>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const ComplexEvent& a = actual[i];
    const ComplexEvent& b = expected[i];
    EXPECT_EQ(a.window, b.window) << "match " << i;
    EXPECT_DOUBLE_EQ(a.detection_ts, b.detection_ts) << "match " << i;
    ASSERT_EQ(a.constituents.size(), b.constituents.size()) << "match " << i;
    for (std::size_t c = 0; c < a.constituents.size(); ++c) {
      EXPECT_EQ(a.constituents[c].element, b.constituents[c].element)
          << "match " << i << " constituent " << c;
      EXPECT_EQ(a.constituents[c].position, b.constituents[c].position)
          << "match " << i << " constituent " << c;
      EXPECT_EQ(a.constituents[c].event.seq, b.constituents[c].event.seq)
          << "match " << i << " constituent " << c;
      EXPECT_EQ(a.constituents[c].event.type, b.constituents[c].event.type)
          << "match " << i << " constituent " << c;
    }
  }
}

/// Full bit-identity check: matches byte-for-byte plus every deterministic
/// counter.  Wall-clock gauges (stall seconds, peak depth, rates) exempt.
void expect_same_reports(const EngineReport& actual,
                         const EngineReport& expected) {
  EXPECT_EQ(actual.events, expected.events);
  expect_same_matches(actual.matches, expected.matches);
  ASSERT_EQ(actual.queries.size(), expected.queries.size());
  for (std::size_t q = 0; q < expected.queries.size(); ++q) {
    const QueryReport& a = actual.queries[q];
    const QueryReport& b = expected.queries[q];
    expect_same_matches(a.matches, b.matches);
    EXPECT_EQ(a.memberships, b.memberships) << "query " << q;
    EXPECT_EQ(a.memberships_kept, b.memberships_kept) << "query " << q;
    EXPECT_EQ(a.shed_decisions, b.shed_decisions) << "query " << q;
    EXPECT_EQ(a.shed_drops, b.shed_drops) << "query " << q;
    // Event-time revisions must survive recovery record for record.
    ASSERT_EQ(a.revisions.size(), b.revisions.size()) << "query " << q;
    for (std::size_t i = 0; i < b.revisions.size(); ++i) {
      EXPECT_EQ(a.revisions[i].late_seq, b.revisions[i].late_seq);
      EXPECT_EQ(a.revisions[i].window, b.revisions[i].window);
      EXPECT_EQ(a.revisions[i].revision, b.revisions[i].revision);
      expect_same_matches(a.revisions[i].matches, b.revisions[i].matches);
    }
  }
  // Event-time classification and diversion are deterministic.  Punctuation
  // counts and watermark seqs are NOT compared: router heartbeat cadence
  // depends on push granularity (the recovery tail is re-pushed with
  // different batch boundaries), and heartbeats are output-neutral by
  // design.
  EXPECT_EQ(actual.late_events, expected.late_events);
  EXPECT_EQ(actual.late_dropped, expected.late_dropped);
  EXPECT_EQ(actual.late_side_output, expected.late_side_output);
  EXPECT_EQ(actual.revisions, expected.revisions);
  ASSERT_EQ(actual.side_outputs.size(), expected.side_outputs.size());
  for (std::size_t i = 0; i < expected.side_outputs.size(); ++i) {
    EXPECT_EQ(actual.side_outputs[i].event.seq,
              expected.side_outputs[i].event.seq);
    EXPECT_EQ(actual.side_outputs[i].windows,
              expected.side_outputs[i].windows);
  }
  ASSERT_EQ(actual.shards.size(), expected.shards.size());
  for (std::size_t i = 0; i < expected.shards.size(); ++i) {
    const ShardStats& a = actual.shards[i];
    const ShardStats& b = expected.shards[i];
    EXPECT_EQ(a.events, b.events) << "shard " << i;
    EXPECT_EQ(a.memberships, b.memberships) << "shard " << i;
    EXPECT_EQ(a.memberships_kept, b.memberships_kept) << "shard " << i;
    EXPECT_EQ(a.windows_closed, b.windows_closed) << "shard " << i;
    EXPECT_EQ(a.matches, b.matches) << "shard " << i;
    EXPECT_EQ(a.shed_decisions, b.shed_decisions) << "shard " << i;
    EXPECT_EQ(a.shed_drops, b.shed_drops) << "shard " << i;
    EXPECT_EQ(a.late_events, b.late_events) << "shard " << i;
    EXPECT_EQ(a.late_dropped, b.late_dropped) << "shard " << i;
    EXPECT_EQ(a.late_side_output, b.late_side_output) << "shard " << i;
    EXPECT_EQ(a.revisions, b.revisions) << "shard " << i;
  }
}

/// Census pass: the durable schedule with the fault hook installed but
/// nothing armed.  Returns the uninterrupted durable report (which must
/// already equal the golden) and the per-point fire counts that the armed
/// sweep enumerates.  Hook-armed split writes see the same point sequence
/// the armed runs will.
EngineReport census_run(const Scenario& s, std::span<const Event> events,
                        std::map<std::string, std::uint64_t>& counts_out) {
  TempDir dir("census");
  CrashHarness harness;
  auto engine = build_engine(s, dir.str());
  drive(*engine, events, /*checkpoints=*/true);
  EngineReport report = engine->finish();
  counts_out = harness.counts();
  return report;
}

/// One armed run: die at (point, occurrence), recover into a fresh engine,
/// re-push the non-durable tail, finish.  Returns the recovered report.
EngineReport crash_and_recover(const Scenario& s,
                               std::span<const Event> events,
                               const std::string& point,
                               std::uint64_t occurrence,
                               RecoveryReport* recovery_out = nullptr) {
  TempDir dir("armed");
  {
    CrashHarness harness;
    harness.arm(point, occurrence);
    auto engine = build_engine(s, dir.str());
    bool crashed = false;
    try {
      drive(*engine, events, /*checkpoints=*/true);
    } catch (const SimulatedCrash&) {
      crashed = true;
    }
    EXPECT_TRUE(crashed) << point << "#" << occurrence
                         << " never fired (stale census?)";
    EXPECT_TRUE(harness.fired());
    // Engine destructor: the same cleanup an aborted process would skip --
    // recovery must not depend on it beyond the bytes already on disk.
  }

  auto engine = build_engine(s, dir.str());
  const RecoveryReport rep = engine->recover_and_start();
  EXPECT_LE(rep.durable_events, events.size());
  EXPECT_LE(rep.snapshot_offset, rep.durable_events);
  EXPECT_EQ(rep.replayed_events, rep.durable_events - rep.snapshot_offset);
  EXPECT_EQ(engine->pushed(), rep.durable_events);
  if (recovery_out != nullptr) *recovery_out = rep;

  // The source re-pushes what never became durable.  No checkpoints on the
  // tail: recovery correctness must not depend on re-checkpointing.
  // durable_events counts punctuation log records too, so the resume
  // offset into the data-only `events` vector is data_pushed().
  drive(*engine, std::span(events).subspan(engine->data_pushed()),
        /*checkpoints=*/false);
  return engine->finish();
}

/// first / middle / last occurrence of every point the census saw.
std::vector<std::pair<std::string, std::uint64_t>> sweep_sites(
    const std::map<std::string, std::uint64_t>& counts) {
  std::vector<std::pair<std::string, std::uint64_t>> sites;
  for (const auto& [point, n] : counts) {
    sites.emplace_back(point, 1);
    if (n >= 3) sites.emplace_back(point, (n + 1) / 2);
    if (n >= 2) sites.emplace_back(point, n);
  }
  return sites;
}

// --- the sweep ---------------------------------------------------------------

// Representative configuration, exhaustive sites: every crash point the
// schedule reaches, at its first, middle and last occurrence.  Shedding
// armed; K = 4.
TEST(RecoveryOracle, KillAnywhereReproducesGolden) {
  const std::uint64_t seed = test_support::test_seed(71);
  SCOPED_TRACE(test_support::seed_trace(seed));
  Scenario s;
  s.spec = make_spec(WindowSpan::kCount, WindowOpen::kCountSlide);
  const auto events = random_stream(seed, 1200);

  auto golden_engine = build_engine(s, "");
  drive(*golden_engine, events, /*checkpoints=*/false);
  const EngineReport golden = golden_engine->finish();
  ASSERT_GT(golden.matches.size(), 0u) << "vacuous stream";

  // The uninterrupted durable run must already equal the memory-only run:
  // logging and checkpointing are pure observers of the pipeline.
  std::map<std::string, std::uint64_t> counts;
  const EngineReport durable = census_run(s, events, counts);
  expect_same_reports(durable, golden);
  ASSERT_GE(counts.size(), 6u) << "census too thin: crash points missing";
  ASSERT_TRUE(counts.count("log.append.mid_record"));
  ASSERT_TRUE(counts.count("log.segment.seal"))
      << "segments never rolled: segment_bytes too large for the stream";
  ASSERT_TRUE(counts.count("snapshot.before_manifest"));

  for (const auto& [point, occurrence] : sweep_sites(counts)) {
    SCOPED_TRACE(point + "#" + std::to_string(occurrence));
    const EngineReport recovered =
        crash_and_recover(s, events, point, occurrence);
    expect_same_reports(recovered, golden);
  }
}

// Every span x open kind, K in {1, 4}: sampled sites per configuration
// (torn record mid-stream, published-but-unmanifested snapshot, last
// occurrence of whatever fired most) on smaller streams.
TEST(RecoveryOracle, AllWindowKindsAndShardCounts) {
  const std::uint64_t seed = test_support::test_seed(72);
  SCOPED_TRACE(test_support::seed_trace(seed));
  const auto events = random_stream(seed, 600);

  for (const WindowSpan span :
       {WindowSpan::kTime, WindowSpan::kCount, WindowSpan::kPredicate}) {
    for (const WindowOpen open :
         {WindowOpen::kPredicate, WindowOpen::kCountSlide}) {
      for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE("span=" + std::to_string(static_cast<int>(span)) +
                     " open=" + std::to_string(static_cast<int>(open)) +
                     " K=" + std::to_string(shards));
        Scenario s;
        s.spec = make_spec(span, open);
        s.shards = shards;

        auto golden_engine = build_engine(s, "");
        drive(*golden_engine, events, /*checkpoints=*/false);
        const EngineReport golden = golden_engine->finish();

        std::map<std::string, std::uint64_t> counts;
        const EngineReport durable = census_run(s, events, counts);
        expect_same_reports(durable, golden);

        const std::uint64_t mid_append =
            (counts["log.append.mid_record"] + 1) / 2;
        for (const auto& [point, occurrence] :
             {std::pair<std::string, std::uint64_t>{"log.append.mid_record",
                                                    mid_append},
              {"snapshot.before_manifest", 1},
              {"snapshot.manifest.mid", counts["snapshot.manifest.mid"]}}) {
          ASSERT_GT(counts[point], 0u) << point << " never fired";
          SCOPED_TRACE(point + "#" + std::to_string(occurrence));
          const EngineReport recovered =
              crash_and_recover(s, events, point, occurrence);
          expect_same_reports(recovered, golden);
        }
      }
    }
  }
}

// N = 5 queries sharing one window group, per-query shedders diverging
// (including a keep-all query): the per-query keep masks and all per-query
// outputs must survive the crash/recover cycle.
TEST(RecoveryOracle, MultiQuerySharedWindowsRecover) {
  const std::uint64_t seed = test_support::test_seed(73);
  SCOPED_TRACE(test_support::seed_trace(seed));
  Scenario s;
  s.spec = make_spec(WindowSpan::kCount, WindowOpen::kCountSlide);
  s.drop_mods = {0, 2, 3, 5, 7};
  const auto events = random_stream(seed, 900);

  auto golden_engine = build_engine(s, "");
  drive(*golden_engine, events, /*checkpoints=*/false);
  const EngineReport golden = golden_engine->finish();
  ASSERT_EQ(golden.queries.size(), 5u);
  ASSERT_GT(golden.queries[0].matches.size(), 0u);

  std::map<std::string, std::uint64_t> counts;
  const EngineReport durable = census_run(s, events, counts);
  expect_same_reports(durable, golden);

  for (const auto& [point, occurrence] : sweep_sites(counts)) {
    SCOPED_TRACE(point + "#" + std::to_string(occurrence));
    const EngineReport recovered =
        crash_and_recover(s, events, point, occurrence);
    expect_same_reports(recovered, golden);
  }
}

// Crash before the first checkpoint: no snapshot exists, recovery replays
// the whole durable prefix from the log alone.
TEST(RecoveryOracle, RecoversFromLogAloneWithoutSnapshot) {
  const std::uint64_t seed = test_support::test_seed(74);
  SCOPED_TRACE(test_support::seed_trace(seed));
  Scenario s;
  s.spec = make_spec(WindowSpan::kTime, WindowOpen::kPredicate);
  const auto events = random_stream(seed, 400);

  auto golden_engine = build_engine(s, "");
  drive(*golden_engine, events, /*checkpoints=*/false);
  const EngineReport golden = golden_engine->finish();

  // 2nd append record: inside the first checkpoint interval.
  RecoveryReport rep;
  const EngineReport recovered =
      crash_and_recover(s, events, "log.append.mid_record", 2, &rep);
  EXPECT_EQ(rep.snapshot_offset, 0u);
  EXPECT_EQ(rep.replayed_events, rep.durable_events);
  EXPECT_EQ(rep.durable_events, kBatch) << "exactly one whole record durable";
  EXPECT_FALSE(rep.damage.empty()) << "the torn record must be reported";
  expect_same_reports(recovered, golden);
}

// Auto-checkpointing (snapshot_every_events) instead of explicit calls:
// the crash lands between auto-checkpoints and recovery starts from one.
TEST(RecoveryOracle, AutoCheckpointRecovers) {
  const std::uint64_t seed = test_support::test_seed(75);
  SCOPED_TRACE(test_support::seed_trace(seed));
  Scenario s;
  s.spec = make_spec(WindowSpan::kCount, WindowOpen::kPredicate);
  s.snapshot_every_events = 250;
  const auto events = random_stream(seed, 1000);

  auto golden_engine = build_engine(s, "");
  drive(*golden_engine, events, /*checkpoints=*/false);
  const EngineReport golden = golden_engine->finish();

  TempDir dir("auto");
  {
    CrashHarness harness;
    // Let two auto-checkpoints publish, then tear the next log append.
    harness.arm("log.append.mid_record", 10);
    auto engine = build_engine(s, dir.str());
    bool crashed = false;
    try {
      drive(*engine, events, /*checkpoints=*/false);
    } catch (const SimulatedCrash&) {
      crashed = true;
    }
    ASSERT_TRUE(crashed);
  }
  auto engine = build_engine(s, dir.str());
  const RecoveryReport rep = engine->recover_and_start();
  EXPECT_GT(rep.snapshot_offset, 0u) << "auto-checkpoint never published";
  EXPECT_LT(rep.replayed_events, rep.durable_events);
  drive(*engine, std::span(events).subspan(rep.durable_events),
        /*checkpoints=*/false);
  expect_same_reports(engine->finish(), golden);
}

// Two crashes back to back: recover, make progress, checkpoint, crash
// again, recover again.  The second recovery stacks on the first one's
// snapshot and the pruned/rolled log.
TEST(RecoveryOracle, SurvivesRepeatedCrashes) {
  const std::uint64_t seed = test_support::test_seed(76);
  SCOPED_TRACE(test_support::seed_trace(seed));
  Scenario s;
  s.spec = make_spec(WindowSpan::kCount, WindowOpen::kCountSlide);
  const auto events = random_stream(seed, 900);

  auto golden_engine = build_engine(s, "");
  drive(*golden_engine, events, /*checkpoints=*/false);
  const EngineReport golden = golden_engine->finish();

  TempDir dir("twice");
  std::uint64_t resume_at = 0;
  {
    CrashHarness harness;
    harness.arm("snapshot.write.mid", 2);
    auto engine = build_engine(s, dir.str());
    bool crashed = false;
    try {
      drive(*engine, events, /*checkpoints=*/true);
    } catch (const SimulatedCrash&) {
      crashed = true;
    }
    ASSERT_TRUE(crashed);
  }
  {
    CrashHarness harness;
    auto engine = build_engine(s, dir.str());
    const RecoveryReport rep = engine->recover_and_start();
    resume_at = rep.durable_events;
    // Progress + a fresh checkpoint after recovery, then die mid-append.
    harness.arm("log.append.mid_record", 3);
    bool crashed = false;
    try {
      drive(*engine, std::span(events).subspan(resume_at),
            /*checkpoints=*/true);
    } catch (const SimulatedCrash&) {
      crashed = true;
    }
    ASSERT_TRUE(crashed);
  }
  auto engine = build_engine(s, dir.str());
  const RecoveryReport rep = engine->recover_and_start();
  EXPECT_GT(rep.snapshot_offset, 0u)
      << "the post-recovery checkpoint must be the restore base";
  drive(*engine, std::span(events).subspan(rep.durable_events),
        /*checkpoints=*/false);
  expect_same_reports(engine->finish(), golden);
}

// --- event-time recovery -----------------------------------------------------

/// Bounded shuffle (Fisher-Yates within consecutive blocks), so the
/// measured disorder stays < block.
std::vector<Event> block_shuffle(std::vector<Event> events, std::size_t block,
                                 std::uint64_t seed) {
  Rng rng(seed ^ 0xd15c0de5ULL);
  for (std::size_t base = 0; base < events.size(); base += block) {
    const std::size_t end = std::min(base + block, events.size());
    for (std::size_t i = end - 1; i > base; --i) {
      const std::size_t j = base + rng.uniform_int(i - base + 1);
      std::swap(events[i], events[j]);
    }
  }
  return events;
}

/// Displaces the event with sequence number `seq` by `by` positions, so
/// its lateness exceeds a disorder bound < `by` and it is classified late.
void displace(std::vector<Event>& events, std::uint64_t seq, std::size_t by) {
  const auto it = std::find_if(events.begin(), events.end(),
                               [&](const Event& e) { return e.seq == seq; });
  ASSERT_NE(it, events.end());
  const Event straggler = *it;
  const std::size_t at = static_cast<std::size_t>(it - events.begin());
  events.erase(it);
  events.insert(events.begin() +
                    static_cast<std::ptrdiff_t>(
                        std::min(at + by, events.size())),
                straggler);
}

// Kill-anywhere over a disordered stream with the revise policy armed:
// checkpoints cut while the reorder stage holds buffered events and the
// retained-window stores are populated, so recovery must round-trip the
// full event-time state (buffer, counters, retained windows, emitted
// revisions) to reproduce the golden bit for bit.
TEST(RecoveryOracle, EventTimeDisorderedKillAnywhere) {
  const std::uint64_t seed = test_support::test_seed(77);
  SCOPED_TRACE(test_support::seed_trace(seed));
  Scenario s;
  s.spec = make_spec(WindowSpan::kCount, WindowOpen::kCountSlide);
  s.et.emplace();
  s.et->disorder_bound = 32;
  s.et->late_policy = LatePolicy::kRevise;
  s.et->revise_horizon_windows = 32;

  auto events = block_shuffle(random_stream(seed, 1000), 24, seed);
  // Two stragglers displaced far beyond the bound: genuinely late, still
  // within the retention horizon when they land.
  displace(events, 300, 100);
  displace(events, 601, 100);

  auto golden_engine = build_engine(s, "");
  drive(*golden_engine, events, /*checkpoints=*/false);
  const EngineReport golden = golden_engine->finish();
  ASSERT_GT(golden.matches.size(), 0u) << "vacuous stream";
  ASSERT_GT(golden.late_events, 0u) << "stragglers were not convicted";
  ASSERT_GT(golden.revisions, 0u) << "revise path never exercised";
  bool buffered = false;
  for (const ShardStats& st : golden.shards) {
    buffered |= st.reorder_peak_buffered > 0;
  }
  ASSERT_TRUE(buffered) << "reorder stage never held an event";

  std::map<std::string, std::uint64_t> counts;
  const EngineReport durable = census_run(s, events, counts);
  expect_same_reports(durable, golden);
  ASSERT_TRUE(counts.count("snapshot.before_manifest"))
      << "no checkpoint cut while the stage was active";

  for (const auto& [point, occurrence] : sweep_sites(counts)) {
    SCOPED_TRACE(point + "#" + std::to_string(occurrence));
    const EngineReport recovered =
        crash_and_recover(s, events, point, occurrence);
    expect_same_reports(recovered, golden);
  }
}

// Heartbeat watermarks under crash/recovery: the router's heartbeat state
// (cadence counter, max routed seq) is part of the snapshot header, logged
// heartbeats replay through the normal path, and the output stays
// bit-identical to the uninterrupted run even though the recovery tail is
// re-pushed with different batch boundaries (heartbeats are output-neutral).
TEST(RecoveryOracle, EventTimeHeartbeatRecovery) {
  const std::uint64_t seed = test_support::test_seed(78);
  SCOPED_TRACE(test_support::seed_trace(seed));
  Scenario s;
  s.spec = make_spec(WindowSpan::kTime, WindowOpen::kPredicate);
  s.et.emplace();
  s.et->disorder_bound = 32;
  s.et->heartbeat_events = 150;

  const auto events = block_shuffle(random_stream(seed, 800), 24, seed);

  auto golden_engine = build_engine(s, "");
  drive(*golden_engine, events, /*checkpoints=*/false);
  const EngineReport golden = golden_engine->finish();
  ASSERT_GT(golden.punctuations, 0u) << "heartbeats never fired";
  EXPECT_EQ(golden.late_events, 0u) << "within-bound shuffle must stay on time";

  std::map<std::string, std::uint64_t> counts;
  const EngineReport durable = census_run(s, events, counts);
  expect_same_reports(durable, golden);
  EXPECT_EQ(durable.punctuations, golden.punctuations)
      << "identical schedule, identical heartbeats";

  const std::uint64_t mid_append = (counts["log.append.mid_record"] + 1) / 2;
  for (const auto& [point, occurrence] :
       {std::pair<std::string, std::uint64_t>{"log.append.mid_record",
                                              mid_append},
        {"snapshot.before_manifest", 1},
        {"snapshot.manifest.mid", counts["snapshot.manifest.mid"]}}) {
    ASSERT_GT(counts[point], 0u) << point << " never fired";
    SCOPED_TRACE(point + "#" + std::to_string(occurrence));
    const EngineReport recovered =
        crash_and_recover(s, events, point, occurrence);
    expect_same_reports(recovered, golden);
  }
}

// A refused record never reaches the WAL: a durable engine without event
// time refuses a watermark (alone and mid-batch) and is then abandoned.
// The durable prefix holds exactly the accepted events, so recovery
// resumes at their count and reproduces the uninterrupted run, with no
// refused record replayed as data.
TEST(RecoveryOracle, RefusedWatermarkNeverReachesTheLog) {
  const std::uint64_t seed = test_support::test_seed(79);
  SCOPED_TRACE(test_support::seed_trace(seed));
  Scenario s;
  s.spec = make_spec(WindowSpan::kCount, WindowOpen::kCountSlide);
  const auto events = random_stream(seed, 640);
  const std::span<const Event> all(events);
  const std::size_t half = events.size() / 2;

  auto golden_engine = build_engine(s, "");
  drive(*golden_engine, events, /*checkpoints=*/false);
  const EngineReport golden = golden_engine->finish();

  TempDir dir("refused");
  {
    auto engine = build_engine(s, dir.str());
    drive(*engine, all.first(half), /*checkpoints=*/true);
    const Event wm = make_watermark(events[half - 1].seq);
    EXPECT_THROW(engine->push(wm), ConfigError);
    std::vector<Event> batch(all.begin() + half, all.begin() + half + 8);
    batch.insert(batch.begin() + 4, wm);
    EXPECT_THROW(engine->push_batch(batch), ConfigError);
    EXPECT_EQ(engine->pushed(), half);
    drive(*engine, all.subspan(half), /*checkpoints=*/false);
    EXPECT_EQ(engine->pushed(), events.size());
  }  // abandoned: no finish()

  auto engine = build_engine(s, dir.str());
  const RecoveryReport rep = engine->recover_and_start();
  EXPECT_EQ(rep.durable_events, events.size());
  EXPECT_EQ(engine->data_pushed(), events.size());
  drive(*engine, all.subspan(std::min(engine->data_pushed(), events.size())),
        /*checkpoints=*/false);
  expect_same_reports(engine->finish(), golden);
}

// Guard rails around the feature's contract.
TEST(RecoveryOracle, DurabilityConfigIsValidated) {
  TempDir dir("cfg");
  // Adaptive mode cannot honor the bit-identical recovery guarantee.
  StreamEngineConfig adaptive;
  adaptive.shards = 1;
  adaptive.adaptive.emplace();
  adaptive.durability.emplace();
  adaptive.durability->dir = dir.str();
  EXPECT_THROW(StreamEngine{adaptive}, ConfigError);

  Scenario s;
  s.spec = make_spec(WindowSpan::kCount, WindowOpen::kCountSlide);
  StreamEngineConfig no_dir = make_config(s, "x");
  no_dir.durability->dir.clear();
  EXPECT_THROW(StreamEngine{no_dir}, ConfigError);

  // checkpoint()/recover_and_start() need durability configured.
  StreamEngine memory_only(make_config(s, ""));
  EXPECT_THROW(memory_only.checkpoint(), ConfigError);
  EXPECT_THROW(memory_only.recover_and_start(), ConfigError);
}

}  // namespace
}  // namespace espice
