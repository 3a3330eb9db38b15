// StreamEngine determinism oracle: the K-shard concurrent engine against
// the serial single-thread golden.
//
// The golden for a K-shard run is defined by the engine's partitioning
// semantics: split the stream into K substreams with the engine's own fixed
// partition hash, run the serial run_pipeline() over each substream (with
// the identical deterministic shedder), and canonically merge the per-shard
// match lists.  The concurrent engine must reproduce that *exactly* --
// every match, every constituent, every position, byte-for-byte -- for
// every span kind x open kind x shedding policy x K combination.  Under
// TSan (CI) this doubles as the engine's race-freedom proof.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "runtime/shard_pipeline.hpp"
#include "runtime/stream_engine.hpp"
#include "sim/sharded_sim.hpp"
#include "support/test_seed.hpp"

namespace espice {
namespace {

constexpr EventTypeId kNumTypes = 6;
constexpr EventTypeId kOpenerType = 1;
constexpr EventTypeId kCloserType = 2;

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
      spec.closer = element("close", TypeSet{kCloserType}, DirectionFilter::kAny);
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

/// Deterministic, stateless shedder: the drop decision is a pure hash of
/// (event seq, window position), so serial and sharded runs agree no matter
/// how work interleaves.  mod == 0 keeps everything.
class HashShedder final : public Shedder {
 public:
  explicit HashShedder(unsigned mod) : mod_(mod) {}

  bool should_drop(const Event& e, std::uint32_t position, double) override {
    const bool drop =
        mod_ != 0 &&
        ((e.seq * 2654435761ULL) ^ (position * 40503ULL)) % mod_ != 0;
    count_decision(drop);
    return drop;
  }
  void on_command(const DropCommand&) override {}
  const char* name() const override { return "hash"; }

 private:
  unsigned mod_;
};

/// A pattern that produces matches in every substream: any rising event,
/// then any falling event (types are irrelevant, so partitioning by type
/// cannot starve a shard of matches).
ShardQuery make_query(const WindowSpec& spec) {
  ShardQuery q;
  q.pattern = make_sequence(
      {element("up", TypeSet{}, DirectionFilter::kRising),
       element("down", TypeSet{}, DirectionFilter::kFalling)});
  q.window = spec;
  return q;
}

constexpr double kPredictedWs = 24.0;

/// One config drives both sides of the comparison: the engine run and the
/// library's per_query_serial_goldens().
StreamEngineConfig make_config(const WindowSpec& spec, std::size_t shards,
                               unsigned drop_mod,
                               std::size_t ring_capacity = 256) {
  StreamEngineConfig config;
  config.shards = shards;
  config.ring_capacity = ring_capacity;
  EngineQuery& q = config.queries.emplace_back();
  q.query = make_query(spec);
  q.predicted_ws = kPredictedWs;
  if (drop_mod != 0) {
    q.shedder_factory = [drop_mod](std::size_t) {
      return std::make_unique<HashShedder>(drop_mod);
    };
  }
  return config;
}

std::vector<ComplexEvent> serial_golden(const std::vector<Event>& events,
                                        const WindowSpec& spec,
                                        std::size_t shards, unsigned drop_mod) {
  const StreamEngineConfig config = make_config(spec, shards, drop_mod);
  return per_query_serial_goldens(config.shards, config.key_of,
                                  config.queries, events)[0];
}

EngineReport engine_run(const std::vector<Event>& events,
                        const WindowSpec& spec, std::size_t shards,
                        unsigned drop_mod, std::size_t ring_capacity = 256) {
  StreamEngine engine(make_config(spec, shards, drop_mod, ring_capacity));
  for (const Event& e : events) engine.push(e);
  return engine.finish();
}

void expect_same_matches(const std::vector<ComplexEvent>& actual,
                         const std::vector<ComplexEvent>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const ComplexEvent& a = actual[i];
    const ComplexEvent& b = expected[i];
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

using OracleParams = std::tuple<WindowSpan, WindowOpen, unsigned /*drop mod*/,
                                std::size_t /*shards*/, std::uint64_t>;

class StreamEngineOracle : public ::testing::TestWithParam<OracleParams> {};

TEST_P(StreamEngineOracle, MatchesPartitionedSerialGolden) {
  const auto [span_kind, open_kind, drop_mod, shards, salt] = GetParam();
  const std::uint64_t seed = test_support::test_seed(salt);
  SCOPED_TRACE(test_support::seed_trace(seed));

  const auto events = random_stream(seed, 1500);
  const WindowSpec spec = make_spec(span_kind, open_kind);

  const auto golden = serial_golden(events, spec, shards, drop_mod);
  const auto report = engine_run(events, spec, shards, drop_mod);

  // Guard against a vacuous comparison: every keep-everything configuration
  // must actually detect complex events in these streams.
  if (drop_mod == 0) {
    EXPECT_GT(golden.size(), 0u);
  }

  // Nothing lost in the rings: every pushed event reached a shard.
  std::uint64_t shard_events = 0;
  for (const auto& s : report.shards) shard_events += s.events;
  EXPECT_EQ(shard_events, events.size());
  EXPECT_EQ(report.events, events.size());

  expect_same_matches(report.matches, golden);
}

INSTANTIATE_TEST_SUITE_P(
    AllSpanAndOpenKinds, StreamEngineOracle,
    ::testing::Combine(
        ::testing::Values(WindowSpan::kTime, WindowSpan::kCount,
                          WindowSpan::kPredicate),
        ::testing::Values(WindowOpen::kPredicate, WindowOpen::kCountSlide),
        // keep everything / hash-shed ~2 in 3
        ::testing::Values(0u, 3u),
        // K = 1 (serial behind a ring), 2, 4
        ::testing::Values(std::size_t{1}, std::size_t{2}, std::size_t{4}),
        ::testing::Values(11u)));

// A second randomized sweep at a different salt, single config, K = 4 --
// cheap extra stream coverage for the hardest combination.
TEST(StreamEngineOracle, RandomizedStreamsHeavyOverlapK4) {
  for (const std::uint64_t salt : {222u, 3333u}) {
    const std::uint64_t seed = test_support::test_seed(salt);
    SCOPED_TRACE(test_support::seed_trace(seed));
    const auto events = random_stream(seed, 3000);
    WindowSpec spec;
    spec.span_kind = WindowSpan::kCount;
    spec.span_events = 48;
    spec.open_kind = WindowOpen::kCountSlide;
    spec.slide_events = 4;  // overlap 12
    const auto golden = serial_golden(events, spec, 4, 7);
    const auto report = engine_run(events, spec, 4, 7);
    expect_same_matches(report.matches, golden);
  }
}

// finish() with events still queued: a tiny ring and a burst far larger
// than (ring x shards) guarantees events are still in flight when finish()
// is called.  The close/drain handshake must process every one of them and
// then flush open windows -- identical to the serial golden's close_all().
TEST(StreamEngineOracle, FinishFlushesQueuedEventsCleanly) {
  const std::uint64_t seed = test_support::test_seed(77);
  SCOPED_TRACE(test_support::seed_trace(seed));
  const auto events = random_stream(seed, 5000);
  WindowSpec spec = make_spec(WindowSpan::kCount, WindowOpen::kCountSlide);

  const auto golden = serial_golden(events, spec, 4, 0);
  // ring_capacity 16: the router outpaces shards, rings run full, and the
  // last pushes land immediately before finish().
  const auto report = engine_run(events, spec, 4, /*drop_mod=*/0,
                                 /*ring_capacity=*/16);

  std::uint64_t shard_events = 0;
  for (const auto& s : report.shards) shard_events += s.events;
  EXPECT_EQ(shard_events, events.size())
      << "finish() lost events that were still queued";
  expect_same_matches(report.matches, golden);
}

// Adaptive mode: every shard hosts a full EspiceOperator.  Partitioning by
// window-block id (seq / 6) sends each tumbling window wholly to one shard,
// so the per-shard lifecycles (training -> shedding) run on well-formed
// windows and every A-then-B pair is detected.  With idle rings the
// detectors must never activate shedding, so the merged output is complete.
TEST(StreamEngineOracle, AdaptiveShardsRunFullLifecycle) {
  constexpr std::size_t kBlocks = 400;
  std::vector<Event> events;
  for (std::size_t b = 0; b < kBlocks; ++b) {
    for (std::size_t pos = 0; pos < 6; ++pos) {
      Event e;
      e.type = pos == 0 ? 0 : (pos == 1 ? 1 : 2);  // A B filler...
      e.seq = b * 6 + pos;
      e.ts = static_cast<double>(e.seq);
      e.value = 1.0;
      events.push_back(e);
    }
  }

  EspiceOperatorConfig op;
  op.pattern = make_sequence({element("A", TypeSet{0}), element("B", TypeSet{1})});
  op.window.span_kind = WindowSpan::kCount;
  op.window.span_events = 6;
  op.window.open_kind = WindowOpen::kCountSlide;
  op.window.slide_events = 6;
  op.num_types = 3;
  op.training_windows = 30;

  StreamEngineConfig config;
  config.shards = 2;
  config.adaptive = op;
  config.key_of = [](const Event& e) { return e.seq / 6; };
  StreamEngine engine(config);
  for (const Event& e : events) engine.push(e);
  const EngineReport report = engine.finish();

  std::uint64_t shard_events = 0, windows = 0;
  for (const auto& s : report.shards) {
    shard_events += s.events;
    windows += s.windows_closed;
    EXPECT_GT(s.events, 0u) << "shard " << s.shard << " starved";
    EXPECT_EQ(s.shed_drops, 0u) << "idle rings must never trigger shedding";
    EXPECT_FALSE(s.shedding_ever_active);
  }
  EXPECT_EQ(shard_events, events.size());
  // finish() flushed every shard's pending window: all blocks became
  // windows and every window holds one A-then-B match.
  EXPECT_EQ(windows, kBlocks);
  EXPECT_EQ(report.matches.size(), kBlocks);

  // Nothing was shed, so the output is the deterministic engine's with no
  // shedder over the same stream, shards, key and query.
  StreamEngineConfig det;
  det.shards = config.shards;
  det.key_of = config.key_of;
  ShardQuery& dq = det.queries.emplace_back().query;
  dq.pattern = op.pattern;
  dq.window = op.window;
  dq.selection = op.selection;
  dq.consumption = op.consumption;
  dq.max_matches_per_window = op.max_matches_per_window;
  StreamEngine det_engine(det);
  for (const Event& e : events) det_engine.push(e);
  expect_same_matches(report.matches, det_engine.finish().matches);
}

// Adaptive mode under a real backlog: the whole stream lands in large
// rings through push_batch, with a latency bound small enough that the
// shards' detectors may activate shedding.  Whether and where they do
// depends on the thread schedule, so only the accounting that holds under
// any schedule is asserted.
TEST(StreamEngineOracle, AdaptiveShardsUnderBacklog) {
  const std::uint64_t seed = test_support::test_seed(808);
  SCOPED_TRACE(test_support::seed_trace(seed));
  const auto events = random_stream(seed, 60000);

  EspiceOperatorConfig op;
  op.pattern = make_query(WindowSpec{}).pattern;
  op.window.span_kind = WindowSpan::kCount;
  op.window.span_events = 24;
  op.window.open_kind = WindowOpen::kCountSlide;
  op.window.slide_events = 6;
  op.num_types = kNumTypes;
  op.training_windows = 40;
  op.detector.latency_bound = 1e-4;
  op.detector.tick_period = 1e-4;

  StreamEngineConfig config;
  config.shards = 2;
  config.ring_capacity = 1 << 15;
  config.adaptive = op;
  StreamEngine engine(config);
  engine.push_batch(events);
  const EngineReport report = engine.finish();

  std::uint64_t shard_events = 0;
  DetPipeline::QueryOutcome sum;
  for (const auto& s : report.shards) {
    shard_events += s.events;
    EXPECT_EQ(s.memberships - s.memberships_kept, s.shed_drops)
        << "shard " << s.shard;
    EXPECT_LE(s.shed_drops, s.shed_decisions) << "shard " << s.shard;
    EXPECT_LE(s.shed_decisions, s.memberships) << "shard " << s.shard;
    sum.memberships += s.memberships;
    sum.memberships_kept += s.memberships_kept;
    sum.shed_decisions += s.shed_decisions;
    sum.shed_drops += s.shed_drops;
  }
  EXPECT_EQ(shard_events, events.size());
  ASSERT_EQ(report.queries.size(), 1u);
  const QueryReport& q = report.queries[0];
  EXPECT_EQ(q.memberships, sum.memberships);
  EXPECT_EQ(q.memberships_kept, sum.memberships_kept);
  EXPECT_EQ(q.shed_decisions, sum.shed_decisions);
  EXPECT_EQ(q.shed_drops, sum.shed_drops);
}

// Adaptive mode builds its query and shedders from `adaptive` alone; a
// config that also lists deterministic queries would have them silently
// ignored, so it is rejected.
TEST(StreamEngineOracle, AdaptiveRejectsIgnoredQueryFields) {
  StreamEngineConfig with_query;
  with_query.adaptive.emplace();
  with_query.adaptive->pattern =
      make_sequence({element("A", TypeSet{0}), element("B", TypeSet{1})});
  with_query.adaptive->window =
      make_spec(WindowSpan::kCount, WindowOpen::kCountSlide);
  with_query.adaptive->num_types = kNumTypes;
  with_query.queries.emplace_back().query =
      make_query(with_query.adaptive->window);
  EXPECT_THROW(StreamEngine{with_query}, ConfigError);
}

// The reserved control types are the engine's own in-band records.  A
// watermark without event time, or any partition-control record, is
// refused with ConfigError before it is logged or routed -- by push(), by
// push_batch() with the record mid-batch, and by push_batch_concurrent() --
// and the refused call leaves no trace: pushed() is unchanged, no event of
// the refused batch reaches a shard, and the run still finishes with the
// golden of the accepted events.
TEST(StreamEngineOracle, RefusesReservedTypesAtTheFrontDoor) {
  const std::uint64_t seed = test_support::test_seed(31);
  SCOPED_TRACE(test_support::seed_trace(seed));
  const auto events = random_stream(seed, 1200);
  const std::span<const Event> all(events);
  const std::size_t half = events.size() / 2;
  const WindowSpec spec = make_spec(WindowSpan::kCount, WindowOpen::kCountSlide);
  const auto golden = serial_golden(events, spec, 2, /*drop_mod=*/3);

  for (const Event& reserved :
       {make_watermark(events[half].seq),
        make_partition_control(PartitionControl::kExport, 0)}) {
    for (const std::size_t producers : {std::size_t{0}, std::size_t{1}}) {
      SCOPED_TRACE("type=" + std::to_string(reserved.type) +
                   " producers=" + std::to_string(producers));
      StreamEngineConfig config = make_config(spec, 2, /*drop_mod=*/3);
      config.producers = producers;
      StreamEngine engine(config);
      engine.start();
      auto push = [&](std::span<const Event> batch) {
        if (producers == 0) {
          engine.push_batch(batch);
        } else {
          engine.push_batch_concurrent(0, batch);
        }
      };
      push(all.first(half));
      if (producers == 0) {
        EXPECT_THROW(engine.push(reserved), ConfigError);
        EXPECT_EQ(engine.pushed(), half);
      }
      // Eight accepted events with the reserved record in their middle.
      std::vector<Event> batch(all.begin() + half, all.begin() + half + 8);
      batch.insert(batch.begin() + 4, reserved);
      EXPECT_THROW(push(batch), ConfigError);
      EXPECT_EQ(engine.pushed(), half);
      push(all.subspan(half));
      for (std::size_t p = 0; p < producers; ++p) engine.producer_done(p);
      const EngineReport report = engine.finish();

      EXPECT_EQ(report.events, events.size());
      std::uint64_t shard_events = 0;
      for (const auto& s : report.shards) shard_events += s.events;
      EXPECT_EQ(shard_events, events.size())
          << "an event of the refused batch reached a shard";
      expect_same_matches(report.matches, golden);
    }
  }
}

// Stats cross-check: per-shard memberships minus kept equals the shedder's
// drop count, and K = 1 with no shedder reproduces the plain serial run.
TEST(StreamEngineOracle, ShardStatsAreConsistent) {
  const std::uint64_t seed = test_support::test_seed(5);
  SCOPED_TRACE(test_support::seed_trace(seed));
  const auto events = random_stream(seed, 2000);
  const WindowSpec spec = make_spec(WindowSpan::kCount, WindowOpen::kCountSlide);

  const auto report = engine_run(events, spec, 2, /*drop_mod=*/3);
  for (const auto& s : report.shards) {
    EXPECT_EQ(s.memberships - s.memberships_kept, s.shed_drops)
        << "shard " << s.shard;
    EXPECT_EQ(s.shed_decisions, s.memberships) << "shard " << s.shard;
    EXPECT_GT(s.events, 0u) << "shard " << s.shard << " starved";
  }
}

}  // namespace
}  // namespace espice
