// Event-time disorder oracle: shuffle a stream within a disorder bound D,
// feed it to an engine whose reorder stage is sized >= D, and hold the
// output to the in-order run -- bit-for-bit.
//
// The guarantee under test (the event-time design's whole point): the
// bounded reorder stage ahead of window routing makes the pipeline
// arrival-order-invariant.  For ANY permutation whose measured disorder
// (see measure_disorder) is within the configured bound, matches, per-query
// reports and the canonical shard merge must equal the in-order golden
// exactly, with zero late events.  Shuffles are seeded via ESPICE_TEST_SEED
// (5-seed CI matrix), swept over K in {1, 4} shards, N in {1, 5} queries,
// every window span x open kind, shedding off and armed, heartbeats off
// and on.
//
// Directed cases pin the boundary: displacement of exactly D is on time,
// D + 1 is late, and punctuation watermarks convict stragglers they
// overtake (but never within-bound ones).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cep/event_time.hpp"
#include "common/rng.hpp"
#include "runtime/stream_engine.hpp"
#include "support/test_seed.hpp"

namespace espice {
namespace {

constexpr EventTypeId kNumTypes = 6;
constexpr EventTypeId kOpenerType = 1;
constexpr EventTypeId kCloserType = 2;
constexpr double kPredictedWs = 24.0;
constexpr std::size_t kBatch = 64;

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

/// Bounded shuffle: Fisher-Yates within consecutive blocks of `block`
/// events, so no event is displaced across a block boundary and the
/// measured disorder is < block.
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

/// Deterministic, stateless shedder (pure hash of seq x position x salt):
/// identical decisions regardless of arrival order once the reorder stage
/// re-sequences the stream.  mod == 0 keeps everything.
class HashShedder final : public Shedder {
 public:
  HashShedder(unsigned mod, unsigned salt) : mod_(mod), salt_(salt) {}

  bool should_drop(const Event& e, std::uint32_t position, double) override {
    const bool drop =
        mod_ != 0 && ((e.seq * 2654435761ULL) ^ (position * 40503ULL) ^
                      (salt_ * 7919ULL)) %
                             mod_ !=
                         0;
    count_decision(drop);
    return drop;
  }
  void on_command(const DropCommand&) override {}
  const char* name() const override { return "hash"; }

 private:
  unsigned mod_;
  unsigned salt_;
};

ShardQuery make_query(const WindowSpec& spec) {
  ShardQuery q;
  q.pattern =
      make_sequence({element("up", TypeSet{}, DirectionFilter::kRising),
                     element("down", TypeSet{}, DirectionFilter::kFalling)});
  q.window = spec;
  return q;
}

/// One scenario drives both the golden and the disordered run.
struct Scenario {
  WindowSpec spec;
  std::size_t shards = 4;
  std::vector<unsigned> drop_mods = {3};
  /// Event-time config for the disordered engine (golden runs without).
  std::uint64_t disorder_bound = 64;
  std::uint64_t heartbeat_events = 0;
};

std::unique_ptr<StreamEngine> build_engine(const Scenario& s, bool event_time) {
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
  if (event_time) {
    EventTimeConfig et;
    et.disorder_bound = s.disorder_bound;
    et.heartbeat_events = s.heartbeat_events;
    config.event_time = et;
  }
  auto engine = std::make_unique<StreamEngine>(std::move(config));
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

EngineReport run(StreamEngine& engine, std::span<const Event> events) {
  for (std::size_t i = 0; i < events.size(); i += kBatch) {
    engine.push_batch(events.subspan(i, std::min(kBatch, events.size() - i)));
  }
  return engine.finish();
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
    }
  }
}

/// Bit-identity of everything deterministic and order-invariant: matches,
/// per-query reports, per-shard pipeline counters.  Event-time-only
/// counters (punctuations, watermarks) are checked separately; wall-clock
/// gauges are exempt.
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
  }
}

/// Runs one scenario: golden in order without event time, disordered with
/// the reorder stage, expects bit-identity and zero late events.
void check_scenario(const Scenario& s, const std::vector<Event>& in_order,
                    const std::vector<Event>& disordered) {
  const std::uint64_t measured = measure_disorder(disordered);
  ASSERT_LE(measured, s.disorder_bound)
      << "generator produced more disorder than the engine is sized for";

  auto golden_engine = build_engine(s, /*event_time=*/false);
  const EngineReport golden = run(*golden_engine, in_order);

  auto et_engine = build_engine(s, /*event_time=*/true);
  const EngineReport actual = run(*et_engine, disordered);

  expect_same_reports(actual, golden);
  EXPECT_EQ(actual.late_events, 0u);
  EXPECT_EQ(actual.late_dropped, 0u);
  EXPECT_EQ(actual.revisions, 0u);
  EXPECT_TRUE(actual.side_outputs.empty());
}

// --- the sweep ---------------------------------------------------------------

// Every span x open kind at K = 4 with shedding armed: the full windowing
// matrix must be arrival-order-invariant under a mid-size shuffle.
TEST(EventTimeOracle, AllWindowKindsShuffledEqualsInOrder) {
  const std::uint64_t seed = test_support::test_seed(81);
  SCOPED_TRACE(test_support::seed_trace(seed));
  const auto events = random_stream(seed, 1200);
  const auto shuffled = block_shuffle(events, 48, seed);
  ASSERT_GT(measure_disorder(shuffled), 0u) << "shuffle was a no-op";

  for (const WindowSpan span :
       {WindowSpan::kTime, WindowSpan::kCount, WindowSpan::kPredicate}) {
    for (const WindowOpen open :
         {WindowOpen::kPredicate, WindowOpen::kCountSlide}) {
      SCOPED_TRACE("span=" + std::to_string(static_cast<int>(span)) +
                   " open=" + std::to_string(static_cast<int>(open)));
      Scenario s;
      s.spec = make_spec(span, open);
      s.disorder_bound = 64;
      check_scenario(s, events, shuffled);
    }
  }
}

// K in {1, 4} x shedding {off, armed} x heartbeats {off, on}, with the
// engine bound set EXACTLY to the measured disorder (the tightest legal
// buffer).
TEST(EventTimeOracle, ShardAndSheddingMatrixAtExactBound) {
  const std::uint64_t seed = test_support::test_seed(82);
  SCOPED_TRACE(test_support::seed_trace(seed));
  const auto events = random_stream(seed, 900);
  const auto shuffled = block_shuffle(events, 32, seed);
  const std::uint64_t measured = measure_disorder(shuffled);
  ASSERT_GT(measured, 0u);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    for (const unsigned mod : {0u, 3u}) {
      for (const std::uint64_t heartbeat : {std::uint64_t{0},
                                            std::uint64_t{100}}) {
        SCOPED_TRACE("K=" + std::to_string(shards) + " mod=" +
                     std::to_string(mod) + " hb=" + std::to_string(heartbeat));
        Scenario s;
        s.spec = make_spec(WindowSpan::kCount, WindowOpen::kCountSlide);
        s.shards = shards;
        s.drop_mods = {mod};
        s.disorder_bound = measured;
        s.heartbeat_events = heartbeat;
        check_scenario(s, events, shuffled);
      }
    }
  }
}

// N = 5 queries sharing one window group with diverging per-query shedders
// (including a keep-all query): per-query masks and outputs must be
// arrival-order-invariant too.
TEST(EventTimeOracle, MultiQuerySharedWindowsShuffled) {
  const std::uint64_t seed = test_support::test_seed(83);
  SCOPED_TRACE(test_support::seed_trace(seed));
  const auto events = random_stream(seed, 900);
  const auto shuffled = block_shuffle(events, 40, seed);

  Scenario s;
  s.spec = make_spec(WindowSpan::kCount, WindowOpen::kCountSlide);
  s.drop_mods = {0, 2, 3, 5, 7};
  s.disorder_bound = 64;

  auto golden_engine = build_engine(s, /*event_time=*/false);
  const EngineReport golden = run(*golden_engine, events);
  ASSERT_EQ(golden.queries.size(), 5u);
  ASSERT_GT(golden.queries[0].matches.size(), 0u);

  auto et_engine = build_engine(s, /*event_time=*/true);
  const EngineReport actual = run(*et_engine, shuffled);
  expect_same_reports(actual, golden);
  EXPECT_EQ(actual.late_events, 0u);
}

// Time windows closed by ts-carrying punctuation watermarks: injecting
// "time has reached t" punctuations at batch boundaries must not change
// the output, only when windows close.
TEST(EventTimeOracle, PunctuationWatermarkStreamEqualsInOrder) {
  const std::uint64_t seed = test_support::test_seed(84);
  SCOPED_TRACE(test_support::seed_trace(seed));
  const auto events = random_stream(seed, 800);
  const auto shuffled = block_shuffle(events, 24, seed);

  Scenario s;
  s.spec = make_spec(WindowSpan::kTime, WindowOpen::kPredicate);
  s.disorder_bound = 32;

  auto golden_engine = build_engine(s, /*event_time=*/false);
  const EngineReport golden = run(*golden_engine, events);

  // Interleave a full punctuation (seq + event time) after every other
  // batch, asserting completeness through the smallest seq still
  // undelivered minus one -- truthful by construction even when a shuffle
  // block straddles the batch boundary, so no event is convicted as late.
  auto et_engine = build_engine(s, /*event_time=*/true);
  std::size_t batch_no = 0;
  std::uint64_t punctuations = 0;
  for (std::size_t i = 0; i < shuffled.size(); i += kBatch) {
    const std::size_t n = std::min(kBatch, shuffled.size() - i);
    et_engine->push_batch(std::span(shuffled).subspan(i, n));
    if (++batch_no % 2 == 0 && i + n < shuffled.size()) {
      std::uint64_t min_pending = ~std::uint64_t{0};
      for (std::size_t j = i + n; j < shuffled.size(); ++j) {
        min_pending = std::min(min_pending, shuffled[j].seq);
      }
      if (min_pending == 0) continue;
      const Event& done = events[min_pending - 1];  // complete prefix end
      et_engine->push_watermark(done.seq, done.ts);
      ++punctuations;
    }
  }
  const EngineReport actual = et_engine->finish();

  expect_same_reports(actual, golden);
  EXPECT_EQ(actual.late_events, 0u);
  EXPECT_EQ(actual.punctuations, punctuations);
  EXPECT_GT(punctuations, 0u);
  EXPECT_TRUE(actual.low_watermark_valid);
}

// --- directed boundary cases -------------------------------------------------

/// In-order stream of n events with unit timestamps, all one type.
std::vector<Event> ramp(std::size_t n) {
  std::vector<Event> events;
  events.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Event e;
    e.type = 0;
    e.seq = i;
    e.ts = static_cast<double>(i);
    e.value = (i % 2 == 0) ? -1.0 : 1.0;  // alternating: rising/falling
    events.push_back(e);
  }
  return events;
}

// Displacement of exactly D is on time; the same stream under a bound of
// D - 1 classifies the straggler as late.
TEST(EventTimeOracle, ExactBoundIsOnTimeBoundMinusOneIsLate) {
  constexpr std::uint64_t kBound = 8;
  auto events = ramp(200);
  // Delay seq 50 by exactly kBound positions: 51..58 overtake it.
  auto delayed = events;
  std::rotate(delayed.begin() + 50, delayed.begin() + 51,
              delayed.begin() + 51 + kBound);
  ASSERT_EQ(measure_disorder(delayed), kBound);

  Scenario s;
  s.spec = make_spec(WindowSpan::kCount, WindowOpen::kCountSlide);
  s.shards = 1;
  s.drop_mods = {0};

  s.disorder_bound = kBound;
  check_scenario(s, events, delayed);  // on time: bit-identical, 0 late

  s.disorder_bound = kBound - 1;
  auto tight = build_engine(s, /*event_time=*/true);
  const EngineReport report = run(*tight, delayed);
  EXPECT_EQ(report.late_events, 1u);
  EXPECT_EQ(report.late_dropped, 1u);  // default policy: drop
  EXPECT_EQ(report.events, 200u);  // router counts it; the stage diverts
}

// A punctuation watermark overtaking an in-flight event convicts it late
// even though its displacement is within the disorder bound.
TEST(EventTimeOracle, PunctuationConvictsOvertakenEvent) {
  auto events = ramp(100);

  Scenario s;
  s.spec = make_spec(WindowSpan::kCount, WindowOpen::kCountSlide);
  s.shards = 1;
  s.drop_mods = {0};
  s.disorder_bound = 32;

  auto engine = build_engine(s, /*event_time=*/true);
  // Push 0..59 except 40, assert completeness through 59 via punctuation,
  // then deliver 40.  Its displacement (59 - 40 = 19) is well within the
  // bound of 32 -- only the punctuation makes it late.
  std::vector<Event> head;
  for (std::size_t i = 0; i < 60; ++i) {
    if (i != 40) head.push_back(events[i]);
  }
  engine->push_batch(head);
  engine->push_watermark(59);
  engine->push(events[40]);
  engine->push_batch(std::span(events).subspan(60));
  const EngineReport report = engine->finish();

  EXPECT_EQ(report.late_events, 1u);
  EXPECT_EQ(report.late_dropped, 1u);
  EXPECT_EQ(report.punctuations, 1u);
  EXPECT_TRUE(report.low_watermark_valid);
  EXPECT_GE(report.low_watermark_seq, 59u);
}

// Event-time mode on a perfectly ordered stream is a no-op: bit-identical
// to the plain engine, watermark trails the stream head by D + 1.
TEST(EventTimeOracle, InOrderStreamIsUnaffected) {
  const std::uint64_t seed = test_support::test_seed(85);
  SCOPED_TRACE(test_support::seed_trace(seed));
  const auto events = random_stream(seed, 600);

  Scenario s;
  s.spec = make_spec(WindowSpan::kPredicate, WindowOpen::kPredicate);
  s.disorder_bound = 32;
  check_scenario(s, events, events);
}

}  // namespace
}  // namespace espice
