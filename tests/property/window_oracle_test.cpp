// Window-engine oracle: the shared-store WindowManager against the naive
// copy-per-window ReferenceWindowManager on randomized streams.
//
// Both engines are driven with the same stream and the same deterministic
// per-(event, window) shedding decision; the closed windows must agree on
// every observable: ids, closing order, open metadata, offered size
// (arrivals), and the exact (position, event) list of kept events --
// including that *dropped* events still advance positions.  Every span kind
// (time / count / predicate) is crossed with every open kind (predicate /
// count-slide) and with keep-everything, hash-shedding and heavy-shedding
// policies.  One "dead" type goes through offer_dropped() -- the early-out
// for events every window drops -- while the reference offers it and keeps
// nothing; a directed twin test holds offer_dropped() to offer()-without-
// keep() byte for byte, kept feed included.
#include <gtest/gtest.h>

#include <cstddef>
#include <tuple>
#include <vector>

#include "cep/reference_window.hpp"
#include "cep/window.hpp"
#include "common/rng.hpp"
#include "durability/serial.hpp"
#include "support/test_seed.hpp"

namespace espice {
namespace {

constexpr EventTypeId kOpenerType = 1;
constexpr EventTypeId kCloserType = 2;
/// Routed through offer_dropped() in run_engine_comparison.  The opener
/// type, so predicate-opened windows open on the early-out path too.
constexpr EventTypeId kDeadType = kOpenerType;

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
    e.type = static_cast<EventTypeId>(rng.uniform_int(6));
    e.seq = i;
    ts += rng.uniform(0.0, 1.2);
    e.ts = ts;
    e.value = rng.uniform(-2.0, 2.0);
    events.push_back(e);
  }
  return events;
}

/// Deterministic per-(event, window) drop decision, identical for both
/// engines regardless of membership enumeration order.  `mod == 0` keeps
/// everything; larger values drop 1/mod .. (mod-1)/mod of memberships.
bool should_drop(const Event& e, WindowId window, unsigned mod,
                 unsigned keep_residue) {
  if (mod == 0) return false;
  const std::uint64_t h = (e.seq * 2654435761ULL) ^ (window * 40503ULL);
  return h % mod != keep_residue;
}

void expect_same_window(const Window& actual, const Window& expected,
                        std::size_t k) {
  ASSERT_EQ(actual.id, expected.id) << "window " << k;
  EXPECT_DOUBLE_EQ(actual.open_ts, expected.open_ts) << "window " << k;
  EXPECT_EQ(actual.open_seq, expected.open_seq) << "window " << k;
  EXPECT_EQ(actual.arrivals, expected.arrivals) << "window " << k;
  ASSERT_EQ(actual.kept.size(), expected.kept.size()) << "window " << k;
  ASSERT_EQ(actual.kept_pos.size(), expected.kept_pos.size()) << "window " << k;
  for (std::size_t i = 0; i < actual.kept.size(); ++i) {
    EXPECT_EQ(actual.kept_pos[i], expected.kept_pos[i])
        << "window " << k << " kept entry " << i;
    EXPECT_EQ(actual.kept[i].seq, expected.kept[i].seq)
        << "window " << k << " kept entry " << i;
    EXPECT_EQ(actual.kept[i].type, expected.kept[i].type)
        << "window " << k << " kept entry " << i;
  }
}

void run_engine_comparison(const WindowSpec& spec, unsigned drop_mod,
                           std::uint64_t seed, std::size_t n_events) {
  const auto events = random_stream(seed, n_events);

  WindowManager engine(spec);
  ReferenceWindowManager reference(spec);

  std::vector<Window> engine_closed;
  std::vector<Window> reference_closed;
  std::size_t engine_memberships = 0;
  std::size_t reference_memberships = 0;

  for (const Event& e : events) {
    const bool dead = e.type == kDeadType;
    if (dead) {
      engine_memberships += engine.offer_dropped(e);
    } else {
      auto& ms = engine.offer(e);
      engine_memberships += ms.size();
      for (const auto& m : ms) {
        if (!should_drop(e, m.window, drop_mod, 0)) engine.keep(m, e);
      }
    }
    for (const auto& w : engine.drain_closed()) {
      engine_closed.push_back(materialize(w));
    }

    auto& rms = reference.offer(e);
    reference_memberships += rms.size();
    for (const auto& m : rms) {
      if (!dead && !should_drop(e, m.window, drop_mod, 0)) {
        reference.keep(m, e);
      }
    }
    for (auto& w : reference.drain_closed()) {
      reference_closed.push_back(std::move(w));
    }
  }
  engine.close_all();
  for (const auto& w : engine.drain_closed()) {
    engine_closed.push_back(materialize(w));
  }
  reference.close_all();
  for (auto& w : reference.drain_closed()) {
    reference_closed.push_back(std::move(w));
  }

  EXPECT_EQ(engine_memberships, reference_memberships);
  EXPECT_EQ(engine.windows_opened(), reference.windows_opened());
  EXPECT_DOUBLE_EQ(engine.avg_closed_window_size(),
                   reference.avg_closed_window_size());
  ASSERT_EQ(engine_closed.size(), reference_closed.size());
  for (std::size_t k = 0; k < engine_closed.size(); ++k) {
    expect_same_window(engine_closed[k], reference_closed[k], k);
  }
}

using OracleParams =
    std::tuple<WindowSpan, WindowOpen, unsigned /*drop mod*/, std::uint64_t>;

class WindowOracle : public ::testing::TestWithParam<OracleParams> {};

TEST_P(WindowOracle, SharedStoreEngineMatchesNaiveReference) {
  const auto [span_kind, open_kind, drop_mod, salt] = GetParam();
  const std::uint64_t seed = test_support::test_seed(salt);
  SCOPED_TRACE(test_support::seed_trace(seed));
  run_engine_comparison(make_spec(span_kind, open_kind), drop_mod, seed, 600);
}

INSTANTIATE_TEST_SUITE_P(
    AllSpanAndOpenKinds, WindowOracle,
    ::testing::Combine(
        ::testing::Values(WindowSpan::kTime, WindowSpan::kCount,
                          WindowSpan::kPredicate),
        ::testing::Values(WindowOpen::kPredicate, WindowOpen::kCountSlide),
        // keep everything / drop ~2 in 3 / drop ~6 in 7
        ::testing::Values(0u, 3u, 7u),
        // Per-case salts; ESPICE_TEST_SEED reshuffles all of them (see
        // tests/support/test_seed.hpp).
        ::testing::Values(11u, 222u, 3333u)));

// Large spans push the live kept-event count past EventStore's initial ring
// capacity (256), so this comparison exercises grow()'s slot relocation --
// the contents of every live window must survive the re-layout.
TEST(WindowOracle, LargeSpanExercisesStoreGrowth) {
  WindowSpec spec;
  spec.span_kind = WindowSpan::kCount;
  spec.span_events = 1024;
  spec.open_kind = WindowOpen::kCountSlide;
  spec.slide_events = 64;
  for (const std::uint64_t salt : {55u, 56u}) {
    const std::uint64_t seed = test_support::test_seed(salt);
    SCOPED_TRACE(test_support::seed_trace(seed));
    run_engine_comparison(spec, /*drop_mod=*/salt == 55u ? 0u : 3u, seed,
                          /*n_events=*/4000);
  }
}

// Dropped events must still advance positions: with everything shed, closed
// windows report their full offered size and no kept contents.
TEST(WindowOracle, FullSheddingStillAdvancesPositions) {
  WindowSpec spec = make_spec(WindowSpan::kCount, WindowOpen::kCountSlide);
  WindowManager engine(spec);
  const std::uint64_t seed = test_support::test_seed(99);
  SCOPED_TRACE(test_support::seed_trace(seed));
  const auto events = random_stream(seed, 200);
  std::vector<Window> closed;
  for (const Event& e : events) {
    engine.offer(e);  // keep nothing
    for (const auto& w : engine.drain_closed()) closed.push_back(materialize(w));
  }
  engine.close_all();
  for (const auto& w : engine.drain_closed()) closed.push_back(materialize(w));
  ASSERT_FALSE(closed.empty());
  EXPECT_EQ(closed.front().arrivals, spec.span_events);
  for (const auto& w : closed) EXPECT_TRUE(w.kept.empty());
  // Nothing kept means nothing stored: the shared store never grew.
  EXPECT_EQ(engine.store().size(), 0u);
  EXPECT_EQ(engine.resident_payload_bytes(), 0u);
}

/// Logs every kept-feed callback in order, keeps and opens interleaved.
class RecordingFeed final : public KeptFeed {
 public:
  struct Entry {
    bool open;
    std::uint64_t index;
    std::uint64_t seq;
    QueryMask uniform;
    QueryMask partial;
    bool operator==(const Entry&) const = default;
  };
  void on_event_kept(const Event& e, std::uint64_t offer_index,
                     QueryMask uniform, QueryMask partial) override {
    log.push_back(Entry{false, offer_index, e.seq, uniform, partial});
  }
  void on_window_open(std::uint64_t open_index) override {
    log.push_back(Entry{true, open_index, 0, 0, 0});
  }
  std::vector<Entry> log;
};

std::vector<std::byte> serialized(WindowManager& mgr) {
  durability::SnapshotWriter w;
  mgr.serialize(w);
  return w.take();
}

// offer_dropped() must leave the manager exactly as offer() followed by no
// keep() does -- the pending kept-feed record included -- so a snapshot
// taken after any event is byte-identical between the two twins.  About
// two in three events are dropped everywhere; the rest keep a hashed subset
// of their windows, so the state under comparison is never trivial.
// Closed windows are drained every third event, so snapshots also carry
// closed-but-undrained windows.
TEST(WindowOracle, OfferDroppedSerializesLikeOfferWithoutKeep) {
  const std::uint64_t seed = test_support::test_seed(131);
  SCOPED_TRACE(test_support::seed_trace(seed));
  const auto events = random_stream(seed, 400);
  for (const WindowSpan span :
       {WindowSpan::kTime, WindowSpan::kCount, WindowSpan::kPredicate}) {
    for (const WindowOpen open :
         {WindowOpen::kPredicate, WindowOpen::kCountSlide}) {
      SCOPED_TRACE("span " + std::to_string(static_cast<int>(span)) +
                   " open " + std::to_string(static_cast<int>(open)));
      const WindowSpec spec = make_spec(span, open);
      WindowManager offered(spec);
      WindowManager dropped(spec);
      RecordingFeed offered_feed;
      RecordingFeed dropped_feed;
      offered.set_kept_feed(&offered_feed);
      dropped.set_kept_feed(&dropped_feed);
      std::vector<Window> offered_closed;
      std::vector<Window> dropped_closed;
      std::size_t dead_events = 0;
      for (std::size_t i = 0; i < events.size(); ++i) {
        const Event& e = events[i];
        if (should_drop(e, /*window=*/0, 3, 0)) {
          ++dead_events;
          const std::size_t memberships = offered.offer(e).size();
          ASSERT_EQ(dropped.offer_dropped(e), memberships) << "event " << i;
        } else {
          for (WindowManager* mgr : {&offered, &dropped}) {
            for (const auto& m : mgr->offer(e)) {
              if (!should_drop(e, m.window, 2, 1)) mgr->keep(m, e);
            }
          }
        }
        if (i % 3 == 0) {
          for (const auto& w : offered.drain_closed()) {
            offered_closed.push_back(materialize(w));
          }
          for (const auto& w : dropped.drain_closed()) {
            dropped_closed.push_back(materialize(w));
          }
        }
        ASSERT_EQ(serialized(offered), serialized(dropped)) << "event " << i;
      }
      offered.close_all();
      dropped.close_all();
      for (const auto& w : offered.drain_closed()) {
        offered_closed.push_back(materialize(w));
      }
      for (const auto& w : dropped.drain_closed()) {
        dropped_closed.push_back(materialize(w));
      }
      EXPECT_GT(dead_events, events.size() / 2);
      ASSERT_FALSE(offered_closed.empty());
      ASSERT_EQ(dropped_closed.size(), offered_closed.size());
      for (std::size_t k = 0; k < offered_closed.size(); ++k) {
        expect_same_window(dropped_closed[k], offered_closed[k], k);
      }
      EXPECT_FALSE(offered_feed.log.empty());
      EXPECT_TRUE(dropped_feed.log == offered_feed.log);
    }
  }
}

// The headline memory property: with heavy overlap (slide << span) and
// everything kept, the reference's resident payload scales with the overlap
// factor while the shared store stays O(span).
TEST(WindowOracle, ResidentPayloadDoesNotScaleWithOverlap) {
  WindowSpec spec;
  spec.span_kind = WindowSpan::kCount;
  spec.span_events = 256;
  spec.open_kind = WindowOpen::kCountSlide;
  spec.slide_events = 16;  // overlap factor 16
  WindowManager engine(spec);
  ReferenceWindowManager reference(spec);
  const std::uint64_t seed = test_support::test_seed(7);
  SCOPED_TRACE(test_support::seed_trace(seed));
  const auto events = random_stream(seed, 2000);

  std::size_t engine_peak = 0;
  std::size_t reference_peak = 0;
  for (const Event& e : events) {
    for (const auto& m : engine.offer(e)) engine.keep(m, e);
    engine.drain_closed();
    for (const auto& m : reference.offer(e)) reference.keep(m, e);
    reference.drain_closed();
    engine_peak = std::max(engine_peak, engine.resident_payload_bytes());
    reference_peak = std::max(reference_peak, reference.resident_payload_bytes());
  }
  // Reference holds ~overlap copies of each live event; the store holds one.
  EXPECT_GE(reference_peak, 6 * engine_peak);
  // And the store never holds more than ~span + slide live events.
  EXPECT_LE(engine_peak,
            (spec.span_events + spec.slide_events + 1) * sizeof(Event));
}

}  // namespace
}  // namespace espice
