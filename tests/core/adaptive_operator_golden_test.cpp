// Golden outputs of the adaptive operators.  The lifecycle tests check
// properties (phases, retrain counts, snapshot round trips); these pin the
// exact observable output of scripted runs, so a change to the machinery
// under EspiceOperator and MultiQueryOperator that alters any decision
// fails here.  Streams come from fixed Rng seeds, not ESPICE_TEST_SEED, and
// every host signal (arrival, cost, tick and queue size) is scripted too.
//
// Pinned per run: a 64-bit FNV-1a digest of every delivered match (query,
// window id, each constituent's seq, position and element) in delivery
// order, the final stats, and a digest of each query's UT cells.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "core/espice_operator.hpp"
#include "core/multi_query_operator.hpp"
#include "durability/serial.hpp"

namespace espice {
namespace {

class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void add_match(Fnv1a& f, std::size_t query, const ComplexEvent& ce) {
  f.add(query);
  f.add(ce.window);
  f.add(ce.constituents.size());
  for (const Constituent& c : ce.constituents) {
    f.add(c.event.seq);
    f.add(c.position);
    f.add(c.element);
  }
}

std::uint64_t ut_digest(const UtilityModel* model) {
  if (model == nullptr) return 0;
  Fnv1a f;
  f.add(model->n_positions());
  f.add(model->bin_size());
  for (std::size_t t = 0; t < model->num_types(); ++t) {
    for (std::size_t c = 0; c < model->cols(); ++c) {
      f.add(static_cast<std::uint64_t>(
          model->utility_cell(static_cast<EventTypeId>(t), c)));
    }
  }
  return f.value();
}

/// `n` events; event i's type is drawn from `mix(i)` (weights per type),
/// its timestamp advances by a draw from [min_dt, max_dt].
template <typename Mix>
std::vector<Event> make_stream(std::uint64_t seed, std::size_t n, Mix mix,
                               double min_dt, double max_dt) {
  Rng rng(seed);
  std::vector<Event> events;
  events.reserve(n);
  double ts = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<double> w = mix(i);
    double total = 0.0;
    for (const double x : w) total += x;
    double u = rng.uniform() * total;
    std::size_t type = 0;
    while (type + 1 < w.size() && u >= w[type]) u -= w[type++];
    Event e;
    e.type = static_cast<EventTypeId>(type);
    e.seq = i;
    ts += rng.uniform(min_dt, max_dt);
    e.ts = ts;
    e.value = rng.uniform(-1.0, 1.0);
    events.push_back(e);
  }
  return events;
}

// Host signals: one event costs 1 ms (qmax = 1000 at LB = 1 s, watermark
// 800) and arrives at 1500 events/s, so the detector sees overload whenever
// the scripted queue sits above the watermark.  A tick follows every tenth
// event.
constexpr double kCost = 1e-3;
constexpr double kArrivalRate = 1500.0;
constexpr std::size_t kTickEvery = 10;

bool tick_after(std::size_t i) { return i % kTickEvery == kTickEvery - 1; }
double now_of(std::size_t i) { return static_cast<double>(i) / kArrivalRate; }

OverloadDetectorConfig detector_config() {
  OverloadDetectorConfig d;
  d.latency_bound = 1.0;
  d.f = 0.8;
  d.ewma_alpha = 1.0;
  return d;
}

WindowSpec count_windows() {
  WindowSpec w;
  w.span_kind = WindowSpan::kCount;
  w.span_events = 12;
  w.open_kind = WindowOpen::kCountSlide;
  w.slide_events = 4;
  return w;
}

struct OperatorRun {
  std::uint64_t matches = 0;
  std::uint64_t ut = 0;
  OperatorStats stats;
  bool shed = false;      ///< shedding was active after some tick
  bool released = false;  ///< ... and inactive after a later tick
};

template <typename Queue>
OperatorRun run_operator(EspiceOperatorConfig config,
                         const std::vector<Event>& stream, Queue queue_at) {
  Fnv1a f;
  OperatorRun run;
  EspiceOperator op(std::move(config),
                    [&f](const ComplexEvent& ce) { add_match(f, 0, ce); });
  for (std::size_t i = 0; i < stream.size(); ++i) {
    op.observe_arrival(now_of(i));
    op.observe_cost(kCost);
    op.push(stream[i]);
    if (tick_after(i)) {
      op.on_tick(now_of(i), queue_at(i));
      if (op.shedding_active()) run.shed = true;
      if (run.shed && !op.shedding_active()) run.released = true;
    }
  }
  op.finish();
  run.matches = f.value();
  run.ut = ut_digest(op.model());
  run.stats = op.stats();
  return run;
}

// Case 1: overlapping count windows (overlap 3), exploration 0.05, periodic
// rebuilds every 50 windows, and a shift of the filler types at event 6000
// that the drift detector must catch.  The queue arms shedding at 1000,
// releases it at 4000 and overloads again from 5000.
TEST(AdaptiveOperatorGolden, CountWindowsWithDriftAndRelease) {
  const auto stream = make_stream(
      0x601d1, 10000,
      [](std::size_t i) -> std::vector<double> {
        if (i < 6000) return {0.15, 0.15, 0.35, 0.35, 0.0, 0.0};
        return {0.15, 0.15, 0.0, 0.0, 0.35, 0.35};
      },
      1.0, 1.0);
  EspiceOperatorConfig c;
  c.pattern =
      make_sequence({element("A", TypeSet{0}), element("B", TypeSet{1})});
  c.window = count_windows();
  c.num_types = 6;
  c.training_windows = 100;
  c.detector = detector_config();
  c.exploration = 0.05;
  c.rebuild_every_windows = 50;
  c.drift.batch_size = 3000;
  c.drift.patience = 1;
  const OperatorRun run =
      run_operator(std::move(c), stream, [](std::size_t i) -> std::size_t {
        if (i < 1000) return 0;
        if (i < 4000) return 900;
        if (i < 5000) return 0;
        return 900;
      });

  EXPECT_TRUE(run.shed);
  EXPECT_TRUE(run.released);
  EXPECT_GT(run.stats.drops, 0u);
  EXPECT_GE(run.stats.retrains, 1u);

  EXPECT_EQ(run.matches, 1059217852756910006u);
  EXPECT_EQ(run.ut, 16904349765020529602u);
  EXPECT_EQ(run.stats.phase, EspiceOperator::Phase::kShedding);
  EXPECT_EQ(run.stats.events, 10000u);
  EXPECT_EQ(run.stats.memberships, 29988u);
  EXPECT_EQ(run.stats.memberships_kept, 13337u);
  EXPECT_EQ(run.stats.windows_closed, 2500u);
  EXPECT_EQ(run.stats.matches, 1374u);
  EXPECT_EQ(run.stats.decisions, 28773u);
  EXPECT_EQ(run.stats.drops, 16651u);
  EXPECT_EQ(run.stats.retrains, 3u);
  EXPECT_EQ(run.stats.windows_observed, 2500u);
  EXPECT_EQ(run.stats.shedding_active, true);
}

// Case 2: time-spanned windows opened every 4 events, so N is unknown up
// front and the sizing phase measures it; exact_amount samples the
// threshold boundary.
TEST(AdaptiveOperatorGolden, TimeWindowsSizeThenShedExactAmount) {
  const auto stream = make_stream(
      0x601d2, 8000,
      [](std::size_t) -> std::vector<double> {
        return {0.15, 0.15, 0.35, 0.35};
      },
      0.5, 1.5);
  EspiceOperatorConfig c;
  c.pattern =
      make_sequence({element("A", TypeSet{0}), element("B", TypeSet{1})});
  c.window.span_kind = WindowSpan::kTime;
  c.window.span_seconds = 12.0;
  c.window.open_kind = WindowOpen::kCountSlide;
  c.window.slide_events = 4;
  c.num_types = 4;
  c.sizing_windows = 30;
  c.training_windows = 100;
  c.detector = detector_config();
  c.exact_amount = true;
  c.rebuild_every_windows = 200;
  const OperatorRun run =
      run_operator(std::move(c), stream, [](std::size_t i) -> std::size_t {
        return i < 1500 ? 0 : 900;
      });

  EXPECT_TRUE(run.shed);
  EXPECT_GT(run.stats.drops, 0u);

  EXPECT_EQ(run.matches, 3698907062112625958u);
  EXPECT_EQ(run.ut, 13814495417994695352u);
  EXPECT_EQ(run.stats.phase, EspiceOperator::Phase::kShedding);
  EXPECT_EQ(run.stats.events, 8000u);
  EXPECT_EQ(run.stats.memberships, 24976u);
  EXPECT_EQ(run.stats.memberships_kept, 17152u);
  EXPECT_EQ(run.stats.windows_closed, 2000u);
  EXPECT_EQ(run.stats.matches, 1138u);
  EXPECT_EQ(run.stats.decisions, 23367u);
  EXPECT_EQ(run.stats.drops, 7824u);
  EXPECT_EQ(run.stats.retrains, 0u);
  EXPECT_EQ(run.stats.windows_observed, 1970u);
  EXPECT_EQ(run.stats.shedding_active, true);
}

// Case 3: two queries with weights {1, 3} on one shared count window.
MultiQueryOperatorConfig two_query_config() {
  MultiQueryOperatorConfig c;
  c.window = count_windows();
  c.queries.push_back(MultiQuerySpec{
      "pairAB",
      make_sequence({element("A", TypeSet{0}), element("B", TypeSet{1})})});
  c.queries.push_back(MultiQuerySpec{
      "pairCD",
      make_sequence({element("C", TypeSet{2}), element("D", TypeSet{3})})});
  c.num_types = 6;
  c.training_windows = 80;
  c.detector = detector_config();
  c.rebuild_every_windows = 50;
  c.query_weights = {1.0, 3.0};
  return c;
}

std::size_t mqo_queue_at(std::size_t i) {
  if (i < 1000) return 0;
  if (i < 4000) return 900;
  if (i < 5000) return 0;
  return 900;
}

struct MqoRun {
  std::uint64_t matches = 0;
  std::uint64_t ut0 = 0;
  std::uint64_t ut1 = 0;
  MultiQueryStats stats;
  bool both_shares = false;  ///< some split gave both queries a share > 0
};

/// Drives the MultiQueryOperator through `stream`: per-event push() when
/// `block` is 0, else push_block() over chunks of at most `block` events
/// that never straddle a tick.  With `cut` > 0 the operator is serialized
/// before event `cut` and the run continues on a fresh restored operator.
MqoRun run_mqo(const std::vector<Event>& stream, std::size_t block,
               std::size_t cut) {
  Fnv1a f;
  MqoRun run;
  auto make = [&f] {
    return std::make_unique<MultiQueryOperator>(
        two_query_config(),
        [&f](std::size_t q, const ComplexEvent& ce) { add_match(f, q, ce); });
  };
  auto op = make();
  auto tick = [&](std::size_t i) {
    op->on_tick(now_of(i), mqo_queue_at(i));
    const auto& split = op->last_split();
    if (split.size() == 2 && split[0] > 0.0 && split[1] > 0.0) {
      run.both_shares = true;
    }
  };
  std::size_t i = 0;
  while (i < stream.size()) {
    if (cut != 0 && i == cut) {
      EXPECT_TRUE(op->shedding_active()) << "the cut must land mid-shedding";
      durability::SnapshotWriter w;
      op->serialize(w);
      op = make();
      durability::SnapshotReader r(std::span(w.buffer()));
      op->restore(r);
      r.expect_done();
    }
    std::size_t end = std::min(stream.size(), (i / kTickEvery + 1) * kTickEvery);
    if (cut > i) end = std::min(end, cut);
    if (block == 0) {
      for (; i < end; ++i) {
        op->observe_arrival(now_of(i));
        op->observe_cost(kCost);
        op->push(stream[i]);
        if (tick_after(i)) tick(i);
      }
      continue;
    }
    const std::size_t n = std::min(block, end - i);
    for (std::size_t j = i; j < i + n; ++j) {
      op->observe_arrival(now_of(j));
      op->observe_cost(kCost);
    }
    op->push_block(std::span(stream).subspan(i, n));
    i += n;
    if (tick_after(i - 1)) tick(i - 1);
  }
  op->finish();
  run.matches = f.value();
  run.ut0 = ut_digest(op->model(0));
  run.ut1 = ut_digest(op->model(1));
  run.stats = op->stats();
  return run;
}

TEST(AdaptiveOperatorGolden, MultiQuerySplitIsPathIndependent) {
  const auto stream = make_stream(
      0x601d3, 8000,
      [](std::size_t) -> std::vector<double> {
        return {0.12, 0.12, 0.12, 0.12, 0.26, 0.26};
      },
      1.0, 1.0);
  struct Variant {
    const char* name;
    std::size_t block;
    std::size_t cut;
  };
  for (const Variant v : {Variant{"push", 0, 0}, Variant{"block1", 1, 0},
                          Variant{"block7", 7, 0}, Variant{"block64", 64, 0},
                          Variant{"restored", 0, 3003}}) {
    SCOPED_TRACE(v.name);
    const MqoRun run = run_mqo(stream, v.block, v.cut);
    EXPECT_TRUE(run.both_shares);
    EXPECT_GT(run.stats.queries[0].drops, 0u);
    EXPECT_GT(run.stats.queries[1].drops, 0u);

    EXPECT_EQ(run.matches, 9621079649993757446u);
    EXPECT_EQ(run.ut0, 8579914395097391565u);
    EXPECT_EQ(run.ut1, 5688101382572756500u);
    EXPECT_EQ(run.stats.events, 8000u);
    EXPECT_EQ(run.stats.memberships, 23988u);
    EXPECT_EQ(run.stats.memberships_kept, 14882u);
    EXPECT_EQ(run.stats.windows_closed, 2000u);
    EXPECT_EQ(run.stats.shedding_active, true);
    ASSERT_EQ(run.stats.queries.size(), 2u);
    EXPECT_EQ(run.stats.queries[0].matches, 870u);
    EXPECT_EQ(run.stats.queries[0].decisions, 23013u);
    EXPECT_EQ(run.stats.queries[0].drops, 13351u);
    EXPECT_EQ(run.stats.queries[1].matches, 937u);
    EXPECT_EQ(run.stats.queries[1].decisions, 23013u);
    EXPECT_EQ(run.stats.queries[1].drops, 13342u);
  }
}

}  // namespace
}  // namespace espice
