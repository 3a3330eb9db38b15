// Block-cut oracle for DetPipeline: how a shard's stream is cut into data
// blocks must never change what the pipeline produces.
//
// The engine cuts shard blocks by thread timing, which no engine test can
// steer, and the diverging-group bulk path starts and stops its runs at
// block edges.  So this oracle feeds process_data_block() directly: random
// cuts of 1-256 events (seeded via ESPICE_TEST_SEED) against the
// one-event-at-a-time run, on
//  * the benchmark's mq5_shed shape in small: two keep-all and two
//    dead-row eSPICE queries with disjoint live types on one overlapping
//    count window (runs of events both shedders drop take one masked bulk
//    keep for the keep-all members),
//  * the same without a keep-all member (runs only advance the windows),
//  * a single-query dead-row eSPICE group, and
//  * an all-keep shared group.
// Every query's matches, every outcome() field and every ShardStats counter
// must agree, each query's matches must equal its serial run_pipeline()
// golden and the counters their serial reference, and a serialize_core()/
// restore_core() into a fresh pipeline at a random cut must continue to
// the same result.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/espice_shedder.hpp"
#include "durability/serial.hpp"
#include "runtime/shard_pipeline.hpp"
#include "sim/operator_sim.hpp"
#include "sim/sharded_sim.hpp"
#include "support/test_seed.hpp"

namespace espice {
namespace {

constexpr EventTypeId kNumTypes = 8;
constexpr std::size_t kSpan = 24;  // the shedders' model size N

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

/// A pre-armed, RNG-free eSPICE shedder whose model keeps live UT rows for
/// `live` only -- the shape train_model produces for types that never took
/// part in a match -- so every other type drops everywhere.
std::unique_ptr<Shedder> make_dead_row_espice(std::uint64_t seed,
                                              std::vector<EventTypeId> live) {
  // N = 24 positions at bin size 2 -> 12 UT columns per type.
  std::vector<std::uint8_t> ut(kNumTypes * 12, 0);
  std::vector<double> shares(kNumTypes * 12);
  Rng rng(seed);
  for (std::size_t i = 0; i < ut.size(); ++i) {
    const auto type = static_cast<EventTypeId>(i / 12);
    if (std::find(live.begin(), live.end(), type) != live.end()) {
      ut[i] = static_cast<std::uint8_t>(rng.uniform_int(101));
    }
    shares[i] = rng.uniform();
  }
  auto model = std::make_shared<UtilityModel>(kNumTypes, kSpan, /*bin_size=*/2,
                                              std::move(ut), std::move(shares));
  auto shedder = std::make_unique<EspiceShedder>(std::move(model),
                                                 /*exact_amount=*/false,
                                                 /*seed=*/seed);
  DropCommand cmd;
  cmd.active = true;
  cmd.x = 3.0;
  cmd.partitions = 3;
  shedder->on_command(cmd);
  return shedder;
}

/// One query on the shared overlapping count window (span 24, slide 4).
/// `live` empty = keep everything; otherwise a dead-row eSPICE shedder
/// keeping those types.  Last selection always matches by scanning the
/// closed window's view, first selection mostly from stream-level runs.
EngineQuery make_query(const std::string& name, SelectionPolicy selection,
                       std::uint64_t model_seed,
                       std::vector<EventTypeId> live) {
  EngineQuery q;
  q.name = name;
  q.query.pattern = make_sequence(
      {element("up", TypeSet{}, DirectionFilter::kRising),
       element("down", TypeSet{}, DirectionFilter::kFalling)});
  q.query.selection = selection;
  q.query.window.span_kind = WindowSpan::kCount;
  q.query.window.span_events = kSpan;
  q.query.window.open_kind = WindowOpen::kCountSlide;
  q.query.window.slide_events = 4;
  q.predicted_ws = static_cast<double>(kSpan);
  if (!live.empty()) {
    q.shedder_factory = [model_seed, live](std::size_t) {
      return make_dead_row_espice(model_seed, live);
    };
  }
  return q;
}

struct OracleInput {
  std::string name;
  std::vector<EngineQuery> queries;
};

std::vector<OracleInput> oracle_inputs() {
  constexpr auto kFirst = SelectionPolicy::kFirst;
  constexpr auto kLast = SelectionPolicy::kLast;
  const std::vector<EventTypeId> live_a{0, 1};
  const std::vector<EventTypeId> live_b{4, 5};
  std::vector<OracleInput> inputs;
  inputs.push_back({"two keep-all and two dead-row eSPICE queries",
                    {make_query("keep0", kFirst, 0, {}),
                     make_query("shedA", kFirst, 11, live_a),
                     make_query("keep2", kLast, 0, {}),
                     make_query("shedB", kLast, 13, live_b)}});
  inputs.push_back({"two dead-row eSPICE queries, no keep-all member",
                    {make_query("shedA", kFirst, 11, live_a),
                     make_query("shedB", kLast, 13, live_b)}});
  inputs.push_back({"single-query dead-row eSPICE group",
                    {make_query("shedA", kFirst, 11, live_a)}});
  inputs.push_back({"all-keep shared group",
                    {make_query("keep0", kFirst, 0, {}),
                     make_query("keep1", kLast, 0, {})}});
  return inputs;
}

std::unique_ptr<DetPipeline> make_pipeline(
    std::span<const EngineQuery> queries) {
  std::vector<std::unique_ptr<Shedder>> shedders;
  for (const EngineQuery& q : queries) {
    shedders.push_back(q.shedder_factory ? q.shedder_factory(0) : nullptr);
  }
  return std::make_unique<DetPipeline>(queries, std::move(shedders),
                                       /*event_time=*/nullptr);
}

/// Ascending block edges over [0, n): every event its own block when
/// `rng` is null, else blocks of 1-256 events; `cut` is always an edge.
std::vector<std::size_t> block_edges(std::size_t n, Rng* rng,
                                     std::size_t cut) {
  std::vector<std::size_t> edges{cut};
  for (std::size_t at = 0; at < n;) {
    at = std::min(n, at + (rng == nullptr ? 1 : 1 + rng->uniform_int(256)));
    edges.push_back(at);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

/// Feeds events[from, to) block by block; `from` and `to` must be edges.
void feed(DetPipeline& p, std::span<const Event> events,
          std::span<const std::size_t> edges, std::size_t from,
          std::size_t to, ShardStats& stats) {
  std::size_t at = from;
  for (const std::size_t edge : edges) {
    if (edge <= from || edge > to) continue;
    p.process_data_block(events.subspan(at, edge - at), stats);
    at = edge;
  }
}

struct RunResult {
  std::vector<std::vector<ComplexEvent>> matches;
  std::vector<DetPipeline::QueryOutcome> outcomes;
  ShardStats stats;
  std::vector<std::byte> snapshot;  ///< serialize_core() at the snapshot cut
};

RunResult collect(DetPipeline& p, ShardStats stats) {
  p.close_all(stats);
  RunResult r;
  r.matches = p.query_matches;
  for (std::size_t qi = 0; qi < p.query_count(); ++qi) {
    r.outcomes.push_back(p.outcome(qi));
  }
  r.stats = stats;
  return r;
}

/// Runs the whole stream in the blocks `edges` cut, serializing at the
/// edge `snapshot_at`.  With `restore`, the rest of the stream runs on a
/// fresh pipeline restored from that snapshot.
RunResult run(std::span<const EngineQuery> queries,
              std::span<const Event> events,
              std::span<const std::size_t> edges, std::size_t snapshot_at,
              bool restore) {
  ShardStats stats;
  auto p = make_pipeline(queries);
  feed(*p, events, edges, 0, snapshot_at, stats);
  durability::SnapshotWriter w;
  p->serialize_core(w);
  if (restore) {
    p = make_pipeline(queries);
    durability::SnapshotReader r(w.buffer());
    p->restore_core(r);
  }
  feed(*p, events, edges, snapshot_at, events.size(), stats);
  RunResult result = collect(*p, stats);
  result.snapshot = w.take();
  return result;
}

/// The counters a run must end with, derived independently of the
/// pipeline: one serial run_pipeline() per query with its own shedder
/// (every input puts all its queries in one window group).  Offered
/// memberships are the windows' arrivals; a membership is kept in the
/// shared group when any query kept it.
RunResult reference_counters(std::span<const EngineQuery> queries,
                             std::span<const Event> events) {
  RunResult r;
  r.stats.events = events.size();
  std::set<std::pair<WindowId, std::uint32_t>> kept_by_any;
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const EngineQuery& q = queries[qi];
    std::unique_ptr<Shedder> shedder =
        q.shedder_factory ? q.shedder_factory(0) : nullptr;
    const Matcher matcher(q.query.pattern, q.query.selection,
                          q.query.consumption, q.query.max_matches_per_window);
    DetPipeline::QueryOutcome o;
    std::uint64_t windows = 0;
    run_pipeline(events, q.query.window, matcher, shedder.get(),
                 q.predicted_ws,
                 [&](const WindowView& w, const std::vector<ComplexEvent>&) {
                   ++windows;
                   o.memberships += w.size();
                   o.memberships_kept += w.kept_count();
                   for (std::size_t i = 0; i < w.kept_count(); ++i) {
                     kept_by_any.emplace(w.id, w.pos(i));
                   }
                 });
    if (shedder != nullptr) {
      o.shed_decisions = shedder->decisions();
      o.shed_drops = shedder->drops();
    }
    r.outcomes.push_back(o);
    r.stats.windows_closed = windows;
    r.stats.memberships = o.memberships;
  }
  r.stats.memberships_kept = kept_by_any.size();
  return r;
}

void expect_same_matches(const std::vector<ComplexEvent>& actual,
                         const std::vector<ComplexEvent>& expected,
                         const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const ComplexEvent& a = actual[i];
    const ComplexEvent& b = expected[i];
    EXPECT_EQ(a.window, b.window) << label << " match " << i;
    EXPECT_DOUBLE_EQ(a.detection_ts, b.detection_ts) << label << " match " << i;
    ASSERT_EQ(a.constituents.size(), b.constituents.size())
        << label << " match " << i;
    for (std::size_t c = 0; c < a.constituents.size(); ++c) {
      EXPECT_EQ(a.constituents[c].element, b.constituents[c].element)
          << label << " match " << i << " constituent " << c;
      EXPECT_EQ(a.constituents[c].position, b.constituents[c].position)
          << label << " match " << i << " constituent " << c;
      EXPECT_EQ(a.constituents[c].event.seq, b.constituents[c].event.seq)
          << label << " match " << i << " constituent " << c;
      EXPECT_EQ(a.constituents[c].event.type, b.constituents[c].event.type)
          << label << " match " << i << " constituent " << c;
    }
  }
}

/// Every outcome() field and every ShardStats counter the pipeline keeps.
void expect_same_counters(const RunResult& actual, const RunResult& expected,
                          const std::string& label) {
  ASSERT_EQ(actual.outcomes.size(), expected.outcomes.size()) << label;
  for (std::size_t qi = 0; qi < expected.outcomes.size(); ++qi) {
    const std::string q = label + ", query " + std::to_string(qi);
    const auto& a = actual.outcomes[qi];
    const auto& b = expected.outcomes[qi];
    EXPECT_EQ(a.memberships, b.memberships) << q;
    EXPECT_EQ(a.memberships_kept, b.memberships_kept) << q;
    EXPECT_EQ(a.shed_decisions, b.shed_decisions) << q;
    EXPECT_EQ(a.shed_drops, b.shed_drops) << q;
  }
  const ShardStats& a = actual.stats;
  const ShardStats& b = expected.stats;
  EXPECT_EQ(a.events, b.events) << label;
  EXPECT_EQ(a.memberships, b.memberships) << label;
  EXPECT_EQ(a.memberships_kept, b.memberships_kept) << label;
  EXPECT_EQ(a.windows_closed, b.windows_closed) << label;
  EXPECT_EQ(a.matches, b.matches) << label;
  EXPECT_EQ(a.shed_decisions, b.shed_decisions) << label;
  EXPECT_EQ(a.shed_drops, b.shed_drops) << label;
  EXPECT_EQ(a.late_events, b.late_events) << label;
  EXPECT_EQ(a.late_dropped, b.late_dropped) << label;
  EXPECT_EQ(a.late_side_output, b.late_side_output) << label;
  EXPECT_EQ(a.revisions, b.revisions) << label;
}

void expect_same_run(const RunResult& actual, const RunResult& expected,
                     const std::string& label) {
  ASSERT_EQ(actual.matches.size(), expected.matches.size()) << label;
  for (std::size_t qi = 0; qi < expected.matches.size(); ++qi) {
    expect_same_matches(actual.matches[qi], expected.matches[qi],
                        label + ", query " + std::to_string(qi));
  }
  expect_same_counters(actual, expected, label);
}

class PipelineBlockOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineBlockOracle, RandomCutsEqualOneEventAtATimeAndGoldens) {
  const std::uint64_t seed = test_support::test_seed(GetParam());
  SCOPED_TRACE(test_support::seed_trace(seed));
  const auto events = random_stream(seed, 3000);

  for (const OracleInput& input : oracle_inputs()) {
    SCOPED_TRACE(input.name);
    const std::span<const EngineQuery> queries(input.queries);
    Rng rng(seed ^ 0xb10c);
    const std::size_t snapshot_at = rng.uniform_int(events.size() + 1);
    const auto single = block_edges(events.size(), nullptr, snapshot_at);
    const auto random = block_edges(events.size(), &rng, snapshot_at);

    const RunResult reference =
        run(queries, events, single, snapshot_at, /*restore=*/false);
    const RunResult cut = run(queries, events, random, snapshot_at, false);
    expect_same_run(cut, reference, "random cuts");
    // Feed records are delivered by event cut, not by block cut, so the
    // snapshot at an event cut is the same however the blocks fell.
    EXPECT_TRUE(cut.snapshot == reference.snapshot)
        << "snapshot bytes at event " << snapshot_at << " depend on the cuts";
    expect_same_run(run(queries, events, random, snapshot_at, true),
                    reference, "random cuts, restored at a random cut");
    expect_same_run(run(queries, events, single, snapshot_at, true),
                    reference, "one event at a time, restored");

    expect_same_counters(reference, reference_counters(queries, events),
                         "serial reference counters");
    const auto goldens = per_query_serial_goldens(
        1, /*key_of=*/nullptr, queries, events);
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      const std::string label = "golden for " + queries[qi].name;
      EXPECT_GT(goldens[qi].size(), 0u) << label << ": no matches";
      expect_same_matches(
          StreamEngine::merge_matches({reference.matches[qi]}), goldens[qi],
          label);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineBlockOracle,
                         ::testing::Values(3u, 41u, 977u));

}  // namespace
}  // namespace espice
