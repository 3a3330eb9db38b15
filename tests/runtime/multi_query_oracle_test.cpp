// Multi-query differential oracle: N queries sharing one engine against N
// *independent* serial single-query goldens.
//
// The shared-window equivalence guarantee under test: registering N queries
// in one StreamEngine (one ingestion path, one shared WindowManager/
// EventStore per window group per shard, per-query keep masks) must leave
// every query's output bit-identical to running that query alone -- i.e. to
// the union of serial run_pipeline() runs over the hash-partitioned
// substreams with that query's own shedder.  Random streams x random query
// sets x N in {1, 2, 5} x K in {1, 4}, seeded via ESPICE_TEST_SEED.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "core/espice_shedder.hpp"
#include "runtime/stream_engine.hpp"
#include "sim/sharded_sim.hpp"
#include "support/test_seed.hpp"

namespace espice {
namespace {

constexpr EventTypeId kNumTypes = 6;
constexpr EventTypeId kOpenerType = 1;
constexpr EventTypeId kCloserType = 2;

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

/// Deterministic, stateless shedder (pure hash of seq x position), so the
/// shared engine and the independent serial golden decide identically no
/// matter how work interleaves.  mod == 0 keeps everything.
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

/// A pre-armed eSPICE shedder over spec_from_pool(0)'s N = 24 whose model
/// keeps live UT rows for types 0 and 3 only -- the shape train_model
/// produces for types that never took part in a match -- so events of the
/// other types take the pipeline's per-query drops_everywhere() early-out.
/// RNG-free (no exact amount, no exploration), hence deterministic per
/// shard like HashShedder.
std::unique_ptr<Shedder> make_dead_row_espice(std::uint64_t seed) {
  // N = 24 positions at bin size 2 -> 12 UT columns per type.
  std::vector<std::uint8_t> ut(kNumTypes * 12, 0);
  std::vector<double> shares(kNumTypes * 12);
  Rng rng(seed);
  for (std::size_t i = 0; i < ut.size(); ++i) {
    const std::size_t type = i / 12;
    if (type == 0 || type == 3) {
      ut[i] = static_cast<std::uint8_t>(rng.uniform_int(101));
    }
    shares[i] = rng.uniform();
  }
  auto model = std::make_shared<UtilityModel>(kNumTypes, 24, /*bin_size=*/2,
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

/// Small pool of window specs; smaller than the largest query count so a
/// random query set always exercises window *sharing* (same spec -> one
/// WindowManager group) and usually sharing *across groups* too.
WindowSpec spec_from_pool(std::size_t which) {
  WindowSpec spec;
  switch (which % 4) {
    case 0:
      spec.span_kind = WindowSpan::kCount;
      spec.span_events = 24;
      spec.open_kind = WindowOpen::kCountSlide;
      spec.slide_events = 5;
      break;
    case 1:
      spec.span_kind = WindowSpan::kTime;
      spec.span_seconds = 7.5;
      spec.open_kind = WindowOpen::kPredicate;
      spec.opener = element("open", TypeSet{kOpenerType}, DirectionFilter::kAny);
      break;
    case 2:
      spec.span_kind = WindowSpan::kPredicate;
      spec.span_events = 40;
      spec.closer = element("close", TypeSet{kCloserType}, DirectionFilter::kAny);
      spec.open_kind = WindowOpen::kCountSlide;
      spec.slide_events = 7;
      break;
    case 3:
      spec.span_kind = WindowSpan::kCount;
      spec.span_events = 48;
      spec.open_kind = WindowOpen::kCountSlide;
      spec.slide_events = 8;
      break;
  }
  return spec;
}

/// Random pattern: sequences over direction filters and (sometimes) type
/// sets; every variant matches in arbitrary substreams, so partitioning by
/// type cannot starve a shard.
Pattern pattern_from(Rng& rng) {
  switch (rng.uniform_int(4)) {
    case 0:
      return make_sequence(
          {element("up", TypeSet{}, DirectionFilter::kRising),
           element("down", TypeSet{}, DirectionFilter::kFalling)});
    case 1:
      return make_sequence(
          {element("down", TypeSet{}, DirectionFilter::kFalling),
           element("up", TypeSet{}, DirectionFilter::kRising),
           element("any", TypeSet{}, DirectionFilter::kAny)});
    case 2:
      return make_sequence(
          {element("a", TypeSet{}, DirectionFilter::kRising),
           element("b", TypeSet{}, DirectionFilter::kRising)});
    default:
      return make_trigger_any(
          element("trig", TypeSet{}, DirectionFilter::kRising), TypeSet{},
          /*n=*/2, DirectionFilter::kAny, /*distinct_types=*/false);
  }
}

EngineQuery random_query(Rng& rng, std::size_t index) {
  EngineQuery q;
  q.name = "rq" + std::to_string(index);
  q.query.pattern = pattern_from(rng);
  q.query.window = spec_from_pool(rng.uniform_int(4));
  q.query.selection =
      rng.uniform_int(2) == 0 ? SelectionPolicy::kFirst : SelectionPolicy::kLast;
  q.query.max_matches_per_window = 1 + rng.uniform_int(2);
  q.predicted_ws = 24.0;
  const unsigned mods[] = {0, 2, 3, 5};
  const unsigned mod = mods[rng.uniform_int(4)];
  if (mod != 0) {
    const auto salt = static_cast<unsigned>(index);
    q.shedder_factory = [mod, salt](std::size_t) {
      return std::make_unique<HashShedder>(mod, salt);
    };
  }
  return q;
}

void expect_same_matches(const std::vector<ComplexEvent>& actual,
                         const std::vector<ComplexEvent>& expected,
                         const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const ComplexEvent& a = actual[i];
    const ComplexEvent& b = expected[i];
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

void run_oracle_case(const std::vector<Event>& events,
                     const std::vector<EngineQuery>& queries,
                     std::size_t shards) {
  StreamEngineConfig config;
  config.shards = shards;
  config.ring_capacity = 256;
  StreamEngine engine(config);
  for (const EngineQuery& q : queries) engine.add_query(q);
  for (const Event& e : events) engine.push(e);
  const EngineReport report = engine.finish();

  // Nothing lost in the rings: every pushed event reached a shard.
  std::uint64_t shard_events = 0;
  for (const auto& s : report.shards) shard_events += s.events;
  EXPECT_EQ(shard_events, events.size());

  const auto goldens = per_query_serial_goldens(
      shards, /*key_of=*/nullptr, queries, events);
  ASSERT_EQ(report.queries.size(), queries.size());
  ASSERT_EQ(goldens.size(), queries.size());
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    EXPECT_EQ(report.queries[qi].name, queries[qi].name);
    expect_same_matches(report.queries[qi].matches, goldens[qi],
                        "query " + queries[qi].name);
  }
}

using OracleParams =
    std::tuple<std::size_t /*N queries*/, std::size_t /*K shards*/,
               std::uint64_t /*salt*/>;

class MultiQueryOracle : public ::testing::TestWithParam<OracleParams> {};

TEST_P(MultiQueryOracle, EveryQueryMatchesItsIndependentSerialGolden) {
  const auto [num_queries, shards, salt] = GetParam();
  const std::uint64_t seed = test_support::test_seed(salt);
  SCOPED_TRACE(test_support::seed_trace(seed));

  const auto events = random_stream(seed, 1500);
  Rng rng(seed ^ 0x5eed5eedULL);
  std::vector<EngineQuery> queries;
  queries.reserve(num_queries);
  for (std::size_t i = 0; i < num_queries; ++i) {
    queries.push_back(random_query(rng, i));
  }
  // Guard against a vacuous comparison: at least one keep-everything query
  // anchors the set (the serial golden must detect something for it).
  queries.front().shedder_factory = nullptr;
  const auto golden0 = per_query_serial_goldens(shards, nullptr,
                                                std::span(queries).first(1),
                                                events);
  EXPECT_GT(golden0.front().size(), 0u) << "degenerate stream: no matches";

  run_oracle_case(events, queries, shards);
}

INSTANTIATE_TEST_SUITE_P(
    RandomQuerySets, MultiQueryOracle,
    ::testing::Combine(
        // N = 1 (the single-query engine behind the multi-query API), 2, 5
        ::testing::Values(std::size_t{1}, std::size_t{2}, std::size_t{5}),
        // K = 1 (serial behind a ring) and 4 (concurrent shards)
        ::testing::Values(std::size_t{1}, std::size_t{4}),
        ::testing::Values(31u, 47u)));

// Five queries over ONE shared window spec with five different shedders:
// the hardest sharing case (every query in one mask group, all keep sets
// different).  Heavier stream than the randomized sweep.  The second input
// gives queries 1 and 3 dead-row eSPICE shedders, so members of the
// diverging group take the per-query drops_everywhere() early-out.  The
// third gives queries 1-4 dead-row eSPICE shedders: events all four drop
// everywhere take the group's bulk run with q0's keep-all bit.  In the
// fourth q0 sheds too, so those runs only advance the windows.
TEST(MultiQueryOracle, SharedGroupDistinctShedders) {
  const std::uint64_t seed = test_support::test_seed(93);
  SCOPED_TRACE(test_support::seed_trace(seed));
  const auto events = random_stream(seed, 4000);

  struct Input {
    const char* label;
    /// Queries with a dead-row eSPICE shedder; the others but q0 shed by
    /// hash, and q0 keeps everything unless listed.
    std::vector<std::size_t> dead_row_espice;
  };
  const Input inputs[] = {
      {"hash shedders", {}},
      {"dead-row eSPICE on queries 1 and 3", {1, 3}},
      {"dead-row eSPICE on queries 1-4, q0 keeps all", {1, 2, 3, 4}},
      {"dead-row eSPICE on all five queries", {0, 1, 2, 3, 4}},
  };
  for (const Input& input : inputs) {
    SCOPED_TRACE(input.label);
    std::vector<EngineQuery> queries;
    for (std::size_t i = 0; i < 5; ++i) {
      EngineQuery q;
      q.name = "shared" + std::to_string(i);
      q.query.pattern = make_sequence(
          {element("up", TypeSet{}, DirectionFilter::kRising),
           element("down", TypeSet{}, DirectionFilter::kFalling)});
      q.query.window = spec_from_pool(0);  // all five share one group
      q.predicted_ws = 24.0;
      const auto& dead_row = input.dead_row_espice;
      if (std::find(dead_row.begin(), dead_row.end(), i) != dead_row.end()) {
        const std::uint64_t model_seed = 0xd1e0 + 16 * i;
        q.shedder_factory = [model_seed](std::size_t shard) {
          return make_dead_row_espice(model_seed + shard);
        };
      } else if (i > 0) {
        const unsigned mod = 1 + static_cast<unsigned>(i);
        const auto salt = static_cast<unsigned>(i);
        q.shedder_factory = [mod, salt](std::size_t) {
          return std::make_unique<HashShedder>(mod, salt);
        };
      }
      queries.push_back(std::move(q));
    }
    run_oracle_case(events, queries, 4);
  }
}

// A one-query config must keep its exact pre-multi-query behavior:
// report.matches == report.queries[0].matches == the partitioned serial
// golden.
TEST(MultiQueryOracle, LegacySingleQueryConfigUnchanged) {
  const std::uint64_t seed = test_support::test_seed(7);
  SCOPED_TRACE(test_support::seed_trace(seed));
  const auto events = random_stream(seed, 1500);

  StreamEngineConfig config;
  config.shards = 2;
  config.ring_capacity = 256;
  EngineQuery& q = config.queries.emplace_back();
  q.query.pattern = make_sequence(
      {element("up", TypeSet{}, DirectionFilter::kRising),
       element("down", TypeSet{}, DirectionFilter::kFalling)});
  q.query.window = spec_from_pool(0);
  q.predicted_ws = 24.0;

  const auto golden = per_query_serial_goldens(config.shards, config.key_of,
                                               config.queries, events)[0];
  StreamEngine engine(config);
  for (const Event& e : events) engine.push(e);
  const EngineReport report = engine.finish();

  ASSERT_EQ(report.queries.size(), 1u);
  EXPECT_EQ(report.queries[0].name, "q0");
  expect_same_matches(report.matches, golden, "legacy overall");
  expect_same_matches(report.queries[0].matches, golden, "legacy per-query");
}

// Per-query report counters must be self-consistent: decisions cover every
// offered membership of the query's window group, kept + drops == decisions
// when a shedder is present, and the engine-level aggregate equals the sum.
// The second input adds dead-row eSPICE shedders on both shedding branches:
// c1 inside the diverging shared group, and c3 alone in its own window
// group (the single-query branch), so drops_everywhere()'s bulk count must
// keep the counters whole.
TEST(MultiQueryOracle, PerQueryCountersAreConsistent) {
  const std::uint64_t seed = test_support::test_seed(55);
  SCOPED_TRACE(test_support::seed_trace(seed));
  const auto events = random_stream(seed, 2000);

  for (const bool dead_row_espice : {false, true}) {
    SCOPED_TRACE(dead_row_espice ? "dead-row eSPICE on c1 and c3"
                                 : "hash shedders");
    std::vector<EngineQuery> queries;
    for (std::size_t i = 0; i < (dead_row_espice ? 4 : 3); ++i) {
      EngineQuery q;
      q.name = "c" + std::to_string(i);
      q.query.pattern = make_sequence(
          {element("up", TypeSet{}, DirectionFilter::kRising),
           element("down", TypeSet{}, DirectionFilter::kFalling)});
      q.query.window = spec_from_pool(i == 3 ? 3 : 0);
      q.predicted_ws = 24.0;
      if (dead_row_espice && (i == 1 || i == 3)) {
        const std::uint64_t model_seed = 0xc0de + 16 * i;
        q.shedder_factory = [model_seed](std::size_t shard) {
          return make_dead_row_espice(model_seed + shard);
        };
      } else {
        const unsigned mod = 2 + static_cast<unsigned>(i);
        const auto salt = static_cast<unsigned>(i);
        q.shedder_factory = [mod, salt](std::size_t) {
          return std::make_unique<HashShedder>(mod, salt);
        };
      }
      queries.push_back(std::move(q));
    }

    StreamEngineConfig config;
    config.shards = 2;
    config.ring_capacity = 256;
    StreamEngine engine(config);
    for (const EngineQuery& q : queries) engine.add_query(q);
    for (const Event& e : events) engine.push(e);
    const EngineReport report = engine.finish();

    std::uint64_t total_decisions = 0, total_drops = 0;
    for (const auto& qr : report.queries) {
      EXPECT_EQ(qr.shed_decisions, qr.memberships) << qr.name;
      EXPECT_EQ(qr.memberships_kept + qr.shed_drops, qr.shed_decisions)
          << qr.name;
      total_decisions += qr.shed_decisions;
      total_drops += qr.shed_drops;
    }
    std::uint64_t shard_decisions = 0, shard_drops = 0;
    for (const auto& s : report.shards) {
      shard_decisions += s.shed_decisions;
      shard_drops += s.shed_drops;
    }
    EXPECT_EQ(shard_decisions, total_decisions);
    EXPECT_EQ(shard_drops, total_drops);
  }
}

}  // namespace
}  // namespace espice
