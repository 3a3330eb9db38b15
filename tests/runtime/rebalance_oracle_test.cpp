// Hot-partition rebalancing oracle: partition migrations -- forced and
// automatic -- must be output-invisible.
//
// The golden is the engine's own no-rebalance semantics at partition
// granularity: a config with shards = partitions and rebalance disabled
// routes exactly like partition_of (same hash, same modulus), so
// per_query_serial_goldens over that config is the per-partition serial
// reference.  A rebalancing engine hosts those same partition pipelines on
// K < L shards and migrates them mid-stream; the marker protocol ships each
// pipeline gap-free, so every partition must still see its substream whole
// and in order -- matches, memberships and shed decisions bit-identical to
// the golden under ANY schedule of moves.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "runtime/stream_engine.hpp"
#include "sim/sharded_sim.hpp"
#include "sim/zipf.hpp"
#include "support/test_seed.hpp"

namespace espice {
namespace {

constexpr EventTypeId kNumTypes = 32;

std::vector<Event> random_stream(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<Event> events;
  events.reserve(n);
  double ts = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    Event e;
    e.type = static_cast<EventTypeId>(rng.uniform_int(kNumTypes));
    e.seq = i;
    ts += rng.uniform(0.0, 0.8);
    e.ts = ts;
    e.value = rng.uniform(-2.0, 2.0);
    events.push_back(e);
  }
  return events;
}

/// Deterministic, stateless shedder (pure hash of seq x position).
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

ShardQuery make_query() {
  ShardQuery q;
  q.pattern = make_sequence(
      {element("up", TypeSet{}, DirectionFilter::kRising),
       element("down", TypeSet{}, DirectionFilter::kFalling)});
  q.window.span_kind = WindowSpan::kCount;
  q.window.span_events = 20;
  q.window.open_kind = WindowOpen::kCountSlide;
  q.window.slide_events = 4;
  return q;
}

StreamEngineConfig make_config(std::size_t shards, std::size_t partitions,
                               bool shed) {
  StreamEngineConfig config;
  config.shards = shards;
  config.ring_capacity = 256;
  EngineQuery& q = config.queries.emplace_back();
  q.query = make_query();
  q.predicted_ws = 20.0;
  config.rebalance.emplace();
  config.rebalance->partitions = partitions;
  if (shed) {
    q.shedder_factory = [](std::size_t) {
      return std::make_unique<HashShedder>(3);
    };
  }
  return config;
}

/// The per-partition golden: the serial golden of the no-rebalance
/// reference shape -- one shard per partition, rebalancing off, where
/// partition_of == shard_of.
std::vector<ComplexEvent> partition_golden(const StreamEngineConfig& config,
                                           std::span<const Event> events) {
  return per_query_serial_goldens(config.rebalance->partitions,
                                  config.key_of, config.queries, events)[0];
}

void expect_same_matches(const std::vector<ComplexEvent>& actual,
                         const std::vector<ComplexEvent>& expected,
                         const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const ComplexEvent& a = actual[i];
    const ComplexEvent& b = expected[i];
    ASSERT_EQ(a.constituents.size(), b.constituents.size())
        << label << " match " << i;
    for (std::size_t c = 0; c < a.constituents.size(); ++c) {
      EXPECT_EQ(a.constituents[c].element, b.constituents[c].element)
          << label << " match " << i << " constituent " << c;
      EXPECT_EQ(a.constituents[c].position, b.constituents[c].position)
          << label << " match " << i << " constituent " << c;
      EXPECT_EQ(a.constituents[c].event.seq, b.constituents[c].event.seq)
          << label << " match " << i << " constituent " << c;
    }
  }
}

void expect_move_accounting(const EngineReport& report) {
  std::uint64_t in = 0;
  std::uint64_t out = 0;
  for (const ShardStats& s : report.shards) {
    in += s.rebalance_moves_in;
    out += s.rebalance_moves_out;
  }
  EXPECT_EQ(in, report.rebalance_moves);
  EXPECT_EQ(out, report.rebalance_moves);
}

// Forced migrations mid-stream (the auto-rebalancer held off by a huge
// interval): a partition moved while its windows are open must carry its
// pipeline state to the new shard and keep matching seamlessly.
TEST(RebalanceOracle, ForcedMoveMidStreamMatchesGolden) {
  const std::uint64_t seed = test_support::test_seed(0x2eb1);
  SCOPED_TRACE(test_support::seed_trace(seed));
  const auto events = random_stream(seed, 4000);

  for (const bool shed : {false, true}) {
    StreamEngineConfig config = make_config(/*shards=*/2, /*partitions=*/8,
                                            shed);
    config.rebalance->interval_events = 1u << 30;  // manual moves only
    const auto golden = partition_golden(config, events);

    StreamEngine engine(config);
    const std::span<const Event> all(events);
    engine.push_batch(all.subspan(0, 1000));
    // Move a partition away from its home, another one onto the shard it
    // just left, then bounce the first one back two pushes later --
    // exercises export/import in both directions with open windows.
    const std::size_t p0 = 0;
    const std::size_t home0 = engine.shard_of_partition(p0);
    engine.move_partition(p0, 1 - home0);
    engine.push_batch(all.subspan(1000, 1000));
    const std::size_t p1 = 3;
    engine.move_partition(p1, home0);
    engine.push_batch(all.subspan(2000, 1000));
    engine.move_partition(p0, home0);
    engine.move_partition(p0, home0);  // no-op: already there
    engine.push_batch(all.subspan(3000));
    const EngineReport report = engine.finish();

    expect_same_matches(report.matches, golden,
                        shed ? "forced+shed" : "forced");
    EXPECT_EQ(report.rebalance_moves, 3u) << "no-op move must not count";
    expect_move_accounting(report);
  }
}

// The automatic rebalancer on a Zipf-1.2 stream: hot partitions must
// actually migrate (moves > 0), the books must balance, and the output must
// still be bit-identical to the per-partition golden.
TEST(RebalanceOracle, AutoRebalanceOnZipfMatchesGolden) {
  const std::uint64_t seed = test_support::test_seed(0x2eb2);
  SCOPED_TRACE(test_support::seed_trace(seed));
  const auto events = make_zipf_stream(20'000, kNumTypes, 1.2, seed);

  StreamEngineConfig config = make_config(/*shards=*/4, /*partitions=*/16,
                                          /*shed=*/true);
  config.rebalance->interval_events = 2048;
  const auto golden = partition_golden(config, events);

  StreamEngine engine(config);
  engine.push_batch(events);
  const EngineReport report = engine.finish();

  expect_same_matches(report.matches, golden, "auto zipf");
  EXPECT_GT(report.rebalance_moves, 0u)
      << "Zipf-1.2 over 16 partitions on 4 shards must trigger migrations";
  expect_move_accounting(report);
}

// The move schedule is a pure function of the stream prefix: two identical
// runs must take identical decisions and produce identical reports.
TEST(RebalanceOracle, AutoRebalanceIsDeterministic) {
  const std::uint64_t seed = test_support::test_seed(0x2eb3);
  SCOPED_TRACE(test_support::seed_trace(seed));
  const auto events = make_zipf_stream(12'000, kNumTypes, 1.2, seed);

  StreamEngineConfig config = make_config(/*shards=*/2, /*partitions=*/8,
                                          /*shed=*/false);
  config.rebalance->interval_events = 1024;

  auto run = [&] {
    StreamEngine engine(config);
    engine.push_batch(events);
    return engine.finish();
  };
  const EngineReport a = run();
  const EngineReport b = run();

  EXPECT_EQ(a.rebalance_moves, b.rebalance_moves);
  for (std::size_t s = 0; s < a.shards.size(); ++s) {
    EXPECT_EQ(a.shards[s].rebalance_moves_in, b.shards[s].rebalance_moves_in)
        << "shard " << s;
    EXPECT_EQ(a.shards[s].rebalance_moves_out, b.shards[s].rebalance_moves_out)
        << "shard " << s;
  }
  expect_same_matches(a.matches, b.matches, "repeat run");
}

// A partition-control record is the router's own migration marker; as
// input it would make a shard index its partition list and the mailbox
// with an unchecked seq.  The router refuses it up front, and the engine
// then finishes normally with the golden of the accepted events.
TEST(RebalanceOracle, RefusesPartitionControlInput) {
  const std::uint64_t seed = test_support::test_seed(0x2eb5);
  SCOPED_TRACE(test_support::seed_trace(seed));
  const auto events = random_stream(seed, 2000);
  const std::span<const Event> all(events);

  const StreamEngineConfig config = make_config(/*shards=*/2,
                                                /*partitions=*/8,
                                                /*shed=*/false);
  const auto golden = partition_golden(config, events);

  StreamEngine engine(config);
  engine.push_batch(all.first(1000));
  Event control;
  control.type = kPartitionControlType;
  control.seq = 1u << 20;
  EXPECT_THROW(engine.push(control), ConfigError);
  EXPECT_EQ(engine.pushed(), 1000u);
  engine.push_batch(all.subspan(1000));
  const EngineReport report = engine.finish();

  EXPECT_EQ(report.events, events.size());
  expect_same_matches(report.matches, golden, "after the refusal");
}

// Multi-query engines rebalance whole partition pipelines (all queries
// share the partition's windows): every query's matches must equal its own
// per-partition golden.
TEST(RebalanceOracle, MultiQueryRebalanceMatchesPerQueryGoldens) {
  const std::uint64_t seed = test_support::test_seed(0x2eb4);
  SCOPED_TRACE(test_support::seed_trace(seed));
  const auto events = make_zipf_stream(10'000, kNumTypes, 0.9, seed);

  std::vector<EngineQuery> queries;
  {
    EngineQuery q;
    q.name = "updown";
    q.query = make_query();
    queries.push_back(q);
  }
  {
    EngineQuery q;
    q.name = "downup_shed";
    q.query.pattern = make_sequence(
        {element("down", TypeSet{}, DirectionFilter::kFalling),
         element("up", TypeSet{}, DirectionFilter::kRising)});
    q.query.window.span_kind = WindowSpan::kCount;
    q.query.window.span_events = 16;
    q.query.window.open_kind = WindowOpen::kCountSlide;
    q.query.window.slide_events = 8;
    q.shedder_factory = [](std::size_t) {
      return std::make_unique<HashShedder>(4);
    };
    queries.push_back(q);
  }

  StreamEngineConfig config;
  config.shards = 2;
  config.ring_capacity = 256;
  config.rebalance.emplace();
  config.rebalance->partitions = 8;
  config.rebalance->interval_events = 1024;

  const auto goldens = per_query_serial_goldens(
      config.rebalance->partitions, config.key_of, queries, events);

  StreamEngine engine(config);
  for (const EngineQuery& q : queries) engine.add_query(q);
  engine.push_batch(events);
  const EngineReport report = engine.finish();

  ASSERT_EQ(report.queries.size(), queries.size());
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    expect_same_matches(report.queries[qi].matches, goldens[qi],
                        "query " + queries[qi].name);
  }
  expect_move_accounting(report);
}

}  // namespace
}  // namespace espice
