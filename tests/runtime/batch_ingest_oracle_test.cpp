// Batched-ingestion differential oracle: push_batch() against per-event
// push() -- and against the serial golden -- across the whole configuration
// cube.
//
// The batched data path (bulk SPSC transfer, staging router, block-wise
// shard pipeline, score_block shedding) must be OUTPUT-BIT-IDENTICAL to
// per-event execution: same matches with the same constituents and
// positions, same per-query counters, same shed decision/drop counts.
// Random streams x span/open kinds x shedding on/off x N queries in {1, 5}
// x batch sizes {1, 7, 64, 256}, seeded via ESPICE_TEST_SEED.  A mixed
// test interleaves push() and push_batch() mid-stream (the documented
// contract allows it).
#include <gtest/gtest.h>

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

/// Types whose UT rows stay live in make_armed_espice's dead-row model.
constexpr EventTypeId kLiveTypeA = 0;
constexpr EventTypeId kLiveTypeB = 3;

/// A pre-armed eSPICE shedder (fixed model, fixed seed, active command):
/// deterministic given construction order, and it exercises the flat-array
/// score_block() path differentially at engine level.  `dead_rows` zeroes
/// every UT row but kLiveTypeA's and kLiveTypeB's -- the shape train_model
/// produces for types that never took part in a match -- so events of the
/// other four types take the pipeline's drops_everywhere() early-out.
std::unique_ptr<Shedder> make_armed_espice(std::uint64_t seed,
                                           bool dead_rows = false) {
  // N = 24 positions at bin size 2 -> 12 UT columns per type.
  std::vector<std::uint8_t> ut(kNumTypes * 12);
  std::vector<double> shares(kNumTypes * 12);
  Rng rng(seed);
  for (std::size_t i = 0; i < ut.size(); ++i) {
    ut[i] = static_cast<std::uint8_t>(rng.uniform_int(101));
    shares[i] = rng.uniform();
    const auto type = static_cast<EventTypeId>(i / 12);
    if (dead_rows && type != kLiveTypeA && type != kLiveTypeB) ut[i] = 0;
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

ShardQuery make_query(const WindowSpec& spec) {
  ShardQuery q;
  q.pattern = make_sequence(
      {element("up", TypeSet{}, DirectionFilter::kRising),
       element("down", TypeSet{}, DirectionFilter::kFalling)});
  q.window = spec;
  return q;
}

enum class ShedKind { kNone, kHash, kEspice, kEspiceDeadRows };

StreamEngineConfig make_config(const WindowSpec& spec, std::size_t shards,
                               ShedKind shed) {
  StreamEngineConfig config;
  config.shards = shards;
  config.ring_capacity = 256;
  EngineQuery& q = config.queries.emplace_back();
  q.query = make_query(spec);
  q.predicted_ws = 24.0;
  if (shed == ShedKind::kHash) {
    q.shedder_factory = [](std::size_t) {
      return std::make_unique<HashShedder>(3);
    };
  } else if (shed == ShedKind::kEspice) {
    q.shedder_factory = [](std::size_t shard) {
      return make_armed_espice(0xe5e + shard);
    };
  } else if (shed == ShedKind::kEspiceDeadRows) {
    q.shedder_factory = [](std::size_t shard) {
      return make_armed_espice(0xe5e + shard, /*dead_rows=*/true);
    };
  }
  return config;
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

/// Full-report equivalence: matches (global and per query) plus every
/// deterministic counter.  Backpressure/depth gauges are wall-clock shaped
/// and deliberately excluded.
void expect_same_report(const EngineReport& batched,
                        const EngineReport& per_event) {
  EXPECT_EQ(batched.events, per_event.events);
  expect_same_matches(batched.matches, per_event.matches, "engine matches");
  ASSERT_EQ(batched.queries.size(), per_event.queries.size());
  for (std::size_t qi = 0; qi < batched.queries.size(); ++qi) {
    const QueryReport& a = batched.queries[qi];
    const QueryReport& b = per_event.queries[qi];
    const std::string label = "query " + b.name;
    EXPECT_EQ(a.name, b.name);
    expect_same_matches(a.matches, b.matches, label);
    EXPECT_EQ(a.memberships, b.memberships) << label;
    EXPECT_EQ(a.memberships_kept, b.memberships_kept) << label;
    EXPECT_EQ(a.shed_decisions, b.shed_decisions) << label;
    EXPECT_EQ(a.shed_drops, b.shed_drops) << label;
  }
  ASSERT_EQ(batched.shards.size(), per_event.shards.size());
  for (std::size_t s = 0; s < batched.shards.size(); ++s) {
    const ShardStats& a = batched.shards[s];
    const ShardStats& b = per_event.shards[s];
    EXPECT_EQ(a.events, b.events) << "shard " << s;
    EXPECT_EQ(a.memberships, b.memberships) << "shard " << s;
    EXPECT_EQ(a.memberships_kept, b.memberships_kept) << "shard " << s;
    EXPECT_EQ(a.windows_closed, b.windows_closed) << "shard " << s;
    EXPECT_EQ(a.matches, b.matches) << "shard " << s;
    EXPECT_EQ(a.shed_decisions, b.shed_decisions) << "shard " << s;
    EXPECT_EQ(a.shed_drops, b.shed_drops) << "shard " << s;
  }
}

EngineReport run_per_event(const StreamEngineConfig& config,
                           const std::vector<Event>& events) {
  StreamEngine engine(config);
  for (const Event& e : events) engine.push(e);
  return engine.finish();
}

EngineReport run_batched(const StreamEngineConfig& config,
                         const std::vector<Event>& events, std::size_t batch) {
  StreamEngine engine(config);
  const std::span<const Event> all(events);
  for (std::size_t i = 0; i < events.size(); i += batch) {
    engine.push_batch(all.subspan(i, std::min(batch, events.size() - i)));
  }
  return engine.finish();
}

using OracleParams =
    std::tuple<WindowSpan, WindowOpen, int /*ShedKind*/, std::size_t /*batch*/,
               std::uint64_t /*salt*/>;

class BatchIngestOracle : public ::testing::TestWithParam<OracleParams> {};

TEST_P(BatchIngestOracle, BatchedEqualsPerEventAndSerialGolden) {
  const auto [span_kind, open_kind, shed_int, batch, salt] = GetParam();
  const auto shed = static_cast<ShedKind>(shed_int);
  const std::uint64_t seed = test_support::test_seed(salt);
  SCOPED_TRACE(test_support::seed_trace(seed));

  const auto events = random_stream(seed, 1500);
  const WindowSpec spec = make_spec(span_kind, open_kind);
  const StreamEngineConfig config = make_config(spec, /*shards=*/1, shed);

  const auto per_event = run_per_event(config, events);
  const auto batched = run_batched(config, events, batch);
  expect_same_report(batched, per_event);

  // Anchor both against the scalar serial pipeline (run_pipeline golden):
  // agreement between the two engine modes must not be a shared bug.
  const auto golden = per_query_serial_goldens(config.shards, config.key_of,
                                               config.queries, events)[0];
  expect_same_matches(batched.matches, golden, "vs serial golden");
  if (shed == ShedKind::kNone) {
    EXPECT_GT(golden.size(), 0u) << "degenerate stream: no matches";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSpanAndOpenKinds, BatchIngestOracle,
    ::testing::Combine(
        ::testing::Values(WindowSpan::kTime, WindowSpan::kCount,
                          WindowSpan::kPredicate),
        ::testing::Values(WindowOpen::kPredicate, WindowOpen::kCountSlide),
        // keep everything / hash-shed / armed eSPICE (flat score_block) /
        // armed eSPICE with dead rows (drops_everywhere early-out)
        ::testing::Values(0, 1, 2, 3),
        ::testing::Values(std::size_t{7}, std::size_t{256}),
        ::testing::Values(17u)));

// Batch sizes 1 and 64 on the hardest single config (count/slide + eSPICE):
// batch 1 exercises the one-event-span staging edge.
TEST(BatchIngestOracle, SmallBatchSizes) {
  const std::uint64_t seed = test_support::test_seed(29);
  SCOPED_TRACE(test_support::seed_trace(seed));
  const auto events = random_stream(seed, 2000);
  const StreamEngineConfig config = make_config(
      make_spec(WindowSpan::kCount, WindowOpen::kCountSlide), 1,
      ShedKind::kEspice);
  const auto per_event = run_per_event(config, events);
  for (const std::size_t batch : {std::size_t{1}, std::size_t{64}}) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    expect_same_report(run_batched(config, events, batch), per_event);
  }
}

// Multi-shard batched routing: the staging buffers must preserve per-shard
// stream order and the bulk flush must not starve or reorder any shard.
TEST(BatchIngestOracle, MultiShardStagingKeepsPartitionOrder) {
  const std::uint64_t seed = test_support::test_seed(59);
  SCOPED_TRACE(test_support::seed_trace(seed));
  const auto events = random_stream(seed, 3000);
  const StreamEngineConfig config = make_config(
      make_spec(WindowSpan::kCount, WindowOpen::kCountSlide), 4,
      ShedKind::kHash);
  const auto per_event = run_per_event(config, events);
  const auto batched = run_batched(config, events, 128);
  expect_same_report(batched, per_event);
  expect_same_matches(batched.matches,
                      per_query_serial_goldens(config.shards, config.key_of,
                                               config.queries, events)[0],
                      "vs serial golden");
}

// Mixed-mode ingestion: scalar pushes and batches interleaved mid-stream
// (the documented contract: push() and push_batch() are interchangeable).
TEST(BatchIngestOracle, MixedPushAndBatchMidStream) {
  const std::uint64_t seed = test_support::test_seed(71);
  SCOPED_TRACE(test_support::seed_trace(seed));
  const auto events = random_stream(seed, 2500);
  const StreamEngineConfig config = make_config(
      make_spec(WindowSpan::kCount, WindowOpen::kCountSlide), 2,
      ShedKind::kHash);

  const auto per_event = run_per_event(config, events);

  StreamEngine engine(config);
  const std::span<const Event> all(events);
  std::size_t i = 0;
  Rng rng(seed ^ 0x313);
  while (i < events.size()) {
    if (rng.uniform_int(2) == 0) {
      engine.push(events[i]);
      ++i;
    } else {
      const std::size_t batch = std::min<std::size_t>(
          1 + rng.uniform_int(200), events.size() - i);
      engine.push_batch(all.subspan(i, batch));
      i += batch;
    }
  }
  expect_same_report(engine.finish(), per_event);
}

// N = 5 queries (mixed windowing -> shared groups, mixed shedders ->
// diverging masks): every query's batched output equals its per-event
// output AND its independent serial golden.  The second input gives q2 and
// q4 dead-row eSPICE shedders, so events both drop everywhere take the
// bulk run with the keep-all q0's bit in the {0, 2, 4} group.
TEST(BatchIngestOracle, FiveQueriesBatchedEqualsPerEventAndGoldens) {
  const std::uint64_t seed = test_support::test_seed(83);
  SCOPED_TRACE(test_support::seed_trace(seed));
  const auto events = random_stream(seed, 2500);

  for (const bool dead_rows : {false, true}) {
    SCOPED_TRACE(dead_rows ? "dead-row eSPICE on q2 and q4"
                           : "hash on q1 and q4, eSPICE on q2");
    auto make_queries = [&]() {
      std::vector<EngineQuery> queries;
      for (std::size_t i = 0; i < 5; ++i) {
        EngineQuery q;
        q.name = "q" + std::to_string(i);
        // Two window groups: {0, 2, 4} count/slide, {1, 3} predicate-open.
        q.query = make_query(make_spec(
            WindowSpan::kCount,
            i % 2 == 0 ? WindowOpen::kCountSlide : WindowOpen::kPredicate));
        q.predicted_ws = 24.0;
        if (dead_rows && (i == 2 || i == 4)) {
          const std::uint64_t model_seed = 0xdead + 16 * i;
          q.shedder_factory = [model_seed](std::size_t shard) {
            return make_armed_espice(model_seed + shard, /*dead_rows=*/true);
          };
        } else if (i == 1 || i == 4) {
          const unsigned mod = 2 + static_cast<unsigned>(i);
          q.shedder_factory = [mod](std::size_t) {
            return std::make_unique<HashShedder>(mod);
          };
        } else if (i == 2) {
          q.shedder_factory = [](std::size_t shard) {
            return make_armed_espice(0xbead + shard);
          };
        }
        queries.push_back(std::move(q));
      }
      return queries;
    };

    auto run = [&](std::size_t batch) {
      StreamEngineConfig config;
      config.shards = 2;
      config.ring_capacity = 256;
      StreamEngine engine(config);
      for (const EngineQuery& q : make_queries()) engine.add_query(q);
      if (batch == 0) {
        for (const Event& e : events) engine.push(e);
      } else {
        const std::span<const Event> all(events);
        for (std::size_t i = 0; i < events.size(); i += batch) {
          engine.push_batch(all.subspan(i, std::min(batch, events.size() - i)));
        }
      }
      return engine.finish();
    };

    const auto per_event = run(0);
    const auto batched = run(256);
    expect_same_report(batched, per_event);

    const auto queries = make_queries();
    const auto goldens =
        per_query_serial_goldens(2, /*key_of=*/nullptr, queries, events);
    ASSERT_EQ(batched.queries.size(), goldens.size());
    for (std::size_t qi = 0; qi < goldens.size(); ++qi) {
      expect_same_matches(batched.queries[qi].matches, goldens[qi],
                          "golden for " + queries[qi].name);
    }
  }
}

}  // namespace
}  // namespace espice
