// Multi-producer ingestion oracle: push_batch_concurrent() from P real
// producer threads against the single-producer engine and the serial
// golden, across P x K x shedding x batch sizes.
//
// The contract under test is bit-identity: per-producer staging, the P x K
// lane fabric and the per-shard seq-merge must reproduce the exact output
// of the single-producer engine -- same matches with the same constituents,
// same per-query counters, same per-shard deterministic stats -- for every
// producer count, shard count, batch size and interleaving the scheduler
// throws at it.  The per-shard merge orders lane heads by seq, so whatever
// order producers actually push in, each shard consumes its substream in
// the one canonical order.
//
// A WAL case closes the loop with durability: a multi-producer run appends
// batches in sequencer order (arbitrarily interleaved across producers),
// and recovery must still reproduce the golden by sorting the tail by seq.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "runtime/stream_engine.hpp"
#include "sim/sharded_sim.hpp"
#include "support/temp_dir.hpp"
#include "support/test_seed.hpp"

namespace espice {
namespace {

constexpr EventTypeId kNumTypes = 6;

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

StreamEngineConfig make_config(std::size_t shards, bool shed) {
  StreamEngineConfig config;
  config.shards = shards;
  config.ring_capacity = 256;
  ShardQuery q;
  q.pattern = make_sequence(
      {element("up", TypeSet{}, DirectionFilter::kRising),
       element("down", TypeSet{}, DirectionFilter::kFalling)});
  q.window.span_kind = WindowSpan::kCount;
  q.window.span_events = 24;
  q.window.open_kind = WindowOpen::kCountSlide;
  q.window.slide_events = 5;
  EngineQuery& eq = config.queries.emplace_back();
  eq.query = q;
  eq.predicted_ws = 24.0;
  if (shed) {
    eq.shedder_factory = [](std::size_t) {
      return std::make_unique<HashShedder>(3);
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

/// Full deterministic-field equivalence between a multi-producer report and
/// a single-producer one (gauges like queue depth and stall seconds are
/// wall-clock shaped and excluded).
void expect_same_report(const EngineReport& mp, const EngineReport& sp) {
  EXPECT_EQ(mp.events, sp.events);
  expect_same_matches(mp.matches, sp.matches, "engine matches");
  ASSERT_EQ(mp.queries.size(), sp.queries.size());
  for (std::size_t qi = 0; qi < mp.queries.size(); ++qi) {
    const QueryReport& a = mp.queries[qi];
    const QueryReport& b = sp.queries[qi];
    const std::string label = "query " + b.name;
    expect_same_matches(a.matches, b.matches, label);
    EXPECT_EQ(a.memberships, b.memberships) << label;
    EXPECT_EQ(a.memberships_kept, b.memberships_kept) << label;
    EXPECT_EQ(a.shed_decisions, b.shed_decisions) << label;
    EXPECT_EQ(a.shed_drops, b.shed_drops) << label;
  }
  ASSERT_EQ(mp.shards.size(), sp.shards.size());
  for (std::size_t s = 0; s < mp.shards.size(); ++s) {
    const ShardStats& a = mp.shards[s];
    const ShardStats& b = sp.shards[s];
    EXPECT_EQ(a.events, b.events) << "shard " << s;
    EXPECT_EQ(a.memberships, b.memberships) << "shard " << s;
    EXPECT_EQ(a.memberships_kept, b.memberships_kept) << "shard " << s;
    EXPECT_EQ(a.windows_closed, b.windows_closed) << "shard " << s;
    EXPECT_EQ(a.matches, b.matches) << "shard " << s;
    EXPECT_EQ(a.shed_decisions, b.shed_decisions) << "shard " << s;
    EXPECT_EQ(a.shed_drops, b.shed_drops) << "shard " << s;
  }
}

/// Replays `events` from `producers` real threads: producer p takes every
/// P-th batch (round-robin), so each producer's seqs are strictly
/// increasing while the global interleaving is up to the scheduler.
EngineReport run_multi_producer(StreamEngineConfig config,
                                const std::vector<Event>& events,
                                std::size_t producers, std::size_t batch) {
  config.producers = producers;
  StreamEngine engine(config);
  engine.start();  // multi-producer engines start explicitly
  const std::span<const Event> all(events);
  std::vector<std::thread> threads;
  threads.reserve(producers);
  for (std::size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      for (std::size_t b = p; b * batch < events.size(); b += producers) {
        const std::size_t off = b * batch;
        engine.push_batch_concurrent(
            p, all.subspan(off, std::min(batch, events.size() - off)));
      }
      engine.producer_done(p);
    });
  }
  for (auto& t : threads) t.join();
  return engine.finish();
}

EngineReport run_single_producer(const StreamEngineConfig& config,
                                 const std::vector<Event>& events) {
  StreamEngine engine(config);
  engine.push_batch(events);
  return engine.finish();
}

using MpParams = std::tuple<std::size_t /*producers*/, std::size_t /*shards*/,
                            bool /*shed*/, std::size_t /*batch*/>;

class MpIngestOracle : public ::testing::TestWithParam<MpParams> {};

TEST_P(MpIngestOracle, MultiProducerEqualsSingleProducerAndGolden) {
  const auto [producers, shards, shed, batch] = GetParam();
  const std::uint64_t seed = test_support::test_seed(
      0xa11 + producers * 131 + shards * 17 + (shed ? 7 : 0) + batch);
  SCOPED_TRACE(test_support::seed_trace(seed));

  const auto events = random_stream(seed, 3000);
  const StreamEngineConfig config = make_config(shards, shed);

  const auto sp = run_single_producer(config, events);
  const auto mp = run_multi_producer(config, events, producers, batch);
  expect_same_report(mp, sp);
  expect_same_matches(mp.matches,
                      per_query_serial_goldens(config.shards, config.key_of,
                                               config.queries, events)[0],
                      "vs serial golden");
}

INSTANTIATE_TEST_SUITE_P(
    ProducersByShards, MpIngestOracle,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{4}),
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{4}),
                       ::testing::Values(false, true),
                       ::testing::Values(std::size_t{64}, std::size_t{257})));

// Producers that stop at different times (staggered producer_done) must
// not wedge the merge: remaining producers' floors keep every shard live.
TEST(MpIngestOracle, StaggeredProducerCompletion) {
  const std::uint64_t seed = test_support::test_seed(0xbeb);
  SCOPED_TRACE(test_support::seed_trace(seed));
  const auto events = random_stream(seed, 2000);
  StreamEngineConfig config = make_config(2, /*shed=*/true);
  const auto sp = run_single_producer(config, events);

  config.producers = 3;
  StreamEngine engine(config);
  engine.start();
  const std::span<const Event> all(events);
  // Producer 0 pushes the first 10%, then leaves; 1 and 2 split the rest.
  std::thread t0([&] {
    engine.push_batch_concurrent(0, all.subspan(0, 200));
    engine.producer_done(0);
  });
  auto tail_worker = [&](std::size_t p) {
    for (std::size_t b = p - 1; 200 + b * 100 < events.size(); b += 2) {
      const std::size_t off = 200 + b * 100;
      engine.push_batch_concurrent(
          p, all.subspan(off, std::min<std::size_t>(100, events.size() - off)));
    }
    engine.producer_done(p);
  };
  std::thread t1(tail_worker, 1);
  std::thread t2(tail_worker, 2);
  t0.join();
  t1.join();
  t2.join();
  expect_same_report(engine.finish(), sp);
}

// An idle producer that never pushes at all: producer_done() alone must
// release its lanes so the merge can complete.
TEST(MpIngestOracle, IdleProducerOnlyCallsDone) {
  const std::uint64_t seed = test_support::test_seed(0xcec);
  SCOPED_TRACE(test_support::seed_trace(seed));
  const auto events = random_stream(seed, 1000);
  StreamEngineConfig config = make_config(2, /*shed=*/false);
  const auto sp = run_single_producer(config, events);

  config.producers = 2;
  StreamEngine engine(config);
  engine.start();
  engine.producer_done(1);  // producer 1 contributes nothing
  engine.push_batch_concurrent(0, events);
  engine.producer_done(0);
  expect_same_report(engine.finish(), sp);
}

// Multi-producer + WAL: the log is appended in sequencer order (producer
// interleaving is nondeterministic), and recovery sorts the tail by seq
// before replaying -- the recovered run must reproduce the golden exactly.
TEST(MpIngestOracle, WalRecoveryReplaysSortedTail) {
  const std::uint64_t seed = test_support::test_seed(0xded);
  SCOPED_TRACE(test_support::seed_trace(seed));
  const auto events = random_stream(seed, 1500);
  test_support::TempDir dir("mpwal");

  StreamEngineConfig config = make_config(2, /*shed=*/true);
  const auto sp = run_single_producer(config, events);

  config.producers = 2;
  config.durability.emplace();
  config.durability->dir = dir.path().string();
  {
    StreamEngine engine(config);
    engine.start();
    const std::span<const Event> all(events);
    std::thread t0([&] {
      for (std::size_t b = 0; b * 128 < events.size(); b += 2) {
        const std::size_t off = b * 128;
        engine.push_batch_concurrent(
            0, all.subspan(off, std::min<std::size_t>(128, events.size() - off)));
      }
      engine.producer_done(0);
    });
    std::thread t1([&] {
      for (std::size_t b = 1; b * 128 < events.size(); b += 2) {
        const std::size_t off = b * 128;
        engine.push_batch_concurrent(
            1, all.subspan(off, std::min<std::size_t>(128, events.size() - off)));
      }
      engine.producer_done(1);
    });
    t0.join();
    t1.join();
    expect_same_report(engine.finish(), sp);
  }

  // Fresh engine, same directory: recovery replays the whole log (there are
  // no snapshots in multi-producer mode) and must land on the same output.
  StreamEngine recovered(config);
  const RecoveryReport rec = recovered.recover_and_start();
  EXPECT_EQ(rec.durable_events, events.size());
  for (std::size_t p = 0; p < 2; ++p) recovered.producer_done(p);
  expect_same_report(recovered.finish(), sp);
}

// Mode-exclusion guards: the single-producer entry points refuse on a
// multi-producer engine, and checkpoint() refuses outright.
TEST(MpIngestOracle, ModeGuards) {
  StreamEngineConfig config = make_config(2, /*shed=*/false);
  config.producers = 2;
  StreamEngine engine(config);
  EXPECT_THROW(engine.push(Event{}), ConfigError);
  EXPECT_THROW(engine.push_batch_concurrent(0, {}),
               ConfigError);  // before start()
  engine.start();
  EXPECT_THROW(engine.push_batch_concurrent(5, {}),
               ConfigError);  // bad producer
  for (std::size_t p = 0; p < 2; ++p) engine.producer_done(p);
  engine.finish();
}

}  // namespace
}  // namespace espice
