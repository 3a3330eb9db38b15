// End-to-end latency sampling in the sharded engine: the router stamps
// every Nth enqueue per shard, the shard records enqueue->block-released
// deltas into its ShardStats histogram, and finish() merges them into
// EngineReport::latency.  Off by default (latency_sample_every == 0), and
// NEVER allowed to perturb the output -- sampling is observability, not
// semantics, so matches must stay bit-identical with it on or off.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "runtime/stream_engine.hpp"

namespace espice {
namespace {

std::vector<Event> make_stream(std::size_t n) {
  Rng rng(0x1a7e);
  std::vector<Event> events;
  events.reserve(n);
  double ts = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    Event e;
    e.type = static_cast<EventTypeId>(rng.uniform_int(8));
    e.seq = i;
    ts += rng.uniform(0.0, 0.05);
    e.ts = ts;
    e.value = rng.uniform(-1.0, 1.0);
    events.push_back(e);
  }
  return events;
}

StreamEngineConfig base_config(std::size_t shards) {
  StreamEngineConfig config;
  config.shards = shards;
  config.ring_capacity = 256;
  ShardQuery& q = config.queries.emplace_back().query;
  q.pattern = make_sequence(
      {element("up", TypeSet{}, DirectionFilter::kRising),
       element("down", TypeSet{}, DirectionFilter::kFalling)});
  q.window.span_kind = WindowSpan::kCount;
  q.window.span_events = 16;
  q.window.open_kind = WindowOpen::kCountSlide;
  q.window.slide_events = 4;
  return config;
}

/// `rebalance`: host 4 logical partitions on the shards; `move`: migrate
/// partition 0 to the other shard halfway through the stream.
EngineReport run_with_sampling(std::size_t shards, std::size_t every,
                               const std::vector<Event>& events,
                               bool rebalance = false, bool move = false) {
  StreamEngineConfig config = base_config(shards);
  config.latency_sample_every = every;
  if (rebalance) {
    config.rebalance.emplace();
    config.rebalance->partitions = 4;
    config.rebalance->interval_events = 1u << 30;  // forced moves only
  }
  StreamEngine engine(std::move(config));
  if (!move) {
    engine.push_batch(events);
    return engine.finish();
  }
  const std::span<const Event> all(events);
  engine.push_batch(all.first(all.size() / 2));
  engine.move_partition(0, (engine.shard_of_partition(0) + 1) % shards);
  engine.push_batch(all.subspan(all.size() / 2));
  return engine.finish();
}

TEST(LatencySampling, DisabledByDefaultRecordsNothing) {
  const auto events = make_stream(4000);
  const EngineReport report = run_with_sampling(2, 0, events);
  EXPECT_EQ(report.latency.count(), 0u);
  for (const ShardStats& s : report.shards) {
    EXPECT_EQ(s.latency.count(), 0u);
  }
  EXPECT_GT(report.total_matches(), 0u);
}

TEST(LatencySampling, SamplesAndMergesAcrossShards) {
  const auto events = make_stream(4000);
  const EngineReport report = run_with_sampling(3, 16, events);
  EXPECT_GT(report.latency.count(), 0u);
  // Best-effort contract: at most one sample per `every` enqueues (marks
  // are dropped when the side ring is full, never added).
  EXPECT_LE(report.latency.count(), events.size() / 16 + 3);
  std::uint64_t per_shard_total = 0;
  for (const ShardStats& s : report.shards) {
    per_shard_total += s.latency.count();
  }
  EXPECT_EQ(report.latency.count(), per_shard_total);
  EXPECT_GE(report.latency.quantile(0.99), report.latency.quantile(0.5));
  EXPECT_LE(report.latency.quantile(0.999), report.latency.max());
}

// Inputs: fixed placement, and rebalancing where the sampled run also takes
// a forced mid-stream move (marks and migration markers share the ring).
TEST(LatencySampling, SamplingDoesNotPerturbOutput) {
  const auto events = make_stream(3000);
  for (const bool rebalance : {false, true}) {
    SCOPED_TRACE(rebalance ? "rebalance + forced move" : "fixed placement");
    const EngineReport off = run_with_sampling(2, 0, events, rebalance);
    const EngineReport on =
        run_with_sampling(2, 8, events, rebalance, /*move=*/rebalance);
    ASSERT_EQ(off.matches.size(), on.matches.size());
    for (std::size_t i = 0; i < off.matches.size(); ++i) {
      ASSERT_EQ(off.matches[i].constituents.size(),
                on.matches[i].constituents.size());
      for (std::size_t c = 0; c < off.matches[i].constituents.size(); ++c) {
        EXPECT_EQ(off.matches[i].constituents[c].event.seq,
                  on.matches[i].constituents[c].event.seq);
      }
    }
    EXPECT_EQ(off.events, on.events);
    if (rebalance) {
      EXPECT_EQ(on.rebalance_moves, 1u);
      EXPECT_GT(on.latency.count(), 0u);
    }
  }
}

// Scalar push() path (no batching) samples too.
TEST(LatencySampling, ScalarPushPathSamples) {
  const auto events = make_stream(2000);
  StreamEngineConfig config = base_config(2);
  config.latency_sample_every = 32;
  StreamEngine engine(std::move(config));
  for (const Event& e : events) engine.push(e);
  const EngineReport report = engine.finish();
  EXPECT_GT(report.latency.count(), 0u);
}

}  // namespace
}  // namespace espice
