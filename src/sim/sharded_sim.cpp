#include "sim/sharded_sim.hpp"

#include <chrono>
#include <thread>

namespace espice {

namespace {

/// Hash-partitions `events` with the engine's fixed partitioner.
std::vector<std::vector<Event>> partition_substreams(
    std::size_t shards,
    const std::function<std::uint64_t(const Event&)>& key_of,
    std::span<const Event> events) {
  std::vector<std::vector<Event>> substreams(shards);
  for (const Event& e : events) {
    const std::uint64_t key =
        key_of ? key_of(e) : static_cast<std::uint64_t>(e.type);
    substreams[StreamEngine::shard_index(key, shards)].push_back(e);
  }
  return substreams;
}

/// One query's canonical golden over pre-partitioned substreams.
std::vector<ComplexEvent> one_query_golden(
    const EngineQuery& q, const std::vector<std::vector<Event>>& substreams) {
  q.query.pattern.validate();
  q.query.window.validate();
  const Matcher matcher(q.query.pattern, q.query.selection, q.query.consumption,
                        q.query.max_matches_per_window);
  // Same fallback as the engine's deterministic shards.
  double predicted_ws = q.predicted_ws;
  if (predicted_ws <= 0.0) {
    predicted_ws = static_cast<double>(q.query.window.span_events);
  }
  std::vector<std::vector<ComplexEvent>> per_shard(substreams.size());
  for (std::size_t s = 0; s < substreams.size(); ++s) {
    std::unique_ptr<Shedder> shedder =
        q.shedder_factory ? q.shedder_factory(s) : nullptr;
    run_pipeline(substreams[s], q.query.window, matcher, shedder.get(),
                 predicted_ws,
                 [&](const WindowView&, const std::vector<ComplexEvent>& ms) {
                   per_shard[s].insert(per_shard[s].end(), ms.begin(),
                                       ms.end());
                 });
  }
  return StreamEngine::merge_matches(std::move(per_shard));
}

}  // namespace

std::vector<std::vector<ComplexEvent>> per_query_serial_goldens(
    std::size_t shards,
    const std::function<std::uint64_t(const Event&)>& key_of,
    std::span<const EngineQuery> queries, std::span<const Event> events) {
  ESPICE_REQUIRE(shards > 0, "need at least one shard");
  const auto substreams = partition_substreams(shards, key_of, events);
  std::vector<std::vector<ComplexEvent>> goldens;
  goldens.reserve(queries.size());
  for (const EngineQuery& q : queries) {
    goldens.push_back(one_query_golden(q, substreams));
  }
  return goldens;
}

ShardedSimulator::ShardedSimulator(ShardedSimConfig config)
    : config_(std::move(config)) {
  config_.engine.validate();
  ESPICE_REQUIRE(config_.replay_speed >= 0.0,
                 "replay speed must be non-negative");
  ESPICE_REQUIRE(config_.batch_size == 0 || config_.replay_speed == 0.0,
                 "batched replay is unpaced (throughput mode only)");
}

ShardedSimResult ShardedSimulator::run(std::span<const Event> events,
                                       double rate) {
  return run(events, std::vector<RatePhase>{{events.size(), rate}});
}

ShardedSimResult ShardedSimulator::run(std::span<const Event> events,
                                       const std::vector<RatePhase>& phases) {
  const std::vector<double> arrival_ts =
      arrival_schedule(events.size(), phases);

  ShardedSimResult result;
  StreamEngine engine(config_.engine);
  const auto t0 = std::chrono::steady_clock::now();
  if (config_.batch_size > 0) {
    // Batched throughput replay: hand the engine whole batches (validated
    // unpaced in the constructor -- pacing is inherently per event).
    for (std::size_t i = 0; i < events.size(); i += config_.batch_size) {
      engine.push_batch(events.subspan(
          i, std::min(config_.batch_size, events.size() - i)));
    }
  } else {
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (config_.replay_speed > 0.0) {
        // Pace the router: virtual arrival t maps to wall t / speed.  Spin
        // with yields -- sleep granularity is far coarser than event gaps.
        const double due = arrival_ts[i] / config_.replay_speed;
        while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             t0)
                   .count() < due) {
          std::this_thread::yield();
        }
      }
      engine.push(events[i]);
    }
  }
  result.report = engine.finish();
  if (!events.empty()) {
    result.offered_duration = arrival_ts.back();
    result.offered_rate = result.offered_duration > 0.0
                              ? static_cast<double>(events.size()) /
                                    result.offered_duration
                              : 0.0;
  }
  return result;
}

}  // namespace espice
