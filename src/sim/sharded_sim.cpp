#include "sim/sharded_sim.hpp"

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

}  // namespace espice
