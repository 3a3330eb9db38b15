// Sharded replay harness: drives a StreamEngine with the same rate-phase
// schedules the fig-style benches feed OperatorSimulator, so overload
// scenarios can be rerun against the K-shard engine.
//
// Unlike OperatorSimulator (virtual time, serial), the engine runs on real
// threads, so the replay is wall-clock based:
//  * replay_speed == 0 (default): events are pushed as fast as the router
//    can route them -- the throughput-measurement mode the sharded benches
//    use.  The phase schedule still defines arrival timestamps, which are
//    exposed in the result (offered rate / span) for reporting.
//  * replay_speed > 0: the router paces pushes so that virtual arrival time
//    t is reached at wall time t / replay_speed (e.g. 100 = replay a
//    1000 s schedule in 10 s).  With an adaptive engine this recreates the
//    paper's overload scenarios against real per-shard queues: arrival
//    bursts genuinely back the rings up, and each shard's overload detector
//    sees the resulting depth.
#pragma once

#include <span>
#include <vector>

#include "runtime/stream_engine.hpp"
#include "sim/operator_sim.hpp"

namespace espice {

struct ShardedSimConfig {
  StreamEngineConfig engine;
  /// 0 = unpaced (push at full speed); > 0 = virtual-to-wall speed factor.
  double replay_speed = 0.0;
  /// >= 1: replay through StreamEngine::push_batch() in batches of this
  /// many events (unpaced mode only; output is bit-identical to per-event
  /// replay).  0 = push() per event (a batch of one), paced or not.
  std::size_t batch_size = 0;
};

struct ShardedSimResult {
  EngineReport report;
  /// Virtual span of the arrival schedule (last arrival timestamp).
  double offered_duration = 0.0;
  /// Mean offered rate over the schedule (events / offered_duration).
  double offered_rate = 0.0;
};

/// The serial goldens a deterministic engine must reproduce bit for bit:
/// for EACH query independently -- as if it ran alone -- hash-partition the
/// stream into `shards` substreams with the engine's own partitioner
/// (`key_of` nullptr = event type), run the serial single-query
/// run_pipeline() over every substream with that query's own shedder, and
/// canonically merge the per-shard match lists.  Element qi of the result
/// must equal EngineReport::queries[qi].matches bit for bit (the
/// shared-window equivalence guarantee;
/// tests/runtime/multi_query_oracle_test.cpp holds the engine to it).  For
/// an engine built from `config`, that is
/// per_query_serial_goldens(config.shards, config.key_of, config.queries,
/// events) -- one definition the oracle tests, the benches and the
/// examples all assert parity against.
std::vector<std::vector<ComplexEvent>> per_query_serial_goldens(
    std::size_t shards,
    const std::function<std::uint64_t(const Event&)>& key_of,
    std::span<const EngineQuery> queries, std::span<const Event> events);

class ShardedSimulator {
 public:
  explicit ShardedSimulator(ShardedSimConfig config);

  /// Replays `events` through a fresh StreamEngine (one engine per run).
  ShardedSimResult run(std::span<const Event> events,
                       const std::vector<RatePhase>& phases);
  ShardedSimResult run(std::span<const Event> events, double rate);

 private:
  ShardedSimConfig config_;
};

}  // namespace espice
