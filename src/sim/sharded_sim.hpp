// The engine's serial goldens: what a deterministic StreamEngine must
// reproduce bit for bit, computed with the reference pipeline
// (run_pipeline, sim/operator_sim.hpp) over the engine's own partitioning.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "runtime/stream_engine.hpp"
#include "sim/operator_sim.hpp"

namespace espice {

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

}  // namespace espice
