// Single-threaded layer replay: the per-layer ledger of bench_suite.
//
// The replay runs one workload's job on the calling thread through the
// layers' public APIs, in the order a deterministic shard runs them
// (StreamEngine router -> SpscRing -> ReorderBuffer -> WindowManager ->
// Shedder::score_block -> IncrementalMatcher -> StreamEngine::merge_matches),
// once per shard substream.  Traced, it stamps every layer boundary and
// charges the time since the previous stamp to the layer that just ran, so
// each layer's self time is measured where the work happens; untraced, the
// stamps compile out and the replay is the single-thread baseline of the
// same job.  Either way its output must equal the serial golden bit for bit.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cep/event_time.hpp"
#include "runtime/stream_engine.hpp"

namespace bench_suite {

enum Layer : std::size_t {
  kRoute,            ///< key partitioning into shard substreams
  kWal,              ///< EventLogWriter::append_batch
  kRing,             ///< SpscRing bulk push, front_block, release
  kReorder,          ///< ReorderBuffer accept / flush
  kWindow,           ///< WindowManager offer/keep/drain, masks, filtering
  kShedder,          ///< Shedder::score_block
  kMatcherAdvance,   ///< IncrementalMatcher feed (on_event_kept)
  kMatcherFinalize,  ///< IncrementalMatcher::finalize
  kMerge,            ///< StreamEngine::merge_matches
  kLayerCount,
};

const char* layer_name(Layer layer);

struct ReplayInput {
  std::span<const espice::EngineQuery> queries;
  std::size_t shards = 1;
  std::size_t ring_capacity = 4096;
  /// nullptr = event time off.
  const espice::EventTimeConfig* event_time = nullptr;
  /// Write-ahead-log directory; empty = no WAL.  Must not exist yet.
  std::string wal_dir;
  /// Arrival-order stream (what the engine passes push).
  std::span<const espice::Event> arrival;
};

struct ReplayResult {
  /// Per query, the canonically merged matches.
  std::vector<std::vector<espice::ComplexEvent>> matches;
  /// Wall time of the whole replay (steady clock, independent of stamps).
  double total_seconds = 0.0;
  /// Traced replays: each layer's self time.
  std::array<double, kLayerCount> self_seconds{};

  std::uint64_t events = 0;
  std::uint64_t memberships = 0;
  /// (event, window) pairs a shedder scored.
  std::uint64_t scored = 0;
  /// Events the window layer fed to the incremental matchers.
  std::uint64_t kept_fed = 0;
  /// Closed windows finalized, counted once per member query.
  std::uint64_t finalized = 0;
  std::uint64_t late_events = 0;
};

ReplayResult replay(const ReplayInput& in, bool traced);

}  // namespace bench_suite
