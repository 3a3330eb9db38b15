// Virtual-time CEP operator simulation.
//
// Substitutes the paper's wall-clock testbed (single-thread Java operator)
// with a deterministic discrete-event simulation of the engine's own
// operator pipeline (DetPipeline, runtime/shard_pipeline.hpp):
//   * events arrive at a configurable rate R (arrival_ts = i / R),
//   * a serial operator dequeues FIFO and "spends" a calibrated processing
//     cost per event: base_cost + per_window_cost * (windows the event is
//     kept in).  Shedding therefore genuinely reduces load,
//   * an overload detector ticks at a fixed virtual period, inspects the
//     queue and steers the load shedder,
//   * per-event latency (completion - arrival) is recorded against the
//     latency bound.
//
// Two entry points:
//   * run_pipeline(): the reference pipeline (legacy window-scan Matcher,
//     no queueing/timing) -- the serial goldens the engine oracles compare
//     against, model training and the experiments' ground-truth pass,
//   * simulate(): one query through one DetPipeline, an event at a time,
//     under the virtual clock -- every overload experiment.
//
// Note on timestamps: an event's *source* timestamp (Event::ts) drives
// time-based windowing; its *arrival* time (i / R) drives queueing.  The two
// deliberately differ when the stored stream is replayed faster than
// real-time, exactly as in the paper's evaluation setup.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "cep/matcher.hpp"
#include "cep/window.hpp"
#include "core/overload_detector.hpp"
#include "core/shedder.hpp"
#include "runtime/stream_engine.hpp"

namespace espice {

/// Calibrated processing-cost model of the operator.
struct OperatorCostModel {
  /// Fixed cost per dequeued event (seconds).
  double base_cost = 2e-6;
  /// Cost per (event, window) pair the event is *kept* in (seconds); covers
  /// buffering and the event's share of pattern matching.
  double per_window_cost = 2e-5;

  double full_cost(std::size_t windows) const {
    return base_cost + per_window_cost * static_cast<double>(windows);
  }

  void validate() const {
    ESPICE_REQUIRE(base_cost >= 0.0 && per_window_cost > 0.0,
                   "costs must be positive");
  }
};

/// Called for every closed window with the matches detected in it.  The view
/// (and the store slots behind it) is only valid for the duration of the
/// call; materialize() it to retain the contents.
using WindowSink =
    std::function<void(const WindowView&, const std::vector<ComplexEvent>&)>;

/// Runs the windowing + matching pipeline with no queueing or timing.
/// `shedder` may be nullptr (golden run).  `predicted_ws` is the window size
/// (in events) given to the shedder for position scaling; pass 0 to use the
/// count-window span (exact) -- required for time-based windows.
void run_pipeline(std::span<const Event> events, const WindowSpec& spec,
                  const Matcher& matcher, Shedder* shedder,
                  double predicted_ws, const WindowSink& sink);

/// The simulated host: its cost model and its overload detector.
struct SimConfig {
  OperatorCostModel cost;
  OverloadDetectorConfig detector;
};

/// One latency sample: when the event finished and how long it took
/// end-to-end (queueing + processing).
struct LatencySample {
  double completion_ts = 0.0;
  double latency = 0.0;
};

struct SimResult {
  std::vector<ComplexEvent> matches;
  std::vector<LatencySample> latencies;
  std::uint64_t events = 0;
  std::uint64_t memberships = 0;       ///< (event, window) pairs offered
  std::uint64_t memberships_kept = 0;  ///< pairs kept after shedding
  std::uint64_t windows_closed = 0;
  std::uint64_t decisions = 0;         ///< shedder decisions made
  std::uint64_t drops = 0;             ///< (event, window) pairs dropped
  std::uint64_t lb_violations = 0;     ///< events with latency > LB
  double max_latency = 0.0;
  double duration = 0.0;               ///< virtual time until last completion
  bool shedding_ever_active = false;
};

/// A stretch of the input with a constant arrival rate; lets experiments
/// model bursts (e.g. steady 0.9x capacity with a 1.5x burst in the middle).
struct RatePhase {
  std::size_t events = 0;  ///< how many events arrive at this rate
  double rate = 0.0;       ///< events/second
};

/// Replays `events` through one DetPipeline running `query` (validated as
/// the engine validates it), with arrivals following `phases` (the last
/// phase extends to the end of the stream if the phase counts fall short).
/// The detector steers the shedder query.shedder_factory(0) builds; no
/// factory runs the query unshed.  Matches carry their virtual detection
/// time.
SimResult simulate(const SimConfig& config, const EngineQuery& query,
                   std::span<const Event> events,
                   const std::vector<RatePhase>& phases);

/// The same with every event arriving at `input_rate` events/second.
SimResult simulate(const SimConfig& config, const EngineQuery& query,
                   std::span<const Event> events, double input_rate);

}  // namespace espice
