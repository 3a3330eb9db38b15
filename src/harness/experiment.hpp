// End-to-end experiment runner: reproduces the paper's evaluation protocol
// (Section 4.2).
//
// Protocol per experiment:
//  1. training phase: the stream prefix is replayed at a sustainable rate
//     (offline here) to build the utility model from detected complex events,
//  2. golden pass: the measurement segment is matched without shedding by
//     the reference pipeline (run_pipeline) to obtain ground-truth complex
//     events,
//  3. overload pass: the measurement segment is pushed through the engine's
//     operator pipeline under the virtual clock (simulate(), one
//     DetPipeline) at R = rate_factor * th (th = the cost model's
//     sustainable throughput) with the chosen shedder active,
//  4. quality: false negatives / positives of (3) against (2); latency is
//     checked against the bound.
//
// The host is fixed: the default OperatorCostModel, the detector's default
// tick, LB = kLatencyBound.  tests/harness/experiment_golden_test.cpp pins
// the protocol's output bit for bit.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/utility_model.hpp"
#include "harness/queries.hpp"
#include "metrics/latency.hpp"
#include "metrics/quality.hpp"
#include "sim/operator_sim.hpp"

namespace espice {

enum class ShedderKind { kNone, kEspice, kBaseline, kRandom };

/// The latency bound LB every experiment runs under (the paper's default).
inline constexpr double kLatencyBound = 1.0;

const char* shedder_kind_name(ShedderKind kind);

struct ExperimentConfig {
  QueryDef query;
  std::size_t num_types = 0;      ///< M: event-type universe size
  std::size_t train_events = 0;   ///< stream prefix used for model building
  std::size_t measure_events = 0; ///< segment used for golden + overload pass
  double rate_factor = 1.2;       ///< R = rate_factor * th (paper: 1.2 / 1.4)
  double f = 0.8;                 ///< watermark factor (paper default)
  std::size_t bin_size = 1;       ///< bs
  ShedderKind shedder = ShedderKind::kEspice;
  /// eSPICE boundary handling: false (default) = the paper's literal "drop
  /// everything <= uth" (at least x); true = expected drops of exactly x.
  /// The literal rule wins on quality when the model is accurate -- see
  /// bench_ablation_exact_amount.
  bool exact_amount = false;
  /// Override for the predicted window size during shedding; 0 = N.
  double predicted_ws_override = 0.0;
};

struct ExperimentResult {
  QualityReport quality;
  LatencySummary latency;
  std::size_t n_positions = 0;    ///< N used by the model
  double throughput = 0.0;        ///< measured th (events/s)
  double input_rate = 0.0;        ///< R used in the overload pass
  std::uint64_t decisions = 0;    ///< shedder decisions made
  std::uint64_t drops = 0;        ///< (event, window) pairs dropped
  std::uint64_t windows = 0;      ///< windows closed in the overload pass
  bool shedding_active = false;   ///< did the detector ever trigger
  double avg_windows_per_event = 0.0;

  double drop_percent() const {
    return decisions == 0 ? 0.0
                          : 100.0 * static_cast<double>(drops) /
                                static_cast<double>(decisions);
  }
};

/// Builds a utility model for `query` from the first `train_events` of
/// `events` (step 1 of the protocol); exposed separately for tests,
/// examples and benches that need the model itself.
struct TrainedModel {
  std::shared_ptr<const UtilityModel> model;
  double avg_window_size = 0.0;       ///< average offered window size (events)
  double avg_windows_per_event = 0.0; ///< mean window overlap degree
  std::size_t windows = 0;
  std::size_t matches = 0;
};
TrainedModel train_model(const QueryDef& query, std::size_t num_types,
                         std::span<const Event> train_events,
                         std::size_t bin_size,
                         std::size_t n_positions_override = 0);

/// Runs the full protocol on `events` (must hold at least train_events +
/// measure_events entries).  Pass `pretrained` to skip step 1 when sweeping
/// rate or shedder kind with an unchanged query/bin configuration -- the
/// caller is responsible for the pretrained model matching the config.
ExperimentResult run_experiment(const ExperimentConfig& config,
                                std::span<const Event> events,
                                const TrainedModel* pretrained = nullptr);

}  // namespace espice
