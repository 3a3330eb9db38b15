// AdaptiveController: the control loop of the eSPICE operator (paper
// Sections 3.3-3.6) for one pipeline of queries that share their windows.
//
// The data path -- window routing, shedding, matching -- is DetPipeline's
// (runtime/shard_pipeline.hpp).  The controller steers it through two
// seams and owns everything adaptive:
//
//   * Shedders.  make_shedders() hands the pipeline one Shedder adapter
//     per query.  Before the model is armed an adapter keeps everything and
//     counts no decision.  Once armed it feeds every membership's position
//     (and the drift detector) pre-drop, then delegates to the query's
//     EspiceShedder, scoring with the controller's N.  Time windows learn N
//     in the sizing phase, so the pipeline's own window-size guess is
//     ignored.  drops_everywhere() stays false: the model statistics need
//     every membership's position.
//   * Window observer.  on_window() receives each closed window per query
//     (the query's view and its matches).  It drives the lifecycle:
//       kSizing   the first windows only measure the average window size N
//                 (skipped for count windows, where N is the span);
//       kTraining statistics accumulate until `training_windows` windows
//                 were observed, then every query's model is built and
//                 shedding is armed;
//       kShedding drop decisions follow the overload detector's commands;
//                 the models keep learning from detected matches and are
//                 rebuilt every `rebuild_every_windows` windows.
//
// Hosts feed the detector (observe_cost, observe_arrival, on_tick) and call
// retrain_if_drifted() after each pipeline call.  One OverloadDetector
// watches the shared input queue.  With one query its command goes straight
// to the shedder and, with `drift_retraining`, a DriftDetector watches the
// input composition and triggers decay + rebuild on drift.  With several
// queries a ShedCoordinator splits each command's drop budget where it
// loses the least utility (core/shed_coordinator.hpp).
//
// EspiceOperator, MultiQueryOperator and the StreamEngine's adaptive mode
// all run this one controller over one DetPipeline.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "cep/incremental_matcher.hpp"
#include "cep/pattern.hpp"
#include "cep/window.hpp"
#include "core/drift_detector.hpp"
#include "core/espice_shedder.hpp"
#include "core/model_builder.hpp"
#include "core/overload_detector.hpp"
#include "core/shed_coordinator.hpp"

namespace espice {

/// One adaptive eSPICE operator: its query and the controller settings.
struct EspiceOperatorConfig {
  // --- query ---------------------------------------------------------------
  Pattern pattern;
  WindowSpec window;
  SelectionPolicy selection = SelectionPolicy::kFirst;
  ConsumptionPolicy consumption = ConsumptionPolicy::kConsumed;
  std::size_t max_matches_per_window = 1;

  // --- model ---------------------------------------------------------------
  std::size_t num_types = 0;       ///< M: event-type universe size
  std::size_t bin_size = 1;        ///< bs
  std::size_t n_positions = 0;     ///< N; 0 = derive (sizing phase / span)
  std::size_t sizing_windows = 100;   ///< windows used to estimate N
  std::size_t training_windows = 500; ///< windows before the model is built

  // --- control plane ---------------------------------------------------------
  OverloadDetectorConfig detector;  ///< window_size_events is filled in
  bool exact_amount = false;        ///< see EspiceShedder

  // --- retraining ------------------------------------------------------------
  bool drift_retraining = true;
  DriftDetectorConfig drift;
  /// Decay applied to the accumulated statistics when drift triggers a
  /// rebuild (old evidence fades, recent evidence dominates).
  double retrain_decay = 0.1;
  /// Fraction of would-be-dropped events kept for relearning (see
  /// EspiceShedder::set_exploration).  Without exploration, a drifted cell
  /// that the stale model sheds can never regain match evidence.
  double exploration = 0.05;
  /// Rebuild the shedder's model from the accumulated statistics every this
  /// many closed windows while shedding (0 = only on drift triggers).
  std::size_t rebuild_every_windows = 2000;

  void validate() const {
    ESPICE_REQUIRE(num_types > 0, "num_types must be set");
    ESPICE_REQUIRE(training_windows > 0, "training_windows must be positive");
    ESPICE_REQUIRE(retrain_decay > 0.0 && retrain_decay <= 1.0,
                   "retrain_decay must be in (0, 1]");
    window.validate();
  }
};

class AdaptiveController {
 public:
  enum class Phase { kSizing, kTraining, kShedding };

  /// Controls `queries` queries sharing `config.window`; the query fields
  /// of `config` are the host's business.  `query_weights` (empty = all
  /// equal) are the coordinator's per-query value weights.
  explicit AdaptiveController(EspiceOperatorConfig config,
                              std::size_t queries = 1,
                              std::vector<double> query_weights = {});

  // The adapters point back at the controller.
  AdaptiveController(const AdaptiveController&) = delete;
  AdaptiveController& operator=(const AdaptiveController&) = delete;

  /// One Shedder per query, for the pipeline this controller drives (which
  /// adopts them; they must not outlive the controller).
  std::vector<std::unique_ptr<Shedder>> make_shedders();

  /// Window observer: query `query`'s view of one closed window and the
  /// matches detected in it.  The pipeline calls it for every query of a
  /// window, in query order.
  void on_window(std::size_t query, const WindowView& view,
                 std::span<const ComplexEvent> matches);

  /// Runs the retrain a scored membership flagged as drift, if any.  Hosts
  /// call it after each pipeline call.
  void retrain_if_drifted();

  /// Host signal: measured processing cost of one event (seconds).
  void observe_cost(double seconds) {
    detector_.observe_processing_cost(seconds);
  }
  /// Host signal: one event arrived at `ts` (host clock, seconds).
  void observe_arrival(double ts) { detector_.observe_arrival(ts); }
  /// Host signal: the input queue holds `queue_size` events.  Call every
  /// detector tick period; commands the shedders once armed.
  void on_tick(std::size_t queue_size);

  Phase phase() const { return phase_; }
  bool shedding_active() const;
  /// Query q's model; nullptr until training completes.
  const UtilityModel* model(std::size_t q) const;
  std::size_t retrains() const { return retrains_; }
  std::size_t windows_observed() const;
  /// Per-query split of the most recent active command's drop budget, in
  /// expected events per window; empty with one query or before shedding
  /// first activates.
  const std::vector<double>& last_split() const { return last_split_; }
  const ShedCoordinator& coordinator() const { return coordinator_; }

  /// Snapshot / restore: phase machinery, per-query statistics and
  /// shedders, detector estimates.  The drift detector's state is not
  /// carried, so a controller with one is not serializable.  The restoring
  /// controller must be constructed with the same arguments.
  void serialize(durability::SnapshotWriter& w) const;
  void restore(durability::SnapshotReader& r);

 private:
  class Adapter;

  struct QueryState {
    std::optional<ModelBuilder> builder;
    std::unique_ptr<EspiceShedder> shedder;
  };

  void score(std::size_t q, const Event& e, const std::uint32_t* positions,
             std::size_t n, std::uint64_t* keep_bits);
  void begin_training(std::size_t n_positions);
  void reset_detector();
  void build_and_arm();
  void refresh_models();
  void bind_coordinator();

  EspiceOperatorConfig config_;
  std::vector<double> weights_;
  bool drift_on_;
  OverloadDetector detector_;
  ShedCoordinator coordinator_;
  std::vector<QueryState> queries_;
  std::optional<DriftDetector> drift_;

  Phase phase_ = Phase::kSizing;
  std::size_t sizing_count_ = 0;
  double sizing_size_sum_ = 0.0;
  double predicted_ws_ = 0.0;  ///< N once known
  std::size_t windows_since_rebuild_ = 0;
  std::vector<double> last_split_;
  std::size_t retrains_ = 0;
  bool drift_pending_ = false;
};

}  // namespace espice
