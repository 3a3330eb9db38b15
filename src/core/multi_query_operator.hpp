// MultiQueryOperator: N queries over one shared window engine.
//
// Real CEP middleware rarely runs one pattern per operator: many concurrent
// workloads watch the same stream.  Running N independent EspiceOperators
// costs N times the ingestion, windowing and buffering work; this operator
// shares all of it.  One WindowManager/EventStore routes and buffers every
// event once, each registered query owns only what is genuinely per-query:
//
//   * a Matcher (pattern + selection/consumption policies),
//   * a ModelBuilder and the UtilityModel trained from *its* matches,
//   * an EspiceShedder making its own keep/drop decision per membership.
//
// Shedding is per query via keep masks (cep/window.hpp): query q's decision
// sets bit q of the membership's QueryMask; the event is physically dropped
// only when every query sheds it.  Thus query A shedding its low-utility
// events can never starve query B, which sees its own filtered view of
// every window (filter_view_for_query) -- bit-identical to the window B
// would have formed running alone.
//
// The control plane is shared: ONE OverloadDetector watches the host's
// input queue (the queue is shared, so the surplus to cancel is global) and
// its per-tick drop amount x is split across queries by the ShedCoordinator
// so drops land on the globally lowest-utility mass (see
// core/shed_coordinator.hpp).
//
// The operator is a thin host: one DetPipeline (runtime/shard_pipeline.hpp)
// whose queries share one window group, driven by one AdaptiveController
// (core/adaptive_controller.hpp) that owns the lifecycle (sizing ->
// training -> shedding, shared by all queries because they share the
// windows), the per-query models and shedders, the detector and the
// coordinator.  Drift retraining is not wired here: models refresh
// periodically via `rebuild_every_windows` instead (per-query drift
// detection over shared windows is future work).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "cep/pattern.hpp"
#include "cep/window.hpp"
#include "core/adaptive_controller.hpp"
#include "runtime/shard_pipeline.hpp"

namespace espice {

/// One registered query: pattern + policies (windowing is shared).
struct MultiQuerySpec {
  std::string name;
  Pattern pattern;
  SelectionPolicy selection = SelectionPolicy::kFirst;
  ConsumptionPolicy consumption = ConsumptionPolicy::kConsumed;
  std::size_t max_matches_per_window = 1;
};

struct MultiQueryOperatorConfig {
  WindowSpec window;                   ///< shared by every query
  std::vector<MultiQuerySpec> queries;

  // --- model (shared sizing; per-query tables) -----------------------------
  std::size_t num_types = 0;           ///< M: event-type universe size
  std::size_t bin_size = 1;            ///< bs
  std::size_t n_positions = 0;         ///< N; 0 = derive (sizing / span)
  std::size_t sizing_windows = 100;
  std::size_t training_windows = 500;

  // --- control plane -------------------------------------------------------
  OverloadDetectorConfig detector;     ///< window_size_events is filled in
  bool exact_amount = false;
  double exploration = 0.05;
  /// Refresh every query's model from its accumulated statistics every this
  /// many closed windows while shedding (0 = never).
  std::size_t rebuild_every_windows = 2000;
  /// Per-query value weights for the coordinator (empty = all equal).
  std::vector<double> query_weights;

  void validate() const {
    ESPICE_REQUIRE(!queries.empty(), "need at least one query");
    ESPICE_REQUIRE(queries.size() <= kMaxQueriesPerWindowManager,
                   "too many queries for one shared window manager");
    ESPICE_REQUIRE(num_types > 0, "num_types must be set");
    ESPICE_REQUIRE(training_windows > 0, "training_windows must be positive");
    ESPICE_REQUIRE(
        query_weights.empty() || query_weights.size() == queries.size(),
        "one weight per query (or none)");
    window.validate();
    for (const auto& q : queries) q.pattern.validate();
  }
};

/// Lifetime counters of one multi-query run.
struct MultiQueryStats {
  std::uint64_t events = 0;
  std::uint64_t memberships = 0;        ///< (event, window) pairs offered
  /// Pairs physically kept (some query wanted the event).  Memory gauge:
  /// memberships - memberships_kept events never entered the store.
  std::uint64_t memberships_kept = 0;
  std::uint64_t windows_closed = 0;
  bool shedding_active = false;

  struct PerQuery {
    std::string name;
    std::uint64_t matches = 0;
    std::uint64_t decisions = 0;  ///< shedder decisions (0 until armed)
    std::uint64_t drops = 0;      ///< memberships this query shed
  };
  std::vector<PerQuery> queries;
};

class MultiQueryOperator {
 public:
  using Phase = AdaptiveController::Phase;

  /// Called per detected complex event with the detecting query's index.
  using MatchCallback =
      std::function<void(std::size_t query, const ComplexEvent&)>;

  MultiQueryOperator(MultiQueryOperatorConfig config, MatchCallback on_match);

  // The pipeline points at this object's controller and callback; moving
  // the operator would dangle them.
  MultiQueryOperator(const MultiQueryOperator&) = delete;
  MultiQueryOperator& operator=(const MultiQueryOperator&) = delete;

  /// Consumes the next stream event (in order): one offer() into the shared
  /// window manager, one keep/drop decision per (membership, query).
  void push(const Event& e);

  /// Consumes a whole block of stream events, bit-identical in every output
  /// (matches, stats, model evolution) to pushing them one by one -- it
  /// does exactly that, so phase flips and model refreshes land on the
  /// same event.
  void push_block(std::span<const Event> block);

  /// Flushes all open windows (end of stream).
  void finish();

  /// Host signals (see EspiceOperator): processing cost, queue size, arrival.
  void observe_cost(double seconds) { controller_.observe_cost(seconds); }
  void on_tick(double now, std::size_t queue_size);
  void observe_arrival(double ts) { controller_.observe_arrival(ts); }

  // --- introspection -------------------------------------------------------
  Phase phase() const { return controller_.phase(); }
  std::size_t query_count() const { return config_.queries.size(); }
  bool shedding_active() const { return controller_.shedding_active(); }
  /// Query q's model (nullptr until training completes).
  const UtilityModel* model(std::size_t q) const {
    return controller_.model(q);
  }
  /// Per-query split of the most recent active detector command's drop
  /// budget, in expected events per WINDOW (the detector's per-partition x
  /// times its partition count); empty before shedding first activates.
  /// A single query takes the detector's command directly, so its split
  /// stays empty.
  const std::vector<double>& last_split() const {
    return controller_.last_split();
  }
  const ShedCoordinator& coordinator() const {
    return controller_.coordinator();
  }
  MultiQueryStats stats() const;

  /// Snapshot / restore (durability layer): the counters, the pipeline
  /// (shared window manager, per-query matchers) and the controller
  /// (phase machinery, per-query builders and shedders, detector
  /// estimates).  Non-const because the window manager compacts consumed
  /// views first.  The restoring operator must be constructed with the
  /// same config; the coordinator re-binds to the restored models, so no
  /// derived state travels.
  void serialize(durability::SnapshotWriter& w);
  void restore(durability::SnapshotReader& r);

 private:
  MultiQueryOperatorConfig config_;
  MatchCallback on_match_;
  std::vector<EngineQuery> queries_;
  AdaptiveController controller_;
  DetPipeline pipeline_;
  ShardStats counters_;
  std::vector<std::uint64_t> matches_;  ///< per query
};

}  // namespace espice
