// EspiceOperator: the embeddable, online facade over the whole framework.
//
// run_experiment() (harness) is built for offline evaluation -- separate
// training and measurement passes over a stored stream.  A production host
// embeds eSPICE differently: one object consumes the live stream, trains
// itself, starts shedding when the host's input queue grows, and retrains
// when the stream drifts:
//
//   EspiceOperator op(config, [](const ComplexEvent& ce) { ... });
//   loop:
//     op.push(event);                  // per dequeued event
//     op.observe_cost(seconds);        // measured processing cost (optional)
//     every tick: op.on_tick(queue_size);
//
// The operator is a thin host: one single-query DetPipeline (windows,
// shedder slot, incremental matcher; runtime/shard_pipeline.hpp) driven by
// one AdaptiveController (core/adaptive_controller.hpp), which runs the
// sizing -> training -> shedding lifecycle, the overload detector and drift
// retraining.  push() runs one event through the pipeline, so phase flips,
// rebuilds and retrains land on the event that triggers them, and matches
// reach the callback as their windows close.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/adaptive_controller.hpp"
#include "runtime/shard_pipeline.hpp"

namespace espice {

struct OperatorStats;

class EspiceOperator {
 public:
  using Phase = AdaptiveController::Phase;

  using MatchCallback = std::function<void(const ComplexEvent&)>;

  EspiceOperator(EspiceOperatorConfig config, MatchCallback on_match);

  // The pipeline points at this object's controller and callback; moving
  // the operator would dangle them.
  EspiceOperator(const EspiceOperator&) = delete;
  EspiceOperator& operator=(const EspiceOperator&) = delete;

  /// Consumes the next event of the stream (in order).  Window routing,
  /// shedding and matching happen inside; detected complex events are
  /// delivered through the callback.
  void push(const Event& e);

  /// Flushes all open windows (end of stream).
  void finish();

  /// Host signal: measured processing cost of one event (seconds).  Feeds
  /// the overload detector's l(p) estimate.
  void observe_cost(double seconds) { controller_.observe_cost(seconds); }

  /// Host signal: current input-queue size; call periodically (every
  /// detector tick period).  `now` is the host's clock (seconds); the
  /// arrival-rate estimate comes from observe_arrival().
  void on_tick(double now, std::size_t queue_size);

  /// Host signal: one event arrived at `ts` (for the rate estimate).
  void observe_arrival(double ts) { controller_.observe_arrival(ts); }

  // --- introspection ---------------------------------------------------------
  Phase phase() const { return controller_.phase(); }
  bool shedding_active() const { return controller_.shedding_active(); }
  /// nullptr until training completes.
  const UtilityModel* model() const { return controller_.model(0); }
  std::uint64_t drops() const;
  std::uint64_t decisions() const;
  std::size_t retrains() const { return controller_.retrains(); }
  std::size_t windows_observed() const {
    return controller_.windows_observed();
  }
  /// One-call snapshot of every lifetime counter.
  OperatorStats stats() const;

 private:
  EspiceOperatorConfig config_;
  MatchCallback on_match_;
  std::vector<EngineQuery> query_;
  AdaptiveController controller_;
  DetPipeline pipeline_;
  ShardStats counters_;
  std::uint64_t matches_ = 0;
};

/// Final stat snapshot of one operator.
struct OperatorStats {
  EspiceOperator::Phase phase = EspiceOperator::Phase::kSizing;
  std::uint64_t events = 0;
  std::uint64_t memberships = 0;       ///< (event, window) pairs offered
  std::uint64_t memberships_kept = 0;  ///< pairs kept after shedding
  std::uint64_t windows_closed = 0;
  std::uint64_t matches = 0;
  std::uint64_t decisions = 0;  ///< shedder decisions (0 until armed)
  std::uint64_t drops = 0;
  std::size_t retrains = 0;
  std::size_t windows_observed = 0;
  bool shedding_active = false;
};

}  // namespace espice
