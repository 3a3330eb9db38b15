#include "sim/operator_sim.hpp"

#include <algorithm>
#include <deque>
#include <memory>

#include "runtime/shard_pipeline.hpp"

namespace espice {

namespace {

/// Arrival timestamps for `n` events under the given rate schedule (the last
/// phase extends to the end of the stream).
std::vector<double> arrival_schedule(std::size_t n,
                                     const std::vector<RatePhase>& phases) {
  ESPICE_REQUIRE(!phases.empty(), "need at least one rate phase");
  for (const auto& p : phases) {
    ESPICE_REQUIRE(p.rate > 0.0, "phase rates must be positive");
  }
  std::vector<double> arrival_ts(n);
  double t = 0.0;
  std::size_t i = 0;
  for (std::size_t p = 0; p < phases.size() && i < n; ++p) {
    const bool last = (p + 1 == phases.size());
    std::size_t budget = last ? n - i : phases[p].events;
    const double step = 1.0 / phases[p].rate;
    while (budget-- > 0 && i < n) {
      arrival_ts[i++] = t;
      t += step;
    }
  }
  while (i < n) {
    arrival_ts[i++] = t;
    t += 1.0 / phases.back().rate;
  }
  return arrival_ts;
}

}  // namespace

void run_pipeline(std::span<const Event> events, const WindowSpec& spec,
                  const Matcher& matcher, Shedder* shedder,
                  double predicted_ws, const WindowSink& sink) {
  WindowManager wm(spec);
  if (predicted_ws <= 0.0) {
    ESPICE_REQUIRE(spec.span_kind == WindowSpan::kCount || shedder == nullptr,
                   "time-based windows need an explicit predicted_ws");
    predicted_ws = static_cast<double>(spec.span_events);
  }
  auto flush = [&] {
    for (const WindowView& w : wm.drain_closed()) {
      const auto matches = matcher.match_window(w);
      sink(w, matches);
    }
  };
  for (const Event& e : events) {
    auto& memberships = wm.offer(e);
    for (const auto& m : memberships) {
      if (shedder == nullptr ||
          !shedder->should_drop(e, m.position, predicted_ws)) {
        wm.keep(m, e);
      }
    }
    flush();
  }
  wm.close_all();
  flush();
}

SimResult simulate(const SimConfig& config, const EngineQuery& query,
                   std::span<const Event> events, double input_rate) {
  return simulate(config, query, events,
                  std::vector<RatePhase>{{events.size(), input_rate}});
}

SimResult simulate(const SimConfig& config, const EngineQuery& query,
                   std::span<const Event> events,
                   const std::vector<RatePhase>& phases) {
  query.validate();
  config.cost.validate();
  config.detector.validate();
  SimResult result;
  const std::vector<double> arrival_ts =
      arrival_schedule(events.size(), phases);
  if (events.empty()) return result;

  // The pipeline owns the shedder; the detector steers it through `shedder`.
  std::vector<std::unique_ptr<Shedder>> slot(1);
  if (query.shedder_factory) slot[0] = query.shedder_factory(0);
  Shedder* const shedder = slot[0].get();
  DetPipeline pipeline(std::span(&query, 1), std::move(slot), nullptr);
  std::vector<ComplexEvent>& matches = pipeline.query_matches[0];
  ShardStats stats;
  OverloadDetector detector(config.detector);
  const double lb = config.detector.latency_bound;

  const std::size_t n = events.size();
  result.latencies.reserve(n);

  // FIFO discipline: event i starts at s_i = max(arrival_i, finish_{i-1}).
  // Detector ticks are interleaved at fixed virtual periods; the queue size
  // at tick time t is (#arrived by t) - (#completed by t), both monotone.
  std::deque<double> pending_completions;  // not yet counted by a tick
  std::uint64_t completed_before_ticks = 0;
  std::size_t arrived_before_ticks = 0;  // monotone cursor into arrival_ts
  double next_tick = 0.0;
  double prev_finish = 0.0;

  auto fire_ticks_until = [&](double t) {
    while (next_tick <= t) {
      while (!pending_completions.empty() &&
             pending_completions.front() <= next_tick) {
        pending_completions.pop_front();
        ++completed_before_ticks;
      }
      while (arrived_before_ticks < n &&
             arrival_ts[arrived_before_ticks] <= next_tick) {
        ++arrived_before_ticks;
      }
      const std::uint64_t in_queue =
          arrived_before_ticks - completed_before_ticks;
      const DropCommand cmd = detector.tick(static_cast<std::size_t>(in_queue));
      if (cmd.active) result.shedding_ever_active = true;
      if (shedder != nullptr) shedder->on_command(cmd);
      next_tick += config.detector.tick_period;
    }
  };

  // Detection happens at operator (virtual) time: stamp the matches the
  // last pipeline call appended.
  std::size_t stamped = 0;
  auto stamp_new_matches = [&](double now) {
    for (; stamped < matches.size(); ++stamped) {
      matches[stamped].detection_ts = now;
    }
  };

  for (std::size_t i = 0; i < n; ++i) {
    const double arrival = arrival_ts[i];
    detector.observe_arrival(arrival);

    // The operator picks this event up once it has arrived and the previous
    // event finished; detector commands issued up to that instant apply.
    const double start = std::max(arrival, prev_finish);
    fire_ticks_until(start);

    const std::uint64_t offered_before = stats.memberships;
    const std::uint64_t kept_before = stats.memberships_kept;
    pipeline.process_data_block(events.subspan(i, 1), stats);
    const std::uint64_t offered = stats.memberships - offered_before;
    const std::uint64_t kept = stats.memberships_kept - kept_before;

    // The detector learns the *unshedded* cost (used for th and qmax); the
    // virtual clock advances by the *actual* (post-shedding) cost.
    detector.observe_processing_cost(config.cost.full_cost(offered));
    const double finish = start + config.cost.full_cost(kept);
    prev_finish = finish;
    pending_completions.push_back(finish);

    const double latency = finish - arrival;
    result.latencies.push_back(LatencySample{finish, latency});
    result.max_latency = std::max(result.max_latency, latency);
    if (latency > lb) ++result.lb_violations;

    stamp_new_matches(finish);
  }
  pipeline.close_all(stats);
  stamp_new_matches(prev_finish);

  const DetPipeline::QueryOutcome outcome = pipeline.outcome(0);
  result.matches = std::move(matches);
  result.events = n;
  result.memberships = stats.memberships;
  result.memberships_kept = stats.memberships_kept;
  result.windows_closed = stats.windows_closed;
  result.decisions = outcome.shed_decisions;
  result.drops = outcome.shed_drops;
  result.duration = prev_finish;
  return result;
}

}  // namespace espice
