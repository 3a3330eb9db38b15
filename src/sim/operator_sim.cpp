#include "sim/operator_sim.hpp"

#include <algorithm>
#include <deque>

namespace espice {

namespace {

double resolve_predicted_ws(const SimConfig& config) {
  if (config.predicted_ws > 0.0) return config.predicted_ws;
  if (config.window.span_kind == WindowSpan::kCount) {
    return static_cast<double>(config.window.span_events);
  }
  return static_cast<double>(config.detector.window_size_events);
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

OperatorSimulator::OperatorSimulator(SimConfig config, Matcher matcher,
                                     Shedder& shedder)
    : config_(std::move(config)),
      matcher_(std::move(matcher)),
      shedder_(shedder) {
  config_.window.validate();
  config_.cost.validate();
  config_.detector.validate();
}

SimResult OperatorSimulator::run(std::span<const Event> events,
                                 double input_rate) {
  return run(events, std::vector<RatePhase>{{events.size(), input_rate}});
}

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

SimResult OperatorSimulator::run(std::span<const Event> events,
                                 const std::vector<RatePhase>& phases) {
  SimResult result;
  const std::vector<double> arrival_ts =
      arrival_schedule(events.size(), phases);
  if (events.empty()) return result;

  WindowManager wm(config_.window);
  OverloadDetector detector(config_.detector);
  const double predicted_ws = resolve_predicted_ws(config_);
  const double lb = config_.detector.latency_bound;

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
      shedder_.on_command(cmd);
      next_tick += config_.detector.tick_period;
    }
  };

  auto flush_windows = [&](double now) {
    for (const WindowView& w : wm.drain_closed()) {
      ++result.windows_closed;
      auto matches = matcher_.match_window(w);
      for (auto& m : matches) {
        m.detection_ts = now;  // detection happens at operator (virtual) time
        result.matches.push_back(std::move(m));
      }
    }
  };

  for (std::size_t i = 0; i < n; ++i) {
    const Event& e = events[i];
    const double arrival = arrival_ts[i];
    detector.observe_arrival(arrival);

    // The operator picks this event up once it has arrived and the previous
    // event finished; detector commands issued up to that instant apply.
    const double start = std::max(arrival, prev_finish);
    fire_ticks_until(start);

    auto& memberships = wm.offer(e);
    result.memberships += memberships.size();
    std::size_t kept = 0;
    for (const auto& m : memberships) {
      if (!shedder_.should_drop(e, m.position, predicted_ws)) {
        wm.keep(m, e);
        ++kept;
      }
    }
    result.memberships_kept += kept;

    // The detector learns the *unshedded* cost (used for th and qmax); the
    // virtual clock advances by the *actual* (post-shedding) cost.
    detector.observe_processing_cost(
        config_.cost.full_cost(memberships.size()));
    const double finish = start + config_.cost.full_cost(kept);
    prev_finish = finish;
    pending_completions.push_back(finish);

    const double latency = finish - arrival;
    result.latencies.push_back(LatencySample{finish, latency});
    result.max_latency = std::max(result.max_latency, latency);
    if (latency > lb) ++result.lb_violations;

    flush_windows(finish);
  }
  wm.close_all();
  flush_windows(prev_finish);

  result.events = n;
  result.duration = prev_finish;
  return result;
}

}  // namespace espice
