#include "sim/operator_sim.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace espice {
namespace {

// A stream of `n` type-0 events, one per second of source time.
std::vector<Event> uniform_stream(std::size_t n, EventTypeId type = 0) {
  std::vector<Event> events;
  for (std::size_t i = 0; i < n; ++i) {
    Event e;
    e.type = type;
    e.seq = i;
    e.ts = static_cast<double>(i);
    e.value = 1.0;
    events.push_back(e);
  }
  return events;
}

WindowSpec tumbling(std::size_t span) {
  WindowSpec spec;
  spec.span_kind = WindowSpan::kCount;
  spec.span_events = span;
  spec.open_kind = WindowOpen::kCountSlide;
  spec.slide_events = span;
  return spec;
}

Matcher single_event_matcher() {
  return Matcher(make_sequence({element("a", TypeSet{0})}),
                 SelectionPolicy::kFirst, ConsumptionPolicy::kConsumed);
}

// Drops everything at odd positions once activated.
class OddPositionShedder final : public Shedder {
 public:
  bool should_drop(const Event&, std::uint32_t position, double) override {
    const bool drop = active_ && (position % 2 == 1);
    count_decision(drop);
    return drop;
  }
  void on_command(const DropCommand& cmd) override { active_ = cmd.active; }
  const char* name() const override { return "odd"; }

 private:
  bool active_ = false;
};

SimConfig base_sim(std::size_t span) {
  SimConfig config;
  config.cost.base_cost = 0.0;
  config.cost.per_window_cost = 1e-3;  // 1 ms per (event, window)
  config.detector.latency_bound = 1.0;
  config.detector.f = 0.8;
  config.detector.window_size_events = span;
  config.detector.tick_period = 0.01;
  config.detector.ewma_alpha = 1.0;
  return config;
}

// The single-event query over tumbling(span) windows; each simulate() run
// sheds with a fresh `S` (NullShedder: decide, keep everything).
template <typename S = NullShedder>
EngineQuery sim_query(std::size_t span, bool armed = false) {
  EngineQuery q;
  q.query.pattern = make_sequence({element("a", TypeSet{0})});
  q.query.window = tumbling(span);
  q.shedder_factory = [armed](std::size_t) {
    auto shedder = std::make_unique<S>();
    DropCommand cmd;
    cmd.active = armed;
    shedder->on_command(cmd);
    return shedder;
  };
  return q;
}

TEST(RunPipeline, GoldenPassSeesEveryWindowAndMatch) {
  const auto events = uniform_stream(10);
  std::size_t windows = 0;
  std::size_t matches = 0;
  run_pipeline(events, tumbling(5), single_event_matcher(), nullptr, 0.0,
               [&](const WindowView& w, const std::vector<ComplexEvent>& ms) {
                 ++windows;
                 matches += ms.size();
                 EXPECT_EQ(w.kept_count(), 5u);
               });
  EXPECT_EQ(windows, 2u);
  EXPECT_EQ(matches, 2u);
}

TEST(RunPipeline, ShedderThinsWindows) {
  const auto events = uniform_stream(10);
  OddPositionShedder shedder;
  DropCommand cmd;
  cmd.active = true;
  shedder.on_command(cmd);
  std::size_t kept = 0;
  run_pipeline(events, tumbling(5), single_event_matcher(), &shedder, 5.0,
               [&](const WindowView& w, const std::vector<ComplexEvent>&) {
                 kept += w.kept_count();
                 EXPECT_EQ(w.arrivals, 5u);  // positions unaffected
               });
  EXPECT_EQ(kept, 6u);  // positions 0, 2, 4 in each of two windows
}

TEST(OperatorSim, UnderloadLatencyEqualsProcessingCost) {
  // R = 100/s, cost = 1 ms/event -> operator idles between events.
  auto config = base_sim(1);
  const EngineQuery query = sim_query(1);
  const auto result = simulate(config, query, uniform_stream(100), 100.0);
  EXPECT_EQ(result.events, 100u);
  EXPECT_EQ(result.lb_violations, 0u);
  for (const auto& s : result.latencies) {
    EXPECT_NEAR(s.latency, 1e-3, 1e-9);
  }
}

TEST(OperatorSim, QueueBuildsUpUnderOverloadWithoutShedding) {
  // R = 2000/s, capacity = 1000/s, no shedding: latency grows linearly.
  auto config = base_sim(1);
  config.detector.latency_bound = 1e9;  // never consider it violated
  const EngineQuery query = sim_query(1);
  const auto result = simulate(config, query, uniform_stream(4000), 2000.0);
  // Last event arrives at ~2 s but finishes at ~4 s.
  EXPECT_GT(result.max_latency, 1.5);
  EXPECT_GT(result.duration, 3.9);
}

TEST(OperatorSim, LatencyBoundViolationsAreCounted) {
  auto config = base_sim(1);
  config.detector.latency_bound = 0.5;
  config.detector.f = 0.99;  // effectively disable shedding activation space
  const EngineQuery query = sim_query(1);
  const auto result = simulate(config, query, uniform_stream(4000), 2000.0);
  EXPECT_GT(result.lb_violations, 0u);
}

TEST(OperatorSim, MembershipAccountingIsExact) {
  auto config = base_sim(4);
  const EngineQuery query = sim_query(4);
  const auto result = simulate(config, query, uniform_stream(40), 100.0);
  EXPECT_EQ(result.memberships, 40u);       // tumbling: 1 window per event
  EXPECT_EQ(result.memberships_kept, 40u);  // nothing dropped
  EXPECT_EQ(result.windows_closed, 10u);
}

TEST(OperatorSim, SheddingReducesKeptMemberships) {
  auto config = base_sim(4);
  // Pre-activated; detector commands keep it on/off.
  const EngineQuery query = sim_query<OddPositionShedder>(4, /*armed=*/true);
  // Overload so the detector keeps shedding active.
  const auto result = simulate(config, query, uniform_stream(4000), 2000.0);
  EXPECT_LT(result.memberships_kept, result.memberships);
}

TEST(OperatorSim, DetectorActivatesSheddingUnderOverload) {
  auto config = base_sim(2);  // span 2 so odd positions exist
  const EngineQuery query = sim_query<OddPositionShedder>(2);
  const auto result = simulate(config, query, uniform_stream(4000), 2000.0);
  EXPECT_TRUE(result.shedding_ever_active);
  EXPECT_GT(result.drops, 0u);
}

TEST(OperatorSim, SheddingKeepsLatencyUnderTheBound) {
  // 2x overload; the odd-position shedder halves the load, which is exactly
  // enough to keep up once active.
  auto config = base_sim(2);
  const EngineQuery query = sim_query<OddPositionShedder>(2);
  const auto result = simulate(config, query, uniform_stream(8000), 2000.0);
  EXPECT_TRUE(result.shedding_ever_active);
  EXPECT_EQ(result.lb_violations, 0u);
  EXPECT_LE(result.max_latency, 1.0);
}

TEST(OperatorSim, EmptyStreamProducesEmptyResult) {
  auto config = base_sim(1);
  const EngineQuery query = sim_query(1);
  const auto result = simulate(config, query, {}, 100.0);
  EXPECT_EQ(result.events, 0u);
  EXPECT_TRUE(result.matches.empty());
}

TEST(OperatorSim, MatchesCarryDetectionTimestamps) {
  auto config = base_sim(5);
  const EngineQuery query = sim_query(5);
  const auto result = simulate(config, query, uniform_stream(10), 100.0);
  ASSERT_EQ(result.matches.size(), 2u);
  EXPECT_GT(result.matches[1].detection_ts, result.matches[0].detection_ts);
}

TEST(OperatorSim, ResultsAreDeterministic) {
  auto config = base_sim(3);
  const EngineQuery query = sim_query(3);
  const auto events = uniform_stream(300);
  const auto r1 = simulate(config, query, events, 1500.0);
  const auto r2 = simulate(config, query, events, 1500.0);
  EXPECT_EQ(r1.matches.size(), r2.matches.size());
  EXPECT_DOUBLE_EQ(r1.max_latency, r2.max_latency);
  EXPECT_DOUBLE_EQ(r1.duration, r2.duration);
}

TEST(OperatorSim, RatePhasesChangeArrivalTiming) {
  // 100 events at 100/s then 100 events at 1000/s: total arrival span is
  // 1.0 + 0.1 s; with 1 ms processing the run finishes shortly after.
  auto config = base_sim(1);
  const EngineQuery query = sim_query(1);
  const auto result = simulate(config, query, uniform_stream(200),
                               {RatePhase{100, 100.0}, RatePhase{100, 1000.0}});
  EXPECT_EQ(result.events, 200u);
  EXPECT_GT(result.duration, 1.09);
  EXPECT_LT(result.duration, 1.2);
}

TEST(OperatorSim, LastPhaseExtendsToStreamEnd) {
  auto config = base_sim(1);
  const EngineQuery query = sim_query(1);
  // Phase counts cover only 10 of 100 events; the rest arrive at the last
  // phase's rate.
  const auto result =
      simulate(config, query, uniform_stream(100), {RatePhase{10, 1000.0}});
  EXPECT_EQ(result.events, 100u);
  EXPECT_NEAR(result.duration, 0.1, 0.01);
}

TEST(OperatorSim, BurstTriggersSheddingThenRecovers) {
  // Steady 80% load with a 2x burst in the middle: the detector must engage
  // during the burst and keep the latency bound.
  auto config = base_sim(2);
  const EngineQuery query = sim_query<OddPositionShedder>(2);
  const auto result = simulate(
      config, query, uniform_stream(12000),
      {RatePhase{4000, 800.0}, RatePhase{4000, 2000.0}, RatePhase{4000, 800.0}});
  EXPECT_TRUE(result.shedding_ever_active);
  EXPECT_EQ(result.lb_violations, 0u);
  // The calm phases must not shed: drops stay well below half the
  // (event, window) pairs of the burst phase alone.
  EXPECT_LT(result.drops, 4000u);
}

TEST(OperatorSim, PhaselessAndSinglePhaseAgree) {
  auto config = base_sim(3);
  const EngineQuery query = sim_query(3);
  const auto events = uniform_stream(500);
  const auto r1 = simulate(config, query, events, 1234.0);
  const auto r2 = simulate(config, query, events, {RatePhase{500, 1234.0}});
  EXPECT_DOUBLE_EQ(r1.duration, r2.duration);
  EXPECT_DOUBLE_EQ(r1.max_latency, r2.max_latency);
}

TEST(OperatorSim, RejectsEmptyOrInvalidPhases) {
  auto config = base_sim(1);
  const EngineQuery query = sim_query(1);
  EXPECT_THROW(
      simulate(config, query, uniform_stream(5), std::vector<RatePhase>{}),
      ConfigError);
  EXPECT_THROW(
      simulate(config, query, uniform_stream(5), {RatePhase{5, 0.0}}),
      ConfigError);
}

TEST(OperatorCostModel, FullCostIsAffineInWindows) {
  OperatorCostModel cost;
  cost.base_cost = 1.0;
  cost.per_window_cost = 0.5;
  EXPECT_DOUBLE_EQ(cost.full_cost(0), 1.0);
  EXPECT_DOUBLE_EQ(cost.full_cost(4), 3.0);
}

TEST(OperatorSim, RejectsNonPositiveRate) {
  auto config = base_sim(1);
  const EngineQuery query = sim_query(1);
  EXPECT_THROW(simulate(config, query, uniform_stream(5), 0.0), ConfigError);
}

}  // namespace
}  // namespace espice
