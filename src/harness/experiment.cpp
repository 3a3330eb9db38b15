#include "harness/experiment.hpp"

#include <algorithm>
#include <cmath>

#include "core/baseline_shedder.hpp"
#include "core/espice_shedder.hpp"
#include "core/model_builder.hpp"
#include "core/random_shedder.hpp"

namespace espice {

const char* shedder_kind_name(ShedderKind kind) {
  switch (kind) {
    case ShedderKind::kNone:
      return "none";
    case ShedderKind::kEspice:
      return "eSPICE";
    case ShedderKind::kBaseline:
      return "BL";
    case ShedderKind::kRandom:
      return "random";
  }
  return "?";
}

TrainedModel train_model(const QueryDef& query, std::size_t num_types,
                         std::span<const Event> train_events,
                         std::size_t bin_size,
                         std::size_t n_positions_override) {
  ESPICE_REQUIRE(!train_events.empty(), "training segment is empty");
  const Matcher matcher = query.make_matcher();

  // Pass 1: determine N (average offered window size) and the window overlap
  // degree.  For count-based windows N is known from the spec.
  TrainedModel trained;
  std::size_t n_positions = n_positions_override;
  double size_sum = 0.0;
  std::size_t windows = 0;
  run_pipeline(train_events, query.window, matcher, nullptr, 0.0,
               [&](const WindowView& w, const std::vector<ComplexEvent>&) {
                 size_sum += static_cast<double>(w.size());
                 ++windows;
               });
  ESPICE_REQUIRE(windows > 0, "training segment closed no windows");
  trained.avg_window_size = size_sum / static_cast<double>(windows);
  trained.avg_windows_per_event =
      size_sum / static_cast<double>(train_events.size());
  if (n_positions == 0) {
    if (query.window.span_kind == WindowSpan::kCount) {
      n_positions = query.window.span_events;
    } else {
      n_positions = static_cast<std::size_t>(
          std::max<long>(1, std::lround(trained.avg_window_size)));
    }
  }

  // Pass 2: collect the model statistics.
  ModelBuilderConfig mb_config;
  mb_config.num_types = num_types;
  mb_config.n_positions = n_positions;
  mb_config.bin_size = std::min(bin_size, n_positions);
  ModelBuilder builder(mb_config);
  run_pipeline(train_events, query.window, matcher, nullptr, 0.0,
               [&](const WindowView& w,
                   const std::vector<ComplexEvent>& matches) {
                 builder.observe_window(w);
                 for (const auto& m : matches) {
                   builder.observe_match(m, w.size());
                 }
               });
  trained.windows = builder.windows_observed();
  trained.matches = builder.matches_observed();
  trained.model = builder.build();
  return trained;
}

namespace {

/// Seed of the BL and random shedders' RNGs.
constexpr std::uint64_t kShedderSeed = 7;

std::unique_ptr<Shedder> make_shedder(const ExperimentConfig& config,
                                      const TrainedModel& trained) {
  const auto& model = *trained.model;
  switch (config.shedder) {
    case ShedderKind::kNone:
      return std::make_unique<NullShedder>();
    case ShedderKind::kEspice:
      return std::make_unique<EspiceShedder>(trained.model,
                                             config.exact_amount);
    case ShedderKind::kBaseline: {
      // Expected events of each type per window, from the position shares.
      std::vector<double> freq(model.num_types(), 0.0);
      for (std::size_t t = 0; t < model.num_types(); ++t) {
        for (std::size_t c = 0; c < model.cols(); ++c) {
          freq[t] += model.share_cell(static_cast<EventTypeId>(t), c);
        }
      }
      return std::make_unique<BaselineShedder>(
          config.query.pattern, std::move(freq), model.n_positions(),
          kShedderSeed);
    }
    case ShedderKind::kRandom:
      return std::make_unique<RandomShedder>(model.n_positions(),
                                             kShedderSeed);
  }
  ESPICE_ASSERT(false, "unknown shedder kind");
  return nullptr;
}

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& config,
                                std::span<const Event> events,
                                const TrainedModel* pretrained) {
  ESPICE_REQUIRE(config.train_events > 0 && config.measure_events > 0,
                 "train/measure segment sizes must be positive");
  ESPICE_REQUIRE(events.size() >= config.train_events + config.measure_events,
                 "stream shorter than train + measure segments");
  ESPICE_REQUIRE(config.num_types > 0, "num_types must be set");

  const auto train = events.subspan(0, config.train_events);
  const auto measure =
      events.subspan(config.train_events, config.measure_events);
  const Matcher matcher = config.query.make_matcher();

  // --- 1. Train the utility model (or reuse a caller-provided one) --------
  const TrainedModel trained =
      pretrained != nullptr
          ? *pretrained
          : train_model(config.query, config.num_types, train,
                        config.bin_size);
  const auto n_positions = trained.model->n_positions();

  ExperimentResult result;
  result.n_positions = n_positions;
  result.avg_windows_per_event = trained.avg_windows_per_event;

  // --- 2. Golden pass ------------------------------------------------------
  std::vector<ComplexEvent> golden;
  run_pipeline(measure, config.query.window, matcher, nullptr, 0.0,
               [&](const WindowView&,
                   const std::vector<ComplexEvent>& matches) {
                 golden.insert(golden.end(), matches.begin(), matches.end());
               });

  // --- 3. Overload pass ----------------------------------------------------
  SimConfig sim_config;
  sim_config.detector.latency_bound = kLatencyBound;
  sim_config.detector.f = config.f;
  sim_config.detector.window_size_events = n_positions;
  const OperatorCostModel& cost = sim_config.cost;
  const double th = 1.0 / (cost.base_cost + cost.per_window_cost *
                                                trained.avg_windows_per_event);
  result.throughput = th;
  result.input_rate = config.rate_factor * th;

  const EngineQuery query = to_engine_query(
      config.query,
      [&](std::size_t) { return make_shedder(config, trained); },
      config.predicted_ws_override > 0.0
          ? config.predicted_ws_override
          : static_cast<double>(n_positions));
  const SimResult sim = simulate(sim_config, query, measure, result.input_rate);

  // --- 4. Quality + latency -------------------------------------------------
  result.quality = compare_quality(golden, sim.matches);
  result.latency = summarize_latency(sim.latencies, kLatencyBound);
  result.decisions = sim.decisions;
  result.drops = sim.drops;
  result.windows = sim.windows_closed;
  result.shedding_active = sim.shedding_ever_active;
  return result;
}

}  // namespace espice
