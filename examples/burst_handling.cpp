// Burst handling: the latency-bound story end to end.
//
// The input runs at a sustainable 90% of the operator's capacity, spikes to
// 180% for a stretch (a news event, a goal, ...), then calms down again.
// The overload detector notices the queue crossing the f*qmax watermark,
// engages the eSPICE shedder for the duration of the burst and disengages
// afterwards -- the latency bound holds throughout and nothing is dropped
// while the system is healthy.
#include <iostream>

#include "core/espice_shedder.hpp"
#include "harness/experiment.hpp"
#include "harness/report.hpp"
#include "metrics/latency.hpp"
#include "smoke.hpp"

int main() {
  using namespace espice;
  using examples::smoke_scaled;

  TypeRegistry registry;
  RtlsGenerator generator(RtlsConfig{}, registry);
  const auto events = generator.generate(smoke_scaled(300'000, 75'000));

  const QueryDef query = make_q1(generator, 3);
  const std::size_t train_n = smoke_scaled(130'000, 32'000);
  const TrainedModel trained =
      train_model(query, registry.size(),
                  std::span<const Event>(events).subspan(0, train_n), 1);

  // Operator capacity from the calibrated cost model.
  const double th = 1.0 / (OperatorCostModel{}.base_cost +
                           OperatorCostModel{}.per_window_cost *
                               trained.avg_windows_per_event);

  SimConfig sim_config;
  sim_config.detector.latency_bound = 1.0;
  sim_config.detector.f = 0.8;
  sim_config.detector.window_size_events = trained.model->n_positions();

  const EngineQuery espice_query = to_engine_query(
      query,
      [&](std::size_t) {
        return std::make_unique<EspiceShedder>(trained.model);
      },
      static_cast<double>(trained.model->n_positions()));

  const auto measure = std::span<const Event>(events).subspan(train_n);
  const std::size_t third = measure.size() / 3;
  const SimResult result = simulate(
      sim_config, espice_query, measure,
      {RatePhase{third, 0.9 * th},   // healthy
       RatePhase{third, 1.8 * th},   // burst
       RatePhase{third, 0.9 * th}}); // recovery

  const auto latency = summarize_latency(result.latencies, 1.0);
  std::cout << "burst scenario (capacity " << static_cast<long>(th)
            << " events/s; phases 0.9x / 1.8x / 0.9x):\n"
            << "  events processed   : " << result.events << "\n"
            << "  shedding engaged   : "
            << (result.shedding_ever_active ? "yes (during the burst)" : "no")
            << "\n"
            << "  pairs dropped      : " << result.drops << " of "
            << result.decisions << "\n"
            << "  max latency        : " << fmt(latency.max, 3)
            << " s (bound 1.0 s)\n"
            << "  bound violations   : " << latency.violations << "\n\n";

  // Mean latency per 10-second slice shows the burst profile.
  Table table({"virtual time (s)", "mean latency (s)", "max latency (s)"});
  const auto sliced = summarize_latency(result.latencies, 1.0, 10.0);
  for (const auto& bucket : sliced.buckets) {
    table.add_row({fmt(bucket.start_ts, 0), fmt(bucket.mean, 3),
                   fmt(bucket.max, 3)});
  }
  table.print(std::cout);
  return latency.violations == 0 && result.shedding_ever_active ? 0 : 1;
}
