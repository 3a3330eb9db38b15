#include "core/espice_operator.hpp"

#include <span>

namespace espice {

EspiceOperator::EspiceOperator(EspiceOperatorConfig config,
                               MatchCallback on_match)
    : config_(std::move(config)),
      on_match_(std::move(on_match)),
      query_{EngineQuery{"", adaptive_query(config_), nullptr, 0.0}},
      controller_(config_),
      pipeline_(query_, controller_.make_shedders(), nullptr,
                [this](std::size_t q, const WindowView& view,
                       std::span<const ComplexEvent> matches) {
                  controller_.on_window(q, view, matches);
                  matches_ += matches.size();
                  for (const ComplexEvent& m : matches) on_match_(m);
                }) {
  ESPICE_REQUIRE(on_match_ != nullptr, "match callback must be set");
}

void EspiceOperator::push(const Event& e) {
  // Watermark punctuations are control records owned by the engine's
  // event-time stage; a window-level operator ignores them.
  if (is_watermark(e)) return;
  // Always-on: the stream is external input, and everything downstream
  // (model statistics, utility lookups) indexes arrays by type.  Once per
  // event, not per membership, so the cost is irrelevant.
  ESPICE_REQUIRE(e.type < config_.num_types, "event type outside the universe");
  pipeline_.process_data_block(std::span(&e, 1), counters_);
  controller_.retrain_if_drifted();
  pipeline_.query_matches[0].clear();  // delivered by the observer
}

void EspiceOperator::finish() {
  pipeline_.close_all(counters_);
  pipeline_.query_matches[0].clear();
}

void EspiceOperator::on_tick(double /*now*/, std::size_t queue_size) {
  controller_.on_tick(queue_size);
}

std::uint64_t EspiceOperator::drops() const {
  return pipeline_.outcome(0).shed_drops;
}

std::uint64_t EspiceOperator::decisions() const {
  return pipeline_.outcome(0).shed_decisions;
}

OperatorStats EspiceOperator::stats() const {
  OperatorStats s;
  s.phase = phase();
  s.events = counters_.events;
  s.memberships = counters_.memberships;
  s.memberships_kept = counters_.memberships_kept;
  s.windows_closed = counters_.windows_closed;
  s.matches = matches_;
  s.decisions = decisions();
  s.drops = drops();
  s.retrains = retrains();
  s.windows_observed = windows_observed();
  s.shedding_active = shedding_active();
  return s;
}

}  // namespace espice
