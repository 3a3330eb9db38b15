#include "core/multi_query_operator.hpp"

#include "durability/serial.hpp"

namespace espice {

namespace {

std::vector<EngineQuery> engine_queries(const MultiQueryOperatorConfig& c) {
  std::vector<EngineQuery> out;
  out.reserve(c.queries.size());
  for (const MultiQuerySpec& q : c.queries) {
    EngineQuery eq;
    eq.name = q.name;
    eq.query = ShardQuery{q.pattern, c.window, q.selection, q.consumption,
                          q.max_matches_per_window};
    out.push_back(std::move(eq));
  }
  return out;
}

/// The controller settings of a multi-query config (no drift detector).
EspiceOperatorConfig controller_config(const MultiQueryOperatorConfig& c) {
  c.validate();
  EspiceOperatorConfig a;
  a.window = c.window;
  a.num_types = c.num_types;
  a.bin_size = c.bin_size;
  a.n_positions = c.n_positions;
  a.sizing_windows = c.sizing_windows;
  a.training_windows = c.training_windows;
  a.detector = c.detector;
  a.exact_amount = c.exact_amount;
  a.drift_retraining = false;
  a.exploration = c.exploration;
  a.rebuild_every_windows = c.rebuild_every_windows;
  return a;
}

}  // namespace

MultiQueryOperator::MultiQueryOperator(MultiQueryOperatorConfig config,
                                       MatchCallback on_match)
    : config_(std::move(config)),
      on_match_(std::move(on_match)),
      queries_(engine_queries(config_)),
      controller_(controller_config(config_), config_.queries.size(),
                  config_.query_weights),
      pipeline_(queries_, controller_.make_shedders(), nullptr,
                [this](std::size_t q, const WindowView& view,
                       std::span<const ComplexEvent> matches) {
                  controller_.on_window(q, view, matches);
                  matches_[q] += matches.size();
                  for (const ComplexEvent& m : matches) on_match_(q, m);
                }),
      matches_(config_.queries.size(), 0) {
  ESPICE_REQUIRE(on_match_ != nullptr, "match callback must be set");
}

void MultiQueryOperator::push(const Event& e) {
  // Watermark punctuations are control records owned by the engine's
  // event-time stage; a window-level operator ignores them.
  if (is_watermark(e)) return;
  ESPICE_REQUIRE(e.type < config_.num_types, "event type outside the universe");
  pipeline_.process_data_block(std::span(&e, 1), counters_);
  for (auto& list : pipeline_.query_matches) list.clear();  // delivered
}

void MultiQueryOperator::push_block(std::span<const Event> block) {
  for (const Event& e : block) {
    ESPICE_REQUIRE(is_watermark(e) || e.type < config_.num_types,
                   "event type outside the universe");
  }
  for (const Event& e : block) push(e);
}

void MultiQueryOperator::finish() {
  pipeline_.close_all(counters_);
  for (auto& list : pipeline_.query_matches) list.clear();
}

void MultiQueryOperator::on_tick(double /*now*/, std::size_t queue_size) {
  controller_.on_tick(queue_size);
}

MultiQueryStats MultiQueryOperator::stats() const {
  MultiQueryStats s;
  s.events = counters_.events;
  s.memberships = counters_.memberships;
  s.memberships_kept = counters_.memberships_kept;
  s.windows_closed = counters_.windows_closed;
  s.shedding_active = shedding_active();
  s.queries.reserve(queries_.size());
  for (std::size_t q = 0; q < queries_.size(); ++q) {
    MultiQueryStats::PerQuery pq;
    pq.name = queries_[q].name.empty() ? "q" + std::to_string(q)
                                       : queries_[q].name;
    pq.matches = matches_[q];
    const DetPipeline::QueryOutcome o = pipeline_.outcome(q);
    pq.decisions = o.shed_decisions;
    pq.drops = o.shed_drops;
    s.queries.push_back(std::move(pq));
  }
  return s;
}

void MultiQueryOperator::serialize(durability::SnapshotWriter& w) {
  w.vec_int(matches_);
  w.u64(counters_.events);
  w.u64(counters_.memberships);
  w.u64(counters_.memberships_kept);
  w.u64(counters_.windows_closed);
  pipeline_.serialize_core(w);
  controller_.serialize(w);
}

void MultiQueryOperator::restore(durability::SnapshotReader& r) {
  std::vector<std::uint64_t> matches = r.vec_int<std::uint64_t>();
  ESPICE_CHECK(matches.size() == matches_.size(),
               ErrorCode::kCorruptSnapshot,
               "operator snapshot query count disagrees with the config");
  matches_ = std::move(matches);
  counters_.events = r.u64();
  counters_.memberships = r.u64();
  counters_.memberships_kept = r.u64();
  counters_.windows_closed = r.u64();
  pipeline_.restore_core(r);
  controller_.restore(r);
}

}  // namespace espice
