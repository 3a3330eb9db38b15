#include "harness/queries.hpp"

#include "common/error.hpp"

namespace espice {

QueryDef make_q1(const RtlsGenerator& gen, std::size_t n, double window_seconds,
                 SelectionPolicy selection) {
  QueryDef q;
  q.name = "Q1(n=" + std::to_string(n) + ")";
  q.selection = selection;

  TypeSet strikers;
  for (EventTypeId t : gen.striker_types()) strikers.insert(t);
  TypeSet defenders;
  for (EventTypeId t : gen.defender_types()) defenders.insert(t);

  // Possession events carry value > 0; defend events carry value > 0.
  ElementSpec trigger = element("STR", strikers, DirectionFilter::kRising);
  q.pattern = make_trigger_any(trigger, defenders, n, DirectionFilter::kRising,
                               /*distinct_types=*/true);

  q.window.span_kind = WindowSpan::kTime;
  q.window.span_seconds = window_seconds;
  q.window.open_kind = WindowOpen::kPredicate;
  q.window.opener = element("STR", strikers, DirectionFilter::kRising);
  q.window.validate();
  return q;
}

QueryDef make_q2(const StockGenerator& gen, std::size_t n,
                 double window_seconds, SelectionPolicy selection) {
  QueryDef q;
  q.name = "Q2(n=" + std::to_string(n) + ")";
  q.selection = selection;

  TypeSet leaders;
  for (EventTypeId t : gen.leaders()) leaders.insert(t);

  // Trigger: a rising quote of a leading symbol; candidates: rising quotes
  // of *any* symbol (the empty TypeSet means "any type").
  ElementSpec trigger = element("MLE", leaders, DirectionFilter::kRising);
  q.pattern = make_trigger_any(trigger, TypeSet{}, n, DirectionFilter::kRising,
                               /*distinct_types=*/true);

  q.window.span_kind = WindowSpan::kTime;
  q.window.span_seconds = window_seconds;
  q.window.open_kind = WindowOpen::kPredicate;
  // A window opens for every leading-symbol event regardless of direction.
  q.window.opener = element("MLE", leaders, DirectionFilter::kAny);
  q.window.validate();
  return q;
}

QueryDef make_q3(const StockGenerator& gen, std::size_t window_events,
                 std::size_t sequence_length, SelectionPolicy selection) {
  QueryDef q;
  q.name = "Q3(ws=" + std::to_string(window_events) + ")";
  q.selection = selection;

  // The "20 certain stock symbols": followers of the first leader whose
  // reaction lags are evenly spread, so their rising quotes tend to occur in
  // lag order within a window.
  const EventTypeId lead = gen.leaders().front();
  const auto symbols = gen.sequence_symbols(lead, sequence_length);
  std::vector<ElementSpec> elements_seq;
  elements_seq.reserve(symbols.size());
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    elements_seq.push_back(element("RE" + std::to_string(i + 1),
                                   TypeSet{symbols[i]},
                                   DirectionFilter::kRising));
  }
  q.pattern = make_sequence(std::move(elements_seq));

  TypeSet leaders;
  for (EventTypeId t : gen.leaders()) leaders.insert(t);
  q.window.span_kind = WindowSpan::kCount;
  q.window.span_events = window_events;
  q.window.open_kind = WindowOpen::kPredicate;
  q.window.opener = element("MLE", leaders, DirectionFilter::kAny);
  q.window.validate();
  return q;
}

QueryDef make_q4(const StockGenerator& gen, std::size_t window_events,
                 std::size_t slide_events, SelectionPolicy selection) {
  QueryDef q;
  q.name = "Q4(ws=" + std::to_string(window_events) + ")";
  q.selection = selection;

  // Paper's repetition layout over 10 distinct symbols:
  // seq(RE1; RE1; RE2; RE3; RE2; RE4; RE2; RE5; RE6; RE7; RE2; RE8; RE9; RE10)
  static constexpr std::size_t kLayout[] = {1, 1, 2, 3, 2, 4, 2,
                                            5, 6, 7, 2, 8, 9, 10};
  // Hot (multi-quote) followers: repetition patterns need symbols that tick
  // several times per window.
  const EventTypeId lead = gen.leaders()[1 % gen.leaders().size()];
  const auto symbols = gen.repetition_symbols(lead, 10);
  std::vector<ElementSpec> elements_seq;
  for (std::size_t idx : kLayout) {
    elements_seq.push_back(element("RE" + std::to_string(idx),
                                   TypeSet{symbols[idx - 1]},
                                   DirectionFilter::kRising));
  }
  q.pattern = make_sequence(std::move(elements_seq));

  q.window.span_kind = WindowSpan::kCount;
  q.window.span_events = window_events;
  q.window.open_kind = WindowOpen::kCountSlide;
  q.window.slide_events = slide_events;
  q.window.validate();
  return q;
}

EngineQuery to_engine_query(
    const QueryDef& query,
    std::function<std::unique_ptr<Shedder>(std::size_t shard)> shedder_factory,
    double predicted_ws) {
  EngineQuery q;
  q.name = query.name;
  q.query.pattern = query.pattern;
  q.query.window = query.window;
  q.query.selection = query.selection;
  q.query.consumption = query.consumption;
  q.query.max_matches_per_window = query.max_matches_per_window;
  q.shedder_factory = std::move(shedder_factory);
  q.predicted_ws = predicted_ws;
  return q;
}

}  // namespace espice
