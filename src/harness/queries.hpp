// Query factories for the paper's four evaluation queries (Section 4.1).
//
//  Q1  seq(STR; any(n, DF1..DFm))      RTLS, time window, opened per striker
//                                      possession event.
//  Q2  seq(MLE; any(n, RE1..REn))      NYSE, time window, opened per leading
//                                      symbol event; candidates = rising
//                                      quotes of any symbol.
//  Q3  seq(RE1; ...; RE20)             NYSE, count window opened per leading
//                                      symbol event; 20 fixed symbols chosen
//                                      as the first leader's followers in lag
//                                      order (rising variant).
//  Q4  seq(RE1; RE1; RE2; RE3; RE2; RE4; RE2; RE5; RE6; RE7; RE2; RE8; RE9;
//      RE10)                           NYSE, count-sliding window (slide 100).
//
// All queries use skip-till-next/any-match; the selection policy is a
// parameter (the paper evaluates first and last).
#pragma once

#include <string>

#include "cep/matcher.hpp"
#include "cep/pattern.hpp"
#include "cep/window.hpp"
#include "datasets/rtls.hpp"
#include "datasets/stock.hpp"
#include "runtime/stream_engine.hpp"

namespace espice {

/// A fully specified query: pattern + windowing + policies.
struct QueryDef {
  std::string name;
  Pattern pattern;
  WindowSpec window;
  SelectionPolicy selection = SelectionPolicy::kFirst;
  ConsumptionPolicy consumption = ConsumptionPolicy::kConsumed;
  /// The paper's default setting: one complex event per window.
  std::size_t max_matches_per_window = 1;

  Matcher make_matcher() const {
    return Matcher(pattern, selection, consumption, max_matches_per_window);
  }
};

QueryDef make_q1(const RtlsGenerator& gen, std::size_t n,
                 double window_seconds = 15.0,
                 SelectionPolicy selection = SelectionPolicy::kFirst);

QueryDef make_q2(const StockGenerator& gen, std::size_t n,
                 double window_seconds = 240.0,
                 SelectionPolicy selection = SelectionPolicy::kFirst);

QueryDef make_q3(const StockGenerator& gen, std::size_t window_events,
                 std::size_t sequence_length = 20,
                 SelectionPolicy selection = SelectionPolicy::kFirst);

QueryDef make_q4(const StockGenerator& gen, std::size_t window_events,
                 std::size_t slide_events = 100,
                 SelectionPolicy selection = SelectionPolicy::kFirst);

/// QueryDef -> engine registration: bridges a harness-level query to the
/// runtime's query list.  Attach a per-query shedding policy through
/// `shedder_factory` (determinism contract: EngineQuery::shedder_factory)
/// and `predicted_ws` (required for non-count windows when a shedder is
/// present).  Typical use:
///
///   config.queries.push_back(to_engine_query(make_q1(gen, 3)));
///   StreamEngine engine(config);
///   engine.add_query(to_engine_query(make_q3(gen, 200)));
EngineQuery to_engine_query(
    const QueryDef& query,
    std::function<std::unique_ptr<Shedder>(std::size_t shard)> shedder_factory =
        nullptr,
    double predicted_ws = 0.0);

}  // namespace espice
