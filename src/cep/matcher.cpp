#include "cep/matcher.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace espice {

Matcher::Matcher(Pattern pattern, SelectionPolicy selection,
                 ConsumptionPolicy consumption,
                 std::size_t max_matches_per_window)
    : pattern_(std::move(pattern)),
      selection_(selection),
      consumption_(consumption),
      max_matches_(max_matches_per_window) {
  pattern_.validate();
  ESPICE_REQUIRE(max_matches_ > 0, "max_matches_per_window must be positive");
  negation_idx_.assign(pattern_.elements.size(), -1);
  for (std::size_t i = 0; i < pattern_.negations.size(); ++i) {
    negation_idx_[pattern_.negations[i].gap] = static_cast<int>(i);
  }
  // Pre-size the binding scratch to the pattern arity so the very first
  // windows match without touching the heap (the remaining scratch sizes
  // depend on window contents and stabilize after the first few windows).
  bind_.reserve(pattern_.elements.size() + 1);
  chosen_.reserve(pattern_.elements.size() + 1);
}

std::vector<ComplexEvent> Matcher::match_window(const WindowView& w) const {
  std::vector<ComplexEvent> out;
  if (w.kept_count() == 0) return out;
  switch (pattern_.kind) {
    case PatternKind::kSequence:
      if (selection_ == SelectionPolicy::kFirst) {
        match_sequence_first(w, out);
      } else {
        match_sequence_last(w, out);
      }
      break;
    case PatternKind::kTriggerAny:
      match_trigger_any(w, out);
      break;
  }
  return out;
}

ComplexEvent Matcher::build_match(
    const WindowView& w, const std::vector<std::size_t>& event_indices) const {
  ComplexEvent ce;
  ce.window = w.id;
  ce.constituents.reserve(event_indices.size());
  for (std::size_t k = 0; k < event_indices.size(); ++k) {
    const std::size_t i = event_indices[k];
    Constituent c;
    c.element = pattern_.binding_element(k);
    c.position = w.pos(i);
    c.event = w.kept(i);
    ce.detection_ts = std::max(ce.detection_ts, c.event.ts);
    ce.constituents.push_back(std::move(c));
  }
  return ce;
}

// ---------------------------------------------------------------------------
// Sequence, first selection.
//
// Greedy earliest binding.  Under `consumed` the constituents of an emitted
// match are excluded and the scan restarts (this reproduces the paper's
// first+consumed example: {A1 A2 B3 B4} -> (A1,B3), (A2,B4)).  Under `zero`
// each additional match must *complete* strictly after the previous
// completion but may reuse earlier constituents.
// ---------------------------------------------------------------------------
// Negated variant: single-pass online matching with earliest bindings.  The
// partial prefix grows with the earliest matching instances; an event
// matching the negation of the *pending* gap invalidates the gap's left
// anchor (the element must re-bind after the poison).  Consumed matches do
// not revisit earlier events (online semantics).
void Matcher::match_sequence_first_negated(
    const WindowView& w, std::vector<ComplexEvent>& out) const {
  const std::size_t n = w.kept_count();
  const std::size_t k = pattern_.elements.size();

  bind_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const Event& ev = w.kept(i);
    const std::size_t p = bind_.size();
    // Extension is checked before the negation: an event that *binds* the
    // pending element sits at the gap's right edge, not inside it
    // (seq(A; !B; B) must match "A B").
    if (p < k && pattern_.elements[p].matches(ev)) {
      bind_.push_back(i);
      if (bind_.size() == k) {
        out.push_back(build_match(w, bind_));
        bind_.clear();  // consumed and zero alike: continue with fresh state
        if (out.size() >= max_matches_) return;
      }
      continue;
    }
    if (p > 0 && p < k && negation_for(p - 1) != nullptr &&
        negation_for(p - 1)->matches(ev)) {
      // Poisoned pending gap: the left anchor must re-bind after this event.
      bind_.pop_back();
    }
  }
}

void Matcher::match_sequence_first(const WindowView& w,
                                   std::vector<ComplexEvent>& out) const {
  if (!pattern_.negations.empty()) {
    match_sequence_first_negated(w, out);
    return;
  }
  const std::size_t n = w.kept_count();
  const std::size_t k = pattern_.elements.size();
  const bool exclude = track_consumed();
  if (exclude) consumed_.assign(n, 0);
  std::size_t last_completion_excl = 0;  // min index of the completing event

  while (out.size() < max_matches_) {
    bind_.clear();
    std::size_t from = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const bool final_element = (j == k - 1);
      std::size_t i = from;
      if (final_element && consumption_ == ConsumptionPolicy::kZero) {
        i = std::max(i, last_completion_excl);
      }
      bool found = false;
      for (; i < n; ++i) {
        if (exclude && consumed_[i]) continue;
        if (pattern_.elements[j].matches(w.kept(i))) {
          bind_.push_back(i);
          from = i + 1;
          found = true;
          break;
        }
      }
      if (!found) return;  // no further match possible
    }
    out.push_back(build_match(w, bind_));
    if (consumption_ == ConsumptionPolicy::kConsumed) {
      if (exclude) {
        for (std::size_t i : bind_) consumed_[i] = 1;
      }
    } else {
      last_completion_excl = bind_.back() + 1;
    }
  }
}

// ---------------------------------------------------------------------------
// Sequence, last selection.
//
// Online partial-match replacement: partial[j] is the latest-known binding of
// elements 0..j-1.  When an event matches element j it *replaces* partial
// [j+1] (later instances win), and when it matches the final element the
// match completes with the latest prefix.  Reproduces the paper's example:
// {A1 A2 B3 B4}, last+consumed -> (A2,B3); last+zero -> (A2,B3), (A2,B4).
// ---------------------------------------------------------------------------
void Matcher::match_sequence_last(const WindowView& w,
                                  std::vector<ComplexEvent>& out) const {
  const std::size_t n = w.kept_count();
  const std::size_t k = pattern_.elements.size();
  const bool exclude = track_consumed();
  if (exclude) consumed_.assign(n, 0);

  // partial_[j]: indices binding elements 0..j-1 (partial_set_[j] == 0 means
  // none yet).  The inner vectors are reused across windows and resets.
  partial_.resize(k + 1);
  partial_set_.assign(k + 1, 0);
  partial_set_[0] = 1;  // the empty prefix always exists
  partial_[0].clear();

  auto reset_partials = [&] {
    for (std::size_t j = 1; j <= k; ++j) partial_set_[j] = 0;
  };

  // Prefix slots written by the current event's extensions; kills must skip
  // them (an event binding element j sits at the edge of gap j-1, not
  // inside it).
  extended_.assign(k + 1, 0);

  for (std::size_t i = 0; i < n; ++i) {
    if (exclude && consumed_[i]) continue;
    const Event& ev = w.kept(i);
    std::fill(extended_.begin(), extended_.end(), 0);
    // Descending element order so an event extends existing prefixes before
    // creating the shorter prefix it also matches (no self-reuse).
    for (std::size_t j = k; j-- > 0;) {
      if (!partial_set_[j]) continue;
      if (!pattern_.elements[j].matches(ev)) continue;
      if (j == k - 1) {
        bind_ = partial_[j];
        bind_.push_back(i);
        out.push_back(build_match(w, bind_));
        if (out.size() >= max_matches_) return;
        if (consumption_ == ConsumptionPolicy::kConsumed) {
          // Last selection never falls back to superseded (older) instances:
          // consuming a match clears the partial state instead of replaying
          // earlier events (this reproduces the paper's example, where
          // {A1 A2 B3 B4} under last+consumed yields only (A2, B3)).
          for (std::size_t b : bind_) consumed_[b] = 1;
          reset_partials();
          break;
        }
        // zero consumption: prefixes stay available for later completions.
      } else {
        // partial_[j+1] = partial_[j] + {i}; copy-assign reuses capacity.
        partial_[j + 1] = partial_[j];
        partial_[j + 1].push_back(i);
        partial_set_[j + 1] = 1;
        extended_[j + 1] = 1;
      }
    }
    // Negations: a forbidden event inside the pending gap of prefix j+1
    // kills that prefix (its last element must re-bind from later events).
    // Prefixes the same event just created are exempt: the event is the
    // gap's left anchor, not inside it.
    for (std::size_t j = 0; j + 1 < k; ++j) {
      if (partial_set_[j + 1] && !extended_[j + 1] &&
          negation_for(j) != nullptr && negation_for(j)->matches(ev)) {
        partial_set_[j + 1] = 0;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Trigger-any: seq(trigger; any(n, candidates)).
//
// first: earliest trigger, then the earliest n candidates after it (distinct
//        types if required).
// last:  earliest trigger, then the *latest* n candidates after it.
// Under consumed, constituents are excluded and the search repeats; under
// zero, the next match uses the next trigger occurrence.
// ---------------------------------------------------------------------------
void Matcher::match_trigger_any(const WindowView& w,
                                std::vector<ComplexEvent>& out) const {
  const std::size_t n = w.kept_count();
  const ElementSpec& trigger = pattern_.elements[0];
  const bool exclude = track_consumed();
  if (exclude) consumed_.assign(n, 0);
  std::size_t trigger_from = 0;

  while (out.size() < max_matches_) {
    // 1. Find the next usable trigger.
    std::size_t ti = trigger_from;
    for (; ti < n; ++ti) {
      if ((!exclude || !consumed_[ti]) && trigger.matches(w.kept(ti))) break;
    }
    if (ti >= n) return;

    // 2. Collect candidates after the trigger.
    chosen_.clear();
    type_used_.clear();
    auto try_take = [&](std::size_t i) {
      if (exclude && consumed_[i]) return;
      const Event& e = w.kept(i);
      if (!pattern_.candidate_matches(e)) return;
      if (pattern_.any_distinct_types) {
        if (e.type >= type_used_.size()) type_used_.resize(e.type + 1, 0);
        if (type_used_[e.type]) return;
        type_used_[e.type] = 1;
      }
      chosen_.push_back(i);
    };

    if (selection_ == SelectionPolicy::kFirst) {
      for (std::size_t i = ti + 1; i < n && chosen_.size() < pattern_.any_n;
           ++i) {
        try_take(i);
      }
    } else {
      for (std::size_t i = n;
           i-- > ti + 1 && chosen_.size() < pattern_.any_n;) {
        try_take(i);
      }
      std::reverse(chosen_.begin(), chosen_.end());
    }

    if (chosen_.size() < pattern_.any_n) {
      // This trigger cannot complete; try the next one.
      trigger_from = ti + 1;
      continue;
    }

    bind_.clear();
    bind_.reserve(1 + chosen_.size());
    bind_.push_back(ti);
    bind_.insert(bind_.end(), chosen_.begin(), chosen_.end());
    out.push_back(build_match(w, bind_));

    if (consumption_ == ConsumptionPolicy::kConsumed) {
      if (exclude) {
        for (std::size_t b : bind_) consumed_[b] = 1;
      }
      trigger_from = 0;  // earlier triggers may still be unconsumed
    } else {
      trigger_from = ti + 1;  // zero: advance to the next trigger occurrence
    }
  }
}

}  // namespace espice
