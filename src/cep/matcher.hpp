// Window-local pattern matcher.
//
// Matches one pattern against the kept contents of a closed window and emits
// complex events with full provenance: for every constituent primitive event
// we record which pattern element it bound and its *position* in the window
// (arrival index).  The provenance is exactly what eSPICE's model builder
// consumes -- it never sees matcher internals, keeping the operator a black
// box as the paper assumes.
//
// The matcher consumes a WindowView (shared-store index view) rather than an
// owned window, so matching never copies event payloads; emitted complex
// events still own copies of their few constituents.  Scratch buffers are
// matcher members reused across windows, so the per-window cost is scan work
// only -- no heap allocation at steady state.  Consequence: match_window()
// is NOT safe to call concurrently on one Matcher instance; give each thread
// its own (cheap) copy.
//
// Selection policies:
//  * first: the earliest possible instances are bound,
//  * last:  at completion time the latest instances for earlier elements are
//           bound (implemented with online partial-match replacement, which
//           reproduces the paper's running example exactly).
// Consumption policies (relevant when max_matches_per_window > 1):
//  * consumed: constituents of an emitted match cannot be reused,
//  * zero:     constituents may be reused by later matches.
// All matching uses skip-till-next/any-match: non-matching events between
// constituents are skipped freely.
#pragma once

#include <cstdint>
#include <vector>

#include "cep/event.hpp"
#include "cep/pattern.hpp"
#include "cep/window.hpp"

namespace espice {

/// One primitive event inside a detected complex event.
struct Constituent {
  /// Index of the pattern element this event bound.  For trigger-any
  /// patterns the trigger is element 0 and every any-candidate is element 1
  /// (the candidates are an unordered set, so they are interchangeable).
  std::uint32_t element = 0;
  /// Arrival position of the event in its window.
  std::uint32_t position = 0;
  Event event;
};

/// A detected complex event (one pattern match in one window).
struct ComplexEvent {
  WindowId window = 0;
  /// Timestamp of the constituent that completed the match.
  double detection_ts = 0.0;
  /// Constituents in binding order (trigger first for trigger-any).
  std::vector<Constituent> constituents;
};

class Matcher {
 public:
  Matcher(Pattern pattern, SelectionPolicy selection,
          ConsumptionPolicy consumption,
          std::size_t max_matches_per_window = 1);

  /// Matches the pattern against the window's kept events and returns up to
  /// `max_matches_per_window` complex events.  Not thread-safe per instance
  /// (reuses internal scratch buffers).
  std::vector<ComplexEvent> match_window(const WindowView& w) const;
  std::vector<ComplexEvent> match_window(const Window& w) const {
    return match_window(w.view());
  }

  const Pattern& pattern() const { return pattern_; }
  SelectionPolicy selection() const { return selection_; }
  ConsumptionPolicy consumption() const { return consumption_; }

 private:
  void match_sequence_first(const WindowView& w,
                            std::vector<ComplexEvent>& out) const;
  void match_sequence_first_negated(const WindowView& w,
                                    std::vector<ComplexEvent>& out) const;
  void match_sequence_last(const WindowView& w,
                           std::vector<ComplexEvent>& out) const;
  void match_trigger_any(const WindowView& w,
                         std::vector<ComplexEvent>& out) const;

  ComplexEvent build_match(const WindowView& w,
                           const std::vector<std::size_t>& event_indices) const;

  /// Spec forbidden between elements g and g+1, or nullptr.  Indexes into
  /// pattern_.negations (stable under Matcher copies, unlike raw pointers).
  const ElementSpec* negation_for(std::size_t gap) const {
    const int idx = negation_idx_[gap];
    return idx >= 0 ? &pattern_.negations[static_cast<std::size_t>(idx)].spec
                    : nullptr;
  }
  /// Consumed-event tracking is only observable when an emitted match can be
  /// followed by another search pass; otherwise the buffer is never touched.
  bool track_consumed() const {
    return consumption_ == ConsumptionPolicy::kConsumed && max_matches_ > 1;
  }

  Pattern pattern_;
  SelectionPolicy selection_;
  ConsumptionPolicy consumption_;
  std::size_t max_matches_;
  std::vector<int> negation_idx_;  ///< per gap, index into negations or -1

  // Reusable scratch (see class comment on thread-safety).
  mutable std::vector<char> consumed_;
  mutable std::vector<std::size_t> bind_;
  mutable std::vector<std::vector<std::size_t>> partial_;
  mutable std::vector<char> partial_set_;
  mutable std::vector<char> extended_;
  mutable std::vector<std::size_t> chosen_;
  mutable std::vector<char> type_used_;
};

}  // namespace espice
