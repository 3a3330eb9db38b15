#include "core/baseline_shedder.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"

namespace espice {

std::vector<double> BaselineShedder::pattern_repetitions(
    const Pattern& pattern, std::size_t num_types) {
  std::vector<double> reps(num_types, 0.0);
  auto add_element = [&](const TypeSet& types) {
    if (types.is_any()) {
      for (auto& r : reps) r += 1.0;
    } else {
      for (EventTypeId t : types.members()) {
        if (t < num_types) reps[t] += 1.0;
      }
    }
  };
  for (const ElementSpec& el : pattern.elements) add_element(el.types);
  if (pattern.kind == PatternKind::kTriggerAny) {
    add_element(pattern.any_candidates);
  }
  return reps;
}

BaselineShedder::BaselineShedder(const Pattern& pattern,
                                 std::vector<double> type_frequencies,
                                 std::size_t window_size_events,
                                 std::uint64_t seed)
    : repetitions_(pattern_repetitions(pattern, type_frequencies.size())),
      freq_(std::move(type_frequencies)),
      drop_prob_(freq_.size(), 0.0),
      window_size_events_(window_size_events),
      rng_(seed) {
  ESPICE_REQUIRE(!freq_.empty(), "BL needs the type-frequency vector");
  ESPICE_REQUIRE(window_size_events_ > 0, "window size must be positive");
}

void BaselineShedder::on_command(const DropCommand& cmd) {
  active_ = cmd.active;
  if (!active_) {
    std::fill(drop_prob_.begin(), drop_prob_.end(), 0.0);
    return;
  }
  // BL has no notion of partitions: convert the per-partition amount into a
  // per-window amount.
  recompute(cmd.x * static_cast<double>(cmd.partitions));
}

void BaselineShedder::recompute(double x_per_window) {
  // Per-type drop amounts are allocated inversely to the type's pattern
  // utility: type T receives weight freq(T) / (1 + rep(T)), the x events per
  // window are split proportionally to the weights, and each type drops its
  // allocation by uniform sampling (drop probability alloc / freq).
  //
  // We deliberately use this *smooth* inverse-utility allocation rather than
  // a strict lowest-utility-first priority: He et al.'s fractional shedding
  // (and the paper's measured BL behaviour) spread drops across types
  // instead of sacrificing whole never-matching types first.  Allocations
  // exceeding a type's frequency are redistributed (water filling).
  const std::size_t m = freq_.size();
  std::vector<double> alloc(m, 0.0);
  std::vector<bool> saturated(m, false);
  double remaining = x_per_window;

  for (int round = 0; round < 32 && remaining > 1e-12; ++round) {
    double total_weight = 0.0;
    for (std::size_t t = 0; t < m; ++t) {
      if (!saturated[t] && freq_[t] > 0.0) {
        total_weight += freq_[t] / (1.0 + repetitions_[t]);
      }
    }
    if (total_weight <= 0.0) break;  // every type fully dropped
    bool any_saturated = false;
    double distributed = 0.0;
    for (std::size_t t = 0; t < m; ++t) {
      if (saturated[t] || freq_[t] <= 0.0) continue;
      const double share =
          remaining * (freq_[t] / (1.0 + repetitions_[t])) / total_weight;
      const double headroom = freq_[t] - alloc[t];
      if (share >= headroom) {
        alloc[t] = freq_[t];
        distributed += headroom;
        saturated[t] = true;
        any_saturated = true;
      } else {
        alloc[t] += share;
        distributed += share;
      }
    }
    remaining -= distributed;
    if (!any_saturated) break;  // everything fit; no need to redistribute
  }

  for (std::size_t t = 0; t < m; ++t) {
    drop_prob_[t] = freq_[t] > 0.0 ? std::clamp(alloc[t] / freq_[t], 0.0, 1.0)
                                   : 1.0;
  }
}

bool BaselineShedder::should_drop(const Event& e, std::uint32_t /*position*/,
                                  double /*predicted_ws*/) {
  if (is_watermark(e)) return false;  // punctuations are never shed
  if (!active_) {
    count_decision(false);
    return false;
  }
  const bool drop =
      e.type < drop_prob_.size() && rng_.bernoulli(drop_prob_[e.type]);
  count_decision(drop);
  return drop;
}

}  // namespace espice
