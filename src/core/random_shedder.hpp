// Uniform random shedder: drops every event with the probability required to
// remove x events per partition, ignoring utilities entirely.  The paper
// mentions it as comprehensively outperformed by eSPICE; we keep it as a
// sanity floor for the ablation benches.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/shedder.hpp"

namespace espice {

class RandomShedder final : public Shedder {
 public:
  /// `window_size_events` is the normalized window size N, used to convert
  /// the per-partition amount x into a drop probability.
  explicit RandomShedder(std::size_t window_size_events,
                         std::uint64_t seed = 43)
      : window_size_events_(window_size_events), rng_(seed) {
    ESPICE_REQUIRE(window_size_events_ > 0, "window size must be positive");
  }

  bool should_drop(const Event& e, std::uint32_t, double) override {
    if (is_watermark(e)) return false;  // punctuations are never shed
    const bool drop = active_ && rng_.bernoulli(drop_prob_);
    count_decision(drop);
    return drop;
  }

  void on_command(const DropCommand& cmd) override {
    active_ = cmd.active;
    if (!active_) {
      drop_prob_ = 0.0;
      return;
    }
    const double per_window = cmd.x * static_cast<double>(cmd.partitions);
    drop_prob_ = std::clamp(
        per_window / static_cast<double>(window_size_events_), 0.0, 1.0);
  }

  const char* name() const override { return "random"; }
  double drop_probability() const { return drop_prob_; }

 private:
  std::size_t window_size_events_;
  Rng rng_;
  double drop_prob_ = 0.0;
  bool active_ = false;
};

}  // namespace espice
