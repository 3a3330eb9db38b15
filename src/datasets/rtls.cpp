#include "datasets/rtls.hpp"

#include <algorithm>
#include <cstdio>

namespace espice {

RtlsGenerator::RtlsGenerator(RtlsConfig config, TypeRegistry& registry)
    : config_(config), rng_(config.seed) {
  config_.validate();
  char name[32];
  for (std::size_t s = 0; s < 2; ++s) {
    std::snprintf(name, sizeof(name), "STR%zu", s);
    strikers_.push_back(registry.intern(name));
  }
  for (std::size_t d = 0; d < config_.num_defenders; ++d) {
    std::snprintf(name, sizeof(name), "DF%02zu", d);
    defenders_.push_back(registry.intern(name));
  }
  for (std::size_t o = 0; o < config_.num_others; ++o) {
    std::snprintf(name, sizeof(name), "OBJ%02zu", o);
    others_.push_back(registry.intern(name));
  }
  // Disjoint marker assignment: striker 0 gets the first block, striker 1
  // the second.
  markers_.resize(2);
  for (std::size_t s = 0; s < 2; ++s) {
    for (std::size_t k = 0; k < config_.markers_per_striker; ++k) {
      markers_[s].push_back(defenders_[s * config_.markers_per_striker + k]);
    }
  }
  next_episode_start_ =
      rng_.exponential(1.0 / config_.possession_gap_mean_seconds);
}

void RtlsGenerator::roll_episode() {
  episode_.striker = next_striker_;
  next_striker_ = 1 - next_striker_;
  episode_.start = next_episode_start_;
  episode_.end = episode_.start + rng_.uniform(config_.possession_min_seconds,
                                               config_.possession_max_seconds);
  episode_.marker_start.clear();
  for (std::size_t k = 0; k < config_.markers_per_striker; ++k) {
    if (rng_.bernoulli(config_.marker_response)) {
      episode_.marker_start.push_back(
          episode_.start + rng_.uniform(1.0, config_.max_reaction_lag_seconds));
    } else {
      episode_.marker_start.push_back(-1.0);
    }
  }
  episode_active_ = true;
}

std::vector<Event> RtlsGenerator::generate(std::size_t count) {
  std::vector<Event> out;
  out.reserve(count);

  std::vector<std::pair<double, EventTypeId>> batch;
  const std::size_t n_objects = objects();
  batch.reserve(n_objects);

  auto marker_index = [&](EventTypeId type, std::size_t striker) -> int {
    const auto& mk = markers_[striker];
    for (std::size_t k = 0; k < mk.size(); ++k) {
      if (mk[k] == type) return static_cast<int>(k);
    }
    return -1;
  };

  for (;;) {
    // Hand out buffered events first: a previous call that stopped
    // mid-second left its tail here.
    while (pending_pos_ < pending_.size() && out.size() < count) {
      out.push_back(pending_[pending_pos_++]);
    }
    if (out.size() == count) return out;
    pending_.clear();
    pending_pos_ = 0;

    // Episode lifecycle bookkeeping for this one-second slot.
    if (!episode_active_ && clock_ >= next_episode_start_) roll_episode();
    if (episode_active_ && clock_ >= episode_.end) {
      episode_active_ = false;
      next_episode_start_ =
          episode_.end +
          rng_.exponential(1.0 / config_.possession_gap_mean_seconds);
      if (clock_ >= next_episode_start_) roll_episode();
    }

    batch.clear();
    for (EventTypeId t : strikers_) {
      batch.emplace_back(clock_ + rng_.uniform(0.0, 1.0), t);
    }
    for (EventTypeId t : defenders_) {
      batch.emplace_back(clock_ + rng_.uniform(0.0, 1.0), t);
    }
    for (EventTypeId t : others_) {
      batch.emplace_back(clock_ + rng_.uniform(0.0, 1.0), t);
    }
    std::sort(batch.begin(), batch.end());
    clock_ += 1.0;

    for (const auto& [ts, type] : batch) {
      Event e;
      e.type = type;
      e.seq = next_seq_++;
      e.ts = ts;

      const bool in_episode =
          episode_active_ && ts >= episode_.start && ts < episode_.end;

      if (type == strikers_[0] || type == strikers_[1]) {
        const std::size_t s = (type == strikers_[0]) ? 0 : 1;
        const bool possessing = in_episode && episode_.striker == s;
        e.value = possessing ? +1.0 : -1.0;
      } else if (std::find(defenders_.begin(), defenders_.end(), type) !=
                 defenders_.end()) {
        bool defending = false;
        if (in_episode) {
          const int k = marker_index(type, episode_.striker);
          if (k >= 0 &&
              episode_.marker_start[static_cast<std::size_t>(k)] >= 0.0 &&
              ts >= episode_.marker_start[static_cast<std::size_t>(k)]) {
            defending = true;
          }
        }
        if (!defending && rng_.bernoulli(config_.noise_defend_probability)) {
          defending = true;  // uncorrelated defensive action elsewhere
        }
        // Defend intensity: positive while defending (distance below the
        // man-marking threshold), negative otherwise.
        e.value = defending ? rng_.uniform(0.2, 1.0) : -rng_.uniform(0.2, 1.0);
      } else {
        e.value = rng_.uniform(-1.0, 1.0);  // position noise of other objects
      }
      pending_.push_back(e);
    }
  }
}

}  // namespace espice
