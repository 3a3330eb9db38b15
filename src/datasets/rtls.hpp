// Synthetic RTLS (real-time locating system) soccer stream.
//
// Substitute for the DEBS'13 grand-challenge dataset the paper uses (sensor
// events filtered to one event per object per second, ~46 objects -> a 15 s
// window holds ~700 events).  Q1's man-marking pattern needs one property of
// that data: when a striker possesses the ball, his marking defenders start
// defending within a short reaction lag.  The generator reproduces it:
//
//  * 2 strikers, `num_defenders` defenders, `num_others` other objects; each
//    object emits exactly one event per second (jittered sub-second offsets),
//  * possession episodes alternate between strikers: exponential gaps,
//    uniform durations; during an episode the possessing striker's events
//    carry value +1 (idle strikers carry -1),
//  * each striker has `markers_per_striker` assigned defenders; with
//    probability `marker_response` per episode a marker starts defending
//    after a per-defender reaction lag of 1..max_reaction_lag seconds and
//    stops at episode end,
//  * defender events carry value = defend intensity: positive while
//    defending, negative otherwise, so "defend event" is simply a rising
//    (value > 0) DF event.  Unassigned defenders defend at random with a
//    small `noise_defend_probability` per second.
#pragma once

#include <cstdint>
#include <vector>

#include "cep/event.hpp"
#include "cep/type_registry.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace espice {

struct RtlsConfig {
  std::size_t num_defenders = 20;
  std::size_t num_others = 4;
  std::size_t markers_per_striker = 7;
  double possession_gap_mean_seconds = 10.0;
  double possession_min_seconds = 5.0;
  double possession_max_seconds = 15.0;
  double max_reaction_lag_seconds = 5.0;
  double marker_response = 0.9;
  double noise_defend_probability = 0.03;
  std::uint64_t seed = 2;

  void validate() const {
    ESPICE_REQUIRE(markers_per_striker * 2 <= num_defenders,
                   "markers must fit into the defender universe");
    ESPICE_REQUIRE(possession_min_seconds > 0.0 &&
                       possession_min_seconds <= possession_max_seconds,
                   "invalid possession duration range");
    ESPICE_REQUIRE(possession_gap_mean_seconds > 0.0, "invalid possession gap");
  }
};

class RtlsGenerator {
 public:
  /// Registers types: STR0, STR1, DF00.., OBJ00.. in `registry`.
  RtlsGenerator(RtlsConfig config, TypeRegistry& registry);

  std::vector<Event> generate(std::size_t count);

  const std::vector<EventTypeId>& striker_types() const { return strikers_; }
  const std::vector<EventTypeId>& defender_types() const { return defenders_; }
  /// Markers assigned to striker `s` (s in {0, 1}).
  const std::vector<EventTypeId>& markers_of(std::size_t s) const {
    ESPICE_ASSERT(s < 2, "striker index out of range");
    return markers_[s];
  }
  /// Total objects == events per second.
  std::size_t objects() const {
    return 2 + config_.num_defenders + config_.num_others;
  }
  double aggregate_rate() const { return static_cast<double>(objects()); }
  const RtlsConfig& config() const { return config_; }

 private:
  RtlsConfig config_;
  Rng rng_;
  std::vector<EventTypeId> strikers_;
  std::vector<EventTypeId> defenders_;
  std::vector<EventTypeId> others_;
  std::vector<std::vector<EventTypeId>> markers_;  // [striker] -> defender ids
  std::uint64_t next_seq_ = 0;
  double clock_ = 0.0;

  struct Episode {
    std::size_t striker = 0;
    double start = 0.0;
    double end = 0.0;
    // Per assigned marker: defend start (episode start + reaction lag), or
    // a negative value if the marker does not respond this episode.
    std::vector<double> marker_start;
  };
  Episode episode_;
  bool episode_active_ = false;
  double next_episode_start_ = 0.0;
  std::size_t next_striker_ = 0;

  /// Whole one-second slots are generated at once; events past the
  /// requested count wait here for the next generate() call instead of
  /// being discarded (batched generation equals one long run).
  std::vector<Event> pending_;
  std::size_t pending_pos_ = 0;

  void roll_episode();
};

}  // namespace espice
