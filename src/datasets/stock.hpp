// Synthetic NYSE-style stock quote stream.
//
// Substitute for the paper's Google-Finance intraday dataset (500 symbols,
// one quote per symbol per minute).  What eSPICE exploits in that data is
// the correlation between a *leading* symbol's move and follower symbols'
// moves at bounded lags -- exactly the structure Q2/Q3/Q4 query.  The
// generator reproduces it explicitly:
//
//  * `num_symbols` symbols each emit one quote per simulated minute, at
//    jittered offsets within the minute (aggregate rate ~ num_symbols/60 Hz),
//  * the first `num_leaders` symbols are leaders ("technology blue chips");
//    each leader's quote direction is a persistent random walk,
//  * every follower symbol is influenced by one leader: after a leader move
//    at time t, the follower copies the leader's direction with probability
//    `follow_probability` for quotes in [t + lag, t + lag + hold_seconds),
//  * follower lags are deterministic per symbol and spread over
//    [min_lag, max_lag], so "who reacts when" is learnable from positions,
//  * quote *timing* reflects the reaction structure: a leader quotes at the
//    start of each period, a follower with lag l quotes ~l seconds into the
//    period (with per-quote jitter).  This mirrors per-minute quote feeds
//    with per-symbol schedules and gives the stream the stable
//    type-at-relative-position structure that eSPICE's utility model (and
//    Q3/Q4's lag-ordered sequences) rely on,
//  * quotes not under leader influence move with `baseline_rise_probability`.
//
// Event encoding: type = symbol id, value = price change (sign = direction).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "cep/event.hpp"
#include "cep/type_registry.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace espice {

struct StockConfig {
  std::size_t num_symbols = 500;
  std::size_t num_leaders = 5;
  double quote_period_seconds = 60.0;  ///< one quote per symbol per period
  double follow_probability = 0.95;
  double min_lag_seconds = 5.0;
  double max_lag_seconds = 60.0;
  /// How long a leader move influences a follower.
  double hold_seconds = 150.0;
  /// Rising probability of an *uninfluenced* quote.  Below 0.5 so that
  /// correlated follower reactions stand out against background noise.
  double baseline_rise_probability = 0.3;
  /// Per-quote timing jitter around the symbol's fixed intra-period offset.
  double quote_jitter_seconds = 1.5;
  /// Per leader, its `hot_followers_per_leader` smallest-lag followers are
  /// "hot" (liquid) symbols quoting `hot_quotes_per_period` times per period.
  /// Q4's repetition sequences need symbols that tick more than once per
  /// window; liquid stocks do exactly that.
  std::size_t hot_followers_per_leader = 10;
  std::size_t hot_quotes_per_period = 4;
  /// Probability that a leader flips its direction at each of its quotes.
  double leader_flip_probability = 0.3;
  std::uint64_t seed = 1;

  void validate() const {
    ESPICE_REQUIRE(num_symbols >= 2, "need at least two symbols");
    ESPICE_REQUIRE(num_leaders >= 1 && num_leaders < num_symbols,
                   "leaders must be a strict subset of symbols");
    ESPICE_REQUIRE(quote_period_seconds > 0.0, "quote period must be positive");
    ESPICE_REQUIRE(min_lag_seconds <= max_lag_seconds, "invalid lag range");
  }
};

class StockGenerator {
 public:
  /// Registers "S000".."S499" in `registry` (leaders are S000..S00k).
  StockGenerator(StockConfig config, TypeRegistry& registry);

  /// Generates `count` events (globally ordered by timestamp / seq).
  std::vector<Event> generate(std::size_t count);

  /// Leader symbol ids (the MLE universe for Q2/Q3).
  const std::vector<EventTypeId>& leaders() const { return leaders_; }

  /// The `k` follower symbols of `leader`, ordered by increasing lag.
  std::vector<EventTypeId> followers_in_lag_order(EventTypeId leader,
                                                  std::size_t k) const;

  /// `k` *non-hot* followers of `leader` whose lags are evenly spread over
  /// the lag range, in lag order.  Used for Q3: well-separated reaction lags
  /// make the rising quotes arrive in sequence despite timing jitter.
  std::vector<EventTypeId> sequence_symbols(EventTypeId leader,
                                            std::size_t k) const;

  /// `k` hot followers of `leader` in lag order (k must not exceed
  /// hot_followers_per_leader).  Used for Q4: repetition patterns need
  /// symbols that quote several times per window.
  std::vector<EventTypeId> repetition_symbols(EventTypeId leader,
                                              std::size_t k) const;

  bool is_hot(EventTypeId symbol) const;

  double lag_of(EventTypeId symbol) const;
  EventTypeId leader_of(EventTypeId symbol) const;
  /// Mean stream rate in events/second (accounts for hot symbols).
  double aggregate_rate() const {
    return static_cast<double>(quotes_per_period_) /
           config_.quote_period_seconds;
  }
  const StockConfig& config() const { return config_; }

 private:
  StockConfig config_;
  Rng rng_;
  std::vector<EventTypeId> leaders_;
  std::vector<EventTypeId> leader_of_;     // per symbol (self for leaders)
  std::vector<double> lag_of_;             // per symbol (0 for leaders)
  std::vector<double> offset_of_;          // fixed intra-period quote offset
  std::vector<bool> hot_;                  // liquid symbols (multi-quote)
  std::size_t quotes_per_period_ = 0;      // total quotes emitted per period
  std::uint64_t next_seq_ = 0;
  double clock_ = 0.0;                     // generation time cursor

  struct LeaderState {
    int direction = +1;
    double last_move_ts = -1e18;
  };
  std::vector<LeaderState> leader_state_;

  /// Recent leader moves (per leader, trimmed to the influence horizon).
  /// Persistent state so follower correlation survives generate() call
  /// boundaries -- batched generation equals one long run.
  struct Move {
    double ts;
    int direction;
  };
  std::vector<std::deque<Move>> moves_;

  /// Whole periods are generated at once; events past the requested count
  /// wait here for the next generate() call instead of being discarded.
  std::vector<Event> pending_;
  std::size_t pending_pos_ = 0;
};

}  // namespace espice
