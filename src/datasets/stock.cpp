#include "datasets/stock.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>

namespace espice {

StockGenerator::StockGenerator(StockConfig config, TypeRegistry& registry)
    : config_(config), rng_(config.seed) {
  config_.validate();
  leader_of_.resize(config_.num_symbols);
  lag_of_.resize(config_.num_symbols, 0.0);
  char name[32];
  for (std::size_t s = 0; s < config_.num_symbols; ++s) {
    std::snprintf(name, sizeof(name), "S%03zu", s);
    const EventTypeId id = registry.intern(name);
    ESPICE_ASSERT(id == s, "stock symbols must own a fresh id space");
  }
  for (std::size_t s = 0; s < config_.num_leaders; ++s) {
    leaders_.push_back(static_cast<EventTypeId>(s));
    leader_of_[s] = static_cast<EventTypeId>(s);
  }
  leader_state_.resize(config_.num_leaders);
  offset_of_.resize(config_.num_symbols, 0.0);
  hot_.resize(config_.num_symbols, false);
  for (std::size_t s = 0; s < config_.num_leaders; ++s) {
    // Leaders quote at the start of each period (they "set the tone").
    offset_of_[s] = rng_.uniform(0.0, 3.0);
  }
  for (std::size_t s = config_.num_leaders; s < config_.num_symbols; ++s) {
    leader_of_[s] = static_cast<EventTypeId>((s - config_.num_leaders) %
                                             config_.num_leaders);
    lag_of_[s] = rng_.uniform(config_.min_lag_seconds, config_.max_lag_seconds);
    // A follower reacting l seconds after the leader also *quotes* about l
    // seconds into the period.
    offset_of_[s] = std::min(lag_of_[s], config_.quote_period_seconds - 1.0);
  }
  // Mark the smallest-lag followers of every leader as hot (liquid).
  for (std::size_t l = 0; l < config_.num_leaders; ++l) {
    std::vector<EventTypeId> followers;
    for (std::size_t s = config_.num_leaders; s < config_.num_symbols; ++s) {
      if (leader_of_[s] == l) followers.push_back(static_cast<EventTypeId>(s));
    }
    std::sort(followers.begin(), followers.end(),
              [&](EventTypeId a, EventTypeId b) {
                if (lag_of_[a] != lag_of_[b]) return lag_of_[a] < lag_of_[b];
                return a < b;
              });
    const std::size_t hot_count =
        std::min(config_.hot_followers_per_leader, followers.size());
    for (std::size_t i = 0; i < hot_count; ++i) hot_[followers[i]] = true;
  }
  quotes_per_period_ = config_.num_symbols;
  for (std::size_t s = 0; s < config_.num_symbols; ++s) {
    if (hot_[s]) quotes_per_period_ += config_.hot_quotes_per_period - 1;
  }
}

bool StockGenerator::is_hot(EventTypeId symbol) const {
  ESPICE_ASSERT(symbol < hot_.size(), "unknown symbol");
  return hot_[symbol];
}

std::vector<EventTypeId> StockGenerator::sequence_symbols(EventTypeId leader,
                                                          std::size_t k) const {
  std::vector<EventTypeId> followers;
  for (std::size_t s = config_.num_leaders; s < config_.num_symbols; ++s) {
    if (leader_of_[s] == leader && !hot_[s]) {
      followers.push_back(static_cast<EventTypeId>(s));
    }
  }
  std::sort(followers.begin(), followers.end(),
            [&](EventTypeId a, EventTypeId b) {
              if (lag_of_[a] != lag_of_[b]) return lag_of_[a] < lag_of_[b];
              return a < b;
            });
  ESPICE_REQUIRE(followers.size() >= k,
                 "leader has fewer non-hot followers than requested");
  if (k == 0) return {};
  // Evenly spread picks over the lag range: maximizes the lag separation
  // between consecutive sequence elements.
  std::vector<EventTypeId> out;
  out.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t idx =
        k == 1 ? 0 : i * (followers.size() - 1) / (k - 1);
    out.push_back(followers[idx]);
  }
  return out;
}

std::vector<EventTypeId> StockGenerator::repetition_symbols(
    EventTypeId leader, std::size_t k) const {
  std::vector<EventTypeId> hot_followers;
  for (std::size_t s = config_.num_leaders; s < config_.num_symbols; ++s) {
    if (leader_of_[s] == leader && hot_[s]) {
      hot_followers.push_back(static_cast<EventTypeId>(s));
    }
  }
  std::sort(hot_followers.begin(), hot_followers.end(),
            [&](EventTypeId a, EventTypeId b) {
              if (lag_of_[a] != lag_of_[b]) return lag_of_[a] < lag_of_[b];
              return a < b;
            });
  ESPICE_REQUIRE(hot_followers.size() >= k,
                 "leader has fewer hot followers than requested");
  hot_followers.resize(k);
  return hot_followers;
}

std::vector<EventTypeId> StockGenerator::followers_in_lag_order(
    EventTypeId leader, std::size_t k) const {
  std::vector<EventTypeId> followers;
  for (std::size_t s = config_.num_leaders; s < config_.num_symbols; ++s) {
    if (leader_of_[s] == leader) {
      followers.push_back(static_cast<EventTypeId>(s));
    }
  }
  std::sort(followers.begin(), followers.end(),
            [&](EventTypeId a, EventTypeId b) {
              if (lag_of_[a] != lag_of_[b]) return lag_of_[a] < lag_of_[b];
              return a < b;
            });
  ESPICE_REQUIRE(followers.size() >= k,
                 "leader has fewer followers than requested");
  followers.resize(k);
  return followers;
}

double StockGenerator::lag_of(EventTypeId symbol) const {
  ESPICE_ASSERT(symbol < lag_of_.size(), "unknown symbol");
  return lag_of_[symbol];
}

EventTypeId StockGenerator::leader_of(EventTypeId symbol) const {
  ESPICE_ASSERT(symbol < leader_of_.size(), "unknown symbol");
  return leader_of_[symbol];
}

std::vector<Event> StockGenerator::generate(std::size_t count) {
  std::vector<Event> out;
  out.reserve(count);
  if (moves_.empty()) moves_.resize(config_.num_leaders);
  const double horizon = config_.max_lag_seconds + config_.hold_seconds;

  std::vector<std::pair<double, EventTypeId>> batch;
  batch.reserve(config_.num_symbols);

  for (;;) {
    // Hand out buffered events first: a previous call that stopped
    // mid-period left its tail here.
    while (pending_pos_ < pending_.size() && out.size() < count) {
      out.push_back(pending_[pending_pos_++]);
    }
    if (out.size() == count) return out;
    pending_.clear();
    pending_pos_ = 0;
    // Schedule quotes around each symbol's fixed intra-period offset; hot
    // symbols tick several times per period, spread after their reaction.
    batch.clear();
    for (std::size_t s = 0; s < config_.num_symbols; ++s) {
      const std::size_t quotes = hot_[s] ? config_.hot_quotes_per_period : 1;
      const double spacing =
          quotes > 1
              ? (config_.quote_period_seconds - offset_of_[s]) /
                    static_cast<double>(quotes)
              : 0.0;
      for (std::size_t q = 0; q < quotes; ++q) {
        const double jitter = rng_.uniform(-config_.quote_jitter_seconds,
                                           config_.quote_jitter_seconds);
        const double offset = std::clamp(
            offset_of_[s] + spacing * static_cast<double>(q) + jitter, 0.0,
            config_.quote_period_seconds - 1e-6);
        batch.emplace_back(clock_ + offset, static_cast<EventTypeId>(s));
      }
    }
    std::sort(batch.begin(), batch.end());
    clock_ += config_.quote_period_seconds;

    for (const auto& [ts, symbol] : batch) {
      int direction;
      if (symbol < config_.num_leaders) {
        LeaderState& st = leader_state_[symbol];
        if (rng_.bernoulli(config_.leader_flip_probability)) {
          st.direction = -st.direction;
        }
        st.last_move_ts = ts;
        direction = st.direction;
        auto& dq = moves_[symbol];
        dq.push_back(Move{ts, direction});
        while (!dq.empty() && dq.front().ts < ts - horizon) dq.pop_front();
      } else {
        // Follower: find the latest leader move whose influence interval
        // [move.ts + lag, move.ts + lag + hold) covers this quote.
        const EventTypeId leader = leader_of_[symbol];
        const double lag = lag_of_[symbol];
        const Move* influencing = nullptr;
        for (const Move& mv : moves_[leader]) {
          if (ts >= mv.ts + lag && ts < mv.ts + lag + config_.hold_seconds) {
            influencing = &mv;  // later moves override earlier ones
          }
        }
        if (influencing != nullptr &&
            rng_.bernoulli(config_.follow_probability)) {
          direction = influencing->direction;
        } else {
          direction =
              rng_.bernoulli(config_.baseline_rise_probability) ? +1 : -1;
        }
      }

      Event e;
      e.type = symbol;
      e.seq = next_seq_++;
      e.ts = ts;
      e.value = static_cast<double>(direction) * rng_.uniform(0.05, 1.0);
      pending_.push_back(e);
    }
  }
}

}  // namespace espice
