#include "core/model_builder.hpp"

#include <algorithm>
#include <cmath>

#include "durability/serial.hpp"

namespace espice {

ModelBuilder::ModelBuilder(ModelBuilderConfig config) : config_(config) {
  config_.validate();
  cols_ = (config_.n_positions + config_.bin_size - 1) / config_.bin_size;
  match_counts_.assign(config_.num_types * cols_, 0.0);
  pos_counts_.assign(config_.num_types * cols_, 0.0);
}

template <typename AddFn>
void ModelBuilder::for_each_scaled_col(std::uint32_t position, double ws,
                                       AddFn add) const {
  ESPICE_ASSERT(ws > 0.0, "window size must be positive");
  const double n = static_cast<double>(config_.n_positions);
  const double scale = n / ws;  // 1/sf in the paper's notation
  double lo = std::min(static_cast<double>(position) * scale, n - 1e-9);
  double hi = std::min(static_cast<double>(position + 1) * scale, n);
  if (hi <= lo) hi = std::min(lo + 1e-9, n);
  // Spread one observation over the covered normalized positions so that the
  // total weight contributed by a full window is always ~N position units:
  // scaling up (ws < N) smears one event across several cells, scaling down
  // (ws > N) lets several events share a cell fractionally.
  std::size_t c = static_cast<std::size_t>(lo) / config_.bin_size;
  c = std::min(c, cols_ - 1);
  for (; c < cols_; ++c) {
    const double c_lo = static_cast<double>(c * config_.bin_size);
    const double c_hi =
        std::min(c_lo + static_cast<double>(config_.bin_size), n);
    const double overlap = std::min(hi, c_hi) - std::max(lo, c_lo);
    if (overlap <= 0.0) break;
    add(c, overlap);
  }
}

void ModelBuilder::observe_window(const WindowView& w) {
  if (w.size() == 0) return;
  const auto ws = static_cast<double>(w.size());
  for (std::size_t i = 0; i < w.kept_count(); ++i) {
    const Event& e = w.kept(i);
    // Always-on: window contents come from external streams and index the
    // count arrays by type; model building is off the hot path.
    ESPICE_REQUIRE(e.type < config_.num_types, "event type outside universe");
    for_each_scaled_col(w.pos(i), ws, [&](std::size_t col, double weight) {
      pos_counts_[e.type * cols_ + col] += weight;
    });
  }
  windows_weight_ += 1.0;
  ++windows_observed_;
}

void ModelBuilder::observe_position(EventTypeId type, std::uint32_t position,
                                    double ws) {
  ESPICE_REQUIRE(type < config_.num_types, "event type outside universe");
  if (ws <= 0.0) return;
  for_each_scaled_col(position, ws, [&](std::size_t col, double weight) {
    pos_counts_[type * cols_ + col] += weight;
  });
}

void ModelBuilder::count_window() {
  windows_weight_ += 1.0;
  ++windows_observed_;
}

void ModelBuilder::observe_match(const ComplexEvent& ce, std::size_t ws) {
  if (ws == 0) return;
  for (const Constituent& c : ce.constituents) {
    ESPICE_REQUIRE(c.event.type < config_.num_types,
                   "event type outside universe");
    for_each_scaled_col(c.position, static_cast<double>(ws),
                        [&](std::size_t col, double weight) {
                          match_counts_[c.event.type * cols_ + col] += weight;
                        });
  }
  ++matches_observed_;
}

void ModelBuilder::decay(double factor) {
  ESPICE_REQUIRE(factor > 0.0 && factor <= 1.0,
                 "decay factor must be in (0, 1]");
  for (double& v : match_counts_) v *= factor;
  for (double& v : pos_counts_) v *= factor;
  windows_weight_ *= factor;
}

void ModelBuilder::reset() {
  std::fill(match_counts_.begin(), match_counts_.end(), 0.0);
  std::fill(pos_counts_.begin(), pos_counts_.end(), 0.0);
  windows_weight_ = 0.0;
  windows_observed_ = 0;
  matches_observed_ = 0;
}

std::size_t ModelBuilder::windows_observed() const { return windows_observed_; }

std::shared_ptr<const UtilityModel> ModelBuilder::build() const {
  ESPICE_REQUIRE(windows_weight_ > 0.0,
                 "cannot build a model before observing any window");

  // Utilities: the paper defines U(T, P) as "the probability of the event to
  // be part of the detected complex events"; the natural estimator is the
  // conditional probability  match_count(T,P) / occurrence_count(T,P)
  // (both counts use identical position scaling, so the ratio is stable
  // under variable window sizes).  Cells that ever contributed are floored
  // at 1 so that rounding cannot conflate them with never-contributing
  // cells; multi-match windows with zero consumption can push the raw ratio
  // above 1, hence the clamp.
  std::vector<std::uint8_t> ut(match_counts_.size(), 0);
  for (std::size_t i = 0; i < match_counts_.size(); ++i) {
    if (match_counts_[i] <= 0.0 || pos_counts_[i] <= 0.0) continue;
    const double ratio = match_counts_[i] / pos_counts_[i];
    const long scaled = std::lround(ratio * kMaxUtility);
    ut[i] = static_cast<std::uint8_t>(std::clamp<long>(scaled, 1, kMaxUtility));
  }

  // Position shares: expected events of each type per bin column per window.
  std::vector<double> shares(pos_counts_.size(), 0.0);
  for (std::size_t i = 0; i < pos_counts_.size(); ++i) {
    shares[i] = pos_counts_[i] / windows_weight_;
  }

  return std::make_shared<UtilityModel>(config_.num_types, config_.n_positions,
                                        config_.bin_size, std::move(ut),
                                        std::move(shares));
}

void ModelBuilder::serialize(durability::SnapshotWriter& w) const {
  w.u64(config_.num_types);
  w.u64(config_.n_positions);
  w.u64(config_.bin_size);
  w.vec_f64(match_counts_);
  w.vec_f64(pos_counts_);
  w.f64(windows_weight_);
  w.u64(windows_observed_);
  w.u64(matches_observed_);
}

void ModelBuilder::restore(durability::SnapshotReader& r) {
  ESPICE_CHECK(r.u64() == config_.num_types &&
                   r.u64() == config_.n_positions &&
                   r.u64() == config_.bin_size,
               ErrorCode::kCorruptSnapshot,
               "model builder snapshot dimensions disagree with the config");
  match_counts_ = r.vec_f64();
  pos_counts_ = r.vec_f64();
  ESPICE_CHECK(match_counts_.size() == config_.num_types * cols_ &&
                   pos_counts_.size() == config_.num_types * cols_,
               ErrorCode::kCorruptSnapshot,
               "model builder snapshot table size mismatch");
  windows_weight_ = r.f64();
  windows_observed_ = static_cast<std::size_t>(r.u64());
  matches_observed_ = static_cast<std::size_t>(r.u64());
}

}  // namespace espice
