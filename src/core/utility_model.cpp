#include "core/utility_model.hpp"

#include <algorithm>
#include <cmath>

#include "durability/serial.hpp"

namespace espice {

std::size_t UtilityModel::checked_cols(std::size_t n_positions,
                                       std::size_t bin_size) {
  ESPICE_REQUIRE(n_positions > 0, "utility model needs N > 0");
  ESPICE_REQUIRE(bin_size > 0, "bin size must be positive");
  return (n_positions + bin_size - 1) / bin_size;
}

UtilityModel::UtilityModel(std::size_t num_types, std::size_t n_positions,
                           std::size_t bin_size,
                           std::vector<std::uint8_t> utilities,
                           std::vector<double> shares)
    : num_types_(num_types),
      n_positions_(n_positions),
      bin_size_(bin_size),
      cols_(checked_cols(n_positions, bin_size)),
      ut_(std::move(utilities)),
      shares_(std::move(shares)) {
  ESPICE_REQUIRE(num_types_ > 0, "utility model needs at least one event type");
  ESPICE_ASSERT(ut_.size() == num_types_ * cols_, "UT size mismatch");
  ESPICE_ASSERT(shares_.size() == num_types_ * cols_, "shares size mismatch");
  for (std::uint8_t u : ut_) {
    ESPICE_ASSERT(u <= kMaxUtility, "utility out of [0, 100]");
  }
}

std::size_t UtilityModel::col_width(std::size_t col) const {
  ESPICE_ASSERT(col < cols_, "column out of range");
  if (col + 1 < cols_) return bin_size_;
  return n_positions_ - col * bin_size_;
}

std::size_t UtilityModel::col_of_norm(double norm_pos) const {
  if (norm_pos < 0.0) norm_pos = 0.0;
  auto col = static_cast<std::size_t>(norm_pos) / bin_size_;
  return std::min(col, cols_ - 1);
}

double UtilityModel::normalize_position(std::uint32_t position,
                                        double ws) const {
  ESPICE_ASSERT(ws > 0.0, "window size must be positive");
  const double norm = static_cast<double>(position) *
                      static_cast<double>(n_positions_) / ws;
  // Clamp: events beyond the predicted size map to the last position.
  return std::min(norm, static_cast<double>(n_positions_) - 1e-9);
}

int UtilityModel::utility(EventTypeId type, std::uint32_t position,
                          double ws) const {
  ESPICE_ASSERT(type < num_types_, "type out of range");
  const double scale = static_cast<double>(n_positions_) / ws;
  const double lo = std::min(static_cast<double>(position) * scale,
                             static_cast<double>(n_positions_) - 1e-9);
  if (scale <= 1.0) {
    // ws >= N: the event covers at most one cell -- single lookup.
    return utility_cell(type, col_of_norm(lo));
  }
  // ws < N (scaling up): average the covered cells, weighted by overlap.
  const double hi = std::min(static_cast<double>(position + 1) * scale,
                             static_cast<double>(n_positions_));
  const std::size_t first_col = col_of_norm(lo);
  const std::size_t last_col = col_of_norm(std::nextafter(hi, lo));
  if (first_col == last_col) return utility_cell(type, first_col);
  double weighted = 0.0;
  double total = 0.0;
  for (std::size_t c = first_col; c <= last_col; ++c) {
    const double c_lo = static_cast<double>(c * bin_size_);
    const double c_hi = c_lo + static_cast<double>(col_width(c));
    const double overlap = std::min(hi, c_hi) - std::max(lo, c_lo);
    if (overlap <= 0.0) continue;
    weighted += overlap * static_cast<double>(utility_cell(type, c));
    total += overlap;
  }
  if (total <= 0.0) return utility_cell(type, first_col);
  return static_cast<int>(std::lround(weighted / total));
}

void UtilityModel::serialize(durability::SnapshotWriter& w) const {
  w.u64(num_types_);
  w.u64(n_positions_);
  w.u64(bin_size_);
  w.vec_int(ut_);
  w.vec_f64(shares_);
}

std::shared_ptr<const UtilityModel> UtilityModel::deserialize(
    durability::SnapshotReader& r) {
  // Plain dimension counts, not length prefixes (N can exceed the payload
  // size in bytes when bins are wide), so u64, not size().
  const auto num_types = static_cast<std::size_t>(r.u64());
  const auto n_positions = static_cast<std::size_t>(r.u64());
  const auto bin_size = static_cast<std::size_t>(r.u64());
  std::vector<std::uint8_t> ut = r.vec_int<std::uint8_t>();
  std::vector<double> shares = r.vec_f64();
  try {
    return std::make_shared<const UtilityModel>(num_types, n_positions,
                                                bin_size, std::move(ut),
                                                std::move(shares));
  } catch (const ConfigError& e) {
    // Corrupt dimensions surface as the ctor's validation error; map them
    // to the snapshot-corruption category the recovery path dispatches on.
    throw Error(ErrorCode::kCorruptSnapshot,
                std::string("utility model snapshot invalid: ") + e.what());
  }
}

}  // namespace espice
