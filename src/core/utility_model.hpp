// The utility model: UT (utility table) + position shares (paper Section 3.2
// and 3.3).
//
// UT is an M x C table of integer utilities in [0, 100], where M is the
// number of event types and C = ceil(N / bs) columns cover the N positions of
// a normalized window (N = average observed window size, bs = bin size).
// UT(T, c) approximates 100 * P(event of type T at positions of bin c
// contributes to a complex event), normalized so the largest cell is 100.
//
// The position shares S(T, c) give the expected number of events of type T
// falling into bin c per window; they are the fractional weights used when
// counting utility occurrences into the CDT (paper, "position shares in a
// window").
//
// Variable window sizes are handled by scaling positions with sf = ws / N:
// an event at position p of a ws-sized window covers normalized positions
// [p*N/ws, (p+1)*N/ws).  When scaling up (ws < N) this range spans several
// cells and the utility is their overlap-weighted average, exactly as the
// paper prescribes.
#pragma once

#include <cstdint>
#include <cstddef>
#include <memory>
#include <vector>

#include "cep/event.hpp"
#include "common/error.hpp"

namespace espice::durability {
class SnapshotWriter;
class SnapshotReader;
}  // namespace espice::durability

namespace espice {

/// Maximum utility value stored in UT; utilities live in [0, kMaxUtility].
inline constexpr int kMaxUtility = 100;

class UtilityModel {
 public:
  /// `utilities`: M*C values in [0,100], row-major by type.
  /// `shares`: M*C expected per-window counts, row-major by type.
  UtilityModel(std::size_t num_types, std::size_t n_positions,
               std::size_t bin_size, std::vector<std::uint8_t> utilities,
               std::vector<double> shares);

  std::size_t num_types() const { return num_types_; }
  /// N: the normalized window size (positions).
  std::size_t n_positions() const { return n_positions_; }
  std::size_t bin_size() const { return bin_size_; }
  /// Number of bin columns C.
  std::size_t cols() const { return cols_; }

  /// Raw cell accessors (column-indexed).
  int utility_cell(EventTypeId type, std::size_t col) const {
    ESPICE_ASSERT(type < num_types_ && col < cols_, "UT cell out of range");
    return ut_[type * cols_ + col];
  }
  double share_cell(EventTypeId type, std::size_t col) const {
    ESPICE_ASSERT(type < num_types_ && col < cols_, "share cell out of range");
    return shares_[type * cols_ + col];
  }

  /// Number of normalized positions covered by column `col` (== bin_size
  /// except possibly for the last column).
  std::size_t col_width(std::size_t col) const;

  /// Bin column of normalized position p (p in [0, N)).
  std::size_t col_of_norm(double norm_pos) const;

  /// Utility of an event of `type` at `position` in a window of (predicted)
  /// total size `ws` events.  O(1) when ws >= N; O(cells covered) when
  /// scaling up.  This is the hot-path lookup (Algorithm 2, line 13).
  int utility(EventTypeId type, std::uint32_t position, double ws) const;

  /// Normalized position (in [0, N)) of `position` in a ws-sized window.
  double normalize_position(std::uint32_t position, double ws) const;

  /// Memory footprint of the tables in bytes (for the overhead analysis).
  std::size_t footprint_bytes() const {
    return ut_.size() * sizeof(std::uint8_t) + shares_.size() * sizeof(double);
  }

  /// Snapshot / restore (durability layer).  The model is immutable, so
  /// deserialize() reconstructs a fresh instance.
  void serialize(durability::SnapshotWriter& w) const;
  static std::shared_ptr<const UtilityModel> deserialize(
      durability::SnapshotReader& r);

 private:
  /// Validates n/bs before the column count is computed (so that a zero bin
  /// size surfaces as ConfigError, not a division by zero).
  static std::size_t checked_cols(std::size_t n_positions,
                                  std::size_t bin_size);

  std::size_t num_types_;
  std::size_t n_positions_;
  std::size_t bin_size_;
  std::size_t cols_;
  std::vector<std::uint8_t> ut_;
  std::vector<double> shares_;
};

}  // namespace espice
