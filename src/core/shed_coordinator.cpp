#include "core/shed_coordinator.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace espice {

void ShedCoordinator::set_models(
    std::vector<std::shared_ptr<const UtilityModel>> models) {
  models_ = std::move(models);
  cdts_.assign(models_.size(), Cdt{});
  trained_.assign(models_.size(), false);
  for (std::size_t q = 0; q < models_.size(); ++q) {
    if (models_[q] == nullptr) continue;
    // Aggregate (single-partition) CDT: the whole normalized window is one
    // slice -- partition-level detail does not change the cross-query split.
    cdts_[q] = Cdt::build_partitions(*models_[q], 1).front();
    trained_[q] = true;
  }
  if (weights_.size() != models_.size()) {
    weights_.assign(models_.size(), 1.0);
  }
}

void ShedCoordinator::set_weights(std::vector<double> weights) {
  ESPICE_REQUIRE(weights.size() == models_.size(),
                 "one weight per registered query required");
  for (const double w : weights) {
    ESPICE_REQUIRE(w > 0.0, "query weights must be positive");
  }
  weights_ = std::move(weights);
}

double ShedCoordinator::mass_at(std::size_t q, int u) const {
  if (!trained_[q]) return 0.0;
  // Weighted utility w*ut <= u  <=>  ut <= floor(u / w)  (utilities are
  // integers).
  const double scaled = std::floor(static_cast<double>(u) / weights_[q]);
  const int ut = std::min(kMaxUtility, static_cast<int>(scaled));
  return ut < 0 ? 0.0 : cdts_[q].at(ut);
}

double ShedCoordinator::global_mass_at(int u) const {
  double total = 0.0;
  for (std::size_t q = 0; q < cdts_.size(); ++q) total += mass_at(q, u);
  return total;
}

double ShedCoordinator::query_mass(std::size_t q) const {
  ESPICE_REQUIRE(q < cdts_.size(), "query index out of range");
  return trained_[q] ? cdts_[q].total() : 0.0;
}

int ShedCoordinator::threshold_for(double x) const {
  const double wmax =
      weights_.empty() ? 1.0
                       : *std::max_element(weights_.begin(), weights_.end());
  const int u_max = static_cast<int>(
      std::ceil(static_cast<double>(kMaxUtility) * std::max(1.0, wmax)));
  for (int u = 0; u <= u_max; ++u) {
    if (global_mass_at(u) >= x) return u;
  }
  return u_max;
}

std::vector<double> ShedCoordinator::apportion(double x) const {
  std::vector<double> out(cdts_.size(), 0.0);
  if (out.empty() || x <= 0.0) return out;

  const int u_star = threshold_for(x);
  const double below = u_star > 0 ? global_mass_at(u_star - 1) : 0.0;
  const double at = global_mass_at(u_star);
  if (at <= 0.0) return out;  // nothing droppable anywhere
  // Fraction of the threshold-utility mass needed so the expected total is
  // exactly x (1.0 when x exceeds all droppable mass).
  const double frac =
      at > below ? std::clamp((x - below) / (at - below), 0.0, 1.0) : 1.0;
  for (std::size_t q = 0; q < cdts_.size(); ++q) {
    const double q_below = u_star > 0 ? mass_at(q, u_star - 1) : 0.0;
    const double q_at = mass_at(q, u_star);
    out[q] = q_below + frac * (q_at - q_below);
  }
  return out;
}

}  // namespace espice
