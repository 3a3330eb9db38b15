#include "core/drift_detector.hpp"

#include <algorithm>
#include <cmath>

namespace espice {

namespace {

// Jensen-Shannon divergence between two normalized distributions, in bits.
double js_divergence(const std::vector<double>& p,
                     const std::vector<double>& q) {
  ESPICE_ASSERT(p.size() == q.size(), "distribution size mismatch");
  auto kl_to_mixture = [&](const std::vector<double>& a,
                           const std::vector<double>& b) {
    double kl = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i] <= 0.0) continue;
      const double m = 0.5 * (a[i] + b[i]);
      kl += a[i] * std::log2(a[i] / m);
    }
    return kl;
  };
  return 0.5 * kl_to_mixture(p, q) + 0.5 * kl_to_mixture(q, p);
}

void normalize(std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  if (sum <= 0.0) return;
  for (double& x : v) x /= sum;
}

}  // namespace

DriftDetector::DriftDetector(const UtilityModel& model,
                             DriftDetectorConfig config)
    : config_(config),
      num_types_(model.num_types()),
      cols_(model.cols()),
      bin_size_(model.bin_size()),
      n_positions_(model.n_positions()) {
  config_.validate();
  load_reference(model);
  recent_.assign(num_types_ * cols_, 0.0);
}

void DriftDetector::load_reference(const UtilityModel& model) {
  ESPICE_REQUIRE(model.num_types() == num_types_ && model.cols() == cols_,
                 "rebased model must keep the table dimensions");
  reference_.resize(num_types_ * cols_);
  for (std::size_t t = 0; t < num_types_; ++t) {
    for (std::size_t c = 0; c < cols_; ++c) {
      reference_[t * cols_ + c] =
          model.share_cell(static_cast<EventTypeId>(t), c);
    }
  }
  normalize(reference_);
}

bool DriftDetector::observe(const Event& e, std::uint32_t position,
                            double predicted_ws) {
  ESPICE_ASSERT(e.type < num_types_, "event type outside the model universe");
  // Same position scaling as the utility model.
  const double norm = std::min(
      static_cast<double>(position) * static_cast<double>(n_positions_) /
          std::max(predicted_ws, 1.0),
      static_cast<double>(n_positions_) - 1e-9);
  const std::size_t col =
      std::min(static_cast<std::size_t>(norm) / bin_size_, cols_ - 1);
  recent_[e.type * cols_ + col] += 1.0;
  if (++batch_fill_ < config_.batch_size) return false;

  const double divergence = finish_batch();
  if (divergence > config_.divergence_threshold) {
    ++consecutive_drifted_;
  } else {
    consecutive_drifted_ = 0;
  }
  return consecutive_drifted_ >= config_.patience;
}

double DriftDetector::finish_batch() {
  std::vector<double> recent = recent_;
  normalize(recent);
  last_divergence_ = js_divergence(reference_, recent);
  std::fill(recent_.begin(), recent_.end(), 0.0);
  batch_fill_ = 0;
  return last_divergence_;
}

void DriftDetector::rebase(const UtilityModel& model) {
  load_reference(model);
  std::fill(recent_.begin(), recent_.end(), 0.0);
  batch_fill_ = 0;
  consecutive_drifted_ = 0;
  last_divergence_ = 0.0;
}

}  // namespace espice
