#include "core/adaptive_controller.hpp"

#include <algorithm>
#include <cmath>

#include "durability/serial.hpp"

namespace espice {

namespace {

OverloadDetectorConfig sized(OverloadDetectorConfig d, std::size_t n) {
  d.window_size_events = n;
  return d;
}

ModelBuilderConfig builder_config(const EspiceOperatorConfig& c,
                                  std::size_t n_positions) {
  ModelBuilderConfig mb;
  mb.num_types = c.num_types;
  mb.n_positions = n_positions;
  mb.bin_size = std::min(c.bin_size, n_positions);
  return mb;
}

}  // namespace

/// The Shedder a pipeline holds for query q: keeps everything until the
/// model is armed, then scores through the controller and mirrors the
/// query's EspiceShedder counters, so the pipeline's outcome counts the
/// same decisions.
class AdaptiveController::Adapter final : public Shedder {
 public:
  Adapter(AdaptiveController& c, std::size_t q) : c_(c), q_(q) {}

  bool should_drop(const Event& e, std::uint32_t position,
                   double predicted_ws) override {
    std::uint64_t keep = 0;
    score_block(e, &position, 1, predicted_ws, &keep);
    return (keep & 1) == 0;
  }

  void score_block(const Event& e, const std::uint32_t* positions,
                   std::size_t n, double /*predicted_ws*/,
                   std::uint64_t* keep_bits) override {
    const EspiceShedder* inner = c_.queries_[q_].shedder.get();
    if (inner == nullptr) {
      std::fill_n(keep_bits, keep_bitmap_words(n), ~std::uint64_t{0});
      return;
    }
    const std::uint64_t decisions = inner->decisions();
    const std::uint64_t drops = inner->drops();
    c_.score(q_, e, positions, n, keep_bits);
    count_block(inner->decisions() - decisions, inner->drops() - drops);
  }

  // The controller commands the query's EspiceShedder itself.
  void on_command(const DropCommand&) override {}
  const char* name() const override { return "eSPICE"; }

 private:
  AdaptiveController& c_;
  std::size_t q_;
};

AdaptiveController::AdaptiveController(EspiceOperatorConfig config,
                                       std::size_t queries,
                                       std::vector<double> query_weights)
    : config_(std::move(config)),
      weights_(std::move(query_weights)),
      drift_on_(config_.drift_retraining && queries == 1),
      // The detector's window size is refined once N is known; seed it
      // with something valid.
      detector_(sized(config_.detector,
                      std::max<std::size_t>(
                          config_.detector.window_size_events, 1))),
      queries_(queries) {
  config_.validate();
  // N known up front?  Count-based windows and explicit overrides skip the
  // sizing phase.
  std::size_t n = config_.n_positions;
  if (n == 0 && config_.window.span_kind == WindowSpan::kCount) {
    n = config_.window.span_events;
  }
  if (n > 0) begin_training(n);
}

std::vector<std::unique_ptr<Shedder>> AdaptiveController::make_shedders() {
  std::vector<std::unique_ptr<Shedder>> out;
  out.reserve(queries_.size());
  for (std::size_t q = 0; q < queries_.size(); ++q) {
    out.push_back(std::make_unique<Adapter>(*this, q));
  }
  return out;
}

void AdaptiveController::score(std::size_t q, const Event& e,
                               const std::uint32_t* positions, std::size_t n,
                               std::uint64_t* keep_bits) {
  QueryState& qs = queries_[q];
  // Statistics are fed *pre-drop* so the position shares (and the drift
  // reference) stay unbiased by the shedder's own decisions.
  for (std::size_t i = 0; i < n; ++i) {
    qs.builder->observe_position(e.type, positions[i], predicted_ws_);
    if (drift_ && drift_->observe(e, positions[i], predicted_ws_)) {
      drift_pending_ = true;  // retrained by retrain_if_drifted()
    }
  }
  qs.shedder->score_block(e, positions, n, predicted_ws_, keep_bits);
}

void AdaptiveController::on_window(std::size_t query, const WindowView& view,
                                   std::span<const ComplexEvent> matches) {
  const std::size_t ws = view.size();
  QueryState& qs = queries_[query];
  switch (phase_) {
    case Phase::kSizing:
      if (query == 0) {
        sizing_size_sum_ += static_cast<double>(ws);
        ++sizing_count_;
      }
      break;
    case Phase::kTraining:
      qs.builder->observe_window(view);
      for (const auto& m : matches) qs.builder->observe_match(m, ws);
      break;
    case Phase::kShedding:
      // Positions were fed pre-drop while scoring; only the window count
      // and the match evidence are recorded here.
      qs.builder->count_window();
      for (const auto& m : matches) qs.builder->observe_match(m, ws);
      break;
  }
  if (query + 1 < queries_.size()) return;
  // The window's last query: phase transitions.
  switch (phase_) {
    case Phase::kSizing:
      if (sizing_count_ >= config_.sizing_windows) {
        begin_training(static_cast<std::size_t>(std::max<long>(
            1, std::lround(sizing_size_sum_ /
                           static_cast<double>(sizing_count_)))));
      }
      break;
    case Phase::kTraining:
      if (queries_.front().builder->windows_observed() >=
          config_.training_windows) {
        build_and_arm();
      }
      break;
    case Phase::kShedding:
      if (config_.rebuild_every_windows > 0 &&
          ++windows_since_rebuild_ >= config_.rebuild_every_windows) {
        refresh_models();
      }
      break;
  }
}

void AdaptiveController::begin_training(std::size_t n_positions) {
  for (QueryState& q : queries_) {
    q.builder.emplace(builder_config(config_, n_positions));
  }
  predicted_ws_ = static_cast<double>(n_positions);
  phase_ = Phase::kTraining;
}

void AdaptiveController::reset_detector() {
  // Sized to N (rho / psize).
  detector_ = OverloadDetector(
      sized(config_.detector, static_cast<std::size_t>(predicted_ws_)));
}

void AdaptiveController::build_and_arm() {
  for (QueryState& q : queries_) {
    q.shedder = std::make_unique<EspiceShedder>(q.builder->build(),
                                                config_.exact_amount);
    q.shedder->set_exploration(config_.exploration);
  }
  bind_coordinator();
  reset_detector();
  if (drift_on_) {
    drift_.emplace(queries_.front().shedder->model(), config_.drift);
  }
  phase_ = Phase::kShedding;
}

void AdaptiveController::refresh_models() {
  for (QueryState& q : queries_) q.shedder->set_model(q.builder->build());
  bind_coordinator();
  windows_since_rebuild_ = 0;
}

void AdaptiveController::bind_coordinator() {
  if (queries_.size() < 2) return;
  std::vector<std::shared_ptr<const UtilityModel>> models;
  models.reserve(queries_.size());
  for (const QueryState& q : queries_) {
    models.push_back(q.shedder->model_ptr());
  }
  coordinator_.set_models(std::move(models));
  if (!weights_.empty()) coordinator_.set_weights(weights_);
}

void AdaptiveController::retrain_if_drifted() {
  if (!drift_pending_) return;
  drift_pending_ = false;
  // Old evidence fades so the recent batches the drift detector flagged
  // dominate the rebuilt model.  Periodic refreshes keep the drift
  // reference untouched; only a drift retrain rebases it.
  queries_.front().builder->decay(config_.retrain_decay);
  refresh_models();
  drift_->rebase(queries_.front().shedder->model());
  ++retrains_;
}

void AdaptiveController::on_tick(std::size_t queue_size) {
  if (phase_ != Phase::kShedding) return;
  const DropCommand cmd = detector_.tick(queue_size);
  if (queries_.size() == 1 || !cmd.active) {
    for (QueryState& q : queries_) q.shedder->on_command(cmd);
    return;
  }
  // One shared budget, split where it loses the least utility.  The
  // detector's x is per window PARTITION while the coordinator reasons
  // over whole-window CDTs, so scale to the per-window total for the split
  // and back to per-partition amounts for the shedder commands.
  const double partitions = static_cast<double>(cmd.partitions);
  last_split_ = coordinator_.apportion(cmd.x * partitions);
  for (std::size_t q = 0; q < queries_.size(); ++q) {
    DropCommand qcmd;
    qcmd.active = last_split_[q] > 0.0;
    qcmd.x = last_split_[q] / partitions;
    qcmd.partitions = cmd.partitions;
    queries_[q].shedder->on_command(qcmd);
  }
}

bool AdaptiveController::shedding_active() const {
  if (phase_ != Phase::kShedding) return false;
  return std::any_of(queries_.begin(), queries_.end(),
                     [](const QueryState& q) { return q.shedder->active(); });
}

const UtilityModel* AdaptiveController::model(std::size_t q) const {
  ESPICE_REQUIRE(q < queries_.size(), "query index out of range");
  return queries_[q].shedder ? &queries_[q].shedder->model() : nullptr;
}

std::size_t AdaptiveController::windows_observed() const {
  const QueryState& q = queries_.front();
  return q.builder ? q.builder->windows_observed() : sizing_count_;
}

void AdaptiveController::serialize(durability::SnapshotWriter& w) const {
  ESPICE_REQUIRE(!drift_on_,
                 "a controller with a drift detector is not serializable");
  w.u8(static_cast<std::uint8_t>(phase_));
  w.u64(sizing_count_);
  w.f64(sizing_size_sum_);
  w.f64(predicted_ws_);
  w.u64(windows_since_rebuild_);
  w.vec_f64(last_split_);
  w.u64(queries_.size());
  for (const QueryState& q : queries_) {
    w.boolean(q.builder.has_value());
    if (q.builder) q.builder->serialize(w);
    w.boolean(q.shedder != nullptr);
    if (q.shedder) q.shedder->serialize(w);
  }
  // Last: the detector is re-instantiated from N on restore (mirroring
  // build_and_arm()), so its estimates must follow that state.
  detector_.serialize(w);
}

void AdaptiveController::restore(durability::SnapshotReader& r) {
  const std::uint8_t phase = r.u8();
  ESPICE_CHECK(phase <= static_cast<std::uint8_t>(Phase::kShedding),
               ErrorCode::kCorruptSnapshot, "unknown operator phase");
  phase_ = static_cast<Phase>(phase);
  sizing_count_ = static_cast<std::size_t>(r.u64());
  sizing_size_sum_ = r.f64();
  predicted_ws_ = r.f64();
  windows_since_rebuild_ = static_cast<std::size_t>(r.u64());
  last_split_ = r.vec_f64();
  ESPICE_CHECK(r.u64() == queries_.size(), ErrorCode::kCorruptSnapshot,
               "operator snapshot query count disagrees with the config");
  for (QueryState& q : queries_) {
    if (r.boolean()) {
      if (!q.builder) {
        // Mirror begin_training(): the builder config derives from the
        // (restored) N.
        q.builder.emplace(builder_config(
            config_, static_cast<std::size_t>(predicted_ws_)));
      }
      q.builder->restore(r);
    } else {
      q.builder.reset();
    }
    if (r.boolean()) {
      if (!q.shedder) {
        // Placeholder model; restore() swaps in the serialized one.
        auto placeholder = std::make_shared<const UtilityModel>(
            config_.num_types, 1, 1,
            std::vector<std::uint8_t>(config_.num_types, 0),
            std::vector<double>(config_.num_types, 0.0));
        q.shedder = std::make_unique<EspiceShedder>(std::move(placeholder),
                                                    config_.exact_amount);
      }
      q.shedder->restore(r);
    } else {
      q.shedder.reset();
    }
  }
  if (phase_ == Phase::kShedding) {
    // Mirror build_and_arm(): detector sized to N, then its running
    // estimates restored; the coordinator re-binds the restored models.
    reset_detector();
    bind_coordinator();
  }
  detector_.restore(r);
}

}  // namespace espice
