#include "core/espice_shedder.hpp"

#include <algorithm>
#include <climits>

#include "durability/serial.hpp"

// The vectorized score_block kernel targets AVX2 on x86-64 with GCC/Clang
// function-level target attributes, so the translation unit itself builds
// without -mavx2 and the binary still runs on pre-AVX2 machines (runtime
// cpuid dispatch, scalar path retained).
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ESPICE_X86_SIMD 1
#include <immintrin.h>
#endif

namespace espice {

namespace {

#if ESPICE_X86_SIMD
/// AVX2 flat-path block scorer.  Keep iff ut[base + pos] > thr[pos] - boost
/// -- exactly decide()'s fast path when no RNG can be consumed (boundary
/// fraction 1.0 everywhere because exact_amount is off, exploration off):
/// decide() drops on u + boost < thr and on u + boost == thr (frac >= 1.0
/// short-circuits the Bernoulli draw), i.e. keeps strictly above.  Eight
/// positions per iteration: gather the utility bytes (scale-1 gather reads
/// 4 bytes per lane, so ut carries 3 bytes of tail padding; low byte
/// masked out) and the per-position thresholds, one signed 32-bit compare,
/// sign-bit movemask straight into the keep word.  Returns false without
/// touching counters when any position falls outside the flat arrays --
/// the general path's math differs there, so the caller reruns the whole
/// block scalar.
__attribute__((target("avx2"))) bool score_flat_avx2(
    const std::uint8_t* ut, const int* thr, std::uint32_t base,
    std::uint32_t np, int boost, const std::uint32_t* positions,
    std::size_t n, std::uint64_t* keep_bits, std::uint64_t* dropped) {
  const __m256i vbase = _mm256_set1_epi32(static_cast<int>(base));
  const __m256i vnpm1 = _mm256_set1_epi32(static_cast<int>(np - 1));
  const __m256i vboost = _mm256_set1_epi32(boost);
  const __m256i vff = _mm256_set1_epi32(0xFF);
  std::uint64_t word = 0;
  std::uint64_t drops = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    if (i != 0 && i % 64 == 0) {
      keep_bits[i / 64 - 1] = word;
      word = 0;
    }
    const __m256i pos = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(positions + i));
    // Unsigned pos <= np - 1 via min-equality; any lane beyond the flat
    // arrays aborts to the scalar path.
    const __m256i inrange =
        _mm256_cmpeq_epi32(_mm256_min_epu32(pos, vnpm1), pos);
    if (_mm256_movemask_epi8(inrange) != -1) return false;
    const __m256i idx = _mm256_add_epi32(pos, vbase);
    const __m256i u = _mm256_and_si256(
        _mm256_i32gather_epi32(reinterpret_cast<const int*>(ut), idx, 1),
        vff);
    const __m256i t =
        _mm256_sub_epi32(_mm256_i32gather_epi32(thr, pos, 4), vboost);
    const auto keep = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(u, t))));
    word |= static_cast<std::uint64_t>(keep) << (i % 64);
    drops += 8u - static_cast<unsigned>(__builtin_popcount(keep));
  }
  for (; i < n; ++i) {  // scalar tail, same compare as the vector lanes
    if (i != 0 && i % 64 == 0) {
      keep_bits[i / 64 - 1] = word;
      word = 0;
    }
    const std::uint32_t p = positions[i];
    if (p >= np) return false;
    if (static_cast<int>(ut[base + p]) > thr[p] - boost) {
      word |= std::uint64_t{1} << (i % 64);
    } else {
      ++drops;
    }
  }
  keep_bits[(n - 1) / 64] = word;
  *dropped = drops;
  return true;
}
#endif  // ESPICE_X86_SIMD

}  // namespace

EspiceShedder::EspiceShedder(std::shared_ptr<const UtilityModel> model,
                             bool exact_amount, std::uint64_t seed)
    : model_(std::move(model)), exact_amount_(exact_amount), rng_(seed) {
  ESPICE_REQUIRE(model_ != nullptr, "eSPICE shedder needs a utility model");
  rebuild_ut_flat();
}

void EspiceShedder::set_exploration(double fraction) {
  ESPICE_REQUIRE(fraction >= 0.0 && fraction < 1.0,
                 "exploration fraction must be in [0, 1)");
  exploration_ = fraction;
}

void EspiceShedder::set_model(std::shared_ptr<const UtilityModel> model) {
  ESPICE_REQUIRE(model != nullptr, "eSPICE shedder needs a utility model");
  model_ = std::move(model);
  cdt_cache_.clear();
  rebuild_ut_flat();
  if (active_) {
    // Recompute thresholds under the new model with the last command.
    DropCommand cmd;
    cmd.active = true;
    cmd.partitions = partitions_;
    cmd.x = last_x_;
    on_command(cmd);
  }
}

void EspiceShedder::rebuild_ut_flat() {
  // Pre-expand the UT's bin indirection: one byte per (type, normalized
  // position).  For the fast-path ws (== N) an event at integral position p
  // covers exactly cell p / bin_size, so this reproduces
  // model_->utility(type, p, N) verbatim.
  const std::size_t n = model_->n_positions();
  const std::size_t types = model_->num_types();
  n_as_ws_ = static_cast<double>(n);
  // 3 tail bytes keep the AVX2 kernel's 4-byte scale-1 gathers of the last
  // entries inside the allocation (values never read: low byte masked).
  ut_flat_.assign(types * n + 3, 0);
  row_max_.assign(types, 0);
  for (std::size_t t = 0; t < types; ++t) {
    for (std::size_t p = 0; p < n; ++p) {
      const auto u = static_cast<std::uint8_t>(model_->utility_cell(
          static_cast<EventTypeId>(t), p / model_->bin_size()));
      ut_flat_[t * n + p] = u;
      row_max_[t] = std::max(row_max_[t], u);
    }
  }
  // The kernel's gather indices are signed 32-bit; a model too large for
  // them (no realistic UT is) just pins the instance to the scalar path.
  flat_simd_ok_ =
      n > 0 && types * n + 3 <= static_cast<std::size_t>(INT_MAX);
}

bool EspiceShedder::simd_supported() {
#if ESPICE_X86_SIMD
  static const bool ok = __builtin_cpu_supports("avx2") != 0;
  return ok;
#else
  return false;
#endif
}

const std::vector<Cdt>& EspiceShedder::cdts_for(std::size_t partitions) {
  if (cdt_cache_.size() <= partitions) cdt_cache_.resize(partitions + 1);
  std::vector<Cdt>& slot = cdt_cache_[partitions];
  if (slot.empty()) slot = Cdt::build_partitions(*model_, partitions);
  return slot;
}

void EspiceShedder::rebuild_flat_thresholds() {
  // Broadcast the per-partition thresholds over the normalized position
  // space: partition of integral position p is the same expression the
  // general path evaluates per event (partition boundaries can be
  // fractional, but at integral norms the two agree exactly).
  const std::size_t n = model_->n_positions();
  pos_threshold_.resize(n);
  pos_boundary_.resize(n);
  for (std::size_t p = 0; p < n; ++p) {
    // Exactly the general path's expression, evaluated at norm == p.
    const auto part = std::min(
        static_cast<std::size_t>(static_cast<double>(p) *
                                 static_cast<double>(partitions_) /
                                 static_cast<double>(n)),
        partitions_ - 1);
    pos_threshold_[p] = thresholds_[part];
    pos_boundary_[p] = boundary_drop_[part];
  }
}

void EspiceShedder::on_command(const DropCommand& cmd) {
  active_ = cmd.active;
  if (!active_) {
    thresholds_.clear();
    boundary_drop_.clear();
    pos_threshold_.clear();
    pos_boundary_.clear();
    return;
  }
  ESPICE_ASSERT(cmd.partitions > 0, "command with zero partitions");
  partitions_ = cmd.partitions;
  last_x_ = cmd.x;
  const auto& cdts = cdts_for(partitions_);
  thresholds_.resize(partitions_);
  boundary_drop_.resize(partitions_);
  for (std::size_t p = 0; p < partitions_; ++p) {
    const int uth = cdts[p].threshold(cmd.x);
    thresholds_[p] = uth;
    double frac = 1.0;
    if (exact_amount_) {
      const double below = uth > 0 ? cdts[p].at(uth - 1) : 0.0;
      const double at = cdts[p].at(uth);
      if (at > below && cmd.x > below) {
        frac = std::min(1.0, (cmd.x - below) / (at - below));
      } else if (cmd.x <= below) {
        frac = 1.0;  // threshold() already minimal; defensive default
      }
    }
    boundary_drop_[p] = frac;
  }
  min_threshold_ = *std::min_element(thresholds_.begin(), thresholds_.end());
  rebuild_flat_thresholds();
}

bool EspiceShedder::drops_everywhere(const Event& e) const {
  if (!active_ || exploration_ != 0.0 || is_watermark(e) ||
      e.type >= row_max_.size()) {
    return false;
  }
  // 64-bit so an absurd revise boost cannot overflow the sum.
  const std::int64_t top =
      std::int64_t{row_max_[e.type]} + std::int64_t{revise_boost_};
  return top < min_threshold_ || (!exact_amount_ && top == min_threshold_);
}

bool EspiceShedder::decide(EventTypeId type, std::uint32_t position,
                           double predicted_ws) {
  int u;
  int threshold;
  double frac;
  const std::size_t n = model_->n_positions();
  if (predicted_ws == n_as_ws_ && position < n) {
    // Flat fast path: ws == N means the normalized position IS the
    // position; utility and threshold are direct array loads.
    u = ut_flat_[static_cast<std::size_t>(type) * n + position];
    threshold = pos_threshold_[position];
    frac = pos_boundary_[position];
  } else {
    // General path (ws != N, or an event beyond the predicted size):
    // partition of the event computed over the normalized position space so
    // that partition boundaries agree with the CDTs (Algorithm 2, line 12).
    const double norm = model_->normalize_position(position, predicted_ws);
    const auto part = std::min(
        static_cast<std::size_t>(norm * static_cast<double>(partitions_) /
                                 static_cast<double>(n)),
        partitions_ - 1);
    u = model_->utility(type, position, predicted_ws);
    threshold = thresholds_[part];
    frac = boundary_drop_[part];
  }
  u += revise_boost_;
  bool drop;
  if (u < threshold) {
    drop = true;
  } else if (u == threshold) {
    // At the boundary utility, drop just the fraction needed for an expected
    // amount of exactly x (1.0 when exact_amount is disabled).
    drop = frac >= 1.0 || rng_.bernoulli(frac);
  } else {
    drop = false;
  }
  if (drop && exploration_ > 0.0 && rng_.bernoulli(exploration_)) {
    drop = false;  // exploration: spare this event so the model can relearn
  }
  return drop;
}

bool EspiceShedder::should_drop(const Event& e, std::uint32_t position,
                                double predicted_ws) {
  if (is_watermark(e)) return false;  // punctuations are never shed
  if (!active_ || e.type >= model_->num_types()) {
    // Inactive, or a type outside the model's universe (no UT row): keep,
    // with no RNG draw, as BaselineShedder does.
    count_decision(false);
    return false;
  }
  const bool drop = decide(e.type, position, predicted_ws);
  count_decision(drop);
  return drop;
}

void EspiceShedder::score_block(const Event& e, const std::uint32_t* positions,
                                std::size_t n, double predicted_ws,
                                std::uint64_t* keep_bits) {
  if (n == 0) return;
  if (is_watermark(e)) {  // punctuations are never shed (no decisions)
    for (std::size_t w = 0; w < (n + 63) / 64; ++w) keep_bits[w] = ~0ULL;
    return;
  }
  if (!active_ || e.type >= model_->num_types()) {  // as in should_drop()
    for (std::size_t w = 0; w < (n + 63) / 64; ++w) keep_bits[w] = ~0ULL;
    count_block(n, 0);
    return;
  }
#if ESPICE_X86_SIMD
  // Vector fast path.  Eligible only when the decision is branch-free and
  // RNG-free, so vector and scalar execution consume identical state:
  // flat arrays apply (ws == N), boundary fractions are all 1.0 (no
  // exact_amount Bernoulli draw) and exploration is off (no un-drop
  // draw).  The boost-range guard keeps the kernel's int32 threshold
  // subtraction away from wraparound (utilities are 8-bit, thresholds
  // single digits past them; only an absurd set_revise_boost could wrap).
  // Bails (false) on any position outside the flat arrays, and the block
  // reruns scalar -- the kernel touches no counters until it commits.
  if (!force_scalar_ && flat_simd_ok_ && predicted_ws == n_as_ws_ &&
      !exact_amount_ && exploration_ == 0.0 && revise_boost_ > INT_MIN / 2 &&
      revise_boost_ < INT_MAX / 2 && simd_supported()) {
    const std::size_t np = model_->n_positions();
    std::uint64_t dropped_simd = 0;
    if (score_flat_avx2(ut_flat_.data(), pos_threshold_.data(),
                        static_cast<std::uint32_t>(e.type) *
                            static_cast<std::uint32_t>(np),
                        static_cast<std::uint32_t>(np), revise_boost_,
                        positions, n, keep_bits, &dropped_simd)) {
      count_block(n, dropped_simd);
      return;
    }
  }
#endif
  std::uint64_t dropped = 0;
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i != 0 && i % 64 == 0) {
      keep_bits[i / 64 - 1] = word;
      word = 0;
    }
    if (decide(e.type, positions[i], predicted_ws)) {
      ++dropped;
    } else {
      word |= std::uint64_t{1} << (i % 64);
    }
  }
  keep_bits[(n - 1) / 64] = word;
  count_block(n, dropped);
}

void EspiceShedder::serialize(durability::SnapshotWriter& w) const {
  Shedder::serialize(w);
  w.boolean(exact_amount_);
  w.f64(exploration_);
  model_->serialize(w);
  w.boolean(active_);
  w.u64(partitions_);
  w.f64(last_x_);
  for (const std::uint64_t s : rng_.state()) w.u64(s);
}

void EspiceShedder::restore(durability::SnapshotReader& r) {
  Shedder::restore(r);
  ESPICE_CHECK(r.boolean() == exact_amount_,
               ErrorCode::kCorruptSnapshot,
               "shedder snapshot exact_amount disagrees with the instance");
  exploration_ = r.f64();
  // Deactivate before swapping models so set_model() does not recompute
  // thresholds against stale command state.
  active_ = false;
  set_model(UtilityModel::deserialize(r));
  const bool active = r.boolean();
  partitions_ = static_cast<std::size_t>(r.u64());
  last_x_ = r.f64();
  if (active) {
    DropCommand cmd;
    cmd.active = true;
    cmd.partitions = partitions_;
    cmd.x = last_x_;
    on_command(cmd);
  }
  std::array<std::uint64_t, 4> state;
  for (auto& s : state) s = r.u64();
  rng_.set_state(state);
}

}  // namespace espice
