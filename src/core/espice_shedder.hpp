// The eSPICE load shedder (paper Section 3.5, Algorithm 2).
//
// Hot path: should_drop() performs one scaled position computation, one UT
// lookup and one threshold comparison -- O(1), allocation-free.  When the
// caller's predicted window size equals the model's N (the steady state of
// every operator host: predicted_ws is derived from N after sizing), both
// lookups collapse to loads from flat position-indexed arrays prepared by
// the control plane: ut_flat_ (utility per (type, position), the UT with
// the bin indirection pre-expanded) and pos_threshold_/pos_boundary_ (the
// per-partition thresholds of Algorithm 2 pre-broadcast over positions).
// The flat path computes exactly the same values as the general one; it
// just removes the per-event divisions and the CDT/partition arithmetic.
// score_block() scores a whole membership block (one event in n overlapping
// windows) over those arrays into a keep bitmap -- one virtual call and
// contiguous loads instead of n scalar should_drop() calls.  On x86-64 the
// block scorer additionally runs an AVX2 kernel (runtime cpuid dispatch,
// function-level target attribute, scalar path retained): 8 positions per
// iteration, utility-byte and threshold gathers, one broadcast compare,
// sign-mask straight into the keep word.  The kernel is only eligible when
// the decision stream is RNG-free (no exact_amount boundary sampling, no
// exploration), so its results -- keep bits, decision/drop counters, RNG
// state -- are bit-identical to scalar execution by construction, and a
// differential twin test (tests/property/shedder_simd_oracle_test) holds
// it to that.
//
// Type pruning: a trained UT row is all zeros for every type that never
// took part in a match, and under a typical armed command such a type drops
// at every position.  drops_everywhere() answers that per event from two
// values the control plane already derives -- the type's largest UT cell
// (built in rebuild_ut_flat()'s pass) and the smallest partition threshold
// (set in on_command()) -- so hosts can skip the event's routing and
// scoring.  It is exact: true only while active with exploration off, for a
// non-watermark in-range type whose row maximum plus the revise boost lies
// below that threshold (or equals it when exact_amount is off, since a
// boundary utility then drops without a Bernoulli draw).  Every utility()
// the general path computes is an average of row cells, so it never exceeds
// the row maximum and the answer holds for every window size too.
//
// An event whose type lies outside the model's universe has no UT row: an
// engine's router cannot know the universe, so should_drop() and
// score_block() keep such an event, counting keep decisions with no RNG
// draw (as BaselineShedder does), checked once per event.
//
// Control plane: on_command() (re)computes the per-partition utility
// thresholds from the CDTs and re-broadcasts the flat arrays; CDT sets are
// cached per partition count (flat, partition-count-indexed) so a command
// that only changes x is a cheap threshold re-scan.
//
// Exact-amount mode (optional, default off; DESIGN.md §5b): the paper's
// Algorithm 2 drops *every* event with utility <= uth, which removes
// CDT(uth) >= x events -- potentially far more than x when many events share
// the threshold utility.  With exact_amount enabled, events strictly below
// uth always drop while events exactly at uth drop with probability
// (x - CDT(uth-1)) / (CDT(uth) - CDT(uth-1)), so the expected drop amount is
// exactly x and the queue rides the f*qmax watermark.  The literal
// (at-least-x) default usually wins on *quality*: when the model is
// accurate, the extra drops land on harmless events, while boundary
// sampling occasionally hits real constituents
// (bench_ablation_exact_amount quantifies this).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/cdt.hpp"
#include "core/shedder.hpp"
#include "core/utility_model.hpp"

namespace espice {

class EspiceShedder final : public Shedder {
 public:
  explicit EspiceShedder(std::shared_ptr<const UtilityModel> model,
                         bool exact_amount = false, std::uint64_t seed = 19);

  /// Exploration: keep this fraction of would-be-dropped events anyway.
  /// Required for *online* relearning under sustained shedding -- a cell the
  /// shedder drops never gains match evidence, so a drifted-but-valuable
  /// cell could stay condemned forever without it.  0 (default) disables.
  void set_exploration(double fraction);
  double exploration() const { return exploration_; }

  /// Event-time revisability hook: while the engine's late policy is
  /// kRevise, every on-time event's utility is raised by `boost` before
  /// the threshold compare -- a kept event can never force a (full
  /// legacy re-scan) window revision later, so keeping is worth more
  /// than the model's match-contribution alone.  0 (default) leaves the
  /// decision stream untouched.  Configuration, not state: hosts apply
  /// it at construction (before restore()), so it is not serialized.
  void set_revise_boost(int boost) { revise_boost_ = boost; }
  int revise_boost() const { return revise_boost_; }

  bool should_drop(const Event& e, std::uint32_t position,
                   double predicted_ws) override;
  void score_block(const Event& e, const std::uint32_t* positions,
                   std::size_t n, double predicted_ws,
                   std::uint64_t* keep_bits) override;
  bool drops_everywhere(const Event& e) const override;
  void on_command(const DropCommand& cmd) override;
  const char* name() const override { return "eSPICE"; }

  /// True when this build + CPU can run the vectorized score_block kernel
  /// (AVX2, checked once at runtime).  The kernel is an implementation
  /// detail -- results are bit-identical either way -- but tests and
  /// benches use this to report which path actually ran.
  static bool simd_supported();

  /// Test hook: pin this instance to the scalar score_block path even
  /// where the SIMD kernel is eligible, so differential twin tests can
  /// compare vector vs scalar decisions in one process.  Configuration,
  /// not state (like set_revise_boost): not serialized.
  void set_force_scalar(bool force) { force_scalar_ = force; }
  bool force_scalar() const { return force_scalar_; }

  /// Swaps in a retrained model; invalidates cached CDTs and recomputes the
  /// thresholds of the current command.
  void set_model(std::shared_ptr<const UtilityModel> model);

  const UtilityModel& model() const { return *model_; }
  /// Shared handle to the current model (hosts rebinding a coordinator
  /// after restore need the owning pointer, not just a reference).
  std::shared_ptr<const UtilityModel> model_ptr() const { return model_; }
  bool active() const { return active_; }
  /// Current per-partition thresholds (empty while inactive).
  const std::vector<int>& thresholds() const { return thresholds_; }

  /// Snapshot / restore (durability layer): counters, model tables,
  /// command state and the RNG -- the flat hot-path arrays and CDT caches
  /// are re-derived, so a restored shedder makes bit-identical decisions
  /// without serializing derived state.
  void serialize(durability::SnapshotWriter& w) const override;
  void restore(durability::SnapshotReader& r) override;

 private:
  const std::vector<Cdt>& cdts_for(std::size_t partitions);
  void rebuild_ut_flat();
  void rebuild_flat_thresholds();
  /// The raw drop decision (no counters).  Flat fast path when the caller's
  /// ws equals the model's N and the position is inside it; identical math
  /// through the model/partition arithmetic otherwise.
  bool decide(EventTypeId type, std::uint32_t position, double predicted_ws);

  std::shared_ptr<const UtilityModel> model_;
  /// CDT sets per partition count, flat-indexed by the count (the counts in
  /// play are the detector's rho values -- single digits); empty slot = not
  /// built yet.
  std::vector<std::vector<Cdt>> cdt_cache_;
  std::vector<int> thresholds_;
  /// Per partition: drop probability for events exactly at the threshold
  /// utility (1.0 unless exact_amount is enabled).
  std::vector<double> boundary_drop_;

  // Flat position-indexed hot-path arrays (see file comment).  ut_flat_
  // tracks the model (N x M, rebuilt on set_model); the threshold arrays
  // track the active command (N each, rebuilt on on_command).  ut_flat_
  // carries 3 bytes of tail padding so the AVX2 kernel's 4-byte scale-1
  // gathers of the last entries stay inside the allocation.
  std::vector<std::uint8_t> ut_flat_;       ///< [type * N + position]
  std::vector<int> pos_threshold_;          ///< threshold of pos's partition
  std::vector<double> pos_boundary_;        ///< boundary drop of its partition
  std::vector<std::uint8_t> row_max_;       ///< [type] largest UT cell
  int min_threshold_ = 0;                   ///< smallest partition threshold
  double n_as_ws_ = 0.0;                    ///< N as a double (ws fast path)
  /// Flat index space fits the kernel's signed 32-bit gather indices
  /// (set by rebuild_ut_flat; practically always true).
  bool flat_simd_ok_ = false;
  bool force_scalar_ = false;               ///< test hook, see above

  std::size_t partitions_ = 1;
  double last_x_ = 0.0;
  double exploration_ = 0.0;
  int revise_boost_ = 0;
  bool exact_amount_;
  Rng rng_;
  bool active_ = false;
};

}  // namespace espice
