// Load-shedder interface.
//
// A shedder answers one question per (event, window) pair on the operator's
// hot path: should this event be dropped from this window?  The overload
// detector (core/overload_detector.hpp) steers every shedder through
// DropCommand messages, so eSPICE, the He-et-al.-style baseline and the
// random shedder are interchangeable in the simulator and the harness.
//
// Early-out: drops_everywhere(e) lets a host skip an event's membership
// routing and scoring when the shedder already knows, from the event alone,
// that every (position, window size) would drop it without consuming any
// state but the counters (no RNG draw).  The host then records the n
// decisions with count_dropped(n), which leaves the shedder exactly as n
// dropping should_drop() calls would.  The default answers false, so a
// shedder without such knowledge keeps the per-membership path.
#pragma once

#include <cstddef>
#include <cstdint>

#include "cep/event.hpp"
#include "durability/serial.hpp"

namespace espice {

/// Command issued by the overload detector (paper Section 3.4/3.5).
struct DropCommand {
  /// Whether shedding is active at all.
  bool active = false;
  /// Number of events to drop per partition of each window (x).  Fractional
  /// values are meaningful: the CDT is compared against x directly.
  double x = 0.0;
  /// Number of partitions per window (rho).  At least 1.
  std::size_t partitions = 1;
};

/// Keep-bitmap layout shared by Shedder::score_block() and its callers:
/// membership i lives in word i / 64, bit i % 64.  Callers size their word
/// buffers with keep_bitmap_words() and read decisions with keep_bit() so
/// the layout has exactly one owner.
constexpr std::size_t keep_bitmap_words(std::size_t n) {
  return (n + 63) / 64;
}
inline bool keep_bit(const std::uint64_t* bits, std::size_t i) {
  return (bits[i >> 6] >> (i & 63)) & 1;
}

class Shedder {
 public:
  virtual ~Shedder() = default;

  /// Drop decision for an event at `position` of a window whose *predicted*
  /// total size is `predicted_ws` events.  Called once per (event, window)
  /// membership on the hot path -- implementations must be O(1) and must not
  /// allocate.
  ///
  /// Contract: watermark punctuations (is_watermark(e)) are control
  /// records, not data -- implementations must keep them (return false,
  /// no decision counted, no RNG consumed).  The engine's reorder stage
  /// consumes punctuations before shedding ever sees them; the guard is
  /// defense in depth for hosts driving shedders directly.
  virtual bool should_drop(const Event& e, std::uint32_t position,
                           double predicted_ws) = 0;

  /// Block decision: one event offered to `n` overlapping windows at
  /// `positions[0..n)`.  Sets bit i of `keep_bits` (word i/64, bit i%64)
  /// when membership i is KEPT; the caller provides ceil(n/64) words and
  /// need not zero them.  Must be bit-identical to calling should_drop()
  /// once per position in order -- including the decision/drop counters and
  /// any internal RNG consumption -- so block and per-event execution stay
  /// interchangeable.  The default does exactly that loop; shedders with
  /// cheaper batch scoring (EspiceShedder::score_block) override it.
  virtual void score_block(const Event& e, const std::uint32_t* positions,
                           std::size_t n, double predicted_ws,
                           std::uint64_t* keep_bits) {
    std::uint64_t word = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (i != 0 && i % 64 == 0) {
        keep_bits[i / 64 - 1] = word;
        word = 0;
      }
      if (!should_drop(e, positions[i], predicted_ws)) {
        word |= std::uint64_t{1} << (i % 64);
      }
    }
    if (n > 0) keep_bits[(n - 1) / 64] = word;
  }

  /// True only when should_drop(e, p, ws) would drop for EVERY position p
  /// and window size ws under the current command, and deciding would
  /// consume no state other than the decision counters (no RNG draw).  A
  /// host may then skip scoring and record the event's n memberships with
  /// count_dropped(n) -- bit-identical to scoring them.  Must not allocate;
  /// false (the default) is always a correct answer.
  virtual bool drops_everywhere(const Event& /*e*/) const { return false; }

  /// Records `n` decisions, all drops: the counter effect of `n` dropping
  /// should_drop() calls, for hosts acting on drops_everywhere().
  void count_dropped(std::uint64_t n) { count_block(n, n); }

  /// Applies a new command from the overload detector (control plane; may do
  /// non-trivial work such as recomputing utility thresholds).
  virtual void on_command(const DropCommand& cmd) = 0;

  virtual const char* name() const = 0;

  /// Statistics: how many decisions / drops this shedder has made.
  std::uint64_t decisions() const { return decisions_; }
  std::uint64_t drops() const { return drops_; }

  /// Snapshot / restore (durability layer).  The base carries the decision
  /// counters; stateful shedders override BOTH, call the base first, and
  /// append their model / RNG state so a restored shedder continues the
  /// exact decision stream.  The restoring instance must be constructed
  /// with the same configuration (factories re-run on recovery).
  virtual void serialize(durability::SnapshotWriter& w) const {
    w.u64(decisions_);
    w.u64(drops_);
  }
  virtual void restore(durability::SnapshotReader& r) {
    decisions_ = r.u64();
    drops_ = r.u64();
  }

 protected:
  void count_decision(bool dropped) {
    ++decisions_;
    if (dropped) ++drops_;
  }

  /// Bulk counter update for score_block() overrides.
  void count_block(std::uint64_t decisions, std::uint64_t drops) {
    decisions_ += decisions;
    drops_ += drops;
  }

 private:
  std::uint64_t decisions_ = 0;
  std::uint64_t drops_ = 0;
};

/// Never drops anything; used for golden (ground-truth) runs.
class NullShedder final : public Shedder {
 public:
  bool should_drop(const Event&, std::uint32_t, double) override {
    count_decision(false);
    return false;
  }
  void on_command(const DropCommand&) override {}
  const char* name() const override { return "none"; }
};

}  // namespace espice
