// Differential twin oracle for the vectorized EspiceShedder block scorer.
//
// Two shedders, identical seeds and command history: one free to take the
// AVX2 score_block kernel, the twin pinned to the scalar path via
// set_force_scalar(true).  The contract under test is BIT-IDENTITY -- not
// just the same keep bitmaps, but the same decision/drop counters and the
// same serialized state (which embeds the RNG) after every regime, because
// the engine's determinism and the durability layer's replay guarantee
// both sit on score_block being an exact drop-in for the scalar sweep.
//
// The sweep deliberately crosses every dispatch boundary: partition counts
// {1,2,3,7}, ws == N (flat/SIMD-eligible) vs ws != N (general path),
// positions beyond N (the kernel must bail to scalar BEFORE any counter
// moves), exact-amount boundary sampling and exploration (RNG-consuming ->
// SIMD-ineligible), revise_boost, inactive and re-armed phases, and block
// sizes that straddle the 64-bit keep-word boundary.  CI runs this under
// 5 seeds (ESPICE_TEST_SEED) and both sanitizers.
//
// The same sweep holds the type-pruning early-out to its contract: dead-row
// regimes zero some model types' UT rows, and whenever drops_everywhere(e)
// answers true both twins' keep bits must be all zero, while a third twin
// that calls count_dropped(n) instead of scoring such blocks must stay
// byte-identical to them.
#include "core/espice_shedder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "durability/serial.hpp"
#include "support/test_seed.hpp"

namespace espice {
namespace {

using test_support::seed_trace;
using test_support::test_seed;

/// `dead_rows` zeroes the UT rows of the even types (0, 2, 4) after the
/// draws, so the draws themselves do not depend on it.
std::shared_ptr<const UtilityModel> random_model(Rng& rng, bool dead_rows) {
  const std::size_t types = 1 + rng.uniform_int(5);
  const std::size_t n = 16 + rng.uniform_int(65);  // 16..80
  const std::size_t bs = 1 + rng.uniform_int(4);
  const std::size_t cols = (n + bs - 1) / bs;
  std::vector<std::uint8_t> ut(types * cols);
  std::vector<double> shares(types * cols);
  for (std::size_t i = 0; i < ut.size(); ++i) {
    ut[i] = static_cast<std::uint8_t>(rng.uniform_int(101));
    shares[i] = 0.25 + rng.uniform(0.0, 4.0);
  }
  if (dead_rows) {
    for (std::size_t t = 0; t < types; t += 2) {
      std::fill_n(ut.begin() + static_cast<std::ptrdiff_t>(t * cols), cols, 0);
    }
  }
  return std::make_shared<UtilityModel>(types, n, bs, std::move(ut),
                                        std::move(shares));
}

std::vector<std::byte> serialized(const EspiceShedder& s) {
  durability::SnapshotWriter w;
  s.serialize(w);
  return w.take();
}

struct Regime {
  bool exact_amount;
  double exploration;
  int revise_boost;
  bool oversized_ws;       ///< query with ws != N (general path)
  bool out_of_range_pos;   ///< include positions >= N (kernel must bail)
  bool dead_rows;          ///< all-zero UT rows for the even types
};

/// Runs one full command+score history through both twins and asserts
/// bit-identity at every block.  `fired` counts the blocks for which
/// drops_everywhere() answered true.
void run_twin(std::uint64_t seed, const Regime& reg, std::size_t& fired) {
  Rng rng(seed);
  auto model = random_model(rng, reg.dead_rows);
  const std::size_t n_pos = model->n_positions();
  const std::size_t n_types = model->num_types();
  const double ws = reg.oversized_ws ? static_cast<double>(n_pos) + 6.0
                                     : static_cast<double>(n_pos);

  const std::uint64_t shedder_seed = rng.next();
  EspiceShedder simd(model, reg.exact_amount, shedder_seed);
  EspiceShedder scalar(model, reg.exact_amount, shedder_seed);
  // Third twin: takes the early-out (count_dropped) wherever it applies.
  EspiceShedder pruned(model, reg.exact_amount, shedder_seed);
  scalar.set_force_scalar(true);
  ASSERT_FALSE(simd.force_scalar());
  ASSERT_TRUE(scalar.force_scalar());
  if (reg.exploration > 0.0) {
    simd.set_exploration(reg.exploration);
    scalar.set_exploration(reg.exploration);
    pruned.set_exploration(reg.exploration);
  }
  simd.set_revise_boost(reg.revise_boost);
  scalar.set_revise_boost(reg.revise_boost);
  pruned.set_revise_boost(reg.revise_boost);

  const std::size_t partition_plan[] = {1, 2, 3, 7};
  const std::size_t block_sizes[] = {1, 7, 63, 64, 65, 127, 128, 130, 200};

  // Phase plan: inactive -> armed (each partition count) -> deactivated ->
  // re-armed, scoring a batch of random blocks after every command.
  auto run_blocks = [&](const char* label, bool armed) {
    SCOPED_TRACE(label);
    std::vector<std::uint32_t> positions;
    std::vector<std::uint64_t> bits_simd;
    std::vector<std::uint64_t> bits_scalar;
    std::vector<std::uint64_t> bits_pruned;
    for (const std::size_t bn : block_sizes) {
      Event e;
      e.type = static_cast<EventTypeId>(rng.uniform_int(n_types));
      e.value = rng.uniform(-1.0, 1.0);
      positions.clear();
      for (std::size_t i = 0; i < bn; ++i) {
        // Mostly in-range; the out-of-range regime salts in positions past
        // N, which must kick the whole SIMD block back to scalar with no
        // counter/bitmap divergence.
        std::uint32_t p = static_cast<std::uint32_t>(rng.uniform_int(n_pos));
        if (reg.out_of_range_pos && rng.uniform_int(8) == 0) {
          p = static_cast<std::uint32_t>(n_pos + rng.uniform_int(4));
        }
        positions.push_back(p);
      }
      const std::size_t words = (bn + 63) / 64;
      bits_simd.assign(words, ~std::uint64_t{0});
      bits_scalar.assign(words, 0);
      const bool everywhere = simd.drops_everywhere(e);
      ASSERT_EQ(scalar.drops_everywhere(e), everywhere);
      ASSERT_EQ(pruned.drops_everywhere(e), everywhere);
      if (everywhere) {
        ++fired;
        // Never fires where a decision could keep or draw from the RNG.
        ASSERT_TRUE(armed);
        ASSERT_EQ(reg.exploration, 0.0);
      }
      simd.score_block(e, positions.data(), bn, ws, bits_simd.data());
      scalar.score_block(e, positions.data(), bn, ws, bits_scalar.data());
      if (everywhere) {
        pruned.count_dropped(bn);
      } else {
        bits_pruned.assign(words, 0);
        pruned.score_block(e, positions.data(), bn, ws, bits_pruned.data());
      }
      for (std::size_t i = 0; i < bn; ++i) {
        const bool ks = (bits_simd[i / 64] >> (i % 64)) & 1;
        const bool kc = (bits_scalar[i / 64] >> (i % 64)) & 1;
        ASSERT_EQ(ks, kc) << "block size " << bn << " slot " << i
                          << " type " << e.type << " pos " << positions[i];
        if (everywhere) {
          ASSERT_FALSE(kc) << "early-out kept slot " << i << " type "
                           << e.type << " pos " << positions[i];
        } else {
          const bool kp = (bits_pruned[i / 64] >> (i % 64)) & 1;
          ASSERT_EQ(kp, kc);
        }
      }
      ASSERT_EQ(simd.decisions(), scalar.decisions());
      ASSERT_EQ(simd.drops(), scalar.drops());
      ASSERT_EQ(pruned.decisions(), scalar.decisions());
      ASSERT_EQ(pruned.drops(), scalar.drops());
      // A watermark is never shed, whatever its type's row holds.
      Event wm = e;
      wm.type = kWatermarkType;
      ASSERT_FALSE(simd.drops_everywhere(wm));
    }
    // Full-state bit-identity: counters, command state, model tables, RNG.
    ASSERT_EQ(serialized(simd), serialized(scalar));
    ASSERT_EQ(serialized(pruned), serialized(scalar));
  };

  run_blocks("inactive", false);
  for (const std::size_t parts : partition_plan) {
    DropCommand cmd;
    cmd.active = true;
    cmd.partitions = parts;
    cmd.x = rng.uniform(0.5, static_cast<double>(n_pos));
    simd.on_command(cmd);
    scalar.on_command(cmd);
    pruned.on_command(cmd);
    run_blocks("armed", true);
  }
  DropCommand off;
  off.active = false;
  simd.on_command(off);
  scalar.on_command(off);
  pruned.on_command(off);
  run_blocks("deactivated", false);
  DropCommand rearm;
  rearm.active = true;
  rearm.partitions = 2;
  rearm.x = rng.uniform(1.0, static_cast<double>(n_pos));
  simd.on_command(rearm);
  scalar.on_command(rearm);
  pruned.on_command(rearm);
  run_blocks("re-armed", true);
}

class ShedderSimdOracle : public ::testing::TestWithParam<int> {};

TEST_P(ShedderSimdOracle, VectorPathIsBitIdenticalToScalar) {
  // Vacuously scalar-vs-scalar on machines without AVX2 (still a valid
  // force-scalar consistency check); record which it was.
  ::testing::Test::RecordProperty("simd_supported",
                                  EspiceShedder::simd_supported() ? 1 : 0);
  const std::uint64_t seed =
      test_seed(0x51d0u + static_cast<std::uint64_t>(GetParam()) * 0x9e37u);
  SCOPED_TRACE(seed_trace(seed));

  const Regime regimes[] = {
      // The SIMD-eligible steady state: RNG-free, ws == N, in-range.
      {false, 0.0, 0, false, false, false},
      // Same but with a revise boost folded into the compare.
      {false, 0.0, 17, false, false, false},
      // Out-of-range positions force the per-block scalar bail.
      {false, 0.0, 0, false, true, false},
      // General path (ws != N): never SIMD, still must agree.
      {false, 0.0, 0, true, false, false},
      // RNG-consuming regimes: dispatch must decline, twins stay in step.
      {true, 0.0, 0, false, false, false},
      {false, 0.2, 0, false, false, false},
      {true, 0.2, 5, true, true, false},
      // Dead rows: the early-out must fire RNG-free ...
      {false, 0.0, 0, false, false, true},
      // ... and on the general path, past N included ...
      {false, 0.0, 0, true, true, true},
      // ... stay exact under boundary sampling and a revise boost ...
      {true, 0.0, 0, false, false, true},
      {false, 0.0, 17, false, false, true},
      // ... and never fire while exploration may spare a drop.
      {false, 0.2, 0, false, false, true},
  };
  int i = 0;
  for (const Regime& reg : regimes) {
    SCOPED_TRACE("regime " + std::to_string(i++));
    std::size_t fired = 0;
    run_twin(seed ^ (0xabcdefULL * static_cast<std::uint64_t>(i)), reg, fired);
    // RNG-free dead rows always drop (utility 0 with no boost is at or
    // below every threshold), so the early-out must have fired.
    if (reg.dead_rows && !reg.exact_amount && reg.exploration == 0.0 &&
        reg.revise_boost == 0) {
      EXPECT_GT(fired, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ShedderSimdOracle, ::testing::Range(0, 6));

}  // namespace
}  // namespace espice
