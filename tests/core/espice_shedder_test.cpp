#include "core/espice_shedder.hpp"

#include <gtest/gtest.h>

#include <memory>

namespace espice {
namespace {

Event make_event(EventTypeId type) {
  Event e;
  e.type = type;
  e.value = 1.0;
  return e;
}

// 1 type x 10 positions: utilities 0..90 in steps of 10, shares 1 each.
std::shared_ptr<const UtilityModel> ramp_model() {
  std::vector<std::uint8_t> ut;
  std::vector<double> shares;
  for (int p = 0; p < 10; ++p) {
    ut.push_back(static_cast<std::uint8_t>(p * 10));
    shares.push_back(1.0);
  }
  return std::make_shared<UtilityModel>(1, 10, 1, std::move(ut),
                                        std::move(shares));
}

DropCommand active_command(double x, std::size_t partitions = 1) {
  DropCommand cmd;
  cmd.active = true;
  cmd.x = x;
  cmd.partitions = partitions;
  return cmd;
}

TEST(EspiceShedder, InactiveNeverDrops) {
  EspiceShedder s(ramp_model());
  for (std::uint32_t p = 0; p < 10; ++p) {
    EXPECT_FALSE(s.should_drop(make_event(0), p, 10.0));
  }
  EXPECT_EQ(s.drops(), 0u);
  EXPECT_EQ(s.decisions(), 10u);
}

TEST(EspiceShedder, DropsExactlyTheLowUtilityPrefix) {
  EspiceShedder s(ramp_model());
  // x = 3: CDT(20) = 3 -> threshold 20 -> positions 0, 1, 2 drop.
  s.on_command(active_command(3.0));
  ASSERT_EQ(s.thresholds().size(), 1u);
  EXPECT_EQ(s.thresholds()[0], 20);
  int drops = 0;
  for (std::uint32_t p = 0; p < 10; ++p) {
    if (s.should_drop(make_event(0), p, 10.0)) ++drops;
  }
  EXPECT_EQ(drops, 3);
  EXPECT_TRUE(s.should_drop(make_event(0), 0, 10.0));
  EXPECT_FALSE(s.should_drop(make_event(0), 5, 10.0));
}

TEST(EspiceShedder, DeactivationRestoresKeepAll) {
  EspiceShedder s(ramp_model());
  s.on_command(active_command(5.0));
  EXPECT_TRUE(s.should_drop(make_event(0), 0, 10.0));
  DropCommand off;
  off.active = false;
  s.on_command(off);
  EXPECT_FALSE(s.should_drop(make_event(0), 0, 10.0));
  EXPECT_TRUE(s.thresholds().empty());
}

TEST(EspiceShedder, PartitionsGetIndependentThresholds) {
  EspiceShedder s(ramp_model());
  // 2 partitions of 5 positions.  x = 2:
  //  partition 0 utilities {0,10,20,30,40} -> threshold 10,
  //  partition 1 utilities {50,60,70,80,90} -> threshold 60.
  s.on_command(active_command(2.0, 2));
  ASSERT_EQ(s.thresholds().size(), 2u);
  EXPECT_EQ(s.thresholds()[0], 10);
  EXPECT_EQ(s.thresholds()[1], 60);
  // Positions 0,1 (utility 0,10) drop in partition 0.
  EXPECT_TRUE(s.should_drop(make_event(0), 0, 10.0));
  EXPECT_TRUE(s.should_drop(make_event(0), 1, 10.0));
  EXPECT_FALSE(s.should_drop(make_event(0), 2, 10.0));
  // Positions 5,6 (utility 50,60) drop in partition 1.
  EXPECT_TRUE(s.should_drop(make_event(0), 5, 10.0));
  EXPECT_TRUE(s.should_drop(make_event(0), 6, 10.0));
  EXPECT_FALSE(s.should_drop(make_event(0), 7, 10.0));
}

TEST(EspiceShedder, ScaledWindowsUseNormalizedPositions) {
  EspiceShedder s(ramp_model());
  s.on_command(active_command(3.0));  // threshold 20
  // Window of 20 events, N = 10: positions 0..5 map to cells 0..2.
  EXPECT_TRUE(s.should_drop(make_event(0), 0, 20.0));
  EXPECT_TRUE(s.should_drop(make_event(0), 5, 20.0));
  EXPECT_FALSE(s.should_drop(make_event(0), 6, 20.0));
  EXPECT_FALSE(s.should_drop(make_event(0), 19, 20.0));
}

TEST(EspiceShedder, XLargerThanSupplyDropsEverything) {
  EspiceShedder s(ramp_model());
  s.on_command(active_command(1000.0));
  EXPECT_EQ(s.thresholds()[0], kMaxUtility);
  for (std::uint32_t p = 0; p < 10; ++p) {
    EXPECT_TRUE(s.should_drop(make_event(0), p, 10.0));
  }
}

TEST(EspiceShedder, RepeatedCommandsRecomputeThresholds) {
  EspiceShedder s(ramp_model());
  s.on_command(active_command(2.0));
  EXPECT_EQ(s.thresholds()[0], 10);
  s.on_command(active_command(7.0));
  EXPECT_EQ(s.thresholds()[0], 60);
  s.on_command(active_command(1.0));
  EXPECT_EQ(s.thresholds()[0], 0);
}

TEST(EspiceShedder, SetModelRecomputesActiveThresholds) {
  EspiceShedder s(ramp_model(), /*exact_amount=*/false);
  s.on_command(active_command(2.0));
  EXPECT_EQ(s.thresholds()[0], 10);
  // New model: all utilities 50 -> any x <= 10 yields threshold 50.
  std::vector<std::uint8_t> ut(10, 50);
  std::vector<double> shares(10, 1.0);
  s.set_model(std::make_shared<UtilityModel>(1, 10, 1, std::move(ut),
                                             std::move(shares)));
  EXPECT_EQ(s.thresholds()[0], 50);
  EXPECT_TRUE(s.should_drop(make_event(0), 9, 10.0));
}

TEST(EspiceShedder, CountsDecisionsAndDrops) {
  EspiceShedder s(ramp_model());
  s.on_command(active_command(3.0));
  for (std::uint32_t p = 0; p < 10; ++p) {
    s.should_drop(make_event(0), p, 10.0);
  }
  EXPECT_EQ(s.decisions(), 10u);
  EXPECT_EQ(s.drops(), 3u);
}

TEST(EspiceShedder, ExactAmountDropsFractionOfBoundaryUtility) {
  // 1 type x 10 positions, all utility 40, shares 1 each: dropping x = 4
  // with the literal algorithm would drop all 10 events; exact-amount mode
  // drops each boundary event with probability 0.4.
  std::vector<std::uint8_t> ut(10, 40);
  std::vector<double> shares(10, 1.0);
  auto model = std::make_shared<UtilityModel>(1, 10, 1, std::move(ut),
                                              std::move(shares));
  EspiceShedder s(model, /*exact_amount=*/true, /*seed=*/5);
  s.on_command(active_command(4.0));
  int drops = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (s.should_drop(make_event(0), static_cast<std::uint32_t>(i % 10), 10.0)) {
      ++drops;
    }
  }
  EXPECT_NEAR(static_cast<double>(drops) / trials, 0.4, 0.02);
}

TEST(EspiceShedder, LiteralModeDropsEverythingAtOrBelowThreshold) {
  std::vector<std::uint8_t> ut(10, 40);
  std::vector<double> shares(10, 1.0);
  auto model = std::make_shared<UtilityModel>(1, 10, 1, std::move(ut),
                                              std::move(shares));
  EspiceShedder s(model, /*exact_amount=*/false);
  s.on_command(active_command(4.0));
  for (std::uint32_t p = 0; p < 10; ++p) {
    EXPECT_TRUE(s.should_drop(make_event(0), p, 10.0));
  }
}

TEST(EspiceShedder, ExactAmountIsNoopOnIntegerBoundaries) {
  // Ramp model: CDT values are integers, so the boundary fraction is 1 and
  // the exact-amount mode behaves deterministically.
  EspiceShedder s(ramp_model(), /*exact_amount=*/true);
  s.on_command(active_command(3.0));
  int drops = 0;
  for (std::uint32_t p = 0; p < 10; ++p) {
    if (s.should_drop(make_event(0), p, 10.0)) ++drops;
  }
  EXPECT_EQ(drops, 3);
}

TEST(EspiceShedder, ExplorationSparesAFractionOfDrops) {
  EspiceShedder s(ramp_model());
  s.set_exploration(0.25);
  s.on_command(active_command(3.0));  // threshold 20: positions 0..2 drop
  int drops = 0;
  const int trials = 30000;
  for (int i = 0; i < trials; ++i) {
    if (s.should_drop(make_event(0), static_cast<std::uint32_t>(i % 3), 10.0)) {
      ++drops;
    }
  }
  EXPECT_NEAR(static_cast<double>(drops) / trials, 0.75, 0.02);
  // Keep decisions are never affected.
  EXPECT_FALSE(s.should_drop(make_event(0), 9, 10.0));
}

TEST(EspiceShedder, ExplorationValidation) {
  EspiceShedder s(ramp_model());
  EXPECT_THROW(s.set_exploration(-0.1), ConfigError);
  EXPECT_THROW(s.set_exploration(1.0), ConfigError);
  EXPECT_NO_THROW(s.set_exploration(0.0));
}

TEST(EspiceShedder, NullModelIsRejected) {
  EXPECT_THROW(EspiceShedder(nullptr), ConfigError);
  EspiceShedder s(ramp_model());
  EXPECT_THROW(s.set_model(nullptr), ConfigError);
}

TEST(EspiceShedder, NameIsStable) {
  EspiceShedder s(ramp_model());
  EXPECT_STREQ(s.name(), "eSPICE");
}

// A richer model for the block/scalar differential: several types, bins
// wider than 1, utilities that collide across cells (boundary fractions in
// play when exact_amount is on).
std::shared_ptr<const UtilityModel> block_model() {
  constexpr std::size_t kTypes = 4;
  constexpr std::size_t kN = 24;
  constexpr std::size_t kBs = 3;
  const std::size_t cols = (kN + kBs - 1) / kBs;
  std::vector<std::uint8_t> ut(kTypes * cols);
  std::vector<double> shares(kTypes * cols);
  for (std::size_t i = 0; i < ut.size(); ++i) {
    ut[i] = static_cast<std::uint8_t>((i * 17) % 101);
    shares[i] = 0.5 + static_cast<double>(i % 5);
  }
  return std::make_shared<UtilityModel>(kTypes, kN, kBs, std::move(ut),
                                        std::move(shares));
}

// score_block() must reproduce a scalar should_drop() sweep EXACTLY --
// decisions, counters, and internal RNG evolution -- on twin shedders with
// identical seeds.  Covers the flat fast path (ws == N), the general path
// (ws != N), positions beyond the predicted size, exact-amount boundary
// randomization and exploration.
TEST(EspiceShedder, ScoreBlockMatchesScalarSweep) {
  for (const bool exact : {false, true}) {
    for (const double ws : {24.0, 30.0}) {
      SCOPED_TRACE("exact_amount=" + std::to_string(exact) +
                   " ws=" + std::to_string(ws));
      EspiceShedder scalar(block_model(), exact, /*seed=*/77);
      EspiceShedder block(block_model(), exact, /*seed=*/77);
      scalar.set_exploration(0.25);
      block.set_exploration(0.25);
      scalar.on_command(active_command(20.0, 4));
      block.on_command(active_command(20.0, 4));

      // 3 rounds x 30 positions (6 beyond N = 24) x 4 types.
      std::uint32_t positions[30];
      for (std::uint32_t p = 0; p < 30; ++p) positions[p] = p;
      for (int round = 0; round < 3; ++round) {
        for (EventTypeId t = 0; t < 4; ++t) {
          const Event e = make_event(t);
          std::uint64_t bits[1 + 30 / 64] = {};
          block.score_block(e, positions, 30, ws, bits);
          for (std::uint32_t p = 0; p < 30; ++p) {
            const bool scalar_keep = !scalar.should_drop(e, p, ws);
            const bool block_keep = (bits[p / 64] >> (p % 64)) & 1;
            EXPECT_EQ(block_keep, scalar_keep)
                << "type " << t << " position " << p << " round " << round;
          }
        }
      }
      EXPECT_EQ(block.decisions(), scalar.decisions());
      EXPECT_EQ(block.drops(), scalar.drops());
      EXPECT_GT(block.drops(), 0u) << "nothing dropped: vacuous differential";
    }
  }
}

// An event whose type lies outside the model's universe has no UT row (the
// engine's router cannot know the universe): it is kept, counted as keep
// decisions, and neither scored nor drawn from the RNG.  exact_amount off
// is the SIMD-eligible configuration (ws == N); on, the scalar path with
// Bernoulli boundary draws.
TEST(EspiceShedder, UnknownTypeIsKeptWithoutScoring) {
  for (const bool exact : {false, true}) {
    SCOPED_TRACE("exact_amount=" + std::to_string(exact));
    EspiceShedder s(ramp_model(), exact, /*seed=*/5);
    EspiceShedder twin(ramp_model(), exact, /*seed=*/5);
    // x = 3.5: threshold 30, position 3 dropped with probability 1/2 when
    // exact_amount is on.
    s.on_command(active_command(3.5));
    twin.on_command(active_command(3.5));
    const Event unknown = make_event(1);
    ASSERT_FALSE(s.drops_everywhere(unknown));

    std::uint32_t positions[70];
    for (std::uint32_t p = 0; p < 70; ++p) positions[p] = p % 10;
    std::uint64_t bits[2] = {0, 0};
    s.score_block(unknown, positions, 70, 10.0, bits);
    for (std::uint32_t p = 0; p < 70; ++p) {
      EXPECT_TRUE((bits[p / 64] >> (p % 64)) & 1) << "membership " << p;
    }
    EXPECT_EQ(s.decisions(), 70u);
    EXPECT_EQ(s.drops(), 0u);
    for (std::uint32_t p = 0; p < 10; ++p) {
      EXPECT_FALSE(s.should_drop(unknown, p, 10.0)) << "position " << p;
    }
    EXPECT_EQ(s.decisions(), 80u);
    EXPECT_EQ(s.drops(), 0u);

    // No RNG state consumed: known-type decisions continue exactly as on
    // a twin that never saw the unknown type.
    for (int round = 0; round < 8; ++round) {
      for (std::uint32_t p = 0; p < 10; ++p) {
        EXPECT_EQ(s.should_drop(make_event(0), p, 10.0),
                  twin.should_drop(make_event(0), p, 10.0))
            << "round " << round << " position " << p;
      }
    }
    EXPECT_GT(twin.drops(), 0u);
  }
}

// Inactive shedders keep everything through the block API, and count the
// decisions just like the scalar path does.
TEST(EspiceShedder, ScoreBlockInactiveKeepsAllAndCounts) {
  EspiceShedder s(ramp_model());
  std::uint32_t positions[70];
  for (std::uint32_t p = 0; p < 70; ++p) positions[p] = p % 10;
  std::uint64_t bits[2] = {0, 0};
  s.score_block(make_event(0), positions, 70, 10.0, bits);
  for (std::uint32_t p = 0; p < 70; ++p) {
    EXPECT_TRUE((bits[p / 64] >> (p % 64)) & 1);
  }
  EXPECT_EQ(s.decisions(), 70u);
  EXPECT_EQ(s.drops(), 0u);
}

// Flat-path invalidation hardening: the position-indexed hot-path arrays
// (ut_flat_ / pos_threshold_) are derived state that MUST track every
// control-plane transition.  This directed command sequence -- partition
// resize up, resize down, re-arm after deactivation, model swap -- checks
// after each step that the flat fast path (ws == N) agrees with the
// general path (ws == 2N, where positions 2p and 2p+1 scale back to cell
// p and the flat arrays are bypassed) on twin shedders.
TEST(EspiceShedder, FlatPathTracksCommandResizesAndRearm) {
  auto model = block_model();  // 4 types x 24 positions, bin size 3
  const std::size_t n = model->n_positions();
  EspiceShedder flat(model);     // queried at ws == N: flat arrays
  EspiceShedder general(model);  // queried at ws == 2N: general math

  auto expect_agree = [&](const char* step) {
    SCOPED_TRACE(step);
    for (EventTypeId t = 0; t < 4; ++t) {
      for (std::uint32_t p = 0; p < n; ++p) {
        const bool f = flat.should_drop(make_event(t), p,
                                        static_cast<double>(n));
        const bool g = general.should_drop(make_event(t), 2 * p,
                                           2.0 * static_cast<double>(n));
        EXPECT_EQ(f, g) << "type " << t << " position " << p;
      }
    }
  };

  expect_agree("inactive");
  flat.on_command(active_command(8.0, 1));
  general.on_command(active_command(8.0, 1));
  expect_agree("armed, 1 partition");
  // Resize up: more partitions than before -> per-partition thresholds and
  // the position->threshold broadcast must be rebuilt, not reused.
  flat.on_command(active_command(8.0, 6));
  general.on_command(active_command(8.0, 6));
  expect_agree("resized up to 6 partitions");
  // Resize down.
  flat.on_command(active_command(5.0, 2));
  general.on_command(active_command(5.0, 2));
  expect_agree("resized down to 2 partitions");
  // Deactivate, then re-arm: the flat threshold arrays must come back
  // armed, not stay in their keep-all state.
  DropCommand off;
  off.active = false;
  flat.on_command(off);
  general.on_command(off);
  expect_agree("deactivated");
  flat.on_command(active_command(10.0, 3));
  general.on_command(active_command(10.0, 3));
  expect_agree("re-armed, 3 partitions");
  // Model swap under an active command: ut_flat_ is model-derived and the
  // thresholds depend on both -- everything must refresh together.
  std::vector<std::uint8_t> ut(4 * 8, 0);
  std::vector<double> shares(4 * 8, 1.0);
  for (std::size_t i = 0; i < ut.size(); ++i) {
    ut[i] = static_cast<std::uint8_t>((i * 31) % 101);
  }
  auto swapped = std::make_shared<UtilityModel>(4, n, 3, std::move(ut),
                                                std::move(shares));
  flat.set_model(swapped);
  general.set_model(swapped);
  expect_agree("model swapped while armed");
}

// The default (base-class) score_block loops should_drop, so any Shedder
// implementation is block-callable with identical semantics.
TEST(EspiceShedder, BaseClassScoreBlockLoopsShouldDrop) {
  NullShedder null_shedder;
  std::uint32_t positions[3] = {0, 1, 2};
  std::uint64_t bits = 0;
  null_shedder.score_block(make_event(0), positions, 3, 10.0, &bits);
  EXPECT_EQ(bits, 0b111u);
  EXPECT_EQ(null_shedder.decisions(), 3u);
}

}  // namespace
}  // namespace espice
