// Property-based tests: parameterized sweeps asserting invariants of the
// core data structures on randomized inputs (seeded, hence reproducible).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <tuple>

#include "common/rng.hpp"
#include "core/cdt.hpp"
#include "core/espice_shedder.hpp"
#include "core/model_builder.hpp"
#include "sim/operator_sim.hpp"

namespace espice {
namespace {

// ---------------------------------------------------------------------------
// Random utility models: (seed, num_types, n_positions, bin_size).
// ---------------------------------------------------------------------------
using ModelParams = std::tuple<std::uint64_t, std::size_t, std::size_t, std::size_t>;

std::shared_ptr<const UtilityModel> random_model(const ModelParams& params) {
  const auto [seed, types, n, bs] = params;
  Rng rng(seed);
  const std::size_t cols = (n + bs - 1) / bs;
  std::vector<std::uint8_t> ut(types * cols);
  std::vector<double> shares(types * cols);
  for (std::size_t i = 0; i < ut.size(); ++i) {
    ut[i] = static_cast<std::uint8_t>(rng.uniform_int(101));
    shares[i] = rng.uniform(0.0, 2.0);
  }
  return std::make_shared<UtilityModel>(types, n, bs, std::move(ut),
                                        std::move(shares));
}

class CdtProperties : public ::testing::TestWithParam<ModelParams> {};

TEST_P(CdtProperties, CdtIsMonotoneInUtility) {
  const auto model = random_model(GetParam());
  for (std::size_t parts : {1u, 2u, 3u, 7u}) {
    for (const auto& cdt : Cdt::build_partitions(*model, parts)) {
      for (int u = 1; u <= kMaxUtility; ++u) {
        ASSERT_GE(cdt.at(u), cdt.at(u - 1));
      }
    }
  }
}

TEST_P(CdtProperties, PartitionTotalsSumToWholeWindowTotal) {
  const auto model = random_model(GetParam());
  const double whole = Cdt::build_partitions(*model, 1)[0].total();
  for (std::size_t parts : {2u, 3u, 5u, 11u}) {
    double sum = 0.0;
    for (const auto& cdt : Cdt::build_partitions(*model, parts)) {
      sum += cdt.total();
    }
    ASSERT_NEAR(sum, whole, 1e-9 * std::max(1.0, whole));
  }
}

TEST_P(CdtProperties, ThresholdIsMonotoneInDemand) {
  const auto model = random_model(GetParam());
  const auto cdts = Cdt::build_partitions(*model, 2);
  for (const auto& cdt : cdts) {
    int prev = -1;
    for (double x = 0.0; x <= cdt.total() * 1.2; x += cdt.total() / 17.0) {
      const int th = cdt.threshold(x);
      ASSERT_GE(th, prev);
      prev = th;
      if (cdt.total() <= 0.0) break;
    }
  }
}

TEST_P(CdtProperties, ThresholdDeliversTheDemandedAmount) {
  const auto model = random_model(GetParam());
  const auto cdts = Cdt::build_partitions(*model, 3);
  for (const auto& cdt : cdts) {
    for (double frac : {0.1, 0.5, 0.9}) {
      const double x = frac * cdt.total();
      const int th = cdt.threshold(x);
      ASSERT_GE(cdt.at(th), x);
      // Minimality: one utility step lower would not satisfy the demand.
      if (th > 0) {
        ASSERT_LT(cdt.at(th - 1), x);
      }
    }
  }
}

TEST_P(CdtProperties, UtilityLookupMatchesCellsAtNativeSize) {
  const auto model = random_model(GetParam());
  const double ws = static_cast<double>(model->n_positions());
  for (std::size_t t = 0; t < model->num_types(); ++t) {
    for (std::uint32_t p = 0; p < model->n_positions(); ++p) {
      const auto type = static_cast<EventTypeId>(t);
      ASSERT_EQ(model->utility(type, p, ws),
                model->utility_cell(type, p / model->bin_size()));
    }
  }
}

TEST_P(CdtProperties, ScaledUtilityLookupStaysInRange) {
  const auto model = random_model(GetParam());
  for (double ws_factor : {0.3, 0.7, 1.3, 2.6}) {
    const double ws =
        std::max(1.0, ws_factor * static_cast<double>(model->n_positions()));
    for (std::uint32_t p = 0; p < static_cast<std::uint32_t>(ws); ++p) {
      const int u = model->utility(0, p, ws);
      ASSERT_GE(u, 0);
      ASSERT_LE(u, kMaxUtility);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomModels, CdtProperties,
    ::testing::Values(ModelParams{1, 1, 8, 1}, ModelParams{2, 3, 17, 1},
                      ModelParams{3, 5, 64, 4}, ModelParams{4, 2, 100, 8},
                      ModelParams{5, 7, 31, 16}, ModelParams{6, 4, 256, 32},
                      ModelParams{7, 10, 13, 13}, ModelParams{8, 1, 1, 1}));

// ---------------------------------------------------------------------------
// Shedder properties over random models and commands.
// ---------------------------------------------------------------------------
class ShedderProperties
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {};

TEST_P(ShedderProperties, ExpectedDropsPerWindowCoverTheDemand) {
  const auto [seed, parts] = GetParam();
  const auto model = random_model(ModelParams{seed, 4, 60, 2});
  EspiceShedder shedder(model);

  const auto cdts = Cdt::build_partitions(*model, parts);
  double min_total = cdts[0].total();
  for (const auto& cdt : cdts) min_total = std::min(min_total, cdt.total());
  const double x = 0.4 * min_total;

  DropCommand cmd;
  cmd.active = true;
  cmd.x = x;
  cmd.partitions = parts;
  shedder.on_command(cmd);

  // Expected drops in partition p = CDT_p(uth_p); by construction >= x.
  for (std::size_t p = 0; p < parts; ++p) {
    ASSERT_GE(cdts[p].at(shedder.thresholds()[p]), x);
  }
}

TEST_P(ShedderProperties, DropDecisionAgreesWithThresholdSemantics) {
  const auto [seed, parts] = GetParam();
  const auto model = random_model(ModelParams{seed, 4, 60, 2});
  EspiceShedder shedder(model);
  DropCommand cmd;
  cmd.active = true;
  cmd.x = 5.0;
  cmd.partitions = parts;
  shedder.on_command(cmd);

  const double ws = static_cast<double>(model->n_positions());
  for (std::uint32_t pos = 0; pos < 60; ++pos) {
    for (EventTypeId t = 0; t < 4; ++t) {
      Event e;
      e.type = t;
      e.value = 1.0;
      const std::size_t part = std::min<std::size_t>(
          static_cast<std::size_t>(pos) * parts / 60, parts - 1);
      const int u = model->utility(t, pos, ws);
      const int uth = shedder.thresholds()[part];
      // Strictly below the threshold always drops; strictly above never
      // does.  Exactly at the threshold the exact-amount mode may drop
      // probabilistically, so equality is not asserted.
      if (u < uth) {
        ASSERT_TRUE(shedder.should_drop(e, pos, ws))
            << "type " << t << " pos " << pos;
      } else if (u > uth) {
        ASSERT_FALSE(shedder.should_drop(e, pos, ws))
            << "type " << t << " pos " << pos;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomShedders, ShedderProperties,
    ::testing::Combine(::testing::Values(11u, 22u, 33u, 44u),
                       ::testing::Values(1u, 2u, 5u)));

// ---------------------------------------------------------------------------
// Window manager invariants over randomized streams.
// ---------------------------------------------------------------------------
struct WindowParams {
  std::uint64_t seed;
  std::size_t span;
  std::size_t slide;
};

class WindowProperties : public ::testing::TestWithParam<WindowParams> {};

TEST_P(WindowProperties, EveryWindowHasContiguousPositionsAndExactSpan) {
  const auto& p = GetParam();
  WindowSpec spec;
  spec.span_kind = WindowSpan::kCount;
  spec.span_events = p.span;
  spec.open_kind = WindowOpen::kCountSlide;
  spec.slide_events = p.slide;
  WindowManager wm(spec);

  Rng rng(p.seed);
  const std::size_t n = 997;
  std::vector<Window> closed;
  for (std::size_t i = 0; i < n; ++i) {
    Event e;
    e.type = static_cast<EventTypeId>(rng.uniform_int(5));
    e.seq = i;
    e.ts = static_cast<double>(i);
    for (const auto& m : wm.offer(e)) wm.keep(m, e);
    for (const auto& w : wm.drain_closed()) closed.push_back(materialize(w));
  }
  wm.close_all();
  for (const auto& w : wm.drain_closed()) closed.push_back(materialize(w));

  ASSERT_EQ(closed.size(), (n + p.slide - 1) / p.slide);
  for (const auto& w : closed) {
    ASSERT_LE(w.arrivals, p.span);
    ASSERT_EQ(w.kept.size(), w.arrivals);  // nothing shed
    for (std::size_t i = 0; i < w.kept_pos.size(); ++i) {
      ASSERT_EQ(w.kept_pos[i], i);
      ASSERT_EQ(w.kept[i].seq, w.open_seq + i);  // contiguous slice
    }
  }
}

TEST_P(WindowProperties, MembershipCountMatchesWindowSizes) {
  const auto& p = GetParam();
  WindowSpec spec;
  spec.span_kind = WindowSpan::kCount;
  spec.span_events = p.span;
  spec.open_kind = WindowOpen::kCountSlide;
  spec.slide_events = p.slide;
  WindowManager wm(spec);

  std::size_t memberships = 0;
  const std::size_t n = 500;
  for (std::size_t i = 0; i < n; ++i) {
    Event e;
    e.seq = i;
    e.ts = static_cast<double>(i);
    memberships += wm.offer(e).size();
  }
  std::size_t window_sizes = 0;
  wm.close_all();
  for (const auto& w : wm.drain_closed()) window_sizes += w.arrivals;
  ASSERT_EQ(memberships, window_sizes);
}

INSTANTIATE_TEST_SUITE_P(
    RandomWindows, WindowProperties,
    ::testing::Values(WindowParams{1, 10, 10}, WindowParams{2, 10, 3},
                      WindowParams{3, 64, 16}, WindowParams{4, 7, 1},
                      WindowParams{5, 100, 33}, WindowParams{6, 3, 2}));

// ---------------------------------------------------------------------------
// Matcher invariants on random windows.
// ---------------------------------------------------------------------------
class MatcherProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MatcherProperties, MatchesAlwaysBindInWindowOrderFromKeptEvents) {
  Rng rng(GetParam());
  const Pattern pattern = make_sequence({element("a", TypeSet{0}),
                                         element("b", TypeSet{1}),
                                         element("c", TypeSet{2})});
  for (const auto sel : {SelectionPolicy::kFirst, SelectionPolicy::kLast}) {
    for (const auto cons :
         {ConsumptionPolicy::kConsumed, ConsumptionPolicy::kZero}) {
      Matcher matcher(pattern, sel, cons, 5);
      for (int trial = 0; trial < 50; ++trial) {
        Window w;
        w.id = static_cast<WindowId>(trial);
        const std::size_t size = 5 + rng.uniform_int(30);
        for (std::size_t i = 0; i < size; ++i) {
          Event e;
          e.type = static_cast<EventTypeId>(rng.uniform_int(4));
          e.seq = i;
          e.value = 1.0;
          w.kept.push_back(e);
          w.kept_pos.push_back(static_cast<std::uint32_t>(i));
          ++w.arrivals;
        }
        for (const auto& match : matcher.match_window(w)) {
          ASSERT_EQ(match.constituents.size(), 3u);
          for (std::size_t k = 0; k < 3; ++k) {
            const auto& c = match.constituents[k];
            ASSERT_EQ(c.element, k);
            ASSERT_EQ(w.kept[c.position].type, static_cast<EventTypeId>(k));
            if (k > 0) {
              ASSERT_GT(c.position, match.constituents[k - 1].position);
            }
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomMatcherWindows, MatcherProperties,
                         ::testing::Values(101u, 202u, 303u, 404u));

}  // namespace
}  // namespace espice
