// Golden outputs of run_experiment(), the paper's evaluation protocol.
// experiment_test checks properties (eSPICE holds the bound, beats random,
// ...); this pins every ExperimentResult field of a fixed grid of runs bit
// for bit, so a change under the paper's figures -- the overload pass, the
// golden pass, the shedders, the detector -- that moves any number fails
// here and names the run that moved.
//
// The grid: Q1 (RTLS, time windows) and Q4 (stock, count windows) x
// eSPICE / BL / random / none x R = 1.2 / 1.4 th, plus one exact_amount
// run and one predicted_ws_override run.  Each run is one line of
// tests/data/experiment_golden.txt: readable counts plus a 64-bit FNV-1a
// digest over every field (doubles by bit pattern, latency buckets
// included).
//
// After an INTENDED change of the paper's numbers, regenerate the golden:
//   ESPICE_REGEN_GOLDEN=1 ./harness_experiment_golden_test
// and commit the diff.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hpp"

namespace espice {
namespace {

class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string golden_path() {
  return std::string(ESPICE_SOURCE_DIR) + "/tests/data/experiment_golden.txt";
}

/// One golden line: the run's name, its readable counts and a digest over
/// every ExperimentResult field.
std::string golden_line(const std::string& name, const ExperimentResult& r) {
  Fnv1a f;
  f.add(std::uint64_t{r.quality.golden});
  f.add(std::uint64_t{r.quality.detected});
  f.add(std::uint64_t{r.quality.false_negatives});
  f.add(std::uint64_t{r.quality.false_positives});
  const LatencySummary& l = r.latency;
  f.add(std::uint64_t{l.buckets.size()});
  for (const LatencyBucket& b : l.buckets) {
    f.add(b.start_ts);
    f.add(b.mean);
    f.add(b.max);
    f.add(std::uint64_t{b.events});
  }
  for (const double v : {l.mean, l.p50, l.p99, l.p999, l.max}) f.add(v);
  f.add(std::uint64_t{l.violations});
  f.add(std::uint64_t{l.events});
  f.add(std::uint64_t{r.n_positions});
  f.add(r.throughput);
  f.add(r.input_rate);
  f.add(r.decisions);
  f.add(r.drops);
  f.add(r.windows);
  f.add(std::uint64_t{r.shedding_active});
  f.add(r.avg_windows_per_event);

  char digest[19];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(f.value()));
  std::ostringstream line;
  line << name << " golden=" << r.quality.golden
       << " detected=" << r.quality.detected
       << " fn=" << r.quality.false_negatives
       << " fp=" << r.quality.false_positives << " N=" << r.n_positions
       << " decisions=" << r.decisions << " drops=" << r.drops
       << " windows=" << r.windows << " active=" << r.shedding_active
       << " violations=" << l.violations << " digest=" << digest;
  return line.str();
}

struct Grid {
  std::string label;
  ExperimentConfig base;
  const std::vector<Event>* events;
};

std::vector<std::string> run_grid() {
  std::vector<std::string> lines;

  TypeRegistry rtls_reg;
  RtlsGenerator rtls(RtlsConfig{}, rtls_reg);
  const auto rtls_events = rtls.generate(40'000);
  TypeRegistry stock_reg;
  StockGenerator stock(StockConfig{}, stock_reg);
  const auto stock_events = stock.generate(80'000);

  Grid q1{"q1", {}, &rtls_events};
  q1.base.query = make_q1(rtls, 3);
  q1.base.num_types = rtls_reg.size();
  q1.base.train_events = 20'000;
  q1.base.measure_events = 18'000;

  Grid q4{"q4", {}, &stock_events};
  q4.base.query = make_q4(stock, 1500);
  q4.base.num_types = stock_reg.size();
  q4.base.train_events = 60'000;
  q4.base.measure_events = 18'000;
  q4.base.bin_size = 4;

  for (const Grid& g : {q1, q4}) {
    const TrainedModel trained = train_model(
        g.base.query, g.base.num_types,
        std::span<const Event>(*g.events).subspan(0, g.base.train_events),
        g.base.bin_size);
    for (const ShedderKind kind :
         {ShedderKind::kEspice, ShedderKind::kBaseline, ShedderKind::kRandom,
          ShedderKind::kNone}) {
      for (const double rate : {1.2, 1.4}) {
        ExperimentConfig c = g.base;
        c.shedder = kind;
        c.rate_factor = rate;
        const std::string name = g.label + "/" + shedder_kind_name(kind) +
                                 "/R" + (rate == 1.2 ? "1.2" : "1.4");
        lines.push_back(
            golden_line(name, run_experiment(c, *g.events, &trained)));
      }
    }
  }

  // The two eSPICE knobs the paper benches sweep, each trained inside
  // run_experiment (no pretrained model).
  ExperimentConfig exact = q1.base;
  exact.exact_amount = true;
  exact.rate_factor = 1.4;
  lines.push_back(golden_line("q1/eSPICE-exact/R1.4",
                              run_experiment(exact, rtls_events)));
  ExperimentConfig ws = q4.base;
  ws.predicted_ws_override = 1200.0;
  ws.rate_factor = 1.2;
  lines.push_back(golden_line("q4/eSPICE-ws1200/R1.2",
                              run_experiment(ws, stock_events)));
  return lines;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(ExperimentGolden, GridMatchesCommittedGolden) {
  const std::vector<std::string> lines = run_grid();

  if (std::getenv("ESPICE_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path(), std::ios::trunc);
    ASSERT_TRUE(out.good());
    for (const std::string& line : lines) out << line << "\n";
    GTEST_SKIP() << "golden regenerated; commit "
                    "tests/data/experiment_golden.txt";
  }

  const std::vector<std::string> golden = read_lines(golden_path());
  ASSERT_EQ(lines.size(), golden.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i], golden[i])
        << "run_experiment output changed; if intended, regenerate with "
           "ESPICE_REGEN_GOLDEN=1 and commit the golden diff";
  }
}

}  // namespace
}  // namespace espice
