// bench_suite: the benchmark every performance claim about the engine is
// measured with.
//
//   bench_suite --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   bench_suite --smoke
//
// One run generates the seed's stream, trains what the workload needs, and
// then measures in rounds of [setup sample, closed-loop pass, closed-loop
// pass, open-loop pass, host probe] until --seconds have passed:
//  * closed loop: the next 256-event batch is pushed as soon as push_batch()
//    returns; the rings' backpressure paces the router.  Gives throughput
//    and heap peak.
//  * open loop: batch i is due at i * 256 / rate; the generator (the router
//    thread) spin-waits until it is due.  Gives the engine-sampled latency
//    percentiles and how late the generator ran.
// Every pass is checked against the serial golden of its input; a pass that
// throws, mismatches, sees a late event or falls 50 ms behind schedule is a
// failed pass.  --trace 1 spends half the time on those passes (for the
// report-derived layer counters) and then runs the traced phase: one engine
// pass with every push_batch()/finish() timed, and the single-threaded layer
// replay (replay.hpp), traced and untraced, both checked against the golden.
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"} with the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1).  --smoke runs every workload at 1/20 of
// its size with three closed-loop passes, keeps every gate, and writes
// BENCH_suite.json.  Any correctness failure exits 1.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "counting_alloc.hpp"
#include "core/espice_shedder.hpp"
#include "metrics/quality.hpp"
#include "replay.hpp"
#include "runtime/stream_engine.hpp"
#include "sim/sharded_sim.hpp"
#include "workloads.hpp"

namespace bench_suite {
namespace {

using namespace espice;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/// An open-loop pass whose generator falls this far behind fails.
constexpr double kMaxLagSeconds = 0.050;
/// Smoke mode: fraction of every size, closed-loop passes per workload.
constexpr double kSmokeScale = 1.0 / 20.0;
constexpr int kSmokePasses = 3;
/// Passes slow down for whole seconds while a neighbour on the host
/// contends for the machine, so each run reports its fastest decile of
/// passes: the p90 of per-pass throughput and the p10 of the per-pass
/// latency percentiles.  A change to the engine moves every pass, the
/// fast ones included; host contention mostly moves the slow ones.
constexpr double kFast = 0.1;
/// Shortest setup sample (see WorkloadRun::setup_sample).
constexpr double kSetupSampleSeconds = 0.005;
/// Closed-loop passes per measurement round.
constexpr int kClosedPerRound = 2;
/// Ledger gate: layer self times must cover this share of the replay.
constexpr double kLedgerMinPct = 85.0;
constexpr double kLedgerMaxPct = 115.0;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

bool same_matches(const std::vector<ComplexEvent>& a,
                  const std::vector<ComplexEvent>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].window != b[i].window || a[i].detection_ts != b[i].detection_ts ||
        a[i].constituents.size() != b[i].constituents.size()) {
      return false;
    }
    for (std::size_t c = 0; c < a[i].constituents.size(); ++c) {
      const Constituent& x = a[i].constituents[c];
      const Constituent& y = b[i].constituents[c];
      if (x.element != y.element || x.position != y.position ||
          x.event.seq != y.event.seq) {
        return false;
      }
    }
  }
  return true;
}

std::uint64_t dir_bytes(const fs::path& dir) {
  std::uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
  std::string tmp = "bench_suite_tmp";
};

enum class Mode { kClosed, kOpen, kTraced };

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::kClosed: return "closed";
    case Mode::kOpen: return "open";
    case Mode::kTraced: return "traced";
  }
  return "?";
}

/// What one engine pass measured.
struct Pass {
  Mode mode = Mode::kClosed;
  bool correct = true;
  bool failed = false;
  std::string why;
  std::uint64_t events = 0;
  double seconds = 0.0;
  double mem_mb = 0.0;
  // EngineReport / ShardStats derived.
  double stall_s = 0.0;
  double busy_s = 0.0;
  double mean_depth = 0.0;
  double imbalance = 0.0;
  std::uint64_t memberships = 0;
  std::uint64_t windows = 0;
  std::uint64_t matches = 0;
  std::uint64_t decisions = 0;
  std::uint64_t drops = 0;
  double reorder_peak = 0.0;
  // Latency (ns histogram -> us) and generator lag.
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  std::uint64_t beyond_p99 = 0;
  double lag_p99_us = 0.0;
  // Durability.
  std::vector<double> checkpoint_ms;
  double snapshot_bytes = 0.0;
  // Traced pass.
  double push_s = 0.0;
  double finish_s = 0.0;
};

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

/// One workload run: inputs, goldens and every measurement taken.
class WorkloadRun {
 public:
  WorkloadRun(const WorkloadSpec& w, const Options& opt)
      : w_(w), opt_(opt),
        in_(make_inputs(w, opt.seed, opt.smoke ? kSmokeScale : 1.0)) {
    closed_n_ = in_.measure.size();
    open_n_ = open_pass_events(w, closed_n_);
  }

  /// One setup sample: train every model the workload needs, construct
  /// the engine, add the queries, start() (which opens the durability
  /// directory), abort().  A setup cheaper than kSetupSampleSeconds is
  /// repeated until the sample lasts that long, and the sample is the mean
  /// per setup, so even a sub-millisecond setup is timed steadily.
  void setup_sample() {
    const auto t_sample = Clock::now();
    int reps = 0;
    do {
      const std::string dir = next_dir();
      const auto t0 = Clock::now();
      Prepared p = prepare_queries(w_, in_);
      train_ms_.push_back(since(t0) * 1e3);
      {
        StreamEngine engine(engine_config(w_, dir));
        for (const EngineQuery& q : p.queries) engine.add_query(q);
        engine.start();
        engine.abort();
      }
      fs::remove_all(dir);
      prep_ = std::move(p);
      ++reps;
    } while (since(t_sample) < kSetupSampleSeconds);
    setup_s_.push_back(since(t_sample) / reps);
  }

  void compute_goldens() {
    const std::span<const Event> all(in_.measure);
    golden_closed_ = per_query_serial_goldens(w_.shards, nullptr,
                                              prep_.queries,
                                              all.first(closed_n_));
    golden_open_ = per_query_serial_goldens(w_.shards, nullptr, prep_.queries,
                                            all.first(open_n_));
    const auto plain = without_shedders(prep_.queries);
    const auto unshed = per_query_serial_goldens(w_.shards, nullptr, plain,
                                                 all.first(closed_n_));
    // Shedding quality, pooled over queries: the engine's output equals
    // the shed golden, so this is the quality every correct pass delivers.
    for (std::size_t q = 0; q < unshed.size(); ++q) {
      const QualityReport r = compare_quality(unshed[q], golden_closed_[q]);
      quality_.golden += r.golden;
      quality_.detected += r.detected;
      quality_.false_negatives += r.false_negatives;
      quality_.false_positives += r.false_positives;
    }
  }

  /// Rounds of [setup sample, closed-loop passes, open-loop pass, host
  /// probe] until `budget` seconds have passed (at least one round), so
  /// every metric samples the same stretch of host noise.
  void measure_rounds(double budget, int closed_per_round) {
    const auto t0 = Clock::now();
    do {
      setup_sample();
      for (int i = 0; i < closed_per_round; ++i) {
        passes_.push_back(run_pass(Mode::kClosed));
      }
      passes_.push_back(run_pass(Mode::kOpen));
      probe_ms_.push_back(memory_probe_ms());
    } while (since(t0) < budget);
  }

  void traced_phase() {
    passes_.push_back(run_pass(Mode::kTraced));
    // Alternate untraced and traced replays; medians of three each.
    std::vector<double> plain_s, traced_s;
    for (int rep = 0; rep < 3; ++rep) {
      plain_s.push_back(checked_replay(false).total_seconds);
      ReplayResult t = checked_replay(true);
      traced_s.push_back(t.total_seconds);
      if (rep == 0 || t.total_seconds < traced_.total_seconds) {
        traced_ = std::move(t);
      }
    }
    replay_plain_s_ = median(plain_s);
    replay_traced_s_ = median(traced_s);
    time_shedder_command();
  }

  bool correct() const {
    if (!gate_failures_.empty()) return false;
    for (const Pass& p : passes_) {
      if (!p.correct) return false;
    }
    return true;
  }
  std::uint64_t attempted() const { return passes_.size(); }
  std::uint64_t failed() const {
    return static_cast<std::uint64_t>(std::count_if(
        passes_.begin(), passes_.end(), [](const Pass& p) { return p.failed; }));
  }
  const std::vector<std::string>& gate_failures() const {
    return gate_failures_;
  }
  const std::vector<Pass>& passes() const { return passes_; }

  std::vector<Metric> end_to_end() const;
  std::vector<Metric> per_layer() const;


 private:
  /// A fresh durability directory under the run's scratch directory; its
  /// user removes it.
  std::string next_dir() {
    return opt_.tmp + "/" + w_.name + "-" + std::to_string(dirs_made_++);
  }

  Pass run_pass(Mode mode);
  ReplayResult checked_replay(bool traced);
  void time_shedder_command();
  double memory_probe_ms();

  /// `field` of every pass of `mode` that did not fail.
  template <typename T>
  std::vector<double> of(Mode mode, T Pass::*field) const {
    std::vector<double> v;
    for (const Pass& p : passes_) {
      if (p.mode == mode && !p.failed) {
        v.push_back(static_cast<double>(p.*field));
      }
    }
    return v;
  }

  /// Per-pass throughput of the closed-loop passes.
  std::vector<double> closed_eps() const {
    std::vector<double> eps;
    for (const Pass& p : passes_) {
      if (p.mode == Mode::kClosed && !p.failed) {
        eps.push_back(ratio(static_cast<double>(p.events), p.seconds));
      }
    }
    return eps;
  }

  const WorkloadSpec& w_;
  Options opt_;
  Inputs in_;
  std::size_t closed_n_ = 0;
  std::size_t open_n_ = 0;
  Prepared prep_;
  std::vector<std::vector<ComplexEvent>> golden_closed_;
  std::vector<std::vector<ComplexEvent>> golden_open_;
  QualityReport quality_;
  std::vector<double> setup_s_;
  std::vector<double> train_ms_;
  std::vector<Pass> passes_;
  std::vector<double> probe_ms_;
  std::vector<std::uint64_t> probe_buf_;
  volatile std::uint64_t probe_sink_ = 0;
  ReplayResult traced_;
  double replay_plain_s_ = 0.0;
  double replay_traced_s_ = 0.0;
  double command_us_ = 0.0;
  double wal_bytes_per_event_ = 0.0;
  std::uint64_t dirs_made_ = 0;
  std::vector<std::string> gate_failures_;
};

Pass WorkloadRun::run_pass(Mode mode) {
  Pass p;
  p.mode = mode;
  const std::size_t n = mode == Mode::kOpen ? open_n_ : closed_n_;
  const std::span<const Event> events =
      in_.arrival().first(n);
  const auto& golden = mode == Mode::kOpen ? golden_open_ : golden_closed_;
  const std::string dir = next_dir();
  std::vector<double> lags;
  lags.reserve(n / kBatch + 1);
  p.checkpoint_ms.reserve(n / kCheckpointEvery + 1);

  heap_reset_peak();
  const std::size_t live0 = heap_live_bytes();
  try {
    EngineReport report;
    {
      StreamEngine engine(engine_config(w_, dir));
      for (const EngineQuery& q : prep_.queries) engine.add_query(q);
      engine.start();
      std::uint64_t next_checkpoint = kCheckpointEvery;
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < n; i += kBatch) {
        const auto batch = events.subspan(i, std::min(kBatch, n - i));
        if (mode == Mode::kOpen) {
          const auto due =
              t0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(static_cast<double>(i) /
                                                     w_.open_rate_eps));
          auto now = Clock::now();
          while (now < due) now = Clock::now();
          lags.push_back(std::chrono::duration<double>(now - due).count());
        }
        if (mode == Mode::kTraced) {
          const auto tp = Clock::now();
          engine.push_batch(batch);
          p.push_s += since(tp);
        } else {
          engine.push_batch(batch);
        }
        // A checkpoint fsyncs, and on a journaling filesystem that can flush
        // the WAL's dirty pages too: its cost is the disk's, far noisier
        // than the engine's.  So only the traced pass checkpoints (timed as
        // the snapshot layer); the measured passes exercise the WAL path.
        if (w_.durable && mode == Mode::kTraced &&
            i + batch.size() >= next_checkpoint && i + batch.size() < n) {
          const auto tc = Clock::now();
          engine.checkpoint();
          p.checkpoint_ms.push_back(since(tc) * 1e3);
          next_checkpoint += kCheckpointEvery;
        }
      }
      const auto tf = Clock::now();
      report = engine.finish();
      p.finish_s = since(tf);
      p.seconds = since(t0);
    }
    p.mem_mb = static_cast<double>(heap_peak_bytes() - live0) / 1e6;
    p.events = report.events;
    if (w_.durable) {
      for (const auto& entry : fs::directory_iterator(dir + "/snapshots")) {
        if (entry.path().extension() == ".snap") {
          p.snapshot_bytes = static_cast<double>(entry.file_size());
        }
      }
    }

    p.stall_s = report.router_stall_seconds;
    std::uint64_t max_events = 0;
    for (const ShardStats& s : report.shards) {
      p.busy_s += s.busy_seconds;
      p.mean_depth += s.mean_queue_depth() /
                      static_cast<double>(report.shards.size());
      p.memberships += s.memberships;
      p.windows += s.windows_closed;
      p.decisions += s.shed_decisions;
      p.drops += s.shed_drops;
      p.reorder_peak = std::max(p.reorder_peak,
                                static_cast<double>(s.reorder_peak_buffered));
      max_events = std::max(max_events, s.events);
    }
    p.imbalance = ratio(static_cast<double>(max_events),
                        static_cast<double>(report.events) /
                            static_cast<double>(report.shards.size()));
    p.matches = report.matches.size();
    const LatencyHistogram& lat = report.latency;
    p.p50_us = static_cast<double>(lat.quantile(0.50)) / 1e3;
    p.p99_us = static_cast<double>(lat.quantile(0.99)) / 1e3;
    p.p999_us = static_cast<double>(lat.quantile(0.999)) / 1e3;
    p.beyond_p99 = lat.count() / 100;
    p.lag_p99_us = quantile(lags, 0.99) * 1e6;

    bool same = report.queries.size() == golden.size() && report.events == n;
    for (std::size_t q = 0; same && q < golden.size(); ++q) {
      same = same_matches(report.queries[q].matches, golden[q]);
    }
    if (!same) {
      p.correct = false;
      p.failed = true;
      p.why = "output differs from the serial golden";
    } else if (report.late_events != 0) {
      p.correct = false;
      p.failed = true;
      p.why = std::to_string(report.late_events) + " late events";
    } else if (!lags.empty() &&
               *std::max_element(lags.begin(), lags.end()) > kMaxLagSeconds) {
      p.failed = true;
      p.why = "generator fell more than 50 ms behind schedule";
    }
  } catch (const std::exception& e) {
    p.correct = false;
    p.failed = true;
    p.why = std::string("pass threw: ") + e.what();
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
  if (p.failed) {
    std::fprintf(stderr, "%s: %s pass failed: %s\n", w_.name,
                 mode_name(mode), p.why.c_str());
  }
  return p;
}

ReplayResult WorkloadRun::checked_replay(bool traced) {
  const StreamEngineConfig config = engine_config(w_, "");
  ReplayInput in;
  in.queries = prep_.queries;
  in.shards = w_.shards;
  in.ring_capacity = w_.ring_capacity;
  in.event_time = config.event_time ? &*config.event_time : nullptr;
  in.wal_dir = w_.durable ? next_dir() : "";
  in.arrival = in_.arrival();
  ReplayResult r = replay(in, traced);
  if (!in.wal_dir.empty()) {
    wal_bytes_per_event_ =
        ratio(static_cast<double>(dir_bytes(in.wal_dir)),
              static_cast<double>(closed_n_));
    fs::remove_all(in.wal_dir);
  }
  bool same = r.matches.size() == golden_closed_.size() && r.late_events == 0;
  for (std::size_t q = 0; same && q < r.matches.size(); ++q) {
    same = same_matches(r.matches[q], golden_closed_[q]);
  }
  if (!same) {
    gate_failures_.push_back(std::string(traced ? "traced" : "untraced") +
                             " layer replay differs from the serial golden");
  }
  if (traced) {
    double sum = 0.0;
    for (const double s : r.self_seconds) sum += s;
    const double pct = 100.0 * ratio(sum, r.total_seconds);
    if (pct < kLedgerMinPct || pct > kLedgerMaxPct) {
      gate_failures_.push_back("ledger: layer self times sum to " +
                               std::to_string(pct) + "% of the replay");
    }
  }
  return r;
}

void WorkloadRun::time_shedder_command() {
  std::vector<double> us;
  for (const auto& model : prep_.models) {
    for (int rep = 0; rep < 5; ++rep) {
      EspiceShedder shedder(model);
      const auto t0 = Clock::now();
      shedder.on_command(shed_command());
      us.push_back(since(t0) * 1e6);
    }
  }
  command_us_ = median(us);
}

double WorkloadRun::memory_probe_ms() {
  // A fixed cache-line stride over 16 MB: slows when a neighbour contends
  // for memory bandwidth, so a contended run shows in the ledger.
  constexpr std::size_t kWords = (16u << 20) / sizeof(std::uint64_t);
  if (probe_buf_.empty()) probe_buf_.assign(kWords, 1);
  const auto t0 = Clock::now();
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < kWords; i += 8) sum += probe_buf_[i];
  const double ms = since(t0) * 1e3;
  probe_sink_ = sum;  // keeps the loop from being elided
  return ms;
}

std::vector<Metric> WorkloadRun::end_to_end() const {
  const double recall =
      100.0 * ratio(static_cast<double>(quality_.golden -
                                        quality_.false_negatives),
                    static_cast<double>(quality_.golden));
  const double precision =
      100.0 * ratio(static_cast<double>(quality_.detected -
                                        quality_.false_positives),
                    static_cast<double>(quality_.detected));
  return {
      {"throughput_eps", "1/s", quantile(closed_eps(), 1.0 - kFast)},
      {"latency_p50_us", "us", quantile(of(Mode::kOpen, &Pass::p50_us), kFast)},
      {"latency_p99_us", "us", quantile(of(Mode::kOpen, &Pass::p99_us), kFast)},
      {"setup_s", "s", median(setup_s_)},
      {"mem_peak_mb", "MB", median(of(Mode::kClosed, &Pass::mem_mb))},
      {"recall_pct", "%", recall},
      {"precision_pct", "%", precision},
  };
}

std::vector<Metric> WorkloadRun::per_layer() const {
  const std::vector<double> eps = closed_eps();
  const std::vector<double> beyond = of(Mode::kOpen, &Pass::beyond_p99);
  const Pass none;
  const Pass* traced = &none;
  for (const Pass& p : passes_) {
    if (p.mode == Mode::kTraced) traced = &p;
  }
  const auto closed = [&](auto Pass::*field) {
    return median(of(Mode::kClosed, field));
  };
  // A closed-loop pass's seconds per event, in ns.
  const auto per_event = [&](double Pass::*seconds) {
    std::vector<double> v;
    for (const Pass& p : passes_) {
      if (p.mode == Mode::kClosed && !p.failed) {
        v.push_back(ratio(p.*seconds * 1e9, static_cast<double>(p.events)));
      }
    }
    return median(v);
  };
  // The traced replay's self time of `l` per unit of its work, in ns.
  const auto self_ns = [&](Layer l, std::uint64_t per) {
    return ratio(traced_.self_seconds[l] * 1e9, static_cast<double>(per));
  };
  double self_sum = 0.0;
  for (const double s : traced_.self_seconds) self_sum += s;
  double matches = 0.0;
  for (const auto& q : traced_.matches) matches += static_cast<double>(q.size());
  const double events = static_cast<double>(closed_n_);

  return {
      {"throughput.median_eps", "1/s", median(eps)},
      {"throughput.q1_eps", "1/s", quantile(eps, 0.25)},
      {"throughput.q3_eps", "1/s", quantile(eps, 0.75)},
      {"throughput.passes", "count", static_cast<double>(eps.size())},
      {"latency.p999_us", "us", median(of(Mode::kOpen, &Pass::p999_us))},
      {"latency.passes", "count", static_cast<double>(beyond.size())},
      {"latency.min_samples_beyond_p99", "count",
       beyond.empty() ? 0.0 : *std::min_element(beyond.begin(), beyond.end())},
      {"router.ns_per_event", "ns",
       ratio((traced->push_s - traced->stall_s) * 1e9,
             static_cast<double>(traced->events))},
      {"router.stall_ns_per_event", "ns", per_event(&Pass::stall_s)},
      {"router.sched_lag_p99_us", "us",
       median(of(Mode::kOpen, &Pass::lag_p99_us))},
      {"router.partition_ns_per_event", "ns",
       self_ns(kRoute, traced_.events)},
      {"ring.hop_ns_per_event", "ns", self_ns(kRing, traced_.events)},
      {"ring.mean_depth", "count", closed(&Pass::mean_depth)},
      {"shard.busy_ns_per_event", "ns", per_event(&Pass::busy_s)},
      {"shard.imbalance", "ratio", closed(&Pass::imbalance)},
      {"reorder.ns_per_event", "ns", self_ns(kReorder, traced_.events)},
      {"reorder.peak_buffered", "count", closed(&Pass::reorder_peak)},
      {"window.ns_per_event", "ns", self_ns(kWindow, traced_.events)},
      {"window.memberships_per_event", "count",
       ratio(closed(&Pass::memberships), events)},
      {"window.closed", "count", closed(&Pass::windows)},
      {"shedder.ns_per_membership", "ns", self_ns(kShedder, traced_.scored)},
      {"shedder.drop_ratio", "ratio",
       ratio(closed(&Pass::drops), closed(&Pass::decisions))},
      {"shedder.command_us", "us", command_us_},
      {"matcher.advance_ns_per_kept", "ns",
       self_ns(kMatcherAdvance, traced_.kept_fed)},
      {"matcher.finalize_ns_per_window", "ns",
       self_ns(kMatcherFinalize, traced_.finalized)},
      {"matcher.matches", "count", closed(&Pass::matches)},
      {"wal.ns_per_event", "ns", self_ns(kWal, traced_.events)},
      {"wal.bytes_per_event", "B", wal_bytes_per_event_},
      {"snapshot.checkpoint_ms", "ms", median(traced->checkpoint_ms)},
      {"snapshot.bytes", "B", traced->snapshot_bytes},
      {"merge.ns_per_match", "ns",
       ratio(traced_.self_seconds[kMerge] * 1e9, matches)},
      {"engine.finish_ms", "ms", traced->finish_s * 1e3},
      {"model.train_ms", "ms", median(train_ms_)},
      {"ledger.st_ns_per_event", "ns", replay_plain_s_ * 1e9 / events},
      {"ledger.sum_pct", "%", 100.0 * ratio(self_sum, traced_.total_seconds)},
      {"trace.overhead_pct", "%",
       100.0 * (ratio(replay_traced_s_, replay_plain_s_) - 1.0)},
      {"host.mem_probe_ms_p90", "ms", quantile(probe_ms_, 0.9)},
      {"quality.fn_percent", "%", quality_.fn_percent()},
      {"quality.fp_percent", "%", quality_.fp_percent()},
      {"passes.failed_ratio", "ratio",
       ratio(static_cast<double>(failed()), static_cast<double>(attempted()))},
  };
}

/// Shortest round-trip decimal form (C locale; finite values only).
std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string s = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + metrics[i].name + "\": {\"value\": " + number(metrics[i].value) +
         ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return s + "}";
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::printf("--- %s ---\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void print_passes(const WorkloadRun& run) {
  std::printf("  %-6s %10s %9s %14s %9s %9s %8s\n", "pass", "events",
              "seconds", "events/s", "p50 us", "p99 us", "heap MB");
  for (const Pass& p : run.passes()) {
    std::printf("  %-6s %10llu %9.4f %14.0f %9.1f %9.1f %8.2f%s\n",
                mode_name(p.mode),
                static_cast<unsigned long long>(p.events), p.seconds,
                ratio(static_cast<double>(p.events), p.seconds), p.p50_us,
                p.p99_us, p.mem_mb, p.failed ? "  FAILED" : "");
  }
}

void report_gates(const WorkloadSpec& w, const WorkloadRun& run) {
  for (const std::string& g : run.gate_failures()) {
    std::fprintf(stderr, "%s: GATE FAILED: %s\n", w.name, g.c_str());
  }
}

int run_one(const WorkloadSpec& w, const Options& opt) {
  WorkloadRun run(w, opt);
  run.setup_sample();
  run.compute_goldens();
  run.measure_rounds(opt.trace ? opt.seconds / 2.0 : opt.seconds,
                     kClosedPerRound);
  if (opt.trace) run.traced_phase();

  const std::vector<Metric> metrics =
      opt.trace ? run.per_layer() : run.end_to_end();
  std::printf("=== bench_suite %s (seed %llu, %s) ===\n", w.name,
              static_cast<unsigned long long>(opt.seed),
              opt.trace ? "per-layer" : "end-to-end");
  print_passes(run);
  print_table(opt.trace ? "per-layer" : "end-to-end", metrics);
  report_gates(w, run);
  const bool correct = run.correct();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(run.attempted()),
              static_cast<unsigned long long>(run.failed()),
              metrics_json(metrics).c_str());
  return correct ? 0 : 1;
}

int run_smoke(Options opt) {
  const auto t0 = Clock::now();
  opt.smoke = true;
  opt.trace = true;
  bool all_correct = true;
  std::string json = "{\n  \"benchmark\": \"suite\",\n  \"smoke\": true,\n"
                     "  \"workloads\": {\n";
  for (const WorkloadSpec& w : all_workloads()) {
    WorkloadRun run(w, opt);
    run.setup_sample();
    run.compute_goldens();
    run.measure_rounds(0.0, kSmokePasses);
    run.traced_phase();
    std::vector<Metric> metrics = run.end_to_end();
    const std::vector<Metric> layers = run.per_layer();
    metrics.insert(metrics.end(), layers.begin(), layers.end());
    std::printf("=== bench_suite --smoke %s ===\n", w.name);
    print_table("all metrics", metrics);
    report_gates(w, run);
    all_correct = all_correct && run.correct();
    json += std::string(&w == all_workloads().data() ? "" : ",\n") +
            "    \"" + w.name + "\": {\"correct\": " +
            (run.correct() ? "true" : "false") +
            ", \"attempted\": " + std::to_string(run.attempted()) +
            ", \"failed\": " + std::to_string(run.failed()) +
            ", \"metrics\": " + metrics_json(metrics) + "}";
  }
  json += "\n  }\n}\n";
  FILE* f = std::fopen("BENCH_suite.json", "w");
  const bool wrote = f != nullptr && std::fputs(json.c_str(), f) >= 0;
  if (f != nullptr) std::fclose(f);
  std::printf("smoke: %s in %.1f s; %s BENCH_suite.json\n",
              all_correct ? "all gates passed" : "GATE FAILURES", since(t0),
              wrote ? "wrote" : "could not write");
  return all_correct && wrote ? 0 : 1;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "bench_suite: %s\nusage: bench_suite --workload "
               "<q4_shed|ingest_k2|durable_et_k2|mq5_shed> --seed <n> "
               "--seconds <s> --trace <0|1> [--tmp <dir>]\n"
               "       bench_suite --smoke [--tmp <dir>]\n",
               msg);
  return 2;
}

}  // namespace
}  // namespace bench_suite

int main(int argc, char** argv) {
  using namespace bench_suite;
  Options opt;
  if (const char* env = std::getenv("ESPICE_BENCH_SMOKE");
      env != nullptr && env[0] != '\0' && env[0] != '0') {
    opt.smoke = true;
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    if (arg == "--workload") {
      opt.workload = val;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = val == "1";
    } else if (arg == "--tmp") {
      opt.tmp = val;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  const WorkloadSpec* w = find_workload(opt.workload);
  if (!opt.smoke && w == nullptr) {
    return usage("unknown or missing --workload");
  }
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");
  int code = 1;
  const bool made_tmp = std::filesystem::create_directories(opt.tmp);
  try {
    code = opt.smoke ? run_smoke(opt) : run_one(*w, opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_suite: %s\n", e.what());
  }
  std::error_code ec;
  if (made_tmp) std::filesystem::remove_all(opt.tmp, ec);
  return code;
}
