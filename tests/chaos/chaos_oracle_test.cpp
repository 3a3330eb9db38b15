// Chaos oracle: inject errno-level I/O faults (ENOSPC, EIO, short writes,
// failed fsyncs) at every site the durability layer touches, under every
// on_wal_error policy, and hold the engine to the fault-tolerance contract:
//
//   under ANY injected fault schedule the engine terminates within a
//   deadline and either (a) completes with output bit-identical to the
//   fault-free run, or (b) fails with a typed espice::Error leaving an
//   intact durable prefix from which recover_and_start() reproduces the
//   golden once the faults clear.
//
// Method mirrors the kill-anywhere recovery oracle (recovery_oracle_test):
// a census run under a counting IoEnv enumerates the real (site, count)
// pairs for the exact drive schedule, then stratified rounds arm faults
// over them -- write sites (including the torn-record short-write shape),
// fsync sites, and fully-random schedules with sticky faults.  Every armed
// run is classified as completed-or-failed-typed; anything else (a hang, an
// untyped exception, UB after failure) fails the suite.  Seeded via
// ESPICE_TEST_SEED (5-seed CI matrix); runs under both sanitizers via the
// `chaos` ctest label.
#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "durability/event_log.hpp"
#include "runtime/stream_engine.hpp"
#include "support/hash_shedder.hpp"
#include "support/io_fault.hpp"
#include "support/temp_dir.hpp"
#include "support/test_seed.hpp"

namespace espice {
namespace {

using durability::FsyncPolicy;
using test_support::FaultyIoEnv;
using test_support::IoFaultHarness;
using test_support::TempDir;

constexpr EventTypeId kNumTypes = 6;
constexpr double kPredictedWs = 24.0;

// Batched pushes with periodic explicit checkpoints; tiny segments force
// mid-run rolls so the log.open/log.dir.fsync sites fire too.
constexpr std::size_t kBatch = 64;
constexpr std::size_t kCheckpointEveryBatches = 3;
constexpr std::size_t kSegmentBytes = 4096;
constexpr std::size_t kStreamLen = 448;

// Wall-clock bound per armed run: generous (sanitizer builds are slow) but
// finite -- a backpressure hang or an unbounded retry loop trips it.
constexpr double kRunDeadlineSeconds = 60.0;

std::vector<Event> random_stream(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<Event> events;
  events.reserve(n);
  double ts = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    Event e;
    e.type = static_cast<EventTypeId>(rng.uniform_int(kNumTypes));
    e.seq = i;
    ts += rng.uniform(0.0, 1.2);
    e.ts = ts;
    e.value = rng.uniform(-2.0, 2.0);
    events.push_back(e);
  }
  return events;
}

using test_support::HashShedder;

struct Scenario {
  std::size_t shards = 4;
  WalErrorPolicy policy = WalErrorPolicy::kFailStop;
  FsyncPolicy fsync = FsyncPolicy::kNone;
};

StreamEngineConfig make_config(const Scenario& s, const std::string& dir) {
  StreamEngineConfig config;
  config.shards = s.shards;
  config.ring_capacity = 256;
  WindowSpec spec;
  spec.span_kind = WindowSpan::kCount;
  spec.open_kind = WindowOpen::kCountSlide;
  spec.span_events = 24;
  spec.slide_events = 5;
  ShardQuery q;
  q.pattern =
      make_sequence({element("up", TypeSet{}, DirectionFilter::kRising),
                     element("down", TypeSet{}, DirectionFilter::kFalling)});
  q.window = spec;
  EngineQuery& eq = config.queries.emplace_back();
  eq.query = q;
  eq.predicted_ws = kPredictedWs;
  eq.shedder_factory = [](std::size_t) {
    return std::make_unique<HashShedder>(3);
  };
  if (!dir.empty()) {
    DurabilityConfig d;
    d.dir = dir;
    d.segment_bytes = kSegmentBytes;
    d.fsync = s.fsync;
    d.on_wal_error = s.policy;
    d.wal_retry_max = 4;
    d.wal_retry_backoff_us = 20;  // keep armed sweeps fast
    config.durability = d;
  }
  return config;
}

/// Bit-identity on everything deterministic: matches byte-for-byte plus the
/// shed/membership counters (wall-clock gauges exempt).
void expect_same_output(const EngineReport& actual,
                        const EngineReport& expected) {
  EXPECT_EQ(actual.events, expected.events);
  ASSERT_EQ(actual.matches.size(), expected.matches.size());
  for (std::size_t i = 0; i < actual.matches.size(); ++i) {
    const ComplexEvent& a = actual.matches[i];
    const ComplexEvent& b = expected.matches[i];
    EXPECT_EQ(a.window, b.window) << "match " << i;
    EXPECT_DOUBLE_EQ(a.detection_ts, b.detection_ts) << "match " << i;
    ASSERT_EQ(a.constituents.size(), b.constituents.size()) << "match " << i;
    for (std::size_t c = 0; c < a.constituents.size(); ++c) {
      EXPECT_EQ(a.constituents[c].event.seq, b.constituents[c].event.seq)
          << "match " << i << " constituent " << c;
      EXPECT_EQ(a.constituents[c].position, b.constituents[c].position)
          << "match " << i << " constituent " << c;
    }
  }
  ASSERT_EQ(actual.queries.size(), expected.queries.size());
  for (std::size_t qi = 0; qi < expected.queries.size(); ++qi) {
    EXPECT_EQ(actual.queries[qi].memberships, expected.queries[qi].memberships);
    EXPECT_EQ(actual.queries[qi].memberships_kept,
              expected.queries[qi].memberships_kept);
    EXPECT_EQ(actual.queries[qi].shed_decisions,
              expected.queries[qi].shed_decisions);
    EXPECT_EQ(actual.queries[qi].shed_drops, expected.queries[qi].shed_drops);
  }
}

enum class Outcome { kCompleted, kFailedTyped };

struct ChaosRun {
  Outcome outcome = Outcome::kFailedTyped;
  EngineReport report;  ///< valid when kCompleted
  std::string error;    ///< valid when kFailedTyped
};

/// Drives the schedule, classifying the result.  Checkpoint failures on a
/// still-running engine (snapshot write faults, degrade-mode refusal) are
/// survivable by contract -- the driver logs on, exactly as an operator
/// would.  A typed failure from push/finish is terminal; anything ELSE
/// escaping (an untyped exception) fails the test.
ChaosRun drive_chaos(StreamEngine& engine, std::span<const Event> events,
                     bool checkpoints) {
  ChaosRun run;
  std::size_t batch_no = 0;
  for (std::size_t i = 0; i < events.size(); i += kBatch) {
    try {
      engine.push_batch(
          events.subspan(i, std::min(kBatch, events.size() - i)));
    } catch (const Error& e) {
      run.outcome = Outcome::kFailedTyped;
      run.error = e.what();
      return run;
    }
    if (checkpoints && ++batch_no % kCheckpointEveryBatches == 0) {
      try {
        engine.checkpoint();
      } catch (const Error& e) {
        if (engine.state() == EngineState::kFailed) {
          run.outcome = Outcome::kFailedTyped;
          run.error = e.what();
          return run;
        }
        // Degraded or lost-snapshot: the pipeline is intact, keep going.
      }
    }
  }
  try {
    run.report = engine.finish();
    run.outcome = Outcome::kCompleted;
  } catch (const Error& e) {
    run.outcome = Outcome::kFailedTyped;
    run.error = e.what();
  }
  return run;
}

/// The recovery half of the contract: faults cleared, a fresh engine must
/// recover the durable prefix and, after re-pushing the lost tail,
/// reproduce the golden bit for bit.
void expect_recovers_to_golden(const Scenario& s, const std::string& dir,
                               std::span<const Event> events,
                               const EngineReport& golden) {
  StreamEngine engine(make_config(s, dir));
  const RecoveryReport rep = engine.recover_and_start();
  EXPECT_LE(rep.durable_events, events.size());
  EXPECT_LE(rep.snapshot_offset, rep.durable_events);
  const ChaosRun tail = drive_chaos(
      engine, events.subspan(engine.data_pushed()), /*checkpoints=*/false);
  ASSERT_EQ(tail.outcome, Outcome::kCompleted)
      << "recovery run failed with faults disarmed: " << tail.error;
  expect_same_output(tail.report, golden);
}

/// One armed run under `fault`, start to verdict: terminate within the
/// deadline, then either bit-identical output or typed-failure + abort
/// idempotence + recovery to golden.
void run_armed(const Scenario& s, std::span<const Event> events,
               const EngineReport& golden, FaultyIoEnv::Fault fault) {
  TempDir dir("chaos");
  const auto t0 = std::chrono::steady_clock::now();
  IoFaultHarness harness;
  harness.arm(std::move(fault));
  ChaosRun run;
  {
    StreamEngine engine(make_config(s, dir.str()));
    run = drive_chaos(engine, events, /*checkpoints=*/true);
    if (run.outcome == Outcome::kFailedTyped) {
      EXPECT_EQ(engine.state(), EngineState::kFailed)
          << "typed failure must leave the engine terminally failed";
      // Post-failure calls are typed errors, never UB.  (ConfigError when
      // the failure escaped finish() and the engine is also finished;
      // espice::Error, which derives from it, otherwise.)
      EXPECT_THROW(engine.push_batch(events.subspan(0, 1)), ConfigError);
      engine.abort();
      engine.abort();  // idempotent
    } else {
      EXPECT_NE(run.report.health.state, EngineState::kFailed);
    }
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(elapsed, kRunDeadlineSeconds)
      << "armed run blew the termination deadline";

  if (run.outcome == Outcome::kCompleted) {
    expect_same_output(run.report, golden);
  } else {
    harness.disarm();  // the disk is back; now recovery must succeed
    expect_recovers_to_golden(s, dir.str(), events, golden);
  }
}

// --- the sweep ---------------------------------------------------------------

// Every policy x fsync mode x shard count, faults stratified over the
// census: write sites (outright and torn short-write), fsync sites, then
// fully-random schedules with sticky faults.
TEST(ChaosOracle, RandomFaultSchedulesTerminateAndRecover) {
  const std::uint64_t seed = test_support::test_seed(91);
  SCOPED_TRACE(test_support::seed_trace(seed));
  const auto events = random_stream(seed, kStreamLen);
  Rng rng(seed ^ 0xc4a05ULL);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    Scenario base;
    base.shards = shards;

    // Fault-free golden (memory-only) for this shard count.
    StreamEngine golden_engine(make_config(base, ""));
    const ChaosRun golden_run =
        drive_chaos(golden_engine, events, /*checkpoints=*/false);
    ASSERT_EQ(golden_run.outcome, Outcome::kCompleted);
    const EngineReport& golden = golden_run.report;
    ASSERT_GT(golden.matches.size(), 0u) << "vacuous stream";

    for (const WalErrorPolicy policy :
         {WalErrorPolicy::kFailStop, WalErrorPolicy::kDegradeToMemory,
          WalErrorPolicy::kRetryBackoff}) {
      for (const FsyncPolicy fsync :
           {FsyncPolicy::kNone, FsyncPolicy::kEveryBatch}) {
        Scenario s = base;
        s.policy = policy;
        s.fsync = fsync;
        SCOPED_TRACE(std::string("K=") + std::to_string(shards) +
                     " policy=" + wal_error_policy_name(policy) +
                     " fsync=" + fsync_policy_name(fsync));

        // Census: the same schedule under a counting (no-fault) env; its
        // output must already equal the golden (the seam is transparent).
        std::map<std::string, std::uint64_t> counts;
        {
          TempDir dir("census");
          IoFaultHarness harness;
          StreamEngine engine(make_config(s, dir.str()));
          const ChaosRun census =
              drive_chaos(engine, events, /*checkpoints=*/true);
          ASSERT_EQ(census.outcome, Outcome::kCompleted) << census.error;
          expect_same_output(census.report, golden);
          EXPECT_EQ(census.report.health.state, EngineState::kRunning);
          EXPECT_EQ(census.report.health.wal_errors, 0u);
          counts = harness.counts();
        }
        ASSERT_GT(counts["log.write"], 2u) << "census too thin";
        ASSERT_GT(counts["log.fsync"], 0u)
            << "checkpoints never synced the log";

        std::vector<FaultyIoEnv::Fault> schedule;
        // Round A -- write faults: first and last occurrence outright
        // (ENOSPC), middle occurrence as a torn short-write.
        const std::uint64_t writes = counts["log.write"];
        schedule.push_back({"log.write", 1, ENOSPC, false, false, 0});
        schedule.push_back({"log.write", writes, ENOSPC, false, false, 0});
        schedule.push_back(
            {"log.write", (writes + 1) / 2, ENOSPC, true, false, 0});
        // Round B -- fsync faults (EIO): the log's policy/checkpoint syncs
        // and the snapshot publication sync.
        schedule.push_back({"log.fsync", 1, EIO, false, false, 0});
        if (counts["snapshot.fsync"] > 0) {
          schedule.push_back({"snapshot.fsync", 1, EIO, false, false, 0});
        }
        // Round C -- fully random (site, occurrence, errno, sticky).
        std::vector<std::pair<std::string, std::uint64_t>> sites(
            counts.begin(), counts.end());
        for (int r = 0; r < 3; ++r) {
          const auto& [site, n] = sites[rng.uniform_int(sites.size())];
          FaultyIoEnv::Fault f;
          f.site = site;
          f.occurrence = 1 + rng.uniform_int(n);
          f.err = rng.uniform_int(2) == 0 ? ENOSPC : EIO;
          f.sticky = rng.uniform_int(2) == 0;
          schedule.push_back(std::move(f));
        }

        for (const FaultyIoEnv::Fault& fault : schedule) {
          SCOPED_TRACE(fault.site + "#" + std::to_string(fault.occurrence) +
                       " err=" + std::to_string(fault.err) +
                       (fault.short_write ? " short" : "") +
                       (fault.sticky ? " sticky" : ""));
          run_armed(s, events, golden, fault);
        }
      }
    }
  }
}

// --- directed policy tests ---------------------------------------------------

struct ChaosDirectedTest : ::testing::Test {
  std::uint64_t seed = test_support::test_seed(92);
  std::vector<Event> events = random_stream(seed, kStreamLen);

  EngineReport golden(std::size_t shards) {
    Scenario s;
    s.shards = shards;
    StreamEngine engine(make_config(s, ""));
    ChaosRun run = drive_chaos(engine, events, /*checkpoints=*/false);
    EXPECT_EQ(run.outcome, Outcome::kCompleted);
    return std::move(run.report);
  }
};

// A transient fault under kRetryBackoff: the retry lands the batch and the
// run completes bit-identically, with the error counted in health.
TEST_F(ChaosDirectedTest, RetryRecoversTransientFault) {
  SCOPED_TRACE(test_support::seed_trace(seed));
  const EngineReport gold = golden(4);
  Scenario s;
  s.policy = WalErrorPolicy::kRetryBackoff;
  TempDir dir("retry");
  IoFaultHarness harness;
  harness.arm({"log.write", 2, EIO, false, false, 0});
  StreamEngine engine(make_config(s, dir.str()));
  const ChaosRun run = drive_chaos(engine, events, /*checkpoints=*/true);
  ASSERT_EQ(run.outcome, Outcome::kCompleted) << run.error;
  EXPECT_GE(harness.fired(), 1u);
  expect_same_output(run.report, gold);
  EXPECT_EQ(run.report.health.state, EngineState::kRunning);
  EXPECT_GE(run.report.health.wal_errors, 1u);
  EXPECT_FALSE(run.report.health.wal_degraded);
}

// Regression: under kRetryBackoff the write-vs-fsync discrimination must
// run on EVERY attempt.  When the original append dies at the write and the
// retry lands the record but dies in its policy fsync, the next attempt has
// to sync the landed record -- re-appending would duplicate the batch in
// the WAL and recovery would replay it twice.
TEST_F(ChaosDirectedTest, RetryAfterFsyncFaultDoesNotDuplicateBatch) {
  SCOPED_TRACE(test_support::seed_trace(seed));
  Scenario s;
  s.shards = 1;
  s.policy = WalErrorPolicy::kRetryBackoff;
  s.fsync = FsyncPolicy::kEveryBatch;
  TempDir dir("retry-fsync");
  StreamEngineConfig config = make_config(s, dir.str());
  config.durability->segment_bytes = 1u << 20;  // no mid-run segment rolls
  IoFaultHarness harness;
  // Occurrence map (kEveryBatch, no rolls): log.write #1 is the segment
  // header, #(1+i) is batch i's record, log.fsync #i is batch i's policy
  // sync.  Batch 2: the first append dies at the write (nothing lands),
  // retry 1 lands the record (write #4) and dies in its policy fsync
  // (fsync #2), so retry 2 must observe the landed record and sync it.
  harness.arm({"log.write", 3, ENOSPC, false, false, 0});
  harness.arm({"log.fsync", 2, EIO, false, false, 0});
  StreamEngine engine(config);
  for (std::size_t b = 0; b < 3; ++b) {
    engine.push_batch(std::span(events).subspan(b * kBatch, kBatch));
  }
  const EngineReport report = engine.finish();
  EXPECT_EQ(harness.fired(), 2u);
  EXPECT_EQ(report.health.state, EngineState::kRunning);
  EXPECT_GE(report.health.wal_errors, 2u);
  // The WAL holds every pushed event exactly once, in stream order; a
  // duplicated batch would both inflate the count and repeat seqs.
  durability::EventLogReader reader(dir.str() + "/log");
  const std::vector<Event> logged = reader.read_from(0);
  ASSERT_EQ(logged.size(), 3 * kBatch);
  for (std::size_t i = 0; i < logged.size(); ++i) {
    EXPECT_EQ(logged[i].seq, events[i].seq) << "index " << i;
  }
}

// A dead disk under kRetryBackoff exhausts the bounded retries and falls
// through to a typed fail-stop -- no unbounded retry loop.
TEST_F(ChaosDirectedTest, RetryExhaustionFailsTyped) {
  SCOPED_TRACE(test_support::seed_trace(seed));
  Scenario s;
  s.policy = WalErrorPolicy::kRetryBackoff;
  TempDir dir("retry-dead");
  IoFaultHarness harness;
  harness.arm({"log.write", 2, ENOSPC, false, /*sticky=*/true, 0});
  StreamEngine engine(make_config(s, dir.str()));
  const ChaosRun run = drive_chaos(engine, events, /*checkpoints=*/true);
  ASSERT_EQ(run.outcome, Outcome::kFailedTyped);
  EXPECT_EQ(engine.state(), EngineState::kFailed);
  EXPECT_GE(engine.health().wal_errors,
            2u);  // the first hit plus every exhausted retry
  engine.abort();
}

// kDegradeToMemory: a sticky fault seals the durable prefix at the last
// valid offset; the run completes bit-identically with the report flagged,
// and a later recovery replays exactly that sealed prefix.
TEST_F(ChaosDirectedTest, DegradeSealsDurablePrefixAndCompletes) {
  SCOPED_TRACE(test_support::seed_trace(seed));
  const EngineReport gold = golden(4);
  Scenario s;
  s.policy = WalErrorPolicy::kDegradeToMemory;
  TempDir dir("degrade");
  std::uint64_t degraded_at = 0;
  {
    IoFaultHarness harness;
    harness.arm({"log.write", 3, ENOSPC, false, /*sticky=*/true, 0});
    StreamEngine engine(make_config(s, dir.str()));
    const ChaosRun run = drive_chaos(engine, events, /*checkpoints=*/true);
    ASSERT_EQ(run.outcome, Outcome::kCompleted) << run.error;
    EXPECT_GE(harness.fired(), 1u);
    expect_same_output(run.report, gold);
    EXPECT_EQ(run.report.health.state, EngineState::kDegraded);
    EXPECT_TRUE(run.report.health.wal_degraded);
    EXPECT_GE(run.report.health.wal_errors, 1u);
    degraded_at = run.report.health.degraded_at_offset;
    EXPECT_LT(degraded_at, events.size())
        << "degradation must have cut the log short";
  }
  // Faults cleared: the durable prefix ends exactly at the sealed offset
  // and recovery + tail re-push reproduces the golden.
  StreamEngine engine(make_config(s, dir.str()));
  const RecoveryReport rep = engine.recover_and_start();
  EXPECT_EQ(rep.durable_events, degraded_at);
  const ChaosRun tail = drive_chaos(
      engine, std::span(events).subspan(engine.data_pushed()),
      /*checkpoints=*/false);
  ASSERT_EQ(tail.outcome, Outcome::kCompleted) << tail.error;
  expect_same_output(tail.report, gold);
}

// checkpoint() on a degraded engine refuses with a typed error (it cannot
// honor an explicit durability request), while ingestion continues.
TEST_F(ChaosDirectedTest, CheckpointRefusesOnDegradedEngine) {
  SCOPED_TRACE(test_support::seed_trace(seed));
  Scenario s;
  s.policy = WalErrorPolicy::kDegradeToMemory;
  TempDir dir("degrade-ckpt");
  IoFaultHarness harness;
  // Occurrence 1 is the fresh segment's header write (part of opening the
  // log, fatal under every policy); occurrence 2 is the first append.
  harness.arm({"log.write", 2, ENOSPC, false, /*sticky=*/true, 0});
  StreamEngine engine(make_config(s, dir.str()));
  engine.push_batch(std::span(events).subspan(0, kBatch));
  EXPECT_EQ(engine.state(), EngineState::kDegraded);
  try {
    engine.checkpoint();
    FAIL() << "checkpoint() must refuse on a degraded engine";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIo);
  }
  // Ingestion is unaffected by the refusal.
  engine.push_batch(std::span(events).subspan(kBatch, kBatch));
  const EngineReport report = engine.finish();
  EXPECT_EQ(report.events, 2 * kBatch);
}

// kFailStop: the failing push throws typed, the engine is terminally
// failed, and every subsequent operation is a typed error -- finish()
// included, without hanging.
TEST_F(ChaosDirectedTest, FailStopIsTypedAndTerminal) {
  SCOPED_TRACE(test_support::seed_trace(seed));
  const EngineReport gold = golden(4);
  Scenario s;  // kFailStop is the default policy
  TempDir dir("failstop");
  {
    IoFaultHarness harness;
    harness.arm({"log.write", 3, EIO, false, /*sticky=*/true, 0});
    StreamEngine engine(make_config(s, dir.str()));
    const ChaosRun run = drive_chaos(engine, events, /*checkpoints=*/true);
    ASSERT_EQ(run.outcome, Outcome::kFailedTyped);
    EXPECT_EQ(engine.state(), EngineState::kFailed);
    try {
      engine.push_batch(std::span(events).subspan(0, 1));
      FAIL() << "push after fail-stop must throw";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kEngineFailed);
    }
    EXPECT_THROW(engine.finish(), Error);  // hang-free, typed
    engine.abort();
    engine.abort();  // idempotent
    const EngineHealth h = engine.health();
    EXPECT_EQ(h.state, EngineState::kFailed);
    EXPECT_GE(h.wal_errors, 1u);
    EXPECT_FALSE(h.last_error.empty());
  }
  StreamEngine engine(make_config(s, dir.str()));
  engine.recover_and_start();
  const ChaosRun tail = drive_chaos(
      engine, std::span(events).subspan(engine.data_pushed()),
      /*checkpoints=*/false);
  ASSERT_EQ(tail.outcome, Outcome::kCompleted) << tail.error;
  expect_same_output(tail.report, gold);
}

// finish()'s end-of-stream sync takes the same on_wal_error ladder as the
// append and checkpoint paths.  With FsyncPolicy::kNone, no checkpoint and
// no segment roll, log.fsync #1 is exactly that sync: fail-stop fails the
// finish typed, degrade completes flagged, retry rides out a transient
// fault and fail-stops on a sticky one once its retries run out.
TEST_F(ChaosDirectedTest, EndOfStreamSyncFaultFollowsPolicy) {
  SCOPED_TRACE(test_support::seed_trace(seed));
  const EngineReport gold = golden(4);
  struct Case {
    WalErrorPolicy policy;
    bool sticky;
    bool completes;
  };
  for (const Case c : {Case{WalErrorPolicy::kFailStop, false, false},
                       Case{WalErrorPolicy::kDegradeToMemory, false, true},
                       Case{WalErrorPolicy::kRetryBackoff, false, true},
                       Case{WalErrorPolicy::kRetryBackoff, true, false}}) {
    SCOPED_TRACE(std::string("policy=") + wal_error_policy_name(c.policy) +
                 (c.sticky ? " sticky" : ""));
    Scenario s;
    s.policy = c.policy;
    TempDir dir("finish-sync");
    StreamEngineConfig config = make_config(s, dir.str());
    config.durability->segment_bytes = 1u << 20;  // no mid-run segment rolls
    IoFaultHarness harness;
    harness.arm({"log.fsync", 1, EIO, false, c.sticky, 0});
    StreamEngine engine(config);
    for (std::size_t i = 0; i < events.size(); i += kBatch) {
      engine.push_batch(std::span(events).subspan(
          i, std::min(kBatch, events.size() - i)));
    }
    EXPECT_EQ(harness.fired(), 0u) << "kNone must not sync before finish()";
    EngineReport report;
    if (c.completes) {
      report = engine.finish();
    } else {
      try {
        engine.finish();
        FAIL() << "finish() must fail-stop on the end-of-stream sync";
      } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::kIo);
      }
      EXPECT_EQ(engine.state(), EngineState::kFailed);
      engine.abort();
    }
    // Sticky: the first hit plus every one of the wal_retry_max retries.
    EXPECT_EQ(harness.fired(),
              c.sticky ? 1 + config.durability->wal_retry_max : 1u);
    if (!c.completes) continue;
    expect_same_output(report, gold);
    EXPECT_GE(report.health.wal_errors, 1u);
    const bool degrade = c.policy == WalErrorPolicy::kDegradeToMemory;
    EXPECT_EQ(report.health.wal_degraded, degrade);
    EXPECT_EQ(report.health.state,
              degrade ? EngineState::kDegraded : EngineState::kRunning);
  }
}

// The seam itself is invisible: with a fault env installed but nothing
// armed, a full durable run (checkpoints included) is bit-identical to the
// golden and the census covers every documented durability site.
TEST_F(ChaosDirectedTest, NoFaultEnvIsTransparent) {
  SCOPED_TRACE(test_support::seed_trace(seed));
  const EngineReport gold = golden(4);
  Scenario s;
  TempDir dir("transparent");
  IoFaultHarness harness;
  StreamEngine engine(make_config(s, dir.str()));
  const ChaosRun run = drive_chaos(engine, events, /*checkpoints=*/true);
  ASSERT_EQ(run.outcome, Outcome::kCompleted) << run.error;
  expect_same_output(run.report, gold);
  EXPECT_EQ(harness.fired(), 0u);
  const auto counts = harness.counts();
  for (const char* site :
       {"log.open", "log.write", "log.fsync", "log.dir.fsync",
        "snapshot.open", "snapshot.write", "snapshot.fsync",
        "snapshot.rename", "manifest.open", "manifest.write",
        "manifest.fsync", "manifest.rename", "snapshot.dir.fsync"}) {
    EXPECT_TRUE(counts.count(site)) << "site never exercised: " << site;
  }
}

}  // namespace
}  // namespace espice
