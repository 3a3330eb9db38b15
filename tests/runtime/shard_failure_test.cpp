// Directed shard-death regressions: a shard pipeline thread that dies with
// an exception must surface as a typed failure on the router thread within
// a bounded wall-clock time -- never as a hang.
//
// The historical bug under test: the router's backpressure loops (scalar
// push, punctuation broadcast, bulk batch staging) spun on the ring having
// a free slot, which a dead consumer never guarantees; every loop now polls
// the shard's failure flag.  Post-failure the engine is a state machine:
// push/push_batch/checkpoint throw typed espice::Error (kShardFailed on
// first detection, kEngineFailed after), finish() rethrows the shard's
// ORIGINAL exception hang-free, abort() is idempotent, and health() reports
// the dead shard with its error and last progress.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "runtime/stream_engine.hpp"

namespace espice {
namespace {

constexpr std::uint64_t kBoomSeq = 50;
constexpr double kDeadlineSeconds = 20.0;
constexpr std::size_t kMaxPushes = 200000;

/// Throws out of the shard pipeline when it sees the armed sequence
/// number.  Deterministic: the same event always kills the same shard.
class ExplodingShedder final : public Shedder {
 public:
  bool should_drop(const Event& e, std::uint32_t, double) override {
    if (e.seq == kBoomSeq) {
      throw Error(ErrorCode::kGeneric, "shedder exploded on purpose");
    }
    count_decision(false);
    return false;
  }
  void on_command(const DropCommand&) override {}
  const char* name() const override { return "exploding"; }
};

/// `producers` > 0: multi-producer lanes; `rebalance`: 4 logical partitions
/// with only forced moves.
StreamEngineConfig make_config(std::size_t shards, bool event_time = false,
                               std::size_t producers = 0,
                               bool rebalance = false) {
  StreamEngineConfig config;
  config.shards = shards;
  config.producers = producers;
  if (rebalance) {
    config.rebalance.emplace();
    config.rebalance->partitions = 4;
    config.rebalance->interval_events = 1u << 30;
  }
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
  eq.predicted_ws = 24.0;
  eq.shedder_factory = [](std::size_t) {
    return std::make_unique<ExplodingShedder>();
  };
  if (event_time) {
    EventTimeConfig et;
    et.disorder_bound = 4;
    config.event_time = et;
  }
  return config;
}

Event data_event(std::uint64_t seq) {
  Event e;
  e.type = static_cast<EventTypeId>(seq % 6);
  e.seq = seq;
  e.ts = static_cast<double>(seq) * 0.5;
  e.value = (seq % 2 == 0) ? 1.0 : -1.0;  // alternating: plenty of matches
  return e;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Pushes scalar events until the engine reports the failure; fails the
/// test if it neither throws nor respects the deadline.
template <typename PushFn>
Error push_until_failure(PushFn&& push_one) {
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kMaxPushes; ++i) {
    if (seconds_since(t0) > kDeadlineSeconds) break;
    try {
      push_one(i);
    } catch (const Error& e) {
      EXPECT_LT(seconds_since(t0), kDeadlineSeconds)
          << "failure surfaced, but only after the deadline";
      return e;
    }
  }
  ADD_FAILURE() << "shard death never surfaced on the push path";
  return Error(ErrorCode::kGeneric, "unreached");
}

TEST(ShardFailure, ScalarPushRaisesTypedWithinDeadline) {
  StreamEngine engine(make_config(2));
  const Error err =
      push_until_failure([&](std::size_t i) { engine.push(data_event(i)); });
  EXPECT_EQ(err.code(), ErrorCode::kShardFailed);
  EXPECT_NE(std::string(err.what()).find("shedder exploded"),
            std::string::npos)
      << "the shard's own error must be in the message: " << err.what();
  EXPECT_EQ(engine.state(), EngineState::kFailed);
  engine.abort();
}

TEST(ShardFailure, BatchPushRaisesTypedWithinDeadline) {
  StreamEngine engine(make_config(2));
  std::vector<Event> batch;
  for (std::uint64_t s = 0; s < 64; ++s) batch.push_back(data_event(s));
  const Error err = push_until_failure([&](std::size_t i) {
    if (i > 0) {  // re-number so seq keeps advancing past the boom batch
      for (std::size_t j = 0; j < batch.size(); ++j) {
        batch[j] = data_event(i * 64 + j);
      }
    }
    engine.push_batch(batch);
  });
  EXPECT_EQ(err.code(), ErrorCode::kShardFailed);
  EXPECT_EQ(engine.state(), EngineState::kFailed);
  engine.abort();
}

// The lane drain: a shard fed by P producer lanes must drain every lane
// when it dies, so producers surface the death instead of blocking.  One
// thread alternates the producers, so both lane floors keep advancing.
TEST(ShardFailure, ConcurrentPushRaisesTypedWithinDeadline) {
  StreamEngine engine(make_config(2, false, /*producers=*/2));
  engine.start();
  std::vector<Event> batch(64);
  const Error err = push_until_failure([&](std::size_t i) {
    for (std::size_t j = 0; j < batch.size(); ++j) {
      batch[j] = data_event(i * batch.size() + j);
    }
    engine.push_batch_concurrent(i % 2, batch);
  });
  EXPECT_EQ(err.code(), ErrorCode::kShardFailed);
  const auto t0 = std::chrono::steady_clock::now();
  engine.abort();
  EXPECT_LT(seconds_since(t0), kDeadlineSeconds);
}

// The migration-import bail-out: partitions keep moving across the death,
// so some import waits on a pipeline its dead exporter never parks.  The
// importer must give up (abort() would otherwise hang joining it), and the
// router must raise the death typed.
TEST(ShardFailure, RebalancingBatchPushRaisesTypedWithinDeadline) {
  StreamEngine engine(make_config(2, false, 0, /*rebalance=*/true));
  std::vector<Event> batch(64);
  const Error err = push_until_failure([&](std::size_t i) {
    for (std::size_t j = 0; j < batch.size(); ++j) {
      batch[j] = data_event(i * batch.size() + j);
    }
    engine.push_batch(batch);
    const std::size_t p = i % 4;
    engine.move_partition(p, 1 - engine.shard_of_partition(p));
  });
  EXPECT_EQ(err.code(), ErrorCode::kShardFailed);
  EXPECT_EQ(engine.state(), EngineState::kFailed);
  const auto t0 = std::chrono::steady_clock::now();
  engine.abort();
  EXPECT_LT(seconds_since(t0), kDeadlineSeconds);
}

TEST(ShardFailure, PunctuationPushRaisesTypedWithinDeadline) {
  StreamEngine engine(make_config(2, /*event_time=*/true));
  // Feed the boom event through the reorder stage, then keep broadcasting
  // watermarks: the punctuation path must also observe the death.
  for (std::uint64_t s = 0; s <= kBoomSeq + 8; ++s) engine.push(data_event(s));
  const Error err = push_until_failure([&](std::size_t i) {
    engine.push(make_watermark(kBoomSeq + 16 + i));
  });
  EXPECT_TRUE(err.code() == ErrorCode::kShardFailed ||
              err.code() == ErrorCode::kEngineFailed)
      << error_code_name(err.code());
  EXPECT_EQ(engine.state(), EngineState::kFailed);
  engine.abort();
}

TEST(ShardFailure, FinishRethrowsOriginalErrorHangFree) {
  StreamEngine engine(make_config(2));
  // Past the boom, but far below ring capacity: the router never blocks,
  // so only finish() can observe the death.
  for (std::uint64_t s = 0; s <= kBoomSeq + 10; ++s) {
    engine.push(data_event(s));
  }
  const auto t0 = std::chrono::steady_clock::now();
  try {
    engine.finish();
    FAIL() << "finish() must rethrow the shard's exception";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kGeneric) << "original, not a wrapper";
    EXPECT_NE(std::string(e.what()).find("shedder exploded"),
              std::string::npos);
  }
  EXPECT_LT(seconds_since(t0), kDeadlineSeconds);
  EXPECT_EQ(engine.state(), EngineState::kFailed);
}

TEST(ShardFailure, PostFailureOperationsAreTypedAndAbortIdempotent) {
  StreamEngine engine(make_config(2));
  (void)push_until_failure(
      [&](std::size_t i) { engine.push(data_event(i)); });

  // Every subsequent ingestion op is a typed error, not UB.
  try {
    engine.push(data_event(0));
    FAIL() << "push on a failed engine must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kEngineFailed);
  }
  try {
    std::vector<Event> batch{data_event(0)};
    engine.push_batch(batch);
    FAIL() << "push_batch on a failed engine must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kEngineFailed);
  }

  const EngineHealth h = engine.health();
  EXPECT_EQ(h.state, EngineState::kFailed);
  EXPECT_FALSE(h.last_error.empty());
  ASSERT_EQ(h.shards.size(), 2u);
  std::size_t dead = 0;
  for (const ShardHealth& sh : h.shards) {
    if (!sh.failed) continue;
    ++dead;
    EXPECT_NE(sh.error.find("shedder exploded"), std::string::npos);
    // last_progress is block-granular: a shard that dies inside its first
    // drained block legitimately reports 0, so no lower bound here.
  }
  EXPECT_GE(dead, 1u);

  engine.abort();
  engine.abort();  // idempotent: second call is a no-op, no double-join

  // finish() after abort() names the abort, not a phantom double-finish.
  try {
    engine.finish();
    FAIL() << "finish() on an aborted engine must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kEngineFailed);
    EXPECT_NE(std::string(e.what()).find("aborted"), std::string::npos)
        << e.what();
  }
}

// A healthy run with the failure machinery in place: state stays kRunning,
// the report's health section is clean, and per-shard progress covers the
// whole stream.
TEST(ShardFailure, HealthySummaryOnCleanRun) {
  StreamEngineConfig config = make_config(2);
  config.queries[0].shedder_factory = nullptr;  // nothing explodes
  StreamEngine engine(config);
  constexpr std::uint64_t kN = 500;
  for (std::uint64_t s = 0; s < kN; ++s) engine.push(data_event(s));
  const EngineReport report = engine.finish();
  EXPECT_EQ(report.health.state, EngineState::kRunning);
  EXPECT_EQ(report.health.wal_errors, 0u);
  EXPECT_FALSE(report.health.wal_degraded);
  EXPECT_TRUE(report.health.last_error.empty());
  std::uint64_t progress = 0;
  for (const ShardHealth& sh : report.health.shards) {
    EXPECT_FALSE(sh.failed);
    EXPECT_TRUE(sh.error.empty());
    progress += sh.last_progress;
  }
  EXPECT_EQ(progress, kN) << "per-shard progress must cover the stream";
}

}  // namespace
}  // namespace espice
