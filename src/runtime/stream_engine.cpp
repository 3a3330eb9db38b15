#include "runtime/stream_engine.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>
#include <limits>
#include <span>
#include <thread>
#include <tuple>
#include <type_traits>

#include "common/error.hpp"
#include "durability/serial.hpp"
#include "runtime/backoff.hpp"
#include "runtime/shard_pipeline.hpp"
#include "runtime/spsc_ring.hpp"

namespace espice {

namespace {

/// Shard-side drain block: how many events one front_block() view exposes
/// at most (one acquire per view, one release store per commit).  Also
/// doubles as the depth-gauge sampling granularity: ring cursors are read
/// once per block, not per event.
constexpr std::size_t kShardBlock = 256;

/// checkpoint_target sentinel: no cut armed.
constexpr std::uint64_t kNoCheckpoint = ~std::uint64_t{0};

/// h % n, with the modulo replaced by a mask when n is a power of two -- an
/// identical mapping (h % n == h & (n-1) for such n), so goldens agree.
std::size_t bucket(std::uint64_t h, std::size_t n) {
  return static_cast<std::size_t>((n & (n - 1)) == 0 ? (h & (n - 1))
                                                     : (h % n));
}

/// The canonical merge: `n` per-unit lists (`list(u)`, each in local order)
/// to one list ordered by (key_of(item), unit, in-unit index), which no
/// thread interleaving can perturb.  Moves the items out.
template <typename ListOf, typename KeyOf>
auto canonical_merge(std::size_t n, ListOf list, KeyOf key_of) {
  using List = std::remove_reference_t<decltype(list(0))>;
  struct Tagged {
    std::uint64_t key;
    std::size_t unit;
    std::size_t index;
  };
  std::size_t total = 0;
  for (std::size_t u = 0; u < n; ++u) total += list(u).size();
  std::vector<Tagged> order;
  order.reserve(total);
  for (std::size_t u = 0; u < n; ++u) {
    const List& items = list(u);
    for (std::size_t i = 0; i < items.size(); ++i) {
      order.push_back(Tagged{key_of(items[i]), u, i});
    }
  }
  std::sort(order.begin(), order.end(), [](const Tagged& a, const Tagged& b) {
    return std::tie(a.key, a.unit, a.index) < std::tie(b.key, b.unit, b.index);
  });
  List merged;
  merged.reserve(order.size());
  for (const Tagged& t : order) {
    merged.push_back(std::move(list(t.unit)[t.index]));
  }
  return merged;
}

/// The message of a captured shard exception.
std::string error_text(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "non-standard exception";
  }
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Escalation cap for shard IDLE waits (an empty ring, an open lane with no
/// input yet).  Lower than the router's 1ms backpressure cap: an idle shard
/// must notice fresh work quickly, and on an undersubscribed box the sleeps
/// are what return the core to whoever produces that work.
constexpr std::uint64_t kShardIdleSleepUs = 200;

/// Mode-exclusion rules for multi-producer ingestion and rebalancing.
void validate_modes(const StreamEngineConfig& c) {
  if (c.producers > 0) {
    ESPICE_REQUIRE(!c.adaptive.has_value(),
                   "multi-producer ingestion requires deterministic mode");
    ESPICE_REQUIRE(!c.event_time.has_value(),
                   "multi-producer ingestion excludes event time (watermark "
                   "broadcast assumes one router)");
    ESPICE_REQUIRE(!c.rebalance.has_value(),
                   "multi-producer ingestion excludes rebalancing");
    ESPICE_REQUIRE(c.latency_sample_every == 0,
                   "latency sampling assumes a single router thread");
    if (c.durability.has_value()) {
      ESPICE_REQUIRE(c.durability->snapshot_every_events == 0,
                     "multi-producer mode cannot auto-checkpoint: the events "
                     "pushed so far are not a seq-prefix, so no consistent "
                     "mid-stream cut exists");
    }
  }
  if (c.rebalance.has_value()) {
    ESPICE_REQUIRE(c.rebalance->partitions >= c.shards,
                   "rebalance.partitions must be >= shards (a partition is "
                   "the migration granularity)");
    ESPICE_REQUIRE(!c.adaptive.has_value(),
                   "rebalancing requires deterministic mode");
    ESPICE_REQUIRE(!c.event_time.has_value(),
                   "rebalancing excludes event time (reorder state does not "
                   "migrate)");
    ESPICE_REQUIRE(!c.durability.has_value(),
                   "rebalancing excludes durability (per-shard checkpoint "
                   "cuts assume a fixed placement)");
    ESPICE_REQUIRE(c.rebalance->hot_factor >= 1.0,
                   "rebalance.hot_factor below 1 would thrash");
  }
}

/// The query-independent config rules: the constructor's fail-fast checks
/// and the first half of validate().
void validate_engine(const StreamEngineConfig& c) {
  ESPICE_REQUIRE(c.shards > 0, "engine needs at least one shard");
  ESPICE_REQUIRE(c.ring_capacity > 0, "ring capacity must be positive");
  validate_modes(c);
  if (c.durability.has_value()) {
    ESPICE_REQUIRE(!c.adaptive.has_value(),
                   "durability requires deterministic mode (adaptive results "
                   "depend on the wall clock and are not replayable)");
    ESPICE_REQUIRE(!c.durability->dir.empty(), "durability.dir must be set");
  }
  if (c.event_time.has_value()) {
    ESPICE_REQUIRE(!c.adaptive.has_value(),
                   "event time requires deterministic mode");
    c.event_time->validate();
  }
  if (c.adaptive.has_value()) {
    c.adaptive->validate();
    // start() builds the adaptive query and its shedders from `adaptive`
    // alone; deterministic queries would be silently ignored.
    ESPICE_REQUIRE(c.queries.empty(),
                   "adaptive mode runs the query in `adaptive`; `queries` "
                   "would be ignored");
  }
}

/// True when `events` may hold a reserved control record: one branch-free
/// pass, as both reserved types top the type space.
bool reserved_type_in(std::span<const Event> events) {
  static_assert(kWatermarkType == std::numeric_limits<EventTypeId>::max() &&
                kPartitionControlType == kWatermarkType - 1);
  bool hit = false;
  for (const Event& e : events) hit |= e.type >= kPartitionControlType;
  return hit;
}

/// The exact check behind a reserved_type_in() hit: refuses a
/// partition-control record always (migration markers are the router's
/// own), a watermark unless event time is on.
void refuse_reserved(std::span<const Event> events, bool event_time) {
  for (const Event& e : events) {
    ESPICE_REQUIRE(!is_partition_control(e),
                   "partition-control records are reserved for the "
                   "engine's own migrations");
    ESPICE_REQUIRE(event_time || !is_watermark(e),
                   "watermark pushed without event_time configured");
  }
}

}  // namespace

ShardQuery adaptive_query(const EspiceOperatorConfig& config) {
  return ShardQuery{config.pattern, config.window, config.selection,
                    config.consumption, config.max_matches_per_window};
}

void EngineQuery::validate(std::size_t index) const {
  query.pattern.validate();
  query.window.validate();
  if (shedder_factory != nullptr) {
    ESPICE_REQUIRE(predicted_ws > 0.0 ||
                       query.window.span_kind == WindowSpan::kCount,
                   "non-count windows need an explicit predicted_ws to "
                   "shed (query " +
                       std::to_string(index) + ")");
  }
}

void StreamEngineConfig::validate() const {
  validate_engine(*this);
  if (adaptive.has_value()) {
    adaptive->pattern.validate();
    return;
  }
  ESPICE_REQUIRE(!queries.empty(),
                 "deterministic mode needs at least one query");
  ESPICE_REQUIRE(queries.size() <= kMaxQueriesPerWindowManager,
                 "too many queries for one engine");
  for (std::size_t i = 0; i < queries.size(); ++i) queries[i].validate(i);
}

/// One latency sample in flight: the router's enqueue-count high-water mark
/// at emission plus its timestamp.  The shard records the sample once its
/// consumed counter passes `count` -- the marked event's block has been
/// fully processed and released by then.
struct LatencyMark {
  std::uint64_t count = 0;
  std::chrono::steady_clock::time_point t0;
};

/// What one merge unit -- a partition pipeline -- hands finish().
struct StreamEngine::MergeUnit {
  explicit MergeUnit(std::size_t num_queries)
      : query_matches(num_queries),
        query_counters(num_queries),
        query_revisions(num_queries) {}

  /// Per query, the unit's matches in local detection order.
  std::vector<std::vector<ComplexEvent>> query_matches;
  std::vector<DetPipeline::QueryOutcome> query_counters;
  /// Event-time kRevise: per query, window re-emissions in local order.
  std::vector<std::vector<RevisionRecord>> query_revisions;
  /// Event-time kSideOutput: late captures in local arrival order.
  std::vector<SideOutputRecord> side_outputs;
};

struct StreamEngine::Shard {
  /// Capacity of the latency-mark side ring.  Small on purpose: marks are
  /// best-effort samples (the router drops one when the ring is full, it
  /// never blocks), so a lagging shard costs coverage, not throughput.
  static constexpr std::size_t kMarkRingCapacity = 256;

  Shard(std::size_t index_, std::size_t ring_capacity)
      : ring(ring_capacity), marks(kMarkRingCapacity) {
    stats.shard = index_;
  }

  /// Router side: account `n` ring enqueues and emit a latency mark when
  /// the sampling threshold is crossed.  Punctuation and migration-marker
  /// enqueues pass data=false -- they advance `routed` (so mark counts stay
  /// aligned with the shard's consumed counter, which counts them too) but
  /// never carry a mark.  Callers gate on latency_sample_every != 0,
  /// keeping the disabled hot path free of this entirely.
  void note_enqueued(std::size_t n, bool data, std::size_t sample_every) {
    routed += n;
    if (data && routed >= next_mark) {
      marks.try_push(LatencyMark{routed, std::chrono::steady_clock::now()});
      next_mark = routed + sample_every;
    }
  }

  /// Producer `producer`'s input into this shard: its lane in
  /// multi-producer mode, else the ring.
  SpscRing<Event>& input(std::size_t producer) {
    return lanes != nullptr ? lanes->lane(producer) : ring;
  }

  /// Shard side: record every mark whose event is inside a released block.
  void drain_marks(std::uint64_t consumed) {
    for (;;) {
      const std::span<const LatencyMark> m = marks.front_block(1);
      if (m.empty() || m[0].count > consumed) break;
      const auto dt = std::chrono::steady_clock::now() - m[0].t0;
      stats.latency.record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count()));
      marks.release(1);
    }
  }

  SpscRing<Event> ring;
  /// Multi-producer mode only: P producer-private lanes replacing `ring`
  /// as the shard's input (merged deterministically on seq).
  std::unique_ptr<SpscLaneSet<Event>> lanes;
  std::thread thread;
  /// Deterministic mode: resident partition pipelines, indexed by partition
  /// (null when the partition lives elsewhere).  Without rebalancing shard s
  /// hosts exactly partition s; a migration moves the unique_ptr between
  /// shards through the engine's mailbox.
  std::vector<std::unique_ptr<DetPipeline>> parts;
  /// Written per block by the shard thread: kept off the cache line of the
  /// fields above, which the router reads on every enqueue pass.
  alignas(64) ShardStats stats;
  std::exception_ptr error;

  // --- latency sampling (router produces, shard consumes) ----------------
  /// Every-Nth-enqueue timestamp marks; tiny and best-effort by design.
  SpscRing<LatencyMark> marks;
  /// Router-owned: total ring enqueues (data + punctuations) and the
  /// routed-count threshold that triggers the next mark.
  std::uint64_t routed = 0;
  std::uint64_t next_mark = 0;

  // --- durability checkpoint handshake (router <-> shard thread) ---------
  /// The router arms this with the exact number of events the shard must
  /// have consumed at the cut; the shard drains up to it (never past),
  /// serializes its pipeline into `checkpoint_blob`, publishes via
  /// `checkpoint_ready` and holds until the router clears the flag again
  /// (release_cut()).  Holding on the flag, not on the target value, keeps
  /// a re-armed identical target (no events routed in between) from
  /// trapping the shard in its previous hold.
  std::atomic<std::uint64_t> checkpoint_target{kNoCheckpoint};
  std::atomic<bool> checkpoint_ready{false};
  /// Router side: disarm the cut and release a shard holding at it.
  void release_cut() {
    checkpoint_target.store(kNoCheckpoint, std::memory_order_release);
    checkpoint_ready.store(false, std::memory_order_release);
  }
  std::vector<std::byte> checkpoint_blob;
  /// Set (release) by a shard entering its failure drain, so the router's
  /// checkpoint wait bails out instead of deadlocking on a dead pipeline.
  std::atomic<bool> failed{false};
  /// Ring items the pipeline consumed so far (one relaxed store per drained
  /// block) -- the last-progress gauge EngineHealth reports, and the only
  /// shard-side state the router may read before joining.
  std::atomic<std::uint64_t> progress{0};
};

std::uint64_t StreamEngine::partition_hash(std::uint64_t key) {
  // SplitMix64 finalizer: fixed, platform-independent avalanche so the
  // shard assignment is part of the engine's deterministic contract.
  std::uint64_t z = key + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::size_t StreamEngine::shard_index(std::uint64_t key, std::size_t shards) {
  return static_cast<std::size_t>(partition_hash(key) % shards);
}

std::uint64_t StreamEngine::key_hash(const Event& e) const {
  return partition_hash(config_.key_of ? config_.key_of(e)
                                       : static_cast<std::uint64_t>(e.type));
}

std::size_t StreamEngine::shard_of(const Event& e) const {
  return bucket(key_hash(e), config_.shards);
}

StreamEngine::StreamEngine(StreamEngineConfig config)
    : config_(std::move(config)) {
  // Only the common fields are checked here: the query set is not final
  // until start() (add_query() may still register more), where the full
  // validation runs.
  validate_engine(config_);
}

std::size_t StreamEngine::add_query(EngineQuery q) {
  ESPICE_REQUIRE(!started_, "add_query() after the engine started");
  ESPICE_REQUIRE(!config_.adaptive.has_value(),
                 "the adaptive engine is single-query");
  config_.queries.push_back(std::move(q));
  return config_.queries.size() - 1;
}

void StreamEngine::start() {
  if (started_) return;
  started_ = true;

  config_.validate();
  std::vector<EngineQuery>& queries = config_.queries;
  if (config_.adaptive.has_value()) {
    // Adaptive mode: the query comes from `adaptive`; its shedders come
    // from one controller per partition (below).
    queries.emplace_back().query = adaptive_query(*config_.adaptive);
  }
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (queries[i].name.empty()) queries[i].name = "q" + std::to_string(i);
  }

  if (config_.durability.has_value()) {
    // recover_and_start() opens the log itself (and seeds pushed_per_shard_
    // from the snapshot); a cold start opens a fresh-or-existing log here.
    // A failure to OPEN the log is fatal under every on_wal_error policy:
    // there is no durable prefix to seal and nothing to retry against.
    if (log_ == nullptr) {
      try {
        open_durability();
      } catch (const Error& e) {
        state_ = EngineState::kFailed;
        last_error_ = std::string("cannot open durability: ") + e.what();
        throw;
      }
    }
    if (pushed_per_shard_.empty()) pushed_per_shard_.assign(config_.shards, 0);
  }

  const std::size_t nparts = config_.rebalance.has_value()
                                 ? config_.rebalance->partitions
                                 : config_.shards;
  // Producer 0 is the single router; multi-producer mode adds the rest.
  staging_.resize(std::max<std::size_t>(config_.producers, 1));
  for (Staging& st : staging_) {
    st.per_shard.resize(config_.shards);
    // Seed each staging buffer's capacity so typical batches never allocate
    // on the routing path (buffers keep growing to the largest batch seen).
    for (auto& buf : st.per_shard) buf.reserve(kShardBlock);
    st.runs.reserve(config_.shards);
  }
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(i, config_.ring_capacity));
    if (config_.producers > 0) {
      shards_.back()->lanes = std::make_unique<SpscLaneSet<Event>>(
          config_.producers, config_.ring_capacity);
    }
  }
  // Initial placement: round-robin, so every shard starts with an equal
  // slice of the partition space (the identity when L = K).
  placement_.resize(nparts);
  for (std::size_t p = 0; p < nparts; ++p) placement_[p] = p % config_.shards;
  if (config_.rebalance.has_value()) {
    part_counts_.assign(nparts, 0);
    mailbox_ = std::make_unique<std::atomic<DetPipeline*>[]>(nparts);
    for (std::size_t p = 0; p < nparts; ++p) {
      mailbox_[p].store(nullptr, std::memory_order_relaxed);
    }
  }
  // Shedders are per PARTITION (the factory's "shard" argument is the
  // partition index, the shard index when L = K): a partition's shedding
  // state migrates with it.  In adaptive mode (always L = K) they are the
  // adapters of the partition's own controller.
  part_shedders_.resize(nparts);
  for (std::size_t p = 0; p < nparts; ++p) {
    auto& shedders = part_shedders_[p];
    if (config_.adaptive.has_value()) {
      controllers_.push_back(
          std::make_unique<AdaptiveController>(*config_.adaptive));
      shedders = controllers_.back()->make_shedders();
      continue;
    }
    shedders.reserve(queries.size());
    for (const EngineQuery& q : queries) {
      shedders.push_back(q.shedder_factory ? q.shedder_factory(p) : nullptr);
    }
  }
  part_out_.assign(nparts, MergeUnit(queries.size()));
  for (auto& s : shards_) s->parts.resize(nparts);
  start_ = std::chrono::steady_clock::now();
  try {
    for (auto& shard : shards_) {
      Shard* s = shard.get();
      s->thread = std::thread([this, s] { run_shard(*s); });
    }
  } catch (...) {
    // Thread spawn failed mid-loop: release the shards already running
    // before rethrowing -- destroying a joinable std::thread would
    // terminate the process.
    teardown();
    throw;
  }
}

StreamEngine::~StreamEngine() {
  if (!finished_) teardown();
}

void StreamEngine::teardown() noexcept {
  // Release any armed checkpoint cut first: a shard holding a cut waits for
  // the router to clear its target and would never observe the ring close.
  for (auto& s : shards_) s->release_cut();
  for (auto& s : shards_) {
    s->ring.close();
    if (s->lanes != nullptr) {
      // Close every lane a producer left open (close_lane is idempotent).
      // The caller's contract: every producer has RETURNED from its last
      // push_batch_concurrent() by now.
      for (std::size_t p = 0; p < s->lanes->lane_count(); ++p) {
        s->lanes->close_lane(p);
      }
    }
  }
  for (auto& s : shards_) {
    if (s->thread.joinable()) s->thread.join();
  }
  // An aborted migration can leave a pipeline parked in the mailbox (the
  // exporter handed it off, the importer died or never ran -- the success
  // path always drains both markers before the rings close): reclaim it.
  if (mailbox_ != nullptr) {
    for (std::size_t p = 0; p < placement_.size(); ++p) {
      delete mailbox_[p].exchange(nullptr, std::memory_order_acquire);
    }
  }
}

void StreamEngine::abort() noexcept {
  if (aborted_) return;
  aborted_ = true;
  finished_ = true;  // terminal: push/checkpoint/finish are rejected now
  teardown();
}

EngineHealth StreamEngine::health() const {
  EngineHealth h;
  h.state = state_;
  h.wal_errors = wal_errors_;
  h.wal_degraded = wal_degraded_;
  h.degraded_at_offset = degraded_at_offset_;
  h.last_error = last_error_;
  h.shards.reserve(shards_.size());
  for (const auto& s : shards_) {
    ShardHealth sh;
    sh.shard = s->stats.shard;
    sh.failed = s->failed.load(std::memory_order_acquire);
    sh.last_progress = s->progress.load(std::memory_order_relaxed);
    if (sh.failed) {
      h.state = EngineState::kFailed;  // even if the router has not noticed
      if (s->error != nullptr) sh.error = error_text(s->error);
    }
    h.shards.push_back(std::move(sh));
  }
  return h;
}

void StreamEngine::ensure_accepting(const char* op) {
  if (state_ == EngineState::kFailed) {
    throw Error(ErrorCode::kEngineFailed,
                std::string(op) + " on a failed engine: " + last_error_);
  }
  if (any_shard_failed_.load(std::memory_order_relaxed)) {
    for (auto& s : shards_) {
      if (s->failed.load(std::memory_order_acquire)) fail_for_shard(*s);
    }
  }
}

void StreamEngine::fail_for_shard(Shard& s) {
  state_ = EngineState::kFailed;
  // The error is published before `failed` (release/acquire).
  const std::string what =
      s.error != nullptr ? error_text(s.error) : "unknown error";
  last_error_ = "shard " + std::to_string(s.stats.shard) +
                " failed after consuming " +
                std::to_string(s.progress.load(std::memory_order_relaxed)) +
                " events: " + what;
  throw Error(ErrorCode::kShardFailed, last_error_);
}

void StreamEngine::route_punctuation(const Event& p) {
  // Broadcast: every shard's substream carries the watermark at this
  // point of its arrival order (the rings are FIFO, so it orders after
  // everything routed before it and ahead of everything after).
  std::vector<Run>& runs = staging_[0].runs;
  runs.clear();
  for (auto& s : shards_) runs.push_back(Run{s.get(), &p, 1});
  enqueue(0, /*data=*/false);
  if (log_ != nullptr) {
    for (auto& n : pushed_per_shard_) ++n;
  }
  ++pushed_;
  ++punct_pushed_;
  // Any watermark (user punctuation or heartbeat) restarts the heartbeat
  // period -- also what makes replay reconstruct the counter exactly.
  data_since_hb_ = 0;
}

void StreamEngine::maybe_heartbeat() {
  if (!config_.event_time.has_value() || replaying_) return;
  const EventTimeConfig& et = *config_.event_time;
  if (et.heartbeat_events == 0 || data_since_hb_ < et.heartbeat_events) {
    return;
  }
  // The router's own watermark: the newest seq no within-bound straggler
  // can still precede.  Not yet meaningful below D + 1 events.
  if (!router_max_valid_ || router_max_seq_ < et.disorder_bound + 1) return;
  const Event p = make_watermark(router_max_seq_ - et.disorder_bound - 1);
  // Heartbeats are logged like any record so replay reproduces them at
  // the same stream position instead of re-synthesizing.
  if (log_ != nullptr) wal_append(std::span<const Event>(&p, 1));
  route_punctuation(p);
  if (log_ != nullptr) {
    ++events_since_snapshot_;
    maybe_auto_checkpoint();
  }
}

void StreamEngine::enqueue(std::size_t producer, bool data) {
  // The router's one backpressure loop.  Round-robin: push what fits into
  // each pending input, rotate, repeat -- draining one full input to
  // completion before touching the next would, on an undersubscribed box,
  // park the router in a sleep against shard s while shards s+1..K-1 sit
  // EMPTY and idle.  For a producer it is also a liveness requirement:
  // shard A's merge can stall on this producer's empty lane-A floor while
  // the producer sits blocked on shard B's full lane.  So the loop only
  // waits when every pending input is full.
  std::vector<Run>& runs = staging_[producer].runs;
  const std::size_t every = config_.latency_sample_every;
  std::size_t pending = runs.size();  // callers pass nonempty runs
  Shard* stalled = nullptr;
  BackoffWaiter waiter(producer);
  while (pending > 0) {
    bool progress = false;
    for (Run& r : runs) {
      if (r.n == 0) continue;
      const std::size_t k =
          r.shard->input(producer).try_push_bulk(r.data, r.n);
      if (k == 0) {
        stalled = r.shard;
        continue;
      }
      progress = true;
      r.data += k;
      r.n -= k;
      if (every != 0) r.shard->note_enqueued(k, data, every);
      if (r.n == 0) --pending;
    }
    if (pending == 0) break;
    if (progress) {
      waiter.reset();
      continue;
    }
    // Every pending input is full: poll for dead shards (a dead consumer
    // never frees slots, so a waiter that did not would hang forever),
    // then back off.
    if (any_shard_failed_.load(std::memory_order_acquire)) {
      // fail_for_shard() mutates router-owned state and is not safe from
      // P producer threads; a typed error is (health() has the detail).
      if (config_.producers > 0) {
        throw Error(ErrorCode::kShardFailed,
                    "push_batch_concurrent() stalled on a failed shard");
      }
      ensure_accepting("enqueue");
    }
    waiter.wait();
  }
  // The stall counters are router-owned (concurrent producers would race
  // on them).  With every pending input full, any of them is the
  // bottleneck; the stall goes to the last one seen full.
  if (waiter.waits() > 0 && config_.producers == 0) {
    stalled->stats.router_backpressure_waits += waiter.waits();
    stalled->stats.router_stall_seconds += waiter.stall_seconds();
  }
}

void StreamEngine::enqueue_to(std::size_t shard, const Event* data,
                              std::size_t n, bool is_data) {
  staging_[0].runs.assign(1, Run{shards_[shard].get(), data, n});
  enqueue(0, is_data);
}

void StreamEngine::stage(std::span<const Event> events, Staging& st) {
  for (auto& buf : st.per_shard) buf.clear();
  const std::size_t nparts = placement_.size();
  // The routing loop: key -> partition -> hosting shard.  Instantiated per
  // key source and placement, so neither the key_of null check nor the
  // rebalancing bookkeeping sits in the per-event path.
  auto route = [&](const auto& key_of, const auto& host) {
    for (const Event& e : events) {
      st.per_shard[host(bucket(partition_hash(key_of(e)), nparts))]
          .push_back(e);
    }
  };
  auto route_keys = [&](const auto& host) {
    if (config_.key_of) {
      route(config_.key_of, host);
    } else {
      route([](const Event& e) { return static_cast<std::uint64_t>(e.type); },
            host);
    }
  };
  if (config_.rebalance.has_value()) {
    route_keys([this](std::size_t p) {
      ++part_counts_[p];
      return placement_[p];
    });
  } else {
    route_keys([](std::size_t p) { return p; });  // fixed: partition = shard
  }
}

void StreamEngine::flush_staged(std::size_t producer) {
  Staging& st = staging_[producer];
  st.runs.clear();
  for (std::size_t s = 0; s < st.per_shard.size(); ++s) {
    const auto& buf = st.per_shard[s];
    if (!buf.empty()) st.runs.push_back(Run{shards_[s].get(), buf.data(),
                                            buf.size()});
  }
  enqueue(producer, /*data=*/true);
}

void StreamEngine::push_data_segment(std::span<const Event> events) {
  const bool rebalancing = config_.rebalance.has_value();
  std::size_t i = 0;
  while (i < events.size()) {
    std::size_t take = events.size() - i;
    if (rebalancing) {
      // Rebalance routing must interleave with the decision cadence even
      // inside one large batch: route in chunks that stop exactly at the
      // interval boundary, flush, then let decide_moves() emit its
      // migration markers.  Flushing BEFORE deciding is load-bearing --
      // any event still staged under the old placement would otherwise
      // arrive at its old shard behind the export marker, after the
      // pipeline left.
      const std::uint64_t interval = config_.rebalance->interval_events;
      const std::uint64_t room =
          interval > window_routed_ ? interval - window_routed_ : 1;
      take = static_cast<std::size_t>(std::min<std::uint64_t>(take, room));
    }
    const std::span<const Event> chunk = events.subspan(i, take);
    if (placement_.size() == 1 || take == 1) {
      // One destination -- a single partition, or one event (per-event
      // push()): no staging copy, enqueue straight from the caller's span.
      const std::size_t p = bucket(key_hash(chunk[0]), placement_.size());
      if (rebalancing) part_counts_[p] += take;
      const std::size_t s = placement_[p];
      enqueue_to(s, chunk.data(), take, /*data=*/true);
      if (log_ != nullptr) pushed_per_shard_[s] += take;
    } else {
      stage(chunk, staging_[0]);
      flush_staged(0);
      if (log_ != nullptr) {
        for (std::size_t s = 0; s < shards_.size(); ++s) {
          pushed_per_shard_[s] += staging_[0].per_shard[s].size();
        }
      }
    }
    i += take;
    if (rebalancing) {
      window_routed_ += take;
      if (window_routed_ >= config_.rebalance->interval_events) {
        decide_moves();
      }
    }
  }
  pushed_ += events.size();
  if (config_.event_time.has_value()) {
    for (const Event& e : events) {
      if (!router_max_valid_ || e.seq > router_max_seq_) {
        router_max_seq_ = e.seq;
        router_max_valid_ = true;
      }
    }
    data_since_hb_ += events.size();
  }
}

void StreamEngine::push_batch(std::span<const Event> events) {
  ESPICE_REQUIRE(!finished_, "push_batch() after finish()");
  ESPICE_REQUIRE(config_.producers == 0,
                 "multi-producer mode: use push_batch_concurrent()");
  ensure_accepting("push_batch()");
  if (events.empty()) return;
  // Ahead of the WAL append: a refused record must never replay as data.
  // A batch that passes despite a hit holds watermarks under event time.
  const bool punctuated = reserved_type_in(events);
  if (punctuated) refuse_reserved(events, config_.event_time.has_value());
  if (!started_) start();
  if (log_ != nullptr && !replaying_) wal_append(events);
  if (!punctuated) {
    push_data_segment(events);
  } else {
    // Punctuations broadcast to every shard and must keep their arrival
    // position relative to the data around them: split the batch at
    // watermark records, flushing each punctuation-free run in bulk.
    std::size_t i = 0;
    while (i < events.size()) {
      if (is_watermark(events[i])) {
        route_punctuation(events[i]);
        ++i;
        continue;
      }
      std::size_t j = i + 1;
      while (j < events.size() && !is_watermark(events[j])) ++j;
      push_data_segment(events.subspan(i, j - i));
      i = j;
    }
  }
  if (log_ != nullptr && !replaying_) {
    events_since_snapshot_ += events.size();
    maybe_auto_checkpoint();
  }
  maybe_heartbeat();
}

void StreamEngine::run_shard(Shard& shard) {
  try {
    const std::size_t nq = config_.queries.size();
    const std::size_t me = shard.stats.shard;
    const std::size_t nparts = shard.parts.size();
    const bool rebalancing = config_.rebalance.has_value();
    // The whole window/matcher/shedder body lives in DetPipeline (see
    // runtime/shard_pipeline.hpp), one per logical partition -- this runner
    // owns only what is tied to the SHARD: the input drain, the event-time
    // reorder stage, the checkpoint handshake, the latency marks and the
    // migration markers.  The initial placement is the fixed function
    // p % K, recomputed here rather than read from placement_, which is
    // router-owned and already mutating.
    for (std::size_t p = me; p < nparts; p += config_.shards) {
      shard.parts[p] = std::make_unique<DetPipeline>(
          std::span<const EngineQuery>(config_.queries),
          std::move(part_shedders_[p]),
          config_.event_time.has_value() ? &*config_.event_time : nullptr,
          controllers_.empty()
              ? WindowObserver{}
              : std::bind_front(&AdaptiveController::on_window,
                                controllers_[p].get()));
    }
    // Without rebalancing the shard hosts exactly partition `me` for the
    // whole run: whole blocks go straight to its pipeline.
    DetPipeline* const home = rebalancing ? nullptr : shard.parts[me].get();
    // Adaptive mode (no rebalancing, so partition `me`): the controller
    // steering the home pipeline's shedders, and its next detector tick.
    AdaptiveController* const ctl =
        controllers_.empty() ? nullptr : controllers_[me].get();
    double next_tick = ctl != nullptr ? config_.adaptive->detector.tick_period
                                      : 0.0;

    // ---- event-time stage state -----------------------------------------
    const bool et_on = config_.event_time.has_value();
    const EventTimeConfig et_cfg =
        et_on ? *config_.event_time : EventTimeConfig{};
    ReorderBuffer reorder(et_cfg.disorder_bound);
    std::vector<Event> released;  // reused release buffer

    // ---- durability: pipeline snapshot/restore + checkpoint service -----
    // `consumed` counts the input items (data events, punctuations and
    // migration markers) this shard has drained over its whole lifetime
    // (it resumes from the snapshot on recovery); the router cuts
    // checkpoints at exact values of it.  Durability excludes rebalancing,
    // so a snapshot is always of the home pipeline.
    std::uint64_t consumed = 0;

    auto serialize_pipeline = [&](durability::SnapshotWriter& w) {
      w.u64(consumed);
      w.u64(shard.stats.events);
      w.u64(shard.stats.memberships);
      w.u64(shard.stats.memberships_kept);
      w.u64(shard.stats.windows_closed);
      home->serialize_core(w);
      w.boolean(et_on);
      if (et_on) {
        reorder.serialize(w);
        w.u64(shard.stats.punctuations);
        w.u64(shard.stats.late_events);
        w.u64(shard.stats.late_dropped);
        w.u64(shard.stats.late_side_output);
        w.u64(shard.stats.revisions);
        w.u64(shard.stats.reorder_peak_buffered);  // scalar, not a prefix
        home->serialize_event_time(w);
      }
    };

    auto restore_pipeline = [&](durability::SnapshotReader& r) {
      consumed = r.u64();
      shard.progress.store(consumed, std::memory_order_relaxed);
      shard.stats.events = r.u64();
      shard.stats.memberships = r.u64();
      shard.stats.memberships_kept = r.u64();
      shard.stats.windows_closed = r.u64();
      home->restore_core(r);
      const bool had_et = r.boolean();
      ESPICE_CHECK(had_et == et_on, ErrorCode::kCorruptSnapshot,
                   "snapshot event-time mode does not match the engine's "
                   "configuration");
      if (et_on) {
        reorder.restore(r);
        shard.stats.punctuations = r.u64();
        shard.stats.late_events = r.u64();
        shard.stats.late_dropped = r.u64();
        shard.stats.late_side_output = r.u64();
        shard.stats.revisions = r.u64();
        shard.stats.reorder_peak_buffered = static_cast<std::size_t>(r.u64());
        home->restore_event_time(r);
      }
    };

    if (me < recovery_blobs_.size() && !recovery_blobs_[me].empty()) {
      durability::SnapshotReader r(recovery_blobs_[me]);
      restore_pipeline(r);
      r.expect_done();
    }

    // Serves an armed checkpoint the shard sits exactly at: serialize,
    // publish, then hold the cut -- the blob buffer is shared with the
    // router, and no event past the cut may be consumed before the
    // snapshot is complete -- until the router collects it and clears the
    // target.
    auto service_checkpoint = [&]() {
      const std::uint64_t target =
          shard.checkpoint_target.load(std::memory_order_acquire);
      if (target == kNoCheckpoint || consumed != target) return;
      durability::SnapshotWriter w;
      serialize_pipeline(w);
      shard.checkpoint_blob = w.take();
      shard.checkpoint_ready.store(true, std::memory_order_release);
      while (shard.checkpoint_ready.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    };

    // Event-time stage: punctuations and stragglers are consumed here; only
    // watermark-released IN-ORDER runs reach the data path, so everything
    // downstream is bit-identical to an in-order run of the released
    // stream.
    auto event_time_stage = [&](std::span<const Event> blk) {
      for (const Event& e : blk) {
        released.clear();
        if (is_watermark(e)) {
          ++shard.stats.punctuations;
          reorder.punctuate(e.seq, released);
          if (!released.empty()) {
            home->process_data_block(released, shard.stats);
          }
          if (watermark_has_ts(e)) {
            // Event-time close: time windows whose span ended at or before
            // the watermark close NOW, without waiting for the next
            // on-time arrival.
            home->advance_time_watermark(e.ts, shard.stats);
          }
        } else if (reorder.accept(e, released) ==
                   ReorderBuffer::Accept::kLate) {
          home->handle_late(e, reorder.watermark_seq(), shard.stats);
        } else if (!released.empty()) {
          home->process_data_block(released, shard.stats);
        }
      }
    };

    // Rebalancing: split the block at migration markers; between them,
    // run-length group consecutive same-partition events so a skewed
    // stream (long same-key runs) still takes the block-wise pipeline path.
    auto partitioned_stage = [&](std::span<const Event> blk) {
      std::size_t i = 0;
      while (i < blk.size()) {
        const Event& head = blk[i];
        if (is_partition_control(head)) {
          const auto p = static_cast<std::size_t>(head.seq);
          if (partition_control_action(head) == PartitionControl::kExport) {
            // Hand off: park the pipeline (release publishes everything it
            // processed) and keep going -- an exporter never waits.
            mailbox_[p].store(shard.parts[p].release(),
                              std::memory_order_release);
          } else {
            // Adopt: the matching export marker is already queued at the
            // old owner (the router pushed it first), so spin until that
            // shard parks the pipeline.  Bail out if any shard died -- a
            // dead exporter would otherwise hang this import forever.
            DetPipeline* adopted =
                mailbox_[p].exchange(nullptr, std::memory_order_acquire);
            while (adopted == nullptr) {
              if (any_shard_failed_.load(std::memory_order_acquire)) {
                throw Error(ErrorCode::kShardFailed,
                            "partition import abandoned: a shard failed "
                            "mid-migration");
              }
              std::this_thread::yield();
              adopted =
                  mailbox_[p].exchange(nullptr, std::memory_order_acquire);
            }
            shard.parts[p].reset(adopted);
          }
          ++i;
          continue;
        }
        const std::size_t p = bucket(key_hash(head), nparts);
        std::size_t j = i + 1;
        while (j < blk.size() && !is_partition_control(blk[j]) &&
               bucket(key_hash(blk[j]), nparts) == p) {
          ++j;
        }
        shard.parts[p]->process_data_block(blk.subspan(i, j - i), shard.stats);
        i = j;
      }
    };

    // Block drain: one zero-copy ring view per visit (events are processed
    // in place; one release store commits the dequeue), or one block of the
    // P-lane seq merge in multi-producer mode.
    std::vector<Event> merged(shard.lanes != nullptr ? kShardBlock : 0);
    BackoffWaiter idle(me, kShardIdleSleepUs);
    for (;;) {
      service_checkpoint();
      std::span<const Event> blk;
      std::size_t depth = 0;
      if (shard.lanes == nullptr) {
        blk = shard.ring.front_block(kShardBlock);
        if (blk.empty()) {
          if (!shard.ring.closed()) {
            // Idle: escalate yield -> bounded sleep instead of spinning the
            // core (reset on any progress).  Matters most when shards
            // outnumber cores -- a spinning idle shard steals exactly the
            // cycles the busy ones need.
            idle.wait();
            continue;
          }
          // Same never-miss ordering as pop_or_closed(): closed was
          // observed (acquire) after an empty view, so one more look
          // decides.
          blk = shard.ring.front_block(kShardBlock);
          if (blk.empty()) break;
        }
        // An armed checkpoint cuts at an exact event count: trim the block
        // so the shard lands on the cut (the loop head serves it), never
        // past.  (Multi-producer mode never arms one.)
        const std::uint64_t target =
            shard.checkpoint_target.load(std::memory_order_acquire);
        if (target != kNoCheckpoint && target - consumed < blk.size()) {
          blk = blk.first(static_cast<std::size_t>(target - consumed));
        }
        depth = shard.ring.size();  // the unreleased block still counts
      } else {
        std::size_t n = 0;
        if (shard.lanes->merge_pop(merged.data(), kShardBlock, n) ==
            SpscLaneSet<Event>::Merge::kDone) {
          break;
        }
        if (n == 0) {
          // kStall: some open lane's floor is the bound -- its producer has
          // neither pushed nor advanced past the merge head yet.
          idle.wait();
          continue;
        }
        blk = std::span<const Event>(merged.data(), n);
        // merge_pop consumed the block from the lanes already; count it
        // back in, matching the ring's "unreleased block still queued".
        depth = shard.lanes->size() + n;
      }
      idle.reset();
      const std::size_t n = blk.size();
      // Occupancy: one depth/peak sample per block, busy time around it.
      shard.stats.peak_queue_depth =
          std::max(shard.stats.peak_queue_depth, depth);
      shard.stats.depth_sum += depth;
      ++shard.stats.depth_samples;
      const auto t0 = std::chrono::steady_clock::now();
      if (home == nullptr) {
        partitioned_stage(blk);
      } else if (et_on) {
        event_time_stage(blk);
      } else {
        home->process_data_block(blk, shard.stats);
      }
      const double busy = seconds_since(t0);
      shard.stats.busy_seconds += busy;
      consumed += n;
      shard.progress.store(consumed, std::memory_order_relaxed);
      if (shard.lanes == nullptr) shard.ring.release(n);
      if (config_.latency_sample_every != 0) shard.drain_marks(consumed);
      if (ctl != nullptr) {
        steer(*ctl, shard, std::chrono::duration<double>(t0 - start_).count(),
              busy, n, next_tick);
      }
    }
    if (et_on) {
      // End of stream: everything still buffered is releasable (no more
      // arrivals can precede it) -- drain the stage in sequence order
      // before the windows close.
      released.clear();
      reorder.flush(released);
      if (!released.empty()) home->process_data_block(released, shard.stats);
      shard.stats.watermark_valid = reorder.has_watermark();
      shard.stats.watermark_seq = reorder.watermark_seq();
      shard.stats.reorder_peak_buffered = reorder.peak_buffered();
    }
    // Close every partition that ended up resident here and hand its
    // outputs to finish(), which merges per PARTITION from wherever each
    // one landed.  The per-shard stats rollup attributes a partition's
    // totals to its final host.
    for (std::size_t p = 0; p < nparts; ++p) {
      if (shard.parts[p] == nullptr) continue;
      DetPipeline& pipe = *shard.parts[p];
      MergeUnit& out = part_out_[p];
      pipe.close_all(shard.stats);
      for (std::size_t qi = 0; qi < nq; ++qi) {
        const DetPipeline::QueryOutcome o = pipe.outcome(qi);
        out.query_counters[qi] = o;
        shard.stats.matches += pipe.query_matches[qi].size();
        shard.stats.shed_decisions += o.shed_decisions;
        shard.stats.shed_drops += o.shed_drops;
        out.query_matches[qi] = std::move(pipe.query_matches[qi]);
        out.query_revisions[qi] = std::move(pipe.query_revisions[qi]);
      }
      out.side_outputs = std::move(pipe.side_outputs);
      if (!controllers_.empty()) {
        shard.stats.retrains += controllers_[p]->retrains();
      }
    }
  } catch (...) {
    shard.error = std::current_exception();
    shard.failed.store(true, std::memory_order_release);
    any_shard_failed_.store(true, std::memory_order_release);
    // Keep draining every input so no router or producer deadlocks on a
    // full one (producers poll any_shard_failed_ and bail on their next
    // pass).
    Event e;
    const std::size_t inputs =
        shard.lanes != nullptr ? shard.lanes->lane_count() : 1;
    for (std::size_t p = 0; p < inputs; ++p) {
      while (shard.input(p).pop_or_closed(e) != SpscRing<Event>::Pop::kDone) {
        std::this_thread::yield();
      }
    }
  }
}

void StreamEngine::push_batch_concurrent(std::size_t producer,
                                         std::span<const Event> events) {
  ESPICE_REQUIRE(config_.producers > 0,
                 "push_batch_concurrent() needs config.producers > 0");
  ESPICE_REQUIRE(producer < config_.producers, "producer index out of range");
  // Implicit start would race: the first concurrent pushes would all try to
  // spawn the shards.  The owner must start() (or recover_and_start())
  // before releasing the producer threads.
  ESPICE_REQUIRE(started_,
                 "push_batch_concurrent() before start(): multi-producer "
                 "engines must be started explicitly");
  ESPICE_REQUIRE(!finished_, "push_batch_concurrent() after finish()");
  if (events.empty()) return;
  if (any_shard_failed_.load(std::memory_order_acquire)) {
    // The full fail_for_shard() protocol mutates router-owned state and is
    // not safe from P threads; a typed error is -- health() has the detail.
    throw Error(ErrorCode::kShardFailed,
                "push_batch_concurrent() on an engine with a failed shard");
  }
  // Event time is off in this mode, so every reserved record is refused.
  if (reserved_type_in(events)) refuse_reserved(events, /*event_time=*/false);
  std::uint64_t max_seq = 0;
  for (const Event& e : events) max_seq = std::max(max_seq, e.seq);
  // Stage producer-privately with the router's own routing loop (placement
  // is fixed in this mode, so it is read-only here).
  stage(events, staging_[producer]);

  // Sequencer: one lock serializes the WAL append and the global ingest
  // count across producers -- "producers stage, one sequencer owns the WAL
  // offset".  The shard lanes are NOT touched under the lock.
  {
    std::lock_guard<std::mutex> lk(sequencer_mu_);
    if (log_ != nullptr && !replaying_) wal_append(events);
    mp_pushed_.fetch_add(events.size(), std::memory_order_relaxed);
  }

  flush_staged(producer);

  // Advance this producer's sequence floor on EVERY shard (including the
  // ones that received nothing): each shard's merge may now emit past
  // max_seq without waiting on this lane.  Valid because each producer's
  // seqs are strictly increasing (the documented contract).
  for (auto& s : shards_) s->lanes->set_floor(producer, max_seq + 1);
}

void StreamEngine::producer_done(std::size_t producer) {
  ESPICE_REQUIRE(config_.producers > 0,
                 "producer_done() needs config.producers > 0");
  ESPICE_REQUIRE(producer < config_.producers, "producer index out of range");
  if (!started_) return;  // no lanes exist yet, nothing to close
  for (auto& s : shards_) s->lanes->close_lane(producer);
}

std::size_t StreamEngine::partition_of(const Event& e) const {
  ESPICE_REQUIRE(config_.rebalance.has_value(),
                 "partition_of() needs rebalance configured");
  return bucket(key_hash(e), config_.rebalance->partitions);
}

std::size_t StreamEngine::shard_of_partition(std::size_t partition) const {
  ESPICE_REQUIRE(config_.rebalance.has_value() &&
                     partition < placement_.size(),
                 "shard_of_partition() needs a started rebalancing engine");
  return placement_[partition];
}

void StreamEngine::move_partition(std::size_t partition, std::size_t to_shard) {
  ESPICE_REQUIRE(config_.rebalance.has_value(),
                 "move_partition() needs rebalance configured");
  if (!started_) start();
  ESPICE_REQUIRE(partition < placement_.size(), "partition out of range");
  ESPICE_REQUIRE(to_shard < config_.shards, "target shard out of range");
  const std::size_t from = placement_[partition];
  if (from == to_shard) return;
  // Exactness by FIFO bracketing, all from this one router thread: the
  // export marker queues BEHIND everything already routed to the old owner,
  // placement flips (so all later events route to the new owner), and the
  // import marker queues AHEAD of all of them -- the partition's substream
  // is replayed gap-free, in order, across the handoff.  Deadlock-free
  // across chained moves: an exporter never waits (it just parks the
  // pipeline in the mailbox), so marker chains resolve in router order.
  // Markers are non-data enqueues, like punctuations.
  const Event out =
      make_partition_control(PartitionControl::kExport, partition);
  enqueue_to(from, &out, 1, /*data=*/false);
  placement_[partition] = to_shard;
  const Event in = make_partition_control(PartitionControl::kImport, partition);
  enqueue_to(to_shard, &in, 1, /*data=*/false);
  ++rebalance_moves_;
  ++shards_[from]->stats.rebalance_moves_out;
  ++shards_[to_shard]->stats.rebalance_moves_in;
}

void StreamEngine::decide_moves() {
  const RebalanceConfig& rb = *config_.rebalance;
  window_routed_ = 0;
  // Shard loads under the CURRENT placement from this window's routing
  // counts -- a pure function of the stream prefix, so every run (and the
  // determinism oracle) decides the exact same moves.
  std::vector<std::uint64_t> load(config_.shards, 0);
  std::uint64_t total = 0;
  for (std::size_t p = 0; p < placement_.size(); ++p) {
    load[placement_[p]] += part_counts_[p];
    total += part_counts_[p];
  }
  const double mean =
      static_cast<double>(total) / static_cast<double>(config_.shards);
  for (std::size_t m = 0; total > 0 && m < rb.max_moves_per_interval; ++m) {
    std::size_t hot = 0;
    std::size_t cold = 0;
    for (std::size_t s = 1; s < config_.shards; ++s) {
      if (load[s] > load[hot]) hot = s;
      if (load[s] < load[cold]) cold = s;
    }
    if (hot == cold ||
        static_cast<double>(load[hot]) <= rb.hot_factor * mean) {
      break;
    }
    // Largest partition on the hot shard that fits in half the gap (moving
    // more than the gap's half would just flip the imbalance).
    const std::uint64_t fit = (load[hot] - load[cold]) / 2;
    std::size_t best = placement_.size();
    for (std::size_t p = 0; p < placement_.size(); ++p) {
      if (placement_[p] != hot) continue;
      if (part_counts_[p] == 0 || part_counts_[p] > fit) continue;
      if (best == placement_.size() || part_counts_[p] > part_counts_[best]) {
        best = p;
      }
    }
    if (best == placement_.size()) break;  // one indivisible hot partition
    move_partition(best, cold);
    load[hot] -= part_counts_[best];
    load[cold] += part_counts_[best];
  }
  std::fill(part_counts_.begin(), part_counts_.end(), 0);
}

void StreamEngine::steer(AdaptiveController& ctl, Shard& shard, double t0,
                         double busy, std::size_t n, double& next_tick) {
  ctl.retrain_if_drifted();
  // The block's n events arrived (were dequeued) across its busy time, at
  // busy / n each: the per-event signals the detector's l(p) and rate
  // estimates expect, from the clock reads the block already took.
  const double cost = busy / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    ctl.observe_arrival(t0 + cost * static_cast<double>(i));
    ctl.observe_cost(cost);
  }
  if (t0 + busy < next_tick) return;
  // The ring depth *is* the shard's input queue: the backpressure signal
  // the overload detector steers shedding by.
  ctl.on_tick(shard.ring.size());
  ++shard.stats.detector_ticks;
  if (ctl.shedding_active()) shard.stats.shedding_ever_active = true;
  next_tick += config_.adaptive->detector.tick_period;
}

void StreamEngine::open_durability() {
  const DurabilityConfig& d = *config_.durability;
  durability::EventLogConfig lc;
  lc.dir = d.dir + "/log";
  lc.segment_bytes = d.segment_bytes;
  lc.fsync = d.fsync;
  lc.fsync_interval_records = d.fsync_interval_records;
  lc.validate();
  log_ = std::make_unique<durability::EventLogWriter>(std::move(lc));
  snaps_ = std::make_unique<durability::SnapshotStore>(d.dir + "/snapshots");
}

bool StreamEngine::on_wal_fault(const char* op, std::string detail,
                                const std::function<void()>& retry) {
  ++wal_errors_;
  const DurabilityConfig& d = *config_.durability;
  if (d.on_wal_error == WalErrorPolicy::kDegradeToMemory) {
    wal_degraded_ = true;
    // Seal the durable prefix at an offset the log can actually honor
    // after a power loss: a best-effort final sync promotes everything
    // appended so far; if that sync also fails, fall back to the last
    // offset a successful fsync covered.  (Under FsyncPolicy::kNone --
    // process-crash durability only, nothing is synced by policy -- the
    // full appended prefix is reported: it is on disk and recovery replays
    // it as long as the power stayed on, which is all that policy ever
    // promised.)
    std::uint64_t sealed = log_->next_index();
    try {
      log_->sync();
    } catch (const Error&) {
      ++wal_errors_;
      if (d.fsync != durability::FsyncPolicy::kNone) {
        sealed = log_->synced_index();
      }
    }
    degraded_at_offset_ = sealed;
    if (state_ != EngineState::kFailed) state_ = EngineState::kDegraded;
    last_error_ = "WAL degraded to memory-only at offset " +
                  std::to_string(degraded_at_offset_) + ": " + detail;
    return false;
  }
  if (d.on_wal_error == WalErrorPolicy::kRetryBackoff) {
    std::uint64_t sleep_us = d.wal_retry_backoff_us;
    for (std::uint64_t attempt = 0; attempt < d.wal_retry_max; ++attempt) {
      std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
      sleep_us = std::min<std::uint64_t>(sleep_us * 2, 100000);  // cap 100ms
      try {
        retry();
        return true;
      } catch (const Error& e) {
        ++wal_errors_;
        detail = e.what();
      }
    }
    // fall through: retries exhausted, fail stop
  }
  state_ = EngineState::kFailed;
  last_error_ = std::string(op) + " failed (fail-stop): " + detail;
  throw Error(ErrorCode::kIo, last_error_);
}

void StreamEngine::wal_append(std::span<const Event> events) {
  if (wal_degraded_) return;  // durable prefix sealed; memory-only from here
  const std::uint64_t before = log_->next_index();
  try {
    log_->append_batch(events);
  } catch (const Error& e) {
    // A retry discriminates where the failure hit: if next_index() moved
    // past the pre-append mark, the records landed and only the policy
    // fsync failed -- retry sync(), not a re-append (which would duplicate
    // the batch).  Otherwise the append itself failed (torn tail already
    // repaired by the writer) and the whole batch is retried.  The check
    // runs on EVERY attempt: a retried append can itself land the records
    // and then die in its policy fsync, after which the next attempt must
    // sync, not append the batch a second time.
    on_wal_fault("WAL append", e.what(), [&] {
      if (log_->next_index() != before) {
        log_->sync();
      } else {
        log_->append_batch(events);
      }
    });
  }
}

void StreamEngine::maybe_auto_checkpoint() {
  const std::uint64_t every = config_.durability->snapshot_every_events;
  if (every == 0 || events_since_snapshot_ < every) return;
  if (wal_degraded_) return;  // no durable log to key a snapshot against
  checkpoint();
}

void StreamEngine::checkpoint() {
  ESPICE_REQUIRE(config_.durability.has_value(),
                 "checkpoint() needs durability configured");
  // No consistent cut exists mid-stream under concurrent producers (the
  // sequencer orders the WAL, but in-flight lane contents are not a prefix
  // of it), and a migrating pipeline may be in a mailbox between shards.
  ESPICE_REQUIRE(config_.producers == 0,
                 "checkpoint() is not supported in multi-producer mode");
  ESPICE_REQUIRE(!config_.rebalance.has_value(),
                 "checkpoint() is not supported with rebalancing");
  ESPICE_REQUIRE(!finished_, "checkpoint() after finish()");
  ensure_accepting("checkpoint()");
  ESPICE_CHECK(!wal_degraded_, ErrorCode::kIo,
               "checkpoint() on a WAL-degraded engine: the durable prefix is "
               "sealed at offset " + std::to_string(degraded_at_offset_) +
               " and cannot cover new events");
  if (!started_) start();

  // The log must be durable up to the cut before a snapshot keyed by it is
  // published -- otherwise a power loss could leave a snapshot whose replay
  // tail never reached the disk.  An fsync failure here takes the
  // on_wal_error ladder; once degraded, the log can no longer be made
  // durable up to the cut, so this checkpoint aborts (typed) while
  // ingestion itself continues memory-only.
  try {
    log_->sync();
  } catch (const Error& e) {
    if (!on_wal_fault("WAL sync before checkpoint", e.what(),
                      [this] { log_->sync(); })) {
      throw Error(ErrorCode::kIo, "checkpoint aborted: " + last_error_);
    }
  }

  durability::SnapshotWriter w;
  w.u64(config_.shards);
  w.u64(config_.queries.size());
  w.u64(pushed_);
  // Router-side event-time state: replay after recovery must see the same
  // heartbeat cadence and watermark base as the original run, so the
  // trackers are part of the cut (harmless zeros when event time is off).
  w.u64(punct_pushed_);
  w.u64(data_since_hb_);
  w.boolean(router_max_valid_);
  w.u64(router_max_seq_);

  // Arm every shard with its exact cut, then collect in shard order.  The
  // shards quiesce at the cut only as long as it takes the router to copy
  // their blob out -- each resumes as soon as its target clears.
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& s = *shards_[i];
    s.checkpoint_target.store(pushed_per_shard_[i], std::memory_order_release);
  }
  std::exception_ptr failure;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& s = *shards_[i];
    BackoffWaiter waiter;
    while (!s.checkpoint_ready.load(std::memory_order_acquire)) {
      if (s.failed.load(std::memory_order_acquire)) {
        failure = s.error;
        break;
      }
      waiter.wait();
    }
    if (failure != nullptr) break;
    w.u64(pushed_per_shard_[i]);
    w.u64(s.checkpoint_blob.size());
    w.bytes(s.checkpoint_blob.data(), s.checkpoint_blob.size());
    s.release_cut();
  }
  if (failure != nullptr) {
    // A shard died mid-checkpoint: release every cut (dead shards ignore
    // them, live ones resume) and surface the shard's error now.
    for (auto& s : shards_) s->release_cut();
    state_ = EngineState::kFailed;
    std::rethrow_exception(failure);
  }

  try {
    snaps_->write(pushed_, w.buffer());
  } catch (const Error& e) {
    // The store publishes atomically (tmp -> fsync -> rename), so a failed
    // write leaves the previous snapshot intact and nothing corrupt on
    // disk.  The engine stays kRunning: the log still covers everything,
    // only this checkpoint is lost.
    ++wal_errors_;
    last_error_ = std::string("snapshot write failed: ") + e.what();
    throw;
  }
  events_since_snapshot_ = 0;
  // Everything strictly below the new cut is superseded: older snapshots
  // and log segments wholly before it can never be read again.
  snaps_->prune_below(pushed_);
  log_->prune_segments_below(pushed_);
}

RecoveryReport StreamEngine::recover_and_start() {
  ESPICE_REQUIRE(config_.durability.has_value(),
                 "recover_and_start() needs durability configured");
  ESPICE_REQUIRE(!started_ && !finished_ && pushed_ == 0,
                 "recover_and_start() must be the first action on a fresh "
                 "engine");
  RecoveryReport rep;

  // Opening the writer IS the log recovery: it validates every segment,
  // truncates the torn tail and positions appends after the last valid
  // record.  Everything it found wrong is part of the recovery report.
  open_durability();
  rep.damage = log_->open_result().damage;
  rep.durable_events = log_->next_index();

  auto loaded = snaps_->load_latest(&rep.damage);
  if (loaded.has_value() && loaded->log_offset > rep.durable_events) {
    // Can only happen under external tampering (the checkpoint protocol
    // syncs the log before publishing): don't trust the snapshot.
    rep.damage.push_back(
        "snapshot at offset " + std::to_string(loaded->log_offset) +
        " lies beyond the durable log end " +
        std::to_string(rep.durable_events) + "; ignoring it");
    loaded.reset();
  }
  if (loaded.has_value()) {
    durability::SnapshotReader r(loaded->payload);
    const std::uint64_t k = r.u64();
    const std::uint64_t nq = r.u64();
    const std::uint64_t offset = r.u64();
    const std::uint64_t snap_punct = r.u64();
    const std::uint64_t snap_since_hb = r.u64();
    const bool snap_max_valid = r.boolean();
    const std::uint64_t snap_max_seq = r.u64();
    ESPICE_CHECK(k == config_.shards, ErrorCode::kCorruptSnapshot,
                 "snapshot was cut with " + std::to_string(k) +
                     " shards, engine is configured with " +
                     std::to_string(config_.shards));
    ESPICE_CHECK(nq == config_.queries.size(),
                 ErrorCode::kCorruptSnapshot,
                 "snapshot was cut with a different query count");
    ESPICE_CHECK(offset == loaded->log_offset, ErrorCode::kCorruptSnapshot,
                 "snapshot payload offset disagrees with its header");
    pushed_per_shard_.assign(static_cast<std::size_t>(k), 0);
    recovery_blobs_.resize(static_cast<std::size_t>(k));
    for (std::size_t i = 0; i < k; ++i) {
      pushed_per_shard_[i] = r.u64();
      const std::size_t blob_len = r.size();
      recovery_blobs_[i].resize(blob_len);
      if (blob_len > 0) r.bytes(recovery_blobs_[i].data(), blob_len);
    }
    r.expect_done();
    pushed_ = offset;
    punct_pushed_ = snap_punct;
    data_since_hb_ = snap_since_hb;
    router_max_valid_ = snap_max_valid;
    router_max_seq_ = snap_max_seq;
    rep.snapshot_offset = offset;
  }

  start();  // shard threads restore from recovery_blobs_ as they spin up

  if (rep.durable_events > pushed_) {
    // Replay the log tail through the normal ingestion path (appends
    // suppressed: these events are already in the log).  Routing is
    // deterministic, so every event lands on the same shard as in the
    // original run and pushed_per_shard_ advances consistently.
    durability::EventLogReader reader(config_.durability->dir + "/log");
    replaying_ = true;
    try {
      if (config_.producers > 0) {
        // Multi-producer recovery: checkpoints don't exist in this mode
        // (checkpoint() refuses), so the tail is the WHOLE log.  Batches
        // were appended in sequencer order, which interleaves producers
        // arbitrarily -- sort the tail by seq (unique by contract) and
        // replay it as one producer.  Equivalent to the original run
        // because the per-shard merge orders by seq either way.
        std::vector<Event> tail;
        reader.replay(0, [&tail](std::span<const Event> events,
                                 std::uint64_t) {
          tail.insert(tail.end(), events.begin(), events.end());
        });
        std::sort(tail.begin(), tail.end(),
                  [](const Event& a, const Event& b) { return a.seq < b.seq; });
        // Replay flows through producer 0's lanes only; the others' floors
        // would stay 0 and stall every shard merge (a floor-0 lane might
        // still deliver a smaller seq), wedging replay once a lane fills.
        // No producer thread exists yet -- recovery is the first action on
        // a fresh engine -- and live pushes must continue above the durable
        // log, so promising seq > tail max on every other lane is sound.
        if (!tail.empty()) {
          for (auto& shard : shards_) {
            for (std::size_t p = 1; p < config_.producers; ++p) {
              shard->lanes->set_floor(p, tail.back().seq + 1);
            }
          }
        }
        for (std::size_t off = 0; off < tail.size(); off += kShardBlock) {
          const std::size_t n = std::min(kShardBlock, tail.size() - off);
          push_batch_concurrent(
              0, std::span<const Event>(tail.data() + off, n));
        }
      } else {
        reader.replay(pushed_,
                      [this](std::span<const Event> events, std::uint64_t) {
                        push_batch(events);
                      });
      }
    } catch (...) {
      replaying_ = false;
      throw;
    }
    replaying_ = false;
  }
  rep.replayed_events = pushed() - rep.snapshot_offset;
  // Replay suppresses heartbeat synthesis (the originals are in the log and
  // replay through the normal path).  If the original run crashed between
  // crossing the cadence threshold and logging the heartbeat, emit it now so
  // live ingestion resumes with the same pending state as an unkilled run.
  maybe_heartbeat();
  return rep;
}

std::vector<ComplexEvent> StreamEngine::merge_matches(
    std::vector<std::vector<ComplexEvent>> per_shard) {
  return canonical_merge(
      per_shard.size(), [&](std::size_t s) -> auto& { return per_shard[s]; },
      [](const ComplexEvent& ce) {
        std::uint64_t completion = 0;
        for (const auto& c : ce.constituents) {
          completion = std::max(completion, c.event.seq);
        }
        return completion;
      });
}

EngineReport StreamEngine::finish() {
  // abort() marks the engine finished too; distinguish it so the caller is
  // told the engine was torn down, not that they double-finished.
  if (aborted_) {
    throw Error(ErrorCode::kEngineFailed,
                last_error_.empty()
                    ? "finish() on an aborted engine"
                    : "finish() on an aborted engine: " + last_error_);
  }
  ESPICE_REQUIRE(!finished_, "finish() called twice");
  if (!started_) start();  // empty run: still produce a (zero) report
  finished_ = true;
  // Join FIRST: everything below may throw, and throwing while shard
  // threads still run would leave them orphaned (the old order synced the
  // log before closing the rings, so a sync failure hung the shutdown).
  teardown();
  const double wall = seconds_since(start_);
  for (auto& s : shards_) {
    if (s->error) {
      state_ = EngineState::kFailed;
      if (last_error_.empty()) {
        last_error_ = "shard " + std::to_string(s->stats.shard) +
                      " died with an exception";
      }
      std::rethrow_exception(s->error);  // the original, not a wrapper
    }
  }
  if (state_ == EngineState::kFailed) {
    // An earlier WAL fail-stop already poisoned the engine; there is no
    // coherent report to build.
    throw Error(ErrorCode::kEngineFailed,
                "finish() on a failed engine: " + last_error_);
  }
  // End of stream: whatever was appended under a lazy fsync policy becomes
  // durable now, so a clean shutdown never loses suffix events.  Safe to
  // throw here -- the threads are already joined.  Degraded, the run's
  // output is still complete and correct (only the tail's durability is
  // lost): it finishes normally with the report flagged.
  if (log_ != nullptr && !wal_degraded_) {
    try {
      log_->sync();
    } catch (const Error& e) {
      on_wal_fault("end-of-stream WAL sync", e.what(),
                   [this] { log_->sync(); });
    }
  }

  EngineReport report;
  report.health = health();
  // pushed() counts everything that crossed the router or the sequencer,
  // punctuations included (the durable-log offset contract); the report's
  // event count is data events only.
  report.events = pushed() - punct_pushed_;
  report.punctuations = punct_pushed_;
  report.wall_seconds = wall;
  report.events_per_sec =
      wall > 0.0 ? static_cast<double>(report.events) / wall : 0.0;
  const std::size_t nq = config_.queries.size();

  // The merge unit is the PARTITION, not the shard: a partition's pipeline
  // (with all its outputs) may have migrated, but it ends the run resident
  // on exactly one shard, which handed its outputs to part_out_.  Merging
  // per partition makes the output independent of the move schedule (and
  // bit-identical to a serial run with one "shard" per partition; without
  // rebalancing, partition s is shard s).
  std::vector<MergeUnit>& units = part_out_;

  // Canonical per-query merge: each query's matches across merge units,
  // ordered by (completing event seq, unit, in-unit index).
  report.queries.resize(nq);
  for (std::size_t qi = 0; qi < nq; ++qi) {
    QueryReport& qr = report.queries[qi];
    qr.name = config_.queries[qi].name;
    std::vector<std::vector<ComplexEvent>> per_unit;
    per_unit.reserve(units.size());
    for (MergeUnit& u : units) {
      const DetPipeline::QueryOutcome& o = u.query_counters[qi];
      qr.memberships += o.memberships;
      qr.memberships_kept += o.memberships_kept;
      qr.shed_decisions += o.shed_decisions;
      qr.shed_drops += o.shed_drops;
      per_unit.push_back(std::move(u.query_matches[qi]));
    }
    qr.matches = merge_matches(std::move(per_unit));
    // Canonical revision order: (late event seq, unit, in-unit index) --
    // shard- and thread-schedule-independent, like the match merge.
    qr.revisions = canonical_merge(
        units.size(),
        [&](std::size_t u) -> auto& { return units[u].query_revisions[qi]; },
        [](const RevisionRecord& r) { return r.late_seq; });
  }
  report.rebalance_moves = rebalance_moves_;
  for (auto& s : shards_) {
    report.router_backpressure_waits += s->stats.router_backpressure_waits;
    report.router_stall_seconds += s->stats.router_stall_seconds;
    // punctuations stays the router broadcast count (set above); the
    // per-shard consumption counts live in report.shards.
    report.late_events += s->stats.late_events;
    report.late_dropped += s->stats.late_dropped;
    report.late_side_output += s->stats.late_side_output;
    report.revisions += s->stats.revisions;
    report.latency.merge(s->stats.latency);
    report.shards.push_back(s->stats);
  }
  // Engine low watermark: the slowest shard's progress.  Valid only once
  // every shard has one (a shard that never saw disorder_bound+1 events has
  // no watermark yet, so the engine can't bound completeness).
  if (config_.event_time.has_value() && !shards_.empty()) {
    report.low_watermark_valid = true;
    report.low_watermark_seq = std::numeric_limits<std::uint64_t>::max();
    for (auto& s : shards_) {
      if (!s->stats.watermark_valid) {
        report.low_watermark_valid = false;
        break;
      }
      report.low_watermark_seq =
          std::min(report.low_watermark_seq, s->stats.watermark_seq);
    }
    if (!report.low_watermark_valid) report.low_watermark_seq = 0;
  }
  // Side outputs merged canonically by (late event seq, unit, index).
  report.side_outputs = canonical_merge(
      units.size(),
      [&](std::size_t u) -> auto& { return units[u].side_outputs; },
      [](const SideOutputRecord& so) { return so.event.seq; });

  // Engine-level canonical order: (completion seq, query, shard, index).
  // Each per-query merged list is already (completion, shard, index)-sorted,
  // so merging the lists in query order yields exactly that.
  if (nq == 1) {
    report.matches = report.queries.front().matches;
  } else {
    std::vector<std::vector<ComplexEvent>> per_query;
    per_query.reserve(nq);
    for (const auto& qr : report.queries) per_query.push_back(qr.matches);
    report.matches = merge_matches(std::move(per_query));
  }
  return report;
}

std::size_t StreamEngine::queue_depth(std::size_t shard) const {
  ESPICE_REQUIRE(shard < shards_.size(), "shard index out of range");
  if (shards_[shard]->lanes != nullptr) return shards_[shard]->lanes->size();
  return shards_[shard]->ring.size();
}

std::uint64_t EngineReport::total_windows_closed() const {
  std::uint64_t n = 0;
  for (const auto& s : shards) n += s.windows_closed;
  return n;
}

std::uint64_t EngineReport::total_shed_drops() const {
  std::uint64_t n = 0;
  for (const auto& s : shards) n += s.shed_drops;
  return n;
}

}  // namespace espice
