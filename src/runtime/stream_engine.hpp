// Sharded multi-threaded stream engine.
//
// The paper's operator is single-threaded; this subsystem scales it out the
// way partitioned middlebox pipelines do: a router key-partitions the input
// stream across K shards, each shard owns one complete operator pipeline and
// is fed through a bounded SPSC ring buffer, and a merge stage collects the
// shards' complex events and statistics into one ordered output.
//
//   push_batch --router--> [SpscRing 0] --> shard 0 (windows+matcher+shedder)
//                          [SpscRing 1] --> shard 1        ...
//                          [SpscRing K-1] --> shard K-1
//   finish() ------------> join shards --> canonical merge --> EngineReport
//
// Partitioning semantics: each shard runs an *independent* operator over its
// substream -- windows are formed per shard, exactly as if the substream
// were a stream of its own.  The golden for a K-shard run is therefore the
// union of K serial single-thread runs over the partitioned substreams
// (tests/runtime/stream_engine_oracle_test.cpp holds the engine to that).
//
// Determinism: the engine has a strictly deterministic mode.  Three
// ingredients make the concurrent run bit-comparable to the serial golden:
//  1. a fixed partition hash (SplitMix64 of the key; no pointer/thread-id
//     dependence),
//  2. per-shard FIFO: one SPSC ring per shard preserves stream order within
//     a shard, and a shard is single-threaded inside,
//  3. a canonical merge order: matches are ordered by (completing event
//     seq, shard, in-shard detection index), which no thread interleaving
//     can perturb.
// In deterministic mode any shedding must come from a deterministic Shedder
// (e.g. a seq-hash policy).  Adaptive mode runs the same shard loop and
// pipeline, with one AdaptiveController per partition steering the
// pipeline's eSPICE shedders (core/adaptive_controller.hpp): after each
// drained block the shard feeds it the block's busy time as per-event cost
// and ticks its overload detector with the shard's *ring depth* as the
// queue-size (backpressure) signal -- adaptive results depend on the wall
// clock and are not bit-stable.
//
// Threading contract: push_batch() (and push(), which is push_batch() of
// one event) and finish() must be called from one thread (the router); each
// shard's pipeline runs on its own thread;
// the report is only handed out after every shard thread joined, so no
// synchronization beyond the rings is needed.
//
// Batched data path: push_batch() key-partitions a whole batch into
// per-shard staging buffers and flushes each with one bulk ring enqueue per
// block; shard threads symmetrically drain their ring in zero-copy blocks
// (front_block()/release()) and run a block-wise pipeline loop -- the all-keep
// window path batches through WindowManager::offer_keep_all_block (window-
// boundary checks hoisted out of the inner loop, bulk store appends), and
// shedding groups score each event's membership block through
// Shedder::score_block into keep bitmaps instead of one virtual call per
// membership.  Type pruning skips even that for events the shedder knows
// every window drops (Shedder::drops_everywhere: for eSPICE, an armed,
// exploration-free model whose UT row for the event's type cannot reach
// the smallest partition threshold, so no decision draws from the RNG).  A
// single-query group then only advances its windows
// (WindowManager::offer_dropped: no membership list, no scoring).  A
// diverging group offers each maximal run of events that EVERY shedding
// member drops everywhere in one masked
// WindowManager::offer_keep_all_block call, kept for the members without
// a shedder (or, when every member sheds, only advances its windows
// through offer_dropped), and zeroes the keep words of the members that
// drop an event everywhere when others still score it.  Every one of these
// counts the decisions in bulk (Shedder::count_dropped).  The block path
// is output-bit-identical to per-event execution
// (tests/runtime/batch_ingest_oracle_test.cpp enforces it, and
// tests/runtime/pipeline_block_oracle_test.cpp for arbitrary block cuts),
// so batch boundaries never change output.
//
// Front door: push_batch() is the one ingestion path of the single router
// (push() is a batch of one).  It refuses a batch holding a reserved
// control record -- a partition-control record always, a watermark when
// event time is off -- before the batch is logged or routed.
//
// Multi-query execution: the engine runs the N queries of
// StreamEngineConfig::queries (add_query() appends to it before the first
// push); shard threads spawn lazily on the first push (or an explicit
// start()).  Queries with identical windowing (same_windowing()) share one
// WindowManager/EventStore per shard -- events are routed, buffered and
// positioned once, and each query keeps its own subset of every window via
// per-query keep masks (an event every query sheds is physically dropped).
// At close, each shedding query of a diverging group matches its masked
// subset (filter_view_for_query); a query without a shedder has its bit on
// every kept entry, so it matches the whole window unfiltered.
// Per-query shedders make the drop decisions, so one query shedding its
// low-utility events never starves another query that values them.  The
// per-query output is bit-identical to running that query alone in a
// single-query engine over the same stream (the shared-window equivalence
// guarantee; tests/runtime/multi_query_oracle_test.cpp enforces it against
// N independent serial run_pipeline() goldens).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cep/event_time.hpp"
#include "cep/matcher.hpp"
#include "cep/pattern.hpp"
#include "cep/window.hpp"
#include "core/adaptive_controller.hpp"
#include "core/shedder.hpp"
#include "durability/event_log.hpp"
#include "durability/snapshot.hpp"
#include "metrics/histogram.hpp"

namespace espice {

class DetPipeline;

/// The query one shard executes in deterministic mode (mirrors QueryDef
/// without depending on the harness layer).
struct ShardQuery {
  Pattern pattern;
  WindowSpec window;
  SelectionPolicy selection = SelectionPolicy::kFirst;
  ConsumptionPolicy consumption = ConsumptionPolicy::kConsumed;
  std::size_t max_matches_per_window = 1;
};

/// The query of an adaptive operator config.
ShardQuery adaptive_query(const EspiceOperatorConfig& config);

/// One query of a deterministic engine run (StreamEngineConfig::queries):
/// the query itself plus its shedding policy.
struct EngineQuery {
  /// Report label; empty = "q<index>".
  std::string name;
  ShardQuery query;
  /// Shedder factory for THIS query; nullptr = keep everything.  Runs on
  /// the router thread at start(), once per logical partition (the
  /// argument; the shard index without rebalancing); each shedder is then
  /// owned and driven by the thread hosting its partition only.  Must be
  /// deterministic (seq/position hash) for the engine's determinism
  /// guarantee to hold.
  std::function<std::unique_ptr<Shedder>(std::size_t shard)> shedder_factory;
  /// Window size handed to this query's shedder for position scaling; 0 =
  /// derive from its count-window span (required explicit for
  /// time/predicate windows when a shedder is present, as in
  /// run_pipeline()).
  double predicted_ws = 0.0;

  /// Throws ConfigError on an invalid pattern or window, or on a shedding
  /// query over a non-count window without predicted_ws; `index` labels
  /// the error.  StreamEngineConfig::validate() and simulate() share it.
  void validate(std::size_t index = 0) const;
};

/// What the engine does when a write-ahead-log append or sync fails at
/// runtime (ENOSPC, EIO, a failed fsync) -- the non-fatal-fault analogue of
/// the crash-kill story.  Whatever the policy, the durable prefix on disk
/// always ends at a valid record and recover_and_start() from it is
/// bit-identical (the chaos oracle in tests/chaos/ proves this under
/// randomized injected fault schedules).
enum class WalErrorPolicy : std::uint8_t {
  /// Fail fast: the engine moves to EngineState::kFailed and the failing
  /// push/checkpoint throws espice::Error; later calls throw typed
  /// errors instead of touching the pipeline.  Use abort() to tear down,
  /// then recover_and_start() on a fresh engine once the disk is back.
  kFailStop,
  /// Seal the durable prefix at the last valid offset and keep running
  /// memory-only (EngineState::kDegraded): ingestion and output continue
  /// bit-identically, checkpoint() refuses (it could no longer be made
  /// durable), and EngineReport::health flags the degradation.
  kDegradeToMemory,
  /// Retry the failed operation with bounded exponential backoff
  /// (wal_retry_max attempts starting at wal_retry_backoff_us) -- rides
  /// out transient faults; exhausted retries fall through to kFailStop.
  kRetryBackoff,
};

inline const char* wal_error_policy_name(WalErrorPolicy p) {
  switch (p) {
    case WalErrorPolicy::kFailStop: return "fail-stop";
    case WalErrorPolicy::kDegradeToMemory: return "degrade-to-memory";
    case WalErrorPolicy::kRetryBackoff: return "retry-backoff";
  }
  return "unknown";
}

/// Durability knobs of one engine run (deterministic mode only: the
/// recovery guarantee -- restored snapshot + log-tail replay is
/// bit-identical to the uninterrupted run -- rests on the pipeline being a
/// pure function of the stream, which adaptive mode's wall-clock coupling
/// breaks).  When set, every pushed batch is appended to a write-ahead
/// event log under `dir` before it is partitioned, and checkpoint()
/// publishes consistent snapshots keyed by log offset.
struct DurabilityConfig {
  /// Root directory; the engine keeps the log in `<dir>/log` and the
  /// snapshots in `<dir>/snapshots`.
  std::string dir;
  durability::FsyncPolicy fsync = durability::FsyncPolicy::kNone;
  /// For FsyncPolicy::kInterval: fsync every this many appended records.
  std::uint64_t fsync_interval_records = 64;
  /// Log segment size (a segment seals and a new file opens at this size).
  std::size_t segment_bytes = 4u << 20;
  /// Auto-checkpoint every this many ingested events (0 = only explicit
  /// checkpoint() calls).
  std::uint64_t snapshot_every_events = 0;
  /// Runtime WAL fault handling (see WalErrorPolicy).
  WalErrorPolicy on_wal_error = WalErrorPolicy::kFailStop;
  /// kRetryBackoff: attempts before falling through to fail-stop.
  std::uint64_t wal_retry_max = 8;
  /// kRetryBackoff: first retry delay; doubles per attempt (capped at
  /// 100ms).  Keep small in tests -- retries run on the router thread.
  std::uint64_t wal_retry_backoff_us = 100;
};

/// Failure state machine of a running engine.  kRunning -> kDegraded on a
/// WAL fault under WalErrorPolicy::kDegradeToMemory (still serving,
/// memory-only); kRunning/kDegraded -> kFailed on a shard-thread death or a
/// fail-stop WAL fault (terminal: push/push_batch/checkpoint/finish throw
/// typed espice::Error; abort() tears down idempotently).
enum class EngineState : std::uint8_t { kRunning, kDegraded, kFailed };

inline const char* engine_state_name(EngineState s) {
  switch (s) {
    case EngineState::kRunning: return "running";
    case EngineState::kDegraded: return "degraded";
    case EngineState::kFailed: return "failed";
  }
  return "unknown";
}

/// Liveness/health of one shard pipeline (EngineHealth::shards).
struct ShardHealth {
  std::size_t shard = 0;
  /// The shard thread died with an exception (captured in `error`).
  bool failed = false;
  /// Ring items the pipeline had consumed when last observed -- after a
  /// failure, where the shard died; on success, its total intake.
  std::uint64_t last_progress = 0;
  std::string error;  ///< empty while healthy
};

/// Health section of EngineReport (also queryable mid-run / post-failure
/// via StreamEngine::health(); router thread only).
struct EngineHealth {
  EngineState state = EngineState::kRunning;
  /// Durability-layer I/O errors absorbed so far (WAL append/sync retries
  /// and degradations, failed snapshot publishes).
  std::uint64_t wal_errors = 0;
  /// kDegradeToMemory fired: the WAL is sealed and the engine runs
  /// memory-only.
  bool wal_degraded = false;
  /// Where the sealed durable prefix ends when wal_degraded.  Sealed at
  /// degrade time by a best-effort final fsync; if that sync also fails the
  /// offset falls back to the last successfully fsynced prefix, so the
  /// value never promises more than survives a power loss.
  /// recover_and_start() replays at least this many events once faults
  /// clear (appended-but-unsynced records past it also survive when the
  /// machine did not lose power).
  std::uint64_t degraded_at_offset = 0;
  std::string last_error;  ///< most recent failure detail; empty = none
  std::vector<ShardHealth> shards;
};

/// Dynamic hot-partition rebalancing (deterministic single-producer mode
/// only).  The key space is hashed onto `partitions` LOGICAL partitions
/// (>= shards); each partition runs its own complete pipeline (windows are
/// per partition), and the router maintains a partition->shard placement it
/// re-decides every `interval_events` routed events from the per-partition
/// routing counts.  A migration moves the partition's WHOLE pipeline object
/// between shard threads through in-band control markers, so output stays
/// bit-identical to the serial per-partition golden under ANY move schedule
/// -- rebalancing changes WHERE a partition runs, never WHAT it computes.
struct RebalanceConfig {
  /// Logical partitions L (the migration granularity).  More partitions =
  /// finer load balancing; a single hot KEY still cannot be split below one
  /// partition (its share of the stream is the skew floor).
  std::size_t partitions = 0;
  /// Routed events between placement decisions.
  std::uint64_t interval_events = 8192;
  /// Only move when the hottest shard's window load exceeds this factor
  /// times the mean (hysteresis against churn).
  double hot_factor = 1.25;
  /// Migration budget per decision.
  std::size_t max_moves_per_interval = 4;
};

struct StreamEngineConfig {
  /// Number of shards (and shard threads).  1 is valid and useful: it is the
  /// serial pipeline behind one ring, the baseline every speedup is against.
  std::size_t shards = 1;
  /// Multi-producer ingestion: when > 0, `producers` threads may call
  /// push_batch_concurrent() concurrently and the classic single-router
  /// entries (push()/push_batch()) are disabled.  Each shard is fed through
  /// P producer-private SPSC lanes merged deterministically on sequence
  /// numbers (see SpscLaneSet), so output is bit-identical to the serial
  /// golden regardless of producer interleaving.  The shards run the same
  /// deterministic runner as with one router; only the block source
  /// differs.  Deterministic mode only; excludes adaptive / event-time /
  /// rebalance / latency sampling (marks are router-owned counters), and
  /// durability is limited to WAL + recovery (no mid-stream checkpoints:
  /// the set of events "pushed so far" is not a seq-prefix under concurrent
  /// producers, so no consistent cut exists until the stream ends).
  std::size_t producers = 0;
  /// Dynamic hot-partition rebalancing (see RebalanceConfig).  Without it
  /// the engine is the L = K special case: shard s hosts exactly partition
  /// s and placement never changes.  Deterministic single-producer mode
  /// only; excludes adaptive / event-time (reorder state does not migrate)
  /// / durability (checkpoint cuts assume a fixed placement).  Composes
  /// with latency sampling.
  std::optional<RebalanceConfig> rebalance;
  /// Per-shard ring capacity (rounded up to a power of two).  A full ring
  /// back-pressures the router (bounded yield->sleep backoff, see
  /// runtime/backoff.hpp), which bounds engine memory.
  std::size_t ring_capacity = 4096;
  /// Partition key; nullptr = the event's type.  Events with equal keys land
  /// on the same shard in stream order.
  std::function<std::uint64_t(const Event&)> key_of;

  // --- deterministic mode (used when `adaptive` is empty) ------------------
  /// The queries the engine runs, in registration order: a query's index is
  /// its bit in the keep masks and its slot in EngineReport::queries.
  /// add_query() appends here.  Deterministic mode needs at least one by
  /// start() (at most kMaxQueriesPerWindowManager); adaptive mode needs it
  /// empty.
  std::vector<EngineQuery> queries;

  // --- adaptive mode -------------------------------------------------------
  /// When set, the engine runs this config's query, and every partition
  /// gets its own AdaptiveController built from it (sizing -> training ->
  /// shedding lifecycle, drift retraining).  The detector ticks per drained
  /// block: each block's busy time feeds its per-event cost and arrivals,
  /// and once `detector.tick_period` wall seconds passed since the last
  /// tick, the shard's ring depth is the queue size.  Requires `queries`
  /// empty (so no add_query()); excludes multi-producer ingestion,
  /// rebalancing, durability and event time.
  std::optional<EspiceOperatorConfig> adaptive;

  // --- durability ----------------------------------------------------------
  /// When set, the engine write-ahead-logs every ingested event and supports
  /// checkpoint() / recover_and_start().  Deterministic mode only.
  std::optional<DurabilityConfig> durability;

  // --- latency sampling ----------------------------------------------------
  /// Sample every Nth ring enqueue per shard for end-to-end latency
  /// (steady-clock at enqueue -> the shard released the block containing
  /// it), recorded into ShardStats::latency / EngineReport::latency.
  /// 0 (default) disables sampling entirely: the data hot path is
  /// untouched.  Sampling piggybacks on a tiny side ring per shard and
  /// degrades gracefully (a mark is dropped, never blocked on) when the
  /// shard lags more than the side ring's capacity worth of samples.
  /// Composes with rebalancing (migration markers count as non-data
  /// enqueues, like punctuations); excluded in multi-producer mode.
  std::size_t latency_sample_every = 0;

  // --- event time ----------------------------------------------------------
  /// When set, the engine accepts out-of-order input: each shard runs a
  /// bounded reorder stage (cep/event_time.hpp) ahead of window routing,
  /// watermarks (progress, punctuation, router heartbeat) drive release
  /// and time-window close, and beyond-bound arrivals take the configured
  /// late policy.  Deterministic mode only.  Contract: input shuffled
  /// within `event_time->disorder_bound` of an in-order stream produces
  /// output bit-identical to pushing that stream in order.
  std::optional<EventTimeConfig> event_time;

  void validate() const;
};

/// Per-shard outcome counters, collected by the merge stage.
struct ShardStats {
  std::size_t shard = 0;
  std::uint64_t events = 0;
  std::uint64_t memberships = 0;
  std::uint64_t memberships_kept = 0;
  std::uint64_t windows_closed = 0;
  std::uint64_t matches = 0;
  std::uint64_t shed_decisions = 0;
  std::uint64_t shed_drops = 0;
  /// Peak ring occupancy observed by the shard (sampled; backpressure gauge).
  std::size_t peak_queue_depth = 0;
  /// How often the router found this shard's ring full and had to wait.
  std::uint64_t router_backpressure_waits = 0;
  /// Wall seconds the router spent stalled on this shard's full ring.
  double router_stall_seconds = 0.0;
  // Occupancy metering (all engine modes).  Ring depth is sampled once per
  // drained block; busy_seconds is the wall time the shard thread spent
  // PROCESSING blocks (excluding idle waits), so busy_seconds / report wall
  // is the shard's busy fraction -- the signal that makes skew visible.
  std::uint64_t depth_samples = 0;
  std::uint64_t depth_sum = 0;
  double busy_seconds = 0.0;
  double mean_queue_depth() const {
    return depth_samples == 0
               ? 0.0
               : static_cast<double>(depth_sum) /
                     static_cast<double>(depth_samples);
  }
  // Rebalance mode only: partition pipelines this shard adopted / handed off.
  std::uint64_t rebalance_moves_in = 0;
  std::uint64_t rebalance_moves_out = 0;
  // Adaptive mode only:
  std::size_t retrains = 0;
  std::size_t detector_ticks = 0;
  bool shedding_ever_active = false;
  // Event-time mode only (zero otherwise):
  std::uint64_t punctuations = 0;  ///< watermarks consumed by the stage
  std::uint64_t late_events = 0;   ///< arrivals beyond the disorder bound
  std::uint64_t late_dropped = 0;  ///< late drops (incl. beyond-horizon)
  std::uint64_t late_side_output = 0;  ///< late events side-channeled
  std::uint64_t revisions = 0;     ///< retained-window re-finalizations
  bool watermark_valid = false;    ///< the shard's watermark ever advanced
  std::uint64_t watermark_seq = 0; ///< final per-shard watermark
  std::size_t reorder_peak_buffered = 0;  ///< reorder stage high-water mark
  /// Sampled end-to-end event latency, ns (enqueue -> block released), when
  /// StreamEngineConfig::latency_sample_every > 0; empty otherwise.
  LatencyHistogram latency;
};

/// Per-query outcome of one engine run.
struct QueryReport {
  std::string name;
  /// This query's complex events in canonical per-query merge order --
  /// bit-identical to a single-query engine (or the union of serial
  /// run_pipeline() runs over the partitioned substreams) for this query.
  std::vector<ComplexEvent> matches;
  std::uint64_t memberships = 0;       ///< offered pairs in its window group
  std::uint64_t memberships_kept = 0;  ///< pairs THIS query kept
  std::uint64_t shed_decisions = 0;
  std::uint64_t shed_drops = 0;
  /// Event-time kRevise only: this query's window re-emissions, in
  /// canonical merge order (late seq, shard, in-shard revision index).
  /// Each record carries the FULL re-finalized match set of the revised
  /// window; consumers diff it against the window's original matches.
  std::vector<RevisionRecord> revisions;
};

/// Aggregated result of one engine run (the SimResult analogue).
struct EngineReport {
  /// All shards' complex events in canonical merge order (multi-query runs:
  /// ordered by completion seq, then query, shard, in-shard index).
  std::vector<ComplexEvent> matches;
  /// Per registered query, in registration order (size 1 for single-query
  /// runs; queries[0].matches == matches then).
  std::vector<QueryReport> queries;
  std::vector<ShardStats> shards;
  std::uint64_t events = 0;
  double wall_seconds = 0.0;
  double events_per_sec = 0.0;
  /// Router backpressure totals across shards: how often a push found a
  /// ring full, and the wall seconds the router spent waiting (yield->sleep
  /// backoff; see runtime/backoff.hpp).
  std::uint64_t router_backpressure_waits = 0;
  double router_stall_seconds = 0.0;
  /// Rebalance mode: total partition migrations executed over the run.
  std::uint64_t rebalance_moves = 0;

  // --- event-time mode (zero / empty otherwise) ---------------------------
  /// Watermark punctuations the router broadcast (user + heartbeat).
  std::uint64_t punctuations = 0;
  std::uint64_t late_events = 0;
  std::uint64_t late_dropped = 0;
  std::uint64_t late_side_output = 0;
  std::uint64_t revisions = 0;
  /// Engine low watermark: the MIN of the per-shard watermarks (valid only
  /// once every shard's watermark advanced).  Everything at or below it is
  /// fully reflected in the output -- the cross-shard progress guarantee
  /// that keeps the canonical merge deterministic.
  bool low_watermark_valid = false;
  std::uint64_t low_watermark_seq = 0;
  /// LatePolicy::kSideOutput captures, in canonical order (event seq,
  /// shard, in-shard capture index).
  std::vector<SideOutputRecord> side_outputs;

  /// Sampled end-to-end event latency merged across shards, ns (enqueue ->
  /// block released); empty unless latency_sample_every was set.
  LatencyHistogram latency;

  /// Failure-state summary of the run: kRunning for a clean run, kDegraded
  /// when a WAL fault sealed the durable prefix mid-run (output is still
  /// complete and bit-identical; durability is not).  finish() never
  /// returns a kFailed report -- it throws instead.
  EngineHealth health;

  std::uint64_t total_matches() const { return matches.size(); }
  std::uint64_t total_windows_closed() const;
  std::uint64_t total_shed_drops() const;
};

/// Outcome of recover_and_start(): what the engine found on disk and how it
/// rebuilt itself.
struct RecoveryReport {
  /// Events in the log's validated durable prefix.  The engine resumes at
  /// exactly this stream offset; events past it never reached the disk
  /// before the crash and must be re-pushed by the source.
  std::uint64_t durable_events = 0;
  /// Log offset of the snapshot the engine restored from (0 when none was
  /// found and the whole durable prefix was replayed).
  std::uint64_t snapshot_offset = 0;
  /// Events replayed from the log tail (durable_events - snapshot_offset).
  std::uint64_t replayed_events = 0;
  /// Damage found -- and repaired -- along the way: torn log tails, corrupt
  /// segments or snapshots that were skipped.  Empty = clean recovery.
  std::vector<std::string> damage;
};

class StreamEngine {
 public:
  explicit StreamEngine(StreamEngineConfig config);
  /// Joins shard threads if finish() was never called (abandoned run).
  ~StreamEngine();

  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;

  /// Appends one query to config.queries (deterministic mode only).  Must
  /// be called before the first push().  Returns the query's index (its
  /// bit in the keep masks and its slot in EngineReport::queries).
  std::size_t add_query(EngineQuery q);

  /// Spawns the shard threads.  Idempotent; called implicitly by the first
  /// push() (and by finish() on an empty run).
  void start();

  /// Routes one event: push_batch() of a batch of one.
  void push(const Event& e) { push_batch(std::span<const Event>(&e, 1)); }

  /// Ingestion, in stream order: routes a whole batch, bit-identical in
  /// output to pushing it in any other split.  The batch is key-partitioned
  /// into per-shard staging buffers (one hash per event, no ring touch) and
  /// each staging buffer is flushed with ONE bulk ring enqueue per block --
  /// one acquire/release cursor pair instead of one per event.  A
  /// single-partition engine, and a batch of one event, skip staging and
  /// enqueue straight from the caller's span.  Blocks while a target ring
  /// stays full -- backpressure instead of unbounded queues.  Refuses,
  /// with ConfigError and before anything is logged or routed, a batch
  /// holding a partition-control record (kPartitionControlType, the
  /// engine's own migration marker) or, without event_time, a watermark
  /// (kWatermarkType).
  void push_batch(std::span<const Event> events);

  // --- multi-producer ingestion (config_.producers > 0) --------------------

  /// Routes a batch from producer thread `producer` (0 <= producer <
  /// config.producers).  Distinct producers may call concurrently; one
  /// producer's calls must be serial.  Requirements for the determinism
  /// guarantee: sequence numbers are unique across producers and strictly
  /// increasing within each producer's successive events.  Liveness: every
  /// producer must eventually push again or call producer_done() -- a shard
  /// cannot emit past an open lane's sequence floor (see SpscLaneSet).
  /// start() must have been called explicitly before the first concurrent
  /// push.  Blocks (bounded backoff) while every pending lane is full.
  void push_batch_concurrent(std::size_t producer,
                             std::span<const Event> events);

  /// Producer `producer` will push no more events: closes its lanes so the
  /// shards' merges can run ahead / terminate without it.  Idempotent;
  /// finish() closes any lane whose producer never called it (all producers
  /// must have RETURNED from their last push by then).
  void producer_done(std::size_t producer);

  // --- rebalancing (config_.rebalance set) ---------------------------------

  /// Logical partition `e` routes to (fixed hash over config.rebalance->
  /// partitions; usable before/after the run).
  std::size_t partition_of(const Event& e) const;

  /// Current shard hosting `partition` (router thread only).
  std::size_t shard_of_partition(std::size_t partition) const;

  /// Forces a migration of `partition` onto `to_shard` (router thread only;
  /// the test hook behind the automatic rebalancer).  The move is exact: an
  /// export marker is queued behind everything already routed to the old
  /// shard, placement flips, and an import marker precedes everything routed
  /// to the new shard afterwards, so the partition's pipeline sees its
  /// substream gap-free and in order.  No-op when already placed there.
  void move_partition(std::size_t partition, std::size_t to_shard);

  /// Injects a punctuation watermark (event_time must be configured):
  /// asserts no event with seq <= `seq` is still in flight.  Broadcast to
  /// every shard in arrival order; raises the reorder stages' watermarks
  /// (releasing buffered events) and, with `ts`, closes time windows whose
  /// span ended at or before event-time `ts`.  Equivalent to pushing
  /// make_watermark(...) through push()/push_batch().
  void push_watermark(std::uint64_t seq) { push(make_watermark(seq)); }
  void push_watermark(std::uint64_t seq, double ts) {
    push(make_watermark(seq, ts, /*ts_valid=*/true));
  }

  /// End of stream: closes every ring, waits for the shards to drain and
  /// flush their open windows, joins the threads and merges the outputs.
  /// Terminal -- the engine cannot be reused afterwards.  Hang-free under
  /// failure: shard threads are always joined first, then a shard death or
  /// fail-stop WAL state surfaces as a thrown error (shard deaths rethrow
  /// the shard's original exception; engine-level failures throw typed
  /// espice::Error).  A kDegraded engine finishes normally with the
  /// degradation flagged in EngineReport::health.
  EngineReport finish();

  /// Tears the engine down without a report: releases any armed checkpoint
  /// cut, closes every ring, joins the shard threads.  Idempotent, never
  /// throws, safe in any state -- THE cleanup path after push/checkpoint
  /// threw.  The engine is terminal afterwards (like finish()).
  void abort() noexcept;

  /// Failure state (router thread only; see EngineState).
  EngineState state() const { return state_; }

  /// Snapshot of the engine's health: state, durability error counters,
  /// per-shard liveness/progress.  Router thread only; also valid after a
  /// failure (unlike finish(), which throws then).
  EngineHealth health() const;

  // --- durability (config_.durability must be set) -------------------------

  /// Synchronously checkpoints the whole engine at the current ingestion
  /// offset: makes the log durable up to it, cuts every shard's pipeline at
  /// exactly the events it was fed so far (shards drain up to the cut,
  /// serialize, and hold until collected), and atomically publishes one
  /// snapshot keyed by the offset.  Superseded snapshots and log segments
  /// wholly below the new offset are pruned.  Router thread only.
  void checkpoint();

  /// Rebuilds the engine from `durability->dir` and starts it: opens the
  /// log (truncating any torn tail), loads the newest valid snapshot,
  /// restores every shard's pipeline from it and replays the log tail --
  /// after which the engine is bit-identical to an uninterrupted run over
  /// the durable prefix and accepts further push()/checkpoint()/finish()
  /// calls.  Must be called instead of start()/first-push on a freshly
  /// constructed engine with the same config as the crashed run, queries
  /// included (whether set in config.queries or through add_query()).
  RecoveryReport recover_and_start();

  /// Events ingested so far (== the durable log offset outside replay).
  std::uint64_t pushed() const {
    return pushed_ + mp_pushed_.load(std::memory_order_relaxed);
  }

  /// Data events pushed, excluding watermark punctuations: the resume
  /// offset into a data-only source stream after recovery.  Equals
  /// pushed() when event time is off.
  std::uint64_t data_pushed() const { return pushed() - punct_pushed_; }

  std::size_t shards() const { return config_.shards; }
  /// Which shard `e` routes to (fixed hash; usable before/after the run).
  std::size_t shard_of(const Event& e) const;
  /// The fixed partition hash: SplitMix64 finalizer of the key.
  static std::uint64_t partition_hash(std::uint64_t key);
  /// shard index for a key under `shards` partitions (what shard_of uses).
  static std::size_t shard_index(std::uint64_t key, std::size_t shards);

  /// Current ring depth of one shard (the external queue-depth signal).
  std::size_t queue_depth(std::size_t shard) const;

  /// The canonical merge: per-shard match lists (each in detection order) to
  /// one ordered list, sorted by (completing constituent seq, shard,
  /// in-shard index).  Public so oracle tests can order their serial goldens
  /// identically.
  static std::vector<ComplexEvent> merge_matches(
      std::vector<std::vector<ComplexEvent>> per_shard);

  std::size_t query_count() const { return config_.queries.size(); }

 private:
  struct Shard;
  struct MergeUnit;
  /// One pending run of events bound for one shard's input.
  struct Run {
    Shard* shard;
    const Event* data;
    std::size_t n;
  };
  /// One producer's routing scratch (producer 0 is the single router):
  /// per shard, the batch slice staged for it, and the runs enqueue()
  /// works down.  Reused across batches, so steady state allocates nothing.
  struct Staging {
    std::vector<std::vector<Event>> per_shard;
    std::vector<Run> runs;
  };

  /// The deterministic shard loop: one pipeline per resident logical
  /// partition (exactly partition s on shard s without rebalancing), fed
  /// from the ring or, with producers, the P-lane merge.
  void run_shard(Shard& shard);
  /// Adaptive mode, after each drained block that started at `t0` (engine
  /// seconds) and took `busy` seconds: runs a pending drift retrain, feeds
  /// the detector the block's arrivals and per-event cost, and ticks it
  /// with the ring depth once `next_tick` is due.
  void steer(AdaptiveController& ctl, Shard& shard, double t0, double busy,
             std::size_t n, double& next_tick);
  /// The one backpressure loop: pushes staging_[producer].runs into their
  /// shards' inputs round-robin, waiting (bounded yield->sleep) only when
  /// every pending input is full, and raising a typed error when a shard
  /// died.  `data` = false marks punctuation / migration-marker enqueues.
  void enqueue(std::size_t producer, bool data);
  /// Router thread: enqueue() of one run of `n` events to shard `shard`.
  void enqueue_to(std::size_t shard, const Event* data, std::size_t n,
                  bool is_data);
  /// The routing loop: stages every event for its partition's current host
  /// shard (and counts partition traffic while rebalancing).
  void stage(std::span<const Event> events, Staging& st);
  /// Enqueues everything staging_[producer] holds.
  void flush_staged(std::size_t producer);
  /// The fixed partition hash of an event's key.
  std::uint64_t key_hash(const Event& e) const;
  /// Rebalance decision: greedily moves the largest partitions off the
  /// most loaded shard while the imbalance exceeds hot_factor.  Pure
  /// function of the routing counts -> deterministic.
  void decide_moves();
  /// Opens the event log (recovering/truncating) and the snapshot store.
  void open_durability();
  /// Runs checkpoint() when snapshot_every_events is due.
  void maybe_auto_checkpoint();
  /// Partitions and flushes one punctuation-free run of data events;
  /// advances pushed_ and the event-time router trackers.
  void push_data_segment(std::span<const Event> events);
  /// Broadcasts a punctuation to every shard (arrival order preserved
  /// relative to surrounding data); advances pushed_ / punct_pushed_.
  void route_punctuation(const Event& p);
  /// Synthesizes a router heartbeat punctuation once `heartbeat_events`
  /// data events accumulated since the last watermark (event-time mode,
  /// never during replay -- logged heartbeats replay through the normal
  /// path instead).
  void maybe_heartbeat();
  /// Entry guard for push/push_batch/checkpoint: throws typed Error when
  /// the engine already failed or a shard thread has died.
  void ensure_accepting(const char* op);
  /// Records shard `s`'s death, moves the engine to kFailed, and throws
  /// Error{kShardFailed} carrying the shard's own error message.
  [[noreturn]] void fail_for_shard(Shard& s);
  /// WAL append; a failure takes on_wal_fault().
  void wal_append(std::span<const Event> events);
  /// The one WalErrorPolicy ladder, entered after WAL operation `op`
  /// failed with `detail`: kRetryBackoff re-runs `retry` with bounded
  /// exponential backoff and returns true once it succeeds;
  /// kDegradeToMemory seals the durable prefix, switches to memory-only
  /// ingestion and returns false; kFailStop, and exhausted retries, move
  /// the engine to kFailed and throw Error{kIo}.
  bool on_wal_fault(const char* op, std::string detail,
                    const std::function<void()>& retry);
  /// abort()/destructor body: release checkpoint cuts, close rings, join.
  void teardown() noexcept;

  /// The query list is final at start(); in adaptive mode start() adds
  /// the one query built from `adaptive`.
  StreamEngineConfig config_;
  /// Adaptive mode: per partition, the controller behind its shedders,
  /// driven by the hosting shard's thread only.  Declared before the
  /// shards so it outlives their pipelines.
  std::vector<std::unique_ptr<AdaptiveController>> controllers_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Per producer (producer 0 = the single router), its routing scratch.
  std::vector<Staging> staging_;

  // --- multi-producer state (unused when producers == 0) -------------------
  /// Serializes the WAL append + global ingest count across producers: the
  /// "producers stage, one sequencer owns the WAL offset" contract.
  std::mutex sequencer_mu_;
  /// Events ingested through push_batch_concurrent (atomic: producers add
  /// under sequencer_mu_, the router reads in pushed()).
  std::atomic<std::uint64_t> mp_pushed_{0};

  // --- placement (router thread; fixed without rebalancing) --------------
  std::vector<std::size_t> placement_;     ///< partition -> hosting shard
  std::vector<std::uint64_t> part_counts_; ///< rebalancing: routed, window
  std::uint64_t window_routed_ = 0;        ///< window progress
  std::uint64_t rebalance_moves_ = 0;
  /// Migration handoff: the exporter publishes the partition's pipeline
  /// here (release), the importer spins and adopts it (acquire).  One slot
  /// per partition; slot p is only live between p's export/import markers.
  std::unique_ptr<std::atomic<DetPipeline*>[]> mailbox_;
  /// Per-partition shedders, built on the router thread at start() and
  /// adopted by whichever shard constructs the partition's pipeline.
  std::vector<std::vector<std::unique_ptr<Shedder>>> part_shedders_;
  /// Per partition, its pipeline's outputs, written by the final host shard
  /// at end of stream and merged by finish() after the join.
  std::vector<MergeUnit> part_out_;

  std::uint64_t pushed_ = 0;
  bool started_ = false;
  bool finished_ = false;
  bool aborted_ = false;
  std::chrono::steady_clock::time_point start_;

  // --- failure state machine (router thread; see EngineState) --------------
  EngineState state_ = EngineState::kRunning;
  /// Cheap push-entry signal that some shard died (shards set it with
  /// release right after publishing their error; the router's relaxed read
  /// races benignly -- a miss is caught by the next push or the
  /// backpressure polls).
  std::atomic<bool> any_shard_failed_{false};
  std::uint64_t wal_errors_ = 0;
  bool wal_degraded_ = false;
  std::uint64_t degraded_at_offset_ = 0;
  std::string last_error_;

  // --- durability state (null / empty when durability is off) --------------
  std::unique_ptr<durability::EventLogWriter> log_;
  std::unique_ptr<durability::SnapshotStore> snaps_;
  /// Events routed to each shard so far -- the per-shard cut offsets a
  /// checkpoint arms the shards with.
  std::vector<std::uint64_t> pushed_per_shard_;
  /// Per shard, the pipeline blob of the snapshot being recovered from
  /// (consumed by the shard thread right after it builds its pipeline).
  std::vector<std::vector<std::byte>> recovery_blobs_;
  /// True while recover_and_start() re-pushes the log tail: events flowing
  /// through push_batch() are already in the log, so appends are suppressed.
  bool replaying_ = false;
  std::uint64_t events_since_snapshot_ = 0;

  // --- event-time router state (engine snapshot header; replay-stable) -----
  /// Punctuations broadcast so far.  pushed_ counts them too (it is the
  /// log offset), so reports subtract: events = pushed_ - punct_pushed_.
  std::uint64_t punct_pushed_ = 0;
  /// Data events since the last broadcast watermark (heartbeat trigger).
  std::uint64_t data_since_hb_ = 0;
  /// Largest data seq routed (the router's own watermark source).
  std::uint64_t router_max_seq_ = 0;
  bool router_max_valid_ = false;
};

}  // namespace espice
