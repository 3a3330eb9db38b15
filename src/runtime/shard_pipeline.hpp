// One complete deterministic CEP pipeline over one substream.
//
// This is the body a shard thread runs -- window grouping, per-query
// incremental matchers, shedders, keep masks, event-time retained windows --
// kept as a self-contained object so placement stays separate from the body.
// The engine runs one pipeline per LOGICAL PARTITION.  Without rebalancing
// there are as many partitions as shards and shard s hosts partition s for
// the whole run; with it, a hot partition migrates between shard threads
// with its whole pipeline state (the object is the unit of migration), and
// the output stays bit-identical to the per-partition serial golden no
// matter where it ran.
//
// Queries with identical windowing share one window group.  A group whose
// members keep different subsets (at least one member sheds) is
// *diverging*: its manager stores a keep mask per kept entry.  Events there
// take one of two paths.  A maximal run of events that every shedding
// member drops in every window (Shedder::drops_everywhere) is offered with
// one masked WindowManager::offer_keep_all_block call that keeps it for the
// members without a shedder, or event by event through offer_dropped when
// every member sheds; its decisions are counted in bulk.  Every other event
// is scored per member and kept per membership under the OR of the
// keeping members' bits.  At window close a shedding member matches its
// filter_view_for_query() subset, while a keep-all member matches the
// unfiltered window: its bit is on every physically kept entry.  How the
// stream is cut into blocks never changes the output, the counters or the
// snapshot bytes at a given event cut
// (tests/runtime/pipeline_block_oracle_test.cpp).
//
// An optional window observer sees every closed window per query -- the
// query's view and its matches, before they are stored.  The adaptive hosts
// (EspiceOperator, MultiQueryOperator, the engine's adaptive mode) pass
// their AdaptiveController's on_window() there, and the controller's
// Shedder adapters in the shedder slots; deterministic mode passes neither.
//
// The pipeline is single-threaded by contract: exactly one thread calls its
// methods at a time.  Cross-thread handoff (rebalance migration) must
// establish a happens-before edge between the old and new owner (the engine
// uses an atomic mailbox).  Mutable observer state (ShardStats) is passed in
// per call, so counters always attribute to the HOST shard while the
// pipeline's own outputs (matches, revisions, per-query outcome counters)
// travel with the object.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "cep/event_time.hpp"
#include "cep/incremental_matcher.hpp"
#include "cep/window.hpp"
#include "runtime/stream_engine.hpp"

namespace espice {

/// Called per closed window and query with the query's view of the window
/// and the matches detected in it.
using WindowObserver = std::function<void(
    std::size_t query, const WindowView& view,
    std::span<const ComplexEvent> matches)>;

class DetPipeline {
 public:
  /// Per-query outcome counters (read by the engine's merge stage).
  struct QueryOutcome {
    std::uint64_t memberships = 0;
    std::uint64_t memberships_kept = 0;
    std::uint64_t shed_decisions = 0;
    std::uint64_t shed_drops = 0;
  };

  /// `queries` must outlive the pipeline (the engine's registered list).
  /// `shedders` are adopted, one slot per query (nullptr = keep all).
  /// `event_time` configures the late-event machinery; nullptr = off (the
  /// reorder stage itself stays with the shard loop -- only retained
  /// windows, revision and side-output state live here).  `observer` may
  /// be empty.
  DetPipeline(std::span<const EngineQuery> queries,
              std::vector<std::unique_ptr<Shedder>> shedders,
              const EventTimeConfig* event_time,
              WindowObserver observer = nullptr);

  DetPipeline(const DetPipeline&) = delete;
  DetPipeline& operator=(const DetPipeline&) = delete;

  /// One block-wise pass over an IN-ORDER run of data events: window
  /// routing, shedding, incremental matching, closed-window flush.
  void process_data_block(std::span<const Event> data, ShardStats& stats);

  /// Event-time close: closes time windows whose span ended at or before
  /// `ts` and flushes them.
  void advance_time_watermark(double ts, ShardStats& stats);

  /// Applies the configured late policy to a beyond-bound arrival.
  /// `watermark_seq` is the reorder stage's current watermark (recorded in
  /// side-output captures).
  void handle_late(const Event& e, std::uint64_t watermark_seq,
                   ShardStats& stats);

  /// End of substream: close every open window and flush.
  void close_all(ShardStats& stats);

  std::size_t query_count() const { return runtimes_.size(); }
  QueryOutcome outcome(std::size_t qi) const;

  // --- durability (checkpoint/restore) -----------------------------------
  /// Core pipeline state: window managers, matchers, shedders, per-query
  /// counters and emitted matches.
  void serialize_core(durability::SnapshotWriter& w);
  void restore_core(durability::SnapshotReader& r);
  /// Event-time extras (retained windows, side outputs, revisions); only
  /// valid when constructed with event_time.
  void serialize_event_time(durability::SnapshotWriter& w);
  void restore_event_time(durability::SnapshotReader& r);

  /// Per query, this pipeline's matches in local detection order.
  std::vector<std::vector<ComplexEvent>> query_matches;
  /// Event-time kRevise: per query, window re-emissions in local order.
  std::vector<std::vector<RevisionRecord>> query_revisions;
  /// Event-time kSideOutput: late captures in local arrival order.
  std::vector<SideOutputRecord> side_outputs;

 private:
  /// Per-query runtime state.  `bit` is the query's bit inside its window
  /// group's keep masks.
  struct QueryRuntime {
    explicit QueryRuntime(IncrementalMatcher m) : matcher(std::move(m)) {}
    IncrementalMatcher matcher;
    std::unique_ptr<Shedder> shedder;
    double predicted_ws = 0.0;
    std::size_t bit = 0;
    std::vector<KeptEntry> filter_scratch;
    std::uint64_t memberships = 0;
    std::uint64_t kept = 0;
  };

  /// Queries sharing identical windowing: one WindowManager per group.
  /// `keep_all_mask` holds the bits of the members without a shedder.
  struct Group {
    WindowManager wm;
    std::vector<std::size_t> members;
    bool diverging;
    QueryMask keep_all_mask;
    MatcherFeed feed;
  };

  void load_positions(const std::vector<WindowManager::Membership>& ms);
  /// Diverging-group steps: whether every shedding member drops `e` in
  /// every window; a run of such events in bulk; one event scored per
  /// member and kept per membership under the OR of the members' bits.
  bool dropped_by_every_shedder(const Group& g, const Event& e) const;
  void offer_pruned_run(Group& g, std::span<const Event> run,
                        ShardStats& stats);
  void offer_scored(Group& g, const Event& e, ShardStats& stats);
  void flush(Group& g, ShardStats& stats);
  WindowView retained_view_for(const RetainedWindow& rw,
                               const QueryRuntime& rt);

  std::span<const EngineQuery> queries_;
  WindowObserver observer_;
  std::vector<QueryRuntime> runtimes_;
  std::vector<Group> groups_;
  bool et_on_ = false;
  EventTimeConfig et_cfg_;
  bool retain_windows_ = false;
  std::vector<RetainedWindowStore> retained_;
  Window revise_scratch_;
  std::vector<std::uint32_t> pos_scratch_;   // one event's membership positions
  std::vector<std::uint64_t> bits_scratch_;  // per-query keep bitmaps
};

}  // namespace espice
