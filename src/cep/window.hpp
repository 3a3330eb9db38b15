// Window model and window lifecycle management.
//
// The paper assumes windows are formed *upstream* of the operator's input
// queue ("windows of primitive events are first pushed to the input queue"),
// and the load shedder then thins the contents of individual windows.  Two
// consequences drive this design:
//
//  1. The set of windows (their open/close boundaries) is identical with and
//     without shedding, which makes golden-vs-shed quality comparison exact.
//  2. An event's *position* in a window is its arrival index among all events
//     offered to that window, independent of which events were dropped.
//
// Supported strategies (all used by the paper's queries):
//  * span: time-based (ws seconds) or count-based (ws events),
//  * opening: predicate-opened (a new window per event matching an opener
//    element, Q1/Q2/Q3) or count-sliding (a new window every `slide` events,
//    Q4).
//
// Storage model (zero-copy): kept events live once in a shared EventStore
// ring buffer; a window holds only the slot ids and positions of its kept
// events.  With overlapping windows (slide << span) this keeps the payload
// footprint O(events) instead of O(events x overlap factor).  Consumers see
// closed windows as WindowView -- a non-owning (window, positions, slots)
// view into the store that stays valid until the next offer()/drain cycle.
// Window (with owned event copies) remains available for tests, oracles and
// any consumer that must retain contents longer; materialize() converts.
//
// Hot-path complexity per offered event:
//  * closing: amortized O(1) (FIFO pop-front; windows expire in open order.
//    Predicate-closed windows use a deferred compaction pass that runs only
//    when a closer actually fired, never a mid-deque erase),
//  * routing: positions are *computed* (offer index minus the window's open
//    index), so routing writes one membership record per overlapping window
//    and mutates no window state,
//  * keep(): O(1) -- the membership carries a direct handle to the open
//    window, and the event payload is appended to the store at most once no
//    matter how many windows keep it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cep/event.hpp"
#include "cep/event_store.hpp"
#include "cep/pattern.hpp"
#include "common/error.hpp"

namespace espice {

using WindowId = std::uint64_t;

/// Bit set of the queries that kept an event in a window (multi-query
/// execution: N queries share one WindowManager/EventStore and each keeps
/// its own subset of every window).  Bit q set = query q kept the event.
using QueryMask = std::uint64_t;

/// Hard cap on queries sharing one WindowManager (bits in QueryMask).
inline constexpr std::size_t kMaxQueriesPerWindowManager = 64;

/// Mask with the lowest `queries` bits set (all-queries mask).
inline QueryMask all_queries_mask(std::size_t queries) {
  ESPICE_ASSERT(queries >= 1 && queries <= kMaxQueriesPerWindowManager,
                "query count outside the mask range");
  return queries >= 64 ? ~QueryMask{0} : (QueryMask{1} << queries) - 1;
}

enum class WindowSpan {
  kTime,       ///< closes span_seconds after opening
  kCount,      ///< closes after span_events offered events
  kPredicate,  ///< closes on an event matching `closer` (pattern-based
               ///< window, e.g. "possession start .. possession end");
               ///< span_events caps runaway windows
};
enum class WindowOpen { kPredicate, kCountSlide };

struct WindowSpec {
  WindowSpan span_kind = WindowSpan::kCount;
  double span_seconds = 0.0;    ///< for kTime
  std::size_t span_events = 0;  ///< for kCount; safety cap for kPredicate
  ElementSpec closer;           ///< for kPredicate span (closing event is
                                ///< included in the window)

  WindowOpen open_kind = WindowOpen::kCountSlide;
  ElementSpec opener;           ///< for kPredicate open
  std::size_t slide_events = 0; ///< for kCountSlide

  void validate() const {
    switch (span_kind) {
      case WindowSpan::kTime:
        ESPICE_REQUIRE(span_seconds > 0.0, "time window span must be positive");
        break;
      case WindowSpan::kCount:
        ESPICE_REQUIRE(span_events > 0, "count window span must be positive");
        break;
      case WindowSpan::kPredicate:
        ESPICE_REQUIRE(span_events > 0,
                       "predicate windows need a span_events safety cap");
        break;
    }
    if (open_kind == WindowOpen::kCountSlide) {
      ESPICE_REQUIRE(slide_events > 0, "slide must be positive");
    }
  }
};

/// Owned snapshot of a window: event copies plus their positions, in arrival
/// order.  Used by tests, oracles and any consumer that must retain window
/// contents past the manager's drain cycle; the hot path uses WindowView.
struct Window;

/// One kept membership of a window: the event's store slot (as a 32-bit
/// offset from the window's begin slot -- windows cannot span more slots
/// than positions, which are 32-bit) and its arrival position.  8 bytes, so
/// keeping an event in a window is a single small push.
struct KeptEntry {
  std::uint32_t slot_offset;
  std::uint32_t position;
};

/// Non-owning view of a closed window's kept contents.  Either resolves
/// events through a shared EventStore (manager-produced views) or reads a
/// caller-owned contiguous array (views over a materialized Window).
/// Manager-produced views stay valid until the next offer()/drain_closed()/
/// close_all() call on the producing WindowManager.
struct WindowView {
  WindowId id = 0;
  double open_ts = 0.0;
  std::uint64_t open_seq = 0;
  /// Offer index of the opening event: the window contains exactly the
  /// events offered at [open_index, open_index + arrivals).  Stream-level
  /// consumers (the incremental matcher) anchor runs in this index space.
  std::uint64_t open_index = 0;
  /// Number of events offered (== the window size ws used for scaling).
  std::size_t arrivals = 0;

  const EventStore* store = nullptr;          ///< slot resolver (shared mode)
  EventStore::Slot begin_slot = 0;
  std::span<const KeptEntry> kept_entries;
  std::span<const Event> kept_direct;         ///< payloads (direct mode)
  std::span<const std::uint32_t> kept_positions;
  /// Per kept event, the queries that kept it (empty unless the producing
  /// manager tracks masks; parallel to kept_entries).
  std::span<const QueryMask> kept_masks;

  std::size_t size() const { return arrivals; }
  /// Events that survived shedding.
  std::size_t kept_count() const {
    return store != nullptr ? kept_entries.size() : kept_direct.size();
  }
  /// i-th kept event, in arrival order.
  const Event& kept(std::size_t i) const {
    return store != nullptr
               ? store->at(begin_slot + kept_entries[i].slot_offset)
               : kept_direct[i];
  }
  /// Arrival position of the i-th kept event.
  std::uint32_t pos(std::size_t i) const {
    return store != nullptr ? kept_entries[i].position : kept_positions[i];
  }
};

struct Window {
  WindowId id = 0;
  double open_ts = 0.0;
  std::uint64_t open_seq = 0;
  std::uint64_t open_index = 0;
  std::size_t arrivals = 0;
  std::vector<Event> kept;
  std::vector<std::uint32_t> kept_pos;

  /// Number of events offered (== the window size ws used for scaling).
  std::size_t size() const { return arrivals; }

  /// A direct-mode view over this window; valid while the window is alive
  /// and unmodified.
  WindowView view() const {
    WindowView v;
    v.id = id;
    v.open_ts = open_ts;
    v.open_seq = open_seq;
    v.open_index = open_index;
    v.arrivals = arrivals;
    v.kept_direct = kept;
    v.kept_positions = kept_pos;
    return v;
  }
};

/// True when `spec` can ever have two windows open at once.  Count-span /
/// count-slide specs with slide >= span are tumbling (or gapped): at most
/// one window is open, each event belongs to at most one window, and
/// stream-level run sharing has nothing to share -- hosts skip the kept
/// feed then and let finalize() take the per-window scan, which is cheaper
/// without overlap.
inline bool windows_can_overlap(const WindowSpec& spec) {
  return !(spec.span_kind == WindowSpan::kCount &&
           spec.open_kind == WindowOpen::kCountSlide &&
           spec.slide_events >= spec.span_events);
}

/// Structural equality of window-forming behavior (element names ignored):
/// two specs comparing equal open and close identical windows on any
/// stream.  The multi-query engine uses this to decide which queries can
/// share one WindowManager.
bool same_windowing(const WindowSpec& a, const WindowSpec& b);

/// Copies a view's contents into an owned Window.
Window materialize(const WindowView& v);

/// Sub-view of `full` containing only the kept events whose mask includes
/// `query`, in arrival order.  `scratch` backs the filtered entry list and
/// must stay alive (and unmodified) while the returned view is used; it is
/// reusable across calls.  Requires a mask-tracking, store-backed view.
///
/// This is the multi-query equivalence primitive: the filtered view is
/// bit-identical (same events, positions, arrival order, window metadata) to
/// the window the query would have seen running alone with its own shedder,
/// because window boundaries and positions depend only on *offered* events,
/// never on keep decisions.
WindowView filter_view_for_query(const WindowView& full, std::size_t query,
                                 std::vector<KeptEntry>& scratch);

/// Stream-level kept-event feed (see cep/incremental_matcher.hpp).  When a
/// feed is attached, the manager calls on_event_kept() once per offered
/// event that at least one query kept in at least one window -- in offer
/// order, and always before any window containing the event is drained.
/// `uniform` holds the queries that kept the event in EVERY window it was
/// offered to (their per-window kept sets agree with the uniform kept
/// stream); `partial` holds the queries that kept it in some windows but
/// not all (stream-level matcher state cannot serve their windows open at
/// this instant).  Single-query managers report an all-ones uniform mask.
/// Events kept by no query are never reported.
class KeptFeed {
 public:
  virtual ~KeptFeed() = default;
  virtual void on_event_kept(const Event& e, std::uint64_t offer_index,
                             QueryMask uniform, QueryMask partial) = 0;
  /// A window opened at `open_index` (its position-0 offer index).  Called
  /// in stream order relative to on_event_kept(): after the keeps of
  /// earlier events, before the keep of the opening event itself.  The
  /// incremental matcher uses this to anchor runs only where some window
  /// actually maps to them.
  virtual void on_window_open(std::uint64_t open_index) {
    (void)open_index;
  }
};

/// Drives window opening, event-to-window routing and window closing.
///
/// Usage per event, in stream order:
///   auto& memberships = mgr.offer(e);      // may open/close windows
///   for (auto& m : memberships)
///     if (!shedder.should_drop(...)) mgr.keep(m, e);
///   for (auto& w : mgr.drain_closed()) ... // match closed windows (views!)
class WindowManager {
 public:
  /// `track_masks`: record a per-kept-event QueryMask so N queries can share
  /// this manager (see keep(m, e, mask) and filter_view_for_query()).  The
  /// single-query hot path (false, default) stores no masks and is
  /// unchanged.
  explicit WindowManager(WindowSpec spec, bool track_masks = false);

  struct Membership {
    WindowId window;
    std::uint32_t position;  ///< arrival index of the event in that window
    /// Direct handle to the open window (its index in the open deque);
    /// makes keep() O(1).  Valid until the next offer()/close_all() call.
    std::uint32_t open_index;
  };

  /// Routes `e`: closes expired windows, opens new ones as dictated by the
  /// spec, and returns the (window, position) pairs `e` belongs to.
  /// Membership entries stay valid until the next offer()/close_all() call.
  std::vector<Membership>& offer(const Event& e);

  /// offer() for an event the caller already knows every window drops
  /// (Shedder::drops_everywhere): opens and closes windows exactly as
  /// offer(e) does and leaves the manager -- pending kept-feed record
  /// included -- exactly as offer(e) followed by no keep() would, so
  /// serialize() writes the same bytes.  Builds no membership list; returns
  /// the number of windows `e` was offered to (offer(e).size()).
  std::size_t offer_dropped(const Event& e);

  /// Records `e` as kept (not shed) in the given window.  The event payload
  /// is appended to the shared store at most once per offer() no matter how
  /// many windows keep it.
  void keep(const Membership& m, const Event& e) {
    keep(m, e, ~QueryMask{0});
  }

  /// Multi-query keep: records `e` as kept in the window for every query
  /// whose bit is set in `mask` (the caller ORs its queries' keep
  /// decisions; an event every query sheds is simply never kept -- a
  /// physical drop).  `mask` must be nonzero.  Requires track_masks unless
  /// the mask is all-ones (the single-query path above).
  void keep(const Membership& m, const Event& e, QueryMask mask);

  /// Batched all-keep path: offers every event of `block` in stream order
  /// and keeps each of its memberships with `mask` -- exactly equivalent to
  /// `for (e : block) { for (m : offer(e)) keep(m, e, mask); }`, bit for
  /// bit, but with the window-boundary checks hoisted out of the inner
  /// loop.  Runs of events between two boundaries (a window opening or
  /// closing) see a FIXED set of open windows, so the run's payloads land
  /// in the store via one bulk append and each window's kept list grows by
  /// one contiguous (slot, position) span; only the boundary events take
  /// the scalar path.  For count-span/count-slide specs boundaries are
  /// index arithmetic; for predicate openers/closers the block is first
  /// classified against the opener/closer element (classify_block, one
  /// bitmap per block) and boundaries are the match bits -- so
  /// predicate-windowed streams batch exactly like count-slide ones
  /// between pattern events.  Time spans close on timestamps, not offer
  /// indices, and stay per-event scalar.  Returns the number of
  /// memberships offered (all of them kept).
  ///
  /// Shedding callers cannot use this (decisions are per membership); the
  /// no-shedder engine pipeline is all-keep and batches through here.
  std::uint64_t offer_keep_all_block(std::span<const Event> block,
                                     QueryMask mask = ~QueryMask{0});

  /// Upper bound on how many upcoming events can be offered before -- and
  /// including -- the next event whose offer() can close a window: offering
  /// the next `close_free_horizon() - 1` events closes nothing.  Exact for
  /// count-span specs (window closings are index-arithmetic there); a
  /// conservative 1 for time/predicate spans, where any event may close.
  /// Batched hosts chunk blocks with this so work that triggers on window
  /// closings happens at the same event as in per-event execution.
  std::uint64_t close_free_horizon() const;

  /// Attaches the stream-level kept-event feed (nullptr detaches).  Must be
  /// attached before the first offer() and outlive the manager's use; the
  /// feed then observes every kept event exactly once, including through
  /// the offer_keep_all_block() bulk path.
  void set_kept_feed(KeptFeed* feed) {
    ESPICE_REQUIRE(events_seen_ == 0,
                   "kept feed must attach before the first offer()");
    feed_ = feed;
  }

  /// Event-time watermark: closes every open time-span window whose
  /// span ended at or before event-time `ts`, without offering an
  /// event.  Bit-identical to the close the next offer() would have
  /// performed (arrivals count only offered events, and any event the
  /// watermark precedes would have closed the same windows first), so
  /// watermark-driven close only ADDS earlier close points -- it never
  /// changes window contents.  No-op for count/predicate spans, whose
  /// boundaries are offer-index-based and close in offer() as before.
  /// Call with a monotone ts (the engine's reorder stage guarantees
  /// this).
  void advance_time_watermark(double ts);

  /// Views of the windows closed since the last drain, in closing order.
  /// Views (and the store slots they reference) stay valid until the next
  /// offer()/drain_closed()/close_all() call; materialize() any window that
  /// must outlive that.
  const std::vector<WindowView>& drain_closed();

  /// Force-closes all open windows (end of stream).
  void close_all();

  std::size_t open_count() const { return open_.size() - open_head_; }
  std::uint64_t windows_opened() const { return next_id_; }

  /// Mean offered size of all closed windows so far (0 if none closed).
  /// Used to pick N, the utility table's position-space size.
  double avg_closed_window_size() const;

  const EventStore& store() const { return store_; }

  /// Live kept-event payload bytes (shared store; counted once per event
  /// regardless of the overlap factor).
  std::size_t resident_payload_bytes() const {
    return store_.size() * sizeof(Event);
  }
  /// Per-window index bytes (slot + position lists of open and undrained
  /// windows).  This is the only per-membership cost that remains.
  std::size_t resident_index_bytes() const;

  /// Snapshot (durability layer): open and closed-but-undrained windows,
  /// the shared store's live span, the pending feed state and every
  /// counter.  Non-const because consumed drained views are recycled and
  /// the store trimmed first (unobservable compaction).  The restoring
  /// manager must be constructed with the same spec and track_masks, and
  /// its kept feed (if any) must be attached before restore().
  void serialize(durability::SnapshotWriter& w);
  void restore(durability::SnapshotReader& r);

 private:
  /// An open (or closed-but-undrained) window: index spans into the shared
  /// store plus the (slot, position) list of its kept events.
  struct WindowRecord {
    WindowId id = 0;
    double open_ts = 0.0;
    std::uint64_t open_seq = 0;
    std::uint64_t open_index = 0;    ///< offer index of the opening event
    EventStore::Slot begin_slot = 0; ///< store slots >= this belong to it
    bool close_pending = false;
    std::size_t arrivals = 0;        ///< filled at close
    std::vector<KeptEntry> kept;
    std::vector<QueryMask> kept_masks;  ///< parallel to kept (mask mode only)
  };

  /// The steps offer() and offer_dropped() share: reports the previous
  /// event's feed record, closes expired windows, opens one if the spec
  /// says so, marks close-pending on a closer, arms the pending feed record
  /// and advances the offer index.  Returns the number of windows `e` is
  /// offered to -- the open ones, [open_head_, open_.size()).
  std::size_t advance(const Event& e);
  void open_window(const Event& e);
  void flush_feed();
  void close_record(WindowRecord&& w);
  void close_expired_front();
  void compact_close_predicate(const Event& e);
  void recycle_drained();
  void trim_store();
  bool record_expired(const WindowRecord& w, const Event& e) const;
  WindowView view_of(const WindowRecord& r) const;

  WindowSpec spec_;
  bool track_masks_ = false;
  EventStore store_;
  // Open windows in open order, live in [open_head_, open_.size()).  A
  // vector with a head cursor beats a deque here: routing iterates
  // contiguous memory and keep() indexes with one add; the head prefix is
  // erased (amortized O(1) per close) once it outgrows the live part.
  std::vector<WindowRecord> open_;
  std::size_t open_head_ = 0;
  std::vector<WindowRecord> closed_;   // closed, not yet drained
  std::vector<WindowRecord> drained_;  // handed out by the last drain
  std::vector<WindowView> views_;      // drain_closed() return buffer
  std::vector<Membership> scratch_;    // reused membership buffer
  // Per-block opener/closer classification bitmaps (offer_keep_all_block
  // scratch; see classify_block in pattern.hpp).
  std::vector<std::uint64_t> opener_bits_;
  std::vector<std::uint64_t> closer_bits_;
  // Recycled kept lists so open_window() stops allocating at steady state.
  std::vector<std::vector<KeptEntry>> kept_pool_;
  std::vector<std::vector<QueryMask>> mask_pool_;
  WindowId next_id_ = 0;
  // Kept-event feed: per-event keep masks accumulate here and flush as one
  // on_event_kept() call at the next offer() (or close_all()), once the
  // event's full membership fate is known.
  KeptFeed* feed_ = nullptr;
  Event pending_event_{};
  std::uint64_t pending_index_ = 0;
  std::size_t pending_mcount_ = 0;
  std::size_t pending_keeps_ = 0;
  QueryMask pending_and_ = 0;
  QueryMask pending_or_ = 0;
  bool pending_valid_ = false;
  std::uint64_t events_seen_ = 0;
  bool any_close_pending_ = false;
  bool event_in_store_ = false;        ///< current event already appended?
  EventStore::Slot current_slot_ = 0;
  std::uint64_t closed_count_ = 0;
  double closed_size_sum_ = 0.0;
};

}  // namespace espice
