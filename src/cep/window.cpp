#include "cep/window.hpp"

#include <algorithm>
#include <bit>

#include "durability/serial.hpp"

namespace espice {

Window materialize(const WindowView& v) {
  Window w;
  w.id = v.id;
  w.open_ts = v.open_ts;
  w.open_seq = v.open_seq;
  w.open_index = v.open_index;
  w.arrivals = v.arrivals;
  const std::size_t n = v.kept_count();
  w.kept.reserve(n);
  w.kept_pos.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    w.kept.push_back(v.kept(i));
    w.kept_pos.push_back(v.pos(i));
  }
  return w;
}

namespace {

/// Same type set and direction filter (names are diagnostics only).
bool same_element_filter(const ElementSpec& a, const ElementSpec& b) {
  return a.direction == b.direction && a.types.is_any() == b.types.is_any() &&
         a.types.members() == b.types.members();
}

/// Index of the first set bit at or after `from` in an n-bit bitmap
/// (keep-bitmap layout: bit j lives in word j / 64); n when none.
std::size_t next_set_bit(const std::uint64_t* bits, std::size_t from,
                         std::size_t n) {
  if (from >= n) return n;
  const std::size_t words = (n + 63) / 64;
  std::size_t w = from >> 6;
  std::uint64_t word = bits[w] & (~std::uint64_t{0} << (from & 63));
  while (word == 0) {
    if (++w >= words) return n;
    word = bits[w];
  }
  const std::size_t bit =
      (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
  return bit < n ? bit : n;
}

}  // namespace

bool same_windowing(const WindowSpec& a, const WindowSpec& b) {
  if (a.span_kind != b.span_kind || a.open_kind != b.open_kind) return false;
  switch (a.span_kind) {
    case WindowSpan::kTime:
      if (a.span_seconds != b.span_seconds) return false;
      break;
    case WindowSpan::kCount:
      if (a.span_events != b.span_events) return false;
      break;
    case WindowSpan::kPredicate:
      if (a.span_events != b.span_events ||
          !same_element_filter(a.closer, b.closer)) {
        return false;
      }
      break;
  }
  switch (a.open_kind) {
    case WindowOpen::kPredicate:
      return same_element_filter(a.opener, b.opener);
    case WindowOpen::kCountSlide:
      return a.slide_events == b.slide_events;
  }
  return false;  // unreachable
}

WindowView filter_view_for_query(const WindowView& full, std::size_t query,
                                 std::vector<KeptEntry>& scratch) {
  ESPICE_REQUIRE(full.store != nullptr,
                 "per-query filtering needs a store-backed view");
  ESPICE_REQUIRE(full.kept_masks.size() == full.kept_entries.size(),
                 "view has no per-query keep masks");
  ESPICE_ASSERT(query < kMaxQueriesPerWindowManager, "query bit out of range");
  const QueryMask bit = QueryMask{1} << query;
  scratch.clear();
  for (std::size_t i = 0; i < full.kept_entries.size(); ++i) {
    if ((full.kept_masks[i] & bit) != 0) {
      scratch.push_back(full.kept_entries[i]);
    }
  }
  WindowView v = full;
  v.kept_entries = scratch;
  v.kept_masks = {};
  return v;
}

WindowManager::WindowManager(WindowSpec spec, bool track_masks)
    : spec_(std::move(spec)), track_masks_(track_masks) {
  spec_.validate();
}

bool WindowManager::record_expired(const WindowRecord& w,
                                   const Event& e) const {
  switch (spec_.span_kind) {
    case WindowSpan::kTime:
      return e.ts >= w.open_ts + spec_.span_seconds;
    case WindowSpan::kCount:
      return events_seen_ - w.open_index >= spec_.span_events;
    case WindowSpan::kPredicate:
      return w.close_pending ||
             events_seen_ - w.open_index >= spec_.span_events;
  }
  return false;  // unreachable
}

void WindowManager::close_expired_front() {
  // Erase the dead prefix once it outgrows the live part; amortized O(1)
  // moves per closed window.
  if (open_head_ == open_.size()) {
    open_.clear();
    open_head_ = 0;
  } else if (open_head_ > 32 && open_head_ > open_.size() - open_head_) {
    open_.erase(open_.begin(),
                open_.begin() + static_cast<std::ptrdiff_t>(open_head_));
    open_head_ = 0;
  }
}

void WindowManager::compact_close_predicate(const Event& e) {
  // Predicate-closed windows may close out of open order: one compaction
  // pass moves survivors forward (never a mid-container erase).  Runs only
  // on offers where a closer fired or the front hit its safety cap.
  std::size_t out = open_head_;
  for (std::size_t i = open_head_; i < open_.size(); ++i) {
    if (record_expired(open_[i], e)) {
      close_record(std::move(open_[i]));
    } else {
      if (out != i) open_[out] = std::move(open_[i]);
      ++out;
    }
  }
  open_.resize(out);
}

std::size_t WindowManager::advance(const Event& e) {
  // The previous event's keep fate is final now; report it before any
  // window containing it can close below.
  if (feed_ != nullptr) flush_feed();
  scratch_.clear();
  event_in_store_ = false;

  // 1. Close windows that can no longer accept events.  Every open window
  //    receives every event, so arrivals = events_seen_ - open_index and
  //    the oldest window always reaches a time/count span (or the predicate
  //    safety cap) first: FIFO head advance, O(1) amortized.  With the current
  //    all-windows closer semantics the expired set is always such a
  //    prefix; the deferred compaction pass below only sweeps out-of-order
  //    stragglers after a closer fired (never a mid-container erase).
  while (open_head_ < open_.size() && record_expired(open_[open_head_], e)) {
    close_record(std::move(open_[open_head_]));
    ++open_head_;
  }
  close_expired_front();
  if (any_close_pending_) {
    any_close_pending_ = false;
    if (open_head_ < open_.size()) compact_close_predicate(e);
  }

  // 2. Open a new window if the spec says so.  The opening event itself is
  //    the new window's first (position 0) event.
  switch (spec_.open_kind) {
    case WindowOpen::kPredicate:
      if (spec_.opener.matches(e)) open_window(e);
      break;
    case WindowOpen::kCountSlide:
      if (events_seen_ % spec_.slide_events == 0) open_window(e);
      break;
  }

  // 3. Pattern-based closing: a closer event ends every open window (it is
  //    part of them -- the caller routes it to them -- and they close
  //    before the next event).
  const std::size_t offered = open_.size() - open_head_;
  if (spec_.span_kind == WindowSpan::kPredicate && spec_.closer.matches(e)) {
    for (std::size_t i = open_head_; i < open_.size(); ++i) {
      open_[i].close_pending = true;
    }
    any_close_pending_ = offered > 0;
  }
  if (feed_ != nullptr && offered > 0) {
    // Arm the pending feed record; keep() calls fill in the masks.
    pending_valid_ = true;
    pending_event_ = e;
    pending_index_ = events_seen_;
    pending_mcount_ = offered;
    pending_keeps_ = 0;
    pending_and_ = ~QueryMask{0};
    pending_or_ = 0;
  }
  ++events_seen_;
  return offered;
}

std::vector<WindowManager::Membership>& WindowManager::offer(const Event& e) {
  const std::uint64_t idx = events_seen_;
  const std::size_t offered = advance(e);
  // Route the event to every open window.  Positions are computed from the
  // open index; no window state is touched.
  scratch_.reserve(offered);
  for (std::size_t i = open_head_; i < open_.size(); ++i) {
    const WindowRecord& w = open_[i];
    const std::uint64_t position = idx - w.open_index;
    ESPICE_ASSERT(position < (1ULL << 32), "window position overflows 32 bits");
    scratch_.push_back(Membership{w.id, static_cast<std::uint32_t>(position),
                                  static_cast<std::uint32_t>(i)});
  }
  return scratch_;
}

std::size_t WindowManager::offer_dropped(const Event& e) { return advance(e); }

void WindowManager::flush_feed() {
  if (!pending_valid_) return;
  pending_valid_ = false;
  if (pending_or_ == 0) return;  // kept nowhere: not part of any window
  // A query kept the event uniformly iff every membership was kept and the
  // query's bit was set in every keep mask.
  const QueryMask uniform =
      pending_keeps_ == pending_mcount_ ? pending_and_ : QueryMask{0};
  feed_->on_event_kept(pending_event_, pending_index_, uniform,
                       pending_or_ & ~uniform);
}

void WindowManager::keep(const Membership& m, const Event& e, QueryMask mask) {
  ESPICE_ASSERT(m.open_index < open_.size(), "stale membership handle");
  ESPICE_ASSERT(mask != 0, "keep() with an empty query mask");
  // A partial mask on a non-tracking manager would be silently widened to
  // "kept for every query" -- fail loudly instead.
  ESPICE_ASSERT(track_masks_ || mask == ~QueryMask{0},
                "partial query mask on a manager that does not track masks");
  WindowRecord& w = open_[m.open_index];
  ESPICE_ASSERT(w.id == m.window, "membership does not match its window");
  if (!event_in_store_) {
    current_slot_ = store_.append(e);
    event_in_store_ = true;
  }
  ESPICE_ASSERT(current_slot_ - w.begin_slot < (1ULL << 32),
                "window slot offset overflows 32 bits");
  w.kept.push_back(KeptEntry{
      static_cast<std::uint32_t>(current_slot_ - w.begin_slot), m.position});
  if (track_masks_) w.kept_masks.push_back(mask);
  if (pending_valid_) {
    pending_and_ &= mask;
    pending_or_ |= mask;
    ++pending_keeps_;
  }
}

std::uint64_t WindowManager::offer_keep_all_block(std::span<const Event> block,
                                                 QueryMask mask) {
  ESPICE_ASSERT(mask != 0, "block keep with an empty query mask");
  ESPICE_ASSERT(track_masks_ || mask == ~QueryMask{0},
                "partial query mask on a manager that does not track masks");
  std::uint64_t memberships = 0;
  const std::size_t n = block.size();
  // Bulk runs need boundaries known without touching window state: index
  // arithmetic for count spans/slides, classified match bitmaps for
  // predicate openers/closers.  Time spans close on timestamps and stay
  // scalar.
  const bool bulk_ok = spec_.span_kind != WindowSpan::kTime;
  const bool pred_open = spec_.open_kind == WindowOpen::kPredicate;
  const bool pred_span = spec_.span_kind == WindowSpan::kPredicate;
  if (bulk_ok && pred_open) {
    opener_bits_.resize((n + 63) / 64);
    classify_block(spec_.opener, block.data(), n, opener_bits_.data());
  }
  if (bulk_ok && pred_span) {
    closer_bits_.resize((n + 63) / 64);
    classify_block(spec_.closer, block.data(), n, closer_bits_.data());
  }
  std::size_t i = 0;
  while (i < n) {
    // A deferred predicate close (the event after a closer fired) must run
    // the scalar close/compaction pass before bulk runs can resume.
    if (bulk_ok && !any_close_pending_) {
      // Boundary distance: the next window opening (slide arithmetic, or
      // the next opener-matching event), the next closer-matching event
      // (scalar: it marks every open window close-pending), and the front
      // window's span / safety-cap close.  Inside a run strictly before
      // all of these, the open set is fixed.
      std::uint64_t boundary;
      if (pred_open) {
        boundary = next_set_bit(opener_bits_.data(), i, n) - i;
      } else {
        const std::uint64_t rem = events_seen_ % spec_.slide_events;
        boundary = rem == 0 ? 0 : spec_.slide_events - rem;
      }
      if (pred_span) {
        boundary = std::min<std::uint64_t>(
            boundary, next_set_bit(closer_bits_.data(), i, n) - i);
      }
      if (open_head_ < open_.size()) {
        const std::uint64_t until_close =
            open_[open_head_].open_index + spec_.span_events - events_seen_;
        boundary = std::min(boundary, until_close);
      }
      if (boundary > 0) {
        const auto run = static_cast<std::size_t>(
            std::min<std::uint64_t>(n - i, boundary));
        const std::size_t open_count = open_.size() - open_head_;
        if (feed_ != nullptr) {
          flush_feed();  // the last boundary event's record is final
          if (open_count > 0) {
            // Bulk keeps are uniform by construction: every event of the
            // run lands in every open window with the same mask.
            for (std::size_t j = 0; j < run; ++j) {
              feed_->on_event_kept(block[i + j], events_seen_ + j, mask,
                                   QueryMask{0});
            }
          }
        }
        if (open_count > 0) {
          const EventStore::Slot base =
              store_.append_block(block.data() + i, run);
          for (std::size_t w = open_head_; w < open_.size(); ++w) {
            WindowRecord& rec = open_[w];
            const std::uint64_t off0 = base - rec.begin_slot;
            const std::uint64_t pos0 = events_seen_ - rec.open_index;
            ESPICE_ASSERT(off0 + run <= (1ULL << 32) &&
                              pos0 + run <= (1ULL << 32),
                          "window slot offset / position overflows 32 bits");
            const std::size_t old = rec.kept.size();
            rec.kept.resize(old + run);
            KeptEntry* out = rec.kept.data() + old;
            for (std::size_t j = 0; j < run; ++j) {
              out[j] = KeptEntry{static_cast<std::uint32_t>(off0 + j),
                                 static_cast<std::uint32_t>(pos0 + j)};
            }
            if (track_masks_) {
              rec.kept_masks.insert(rec.kept_masks.end(), run, mask);
            }
          }
          memberships += static_cast<std::uint64_t>(open_count) * run;
        }
        events_seen_ += run;
        i += run;
        continue;
      }
    }
    // Boundary event (or time-span spec): the scalar path handles
    // opening/closing exactly as per-event execution would.
    const Event& e = block[i];
    for (const Membership& m : offer(e)) {
      keep(m, e, mask);
      ++memberships;
    }
    ++i;
  }
  return memberships;
}

std::uint64_t WindowManager::close_free_horizon() const {
  if (spec_.span_kind != WindowSpan::kCount) return 1;
  std::uint64_t next_close;
  if (open_head_ < open_.size()) {
    next_close = open_[open_head_].open_index + spec_.span_events;
  } else {
    // No window is open: the earliest close is a full span after the
    // earliest possible opening.
    std::uint64_t next_open = events_seen_;
    if (spec_.open_kind == WindowOpen::kCountSlide) {
      const std::uint64_t rem = events_seen_ % spec_.slide_events;
      if (rem != 0) next_open += spec_.slide_events - rem;
    }
    next_close = next_open + spec_.span_events;
  }
  ESPICE_ASSERT(next_close >= events_seen_, "close boundary in the past");
  return next_close - events_seen_ + 1;
}

void WindowManager::close_record(WindowRecord&& w) {
  w.arrivals = static_cast<std::size_t>(events_seen_ - w.open_index);
  closed_size_sum_ += static_cast<double>(w.arrivals);
  ++closed_count_;
  closed_.push_back(std::move(w));
}

void WindowManager::recycle_drained() {
  for (auto& r : drained_) {
    r.kept.clear();
    kept_pool_.push_back(std::move(r.kept));
    if (track_masks_) {
      r.kept_masks.clear();
      mask_pool_.push_back(std::move(r.kept_masks));
    }
  }
  drained_.clear();
}

void WindowManager::trim_store() {
  // Slots below every open and undrained window's begin_slot can be
  // reclaimed.  begin_slot is monotone in open order, so the fronts bound
  // the open list and the drained list; closed_ is always empty here
  // (drain_closed() just swapped it out or returned early).
  ESPICE_ASSERT(closed_.empty(), "trim_store() with undrained windows");
  EventStore::Slot floor = store_.end_slot();
  if (open_head_ < open_.size()) {
    floor = std::min(floor, open_[open_head_].begin_slot);
  }
  if (!drained_.empty()) floor = std::min(floor, drained_.front().begin_slot);
  store_.trim_before(floor);
}

WindowView WindowManager::view_of(const WindowRecord& r) const {
  WindowView v;
  v.id = r.id;
  v.open_ts = r.open_ts;
  v.open_seq = r.open_seq;
  v.open_index = r.open_index;
  v.arrivals = r.arrivals;
  v.store = &store_;
  v.begin_slot = r.begin_slot;
  v.kept_entries = r.kept;
  if (track_masks_) v.kept_masks = r.kept_masks;
  return v;
}

const std::vector<WindowView>& WindowManager::drain_closed() {
  // Fast path: nothing closed since the last drain and no views handed out
  // that would need recycling.
  if (closed_.empty() && drained_.empty()) return views_;
  // The previous drain's views die now; recycle their kept lists and
  // release their store slots.
  recycle_drained();
  views_.clear();
  if (!closed_.empty()) {
    drained_.swap(closed_);
    views_.reserve(drained_.size());
    for (const auto& r : drained_) views_.push_back(view_of(r));
  }
  trim_store();
  return views_;
}

void WindowManager::advance_time_watermark(double ts) {
  if (spec_.span_kind != WindowSpan::kTime) return;
  // The previous event's keep fate is final (the watermark orders after
  // it); flush before its windows can close.
  if (feed_ != nullptr) flush_feed();
  while (open_head_ < open_.size() &&
         ts >= open_[open_head_].open_ts + spec_.span_seconds) {
    close_record(std::move(open_[open_head_]));
    ++open_head_;
  }
  close_expired_front();
}

void WindowManager::close_all() {
  if (feed_ != nullptr) flush_feed();
  for (std::size_t i = open_head_; i < open_.size(); ++i) {
    close_record(std::move(open_[i]));
  }
  open_.clear();
  open_head_ = 0;
  scratch_.clear();
  any_close_pending_ = false;
}

double WindowManager::avg_closed_window_size() const {
  if (closed_count_ == 0) return 0.0;
  return closed_size_sum_ / static_cast<double>(closed_count_);
}

std::size_t WindowManager::resident_index_bytes() const {
  std::size_t bytes = 0;
  auto count = [&](const WindowRecord& r) {
    bytes += r.kept.capacity() * sizeof(KeptEntry) +
             r.kept_masks.capacity() * sizeof(QueryMask);
  };
  for (std::size_t i = open_head_; i < open_.size(); ++i) count(open_[i]);
  for (const auto& r : closed_) count(r);
  for (const auto& r : drained_) count(r);
  return bytes;
}

void WindowManager::open_window(const Event& e) {
  WindowRecord w;
  if (!kept_pool_.empty()) {
    w.kept = std::move(kept_pool_.back());
    kept_pool_.pop_back();
  }
  if (track_masks_ && !mask_pool_.empty()) {
    w.kept_masks = std::move(mask_pool_.back());
    mask_pool_.pop_back();
  }
  w.id = next_id_++;
  w.open_ts = e.ts;
  w.open_seq = e.seq;
  w.open_index = events_seen_;
  w.begin_slot = store_.end_slot();
  open_.push_back(std::move(w));
  // The opening event's own keep is still pending (reported at the next
  // offer), so the feed sees the open strictly before position 0's keep.
  if (feed_ != nullptr) feed_->on_window_open(events_seen_);
}

void WindowManager::serialize(durability::SnapshotWriter& w) {
  // Views handed out by the last drain are dead by contract at a
  // checkpoint; recycling them (and trimming the store) is unobservable
  // and keeps the payload at the live working set.  The views must go with
  // their records: drain_closed()'s empty-empty fast path returns views_
  // as-is, so leaving them would replay dead windows after the checkpoint.
  recycle_drained();
  views_.clear();
  if (closed_.empty()) trim_store();

  w.boolean(track_masks_);
  store_.serialize(w);

  const auto write_record = [&](const WindowRecord& r) {
    w.u64(r.id);
    w.f64(r.open_ts);
    w.u64(r.open_seq);
    w.u64(r.open_index);
    w.u64(r.begin_slot);
    w.boolean(r.close_pending);
    w.u64(r.arrivals);
    w.size(r.kept.size());
    for (const KeptEntry& k : r.kept) {
      w.u32(k.slot_offset);
      w.u32(k.position);
    }
    if (track_masks_) {
      for (const QueryMask m : r.kept_masks) w.u64(m);
    }
  };
  w.size(open_.size() - open_head_);
  for (std::size_t i = open_head_; i < open_.size(); ++i) {
    write_record(open_[i]);
  }
  w.size(closed_.size());
  for (const WindowRecord& r : closed_) write_record(r);

  w.u64(next_id_);
  w.event(pending_event_);
  w.u64(pending_index_);
  w.u64(pending_mcount_);
  w.u64(pending_keeps_);
  w.u64(pending_and_);
  w.u64(pending_or_);
  w.boolean(pending_valid_);
  w.u64(events_seen_);
  w.boolean(any_close_pending_);
  w.boolean(event_in_store_);
  w.u64(current_slot_);
  w.u64(closed_count_);
  w.f64(closed_size_sum_);
}

void WindowManager::restore(durability::SnapshotReader& r) {
  ESPICE_CHECK(r.boolean() == track_masks_,
               ErrorCode::kCorruptSnapshot,
               "window snapshot mask mode disagrees with the manager");
  store_.restore(r);

  const auto read_record = [&] {
    WindowRecord rec;
    rec.id = r.u64();
    rec.open_ts = r.f64();
    rec.open_seq = r.u64();
    rec.open_index = r.u64();
    rec.begin_slot = r.u64();
    rec.close_pending = r.boolean();
    rec.arrivals = static_cast<std::size_t>(r.u64());
    const std::size_t kept = r.size();
    rec.kept.reserve(kept);
    for (std::size_t i = 0; i < kept; ++i) {
      KeptEntry k;
      k.slot_offset = r.u32();
      k.position = r.u32();
      rec.kept.push_back(k);
    }
    if (track_masks_) {
      rec.kept_masks.reserve(kept);
      for (std::size_t i = 0; i < kept; ++i) rec.kept_masks.push_back(r.u64());
    }
    return rec;
  };
  open_.clear();
  open_head_ = 0;
  const std::size_t open_count = r.size();
  open_.reserve(open_count);
  for (std::size_t i = 0; i < open_count; ++i) open_.push_back(read_record());
  closed_.clear();
  const std::size_t closed_count = r.size();
  closed_.reserve(closed_count);
  for (std::size_t i = 0; i < closed_count; ++i) {
    closed_.push_back(read_record());
  }
  drained_.clear();
  views_.clear();
  scratch_.clear();

  next_id_ = r.u64();
  pending_event_ = r.event();
  pending_index_ = r.u64();
  pending_mcount_ = static_cast<std::size_t>(r.u64());
  pending_keeps_ = static_cast<std::size_t>(r.u64());
  pending_and_ = r.u64();
  pending_or_ = r.u64();
  pending_valid_ = r.boolean();
  events_seen_ = r.u64();
  any_close_pending_ = r.boolean();
  event_in_store_ = r.boolean();
  current_slot_ = r.u64();
  closed_count_ = r.u64();
  closed_size_sum_ = r.f64();
}

}  // namespace espice
