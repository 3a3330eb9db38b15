// Bounded single-producer / single-consumer ring buffer.
//
// The StreamEngine's router feeds each shard through one of these: exactly
// one thread pushes (the router) and exactly one pops (the shard), which
// permits a wait-free design with two monotone cursors and no locks or CAS
// loops.  Memory ordering is the textbook pair: the producer publishes a
// slot with a release store of `tail_`, the consumer acquires it; the
// consumer frees a slot with a release store of `head_`, the producer
// acquires it.  Both sides additionally cache the peer's cursor and only
// reload it on apparent full/empty, so the steady-state fast path touches a
// single shared cache line per operation.
//
// Cursors are free-running 64-bit counters (never wrapped), so full/empty
// are simply `tail - head == capacity` / `tail == head` with no reserved
// slot.  Capacity is rounded up to a power of two; slot index = cursor &
// mask.
//
// Bulk transfer: try_push_bulk()/try_pop_bulk() move a whole block of items
// under ONE acquire/release cursor pair, amortizing the synchronization and
// the cache-line ping-pong that dominate the scalar ops at high rates.  The
// batched ingestion path (StreamEngine::push_batch) is built on them.
//
// close() is the producer's end-of-stream signal.  The consumer must keep
// draining after observing closed(): the release store in close() happens
// after the producer's final push, so "closed and try_pop() failed" is the
// only true termination condition (see pop_or_closed()).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace espice {

/// T must be nothrow-movable; slots are default-constructed up front (one
/// allocation in the constructor, none after).
template <typename T>
class SpscRing {
 public:
  explicit SpscRing(std::size_t capacity) {
    ESPICE_REQUIRE(capacity > 0, "ring capacity must be positive");
    std::size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::size_t capacity() const { return mask_ + 1; }

  /// Producer side.  Returns false when the ring is full.
  bool try_push(T value) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ >= capacity()) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ >= capacity()) return false;
    }
    slots_[tail & mask_] = std::move(value);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Producer side, bulk: pushes up to `n` items from `src` and returns how
  /// many were enqueued (0 when full).  One release store publishes the
  /// whole block, so the per-item synchronization cost is amortized over the
  /// block; the copy itself runs over at most two contiguous slot segments.
  /// Equivalent to calling try_push(src[i]) until it fails.
  std::size_t try_push_bulk(const T* src, std::size_t n) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    std::size_t free =
        capacity() - static_cast<std::size_t>(tail - head_cache_);
    if (free < n) {
      head_cache_ = head_.load(std::memory_order_acquire);
      free = capacity() - static_cast<std::size_t>(tail - head_cache_);
      if (free == 0) return 0;
    }
    const std::size_t count = std::min(n, free);
    const std::size_t start = static_cast<std::size_t>(tail) & mask_;
    const std::size_t first = std::min(count, capacity() - start);
    std::copy_n(src, first,
                slots_.begin() + static_cast<std::ptrdiff_t>(start));
    std::copy_n(src + first, count - first, slots_.begin());
    tail_.store(tail + count, std::memory_order_release);
    return count;
  }

  /// Producer side: no further pushes will happen.  Idempotent.
  void close() { closed_.store(true, std::memory_order_release); }
  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Consumer side.  Returns false when the ring is empty.
  bool try_pop(T& out) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return false;
    }
    out = std::move(slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side, bulk: pops up to `max` items into `dst` and returns how
  /// many were dequeued (0 when empty).  One acquire load observes the
  /// producer's cursor for the whole block; the move runs over at most two
  /// contiguous slot segments.  Equivalent to calling try_pop() until it
  /// fails.
  std::size_t try_pop_bulk(T* dst, std::size_t max) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    std::size_t avail = static_cast<std::size_t>(tail_cache_ - head);
    if (avail < max) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      avail = static_cast<std::size_t>(tail_cache_ - head);
      if (avail == 0) return 0;
    }
    const std::size_t count = std::min(max, avail);
    const std::size_t start = static_cast<std::size_t>(head) & mask_;
    const std::size_t first = std::min(count, capacity() - start);
    auto from = std::make_move_iterator(slots_.begin() +
                                        static_cast<std::ptrdiff_t>(start));
    std::copy_n(from, first, dst);
    std::copy_n(std::make_move_iterator(slots_.begin()), count - first,
                dst + first);
    head_.store(head + count, std::memory_order_release);
    return count;
  }

  /// Consumer side: pop, distinguishing "empty for now" from "drained and
  /// closed".  The closed check runs *before* the retry pop so the final
  /// push-then-close pair can never be missed.
  enum class Pop { kItem, kEmpty, kDone };
  Pop pop_or_closed(T& out) {
    if (try_pop(out)) return Pop::kItem;
    if (!closed()) return Pop::kEmpty;
    // Closed was observed (acquire) after a failed pop; anything the
    // producer pushed before close() is now visible -- one more pop decides.
    return try_pop(out) ? Pop::kItem : Pop::kDone;
  }

  /// Bulk analogue of pop_or_closed(): pops up to `max` items into `dst`.
  /// Returns the count; a zero return sets `done` when the ring is closed
  /// and fully drained (same never-miss-the-final-push ordering as the
  /// scalar version).
  std::size_t pop_bulk_or_closed(T* dst, std::size_t max, bool& done) {
    done = false;
    std::size_t n = try_pop_bulk(dst, max);
    if (n > 0) return n;
    if (!closed()) return 0;
    n = try_pop_bulk(dst, max);
    done = n == 0;
    return n;
  }

  /// Consumer side, zero-copy bulk: a contiguous view of up to `max` queued
  /// items starting at the oldest, WITHOUT dequeuing them.  The slots stay
  /// owned by the consumer -- the producer cannot reuse them -- until
  /// release() frees them, so the view can be processed in place (no
  /// copy-out).  May return fewer than queued when the available span wraps
  /// the ring edge; empty means "nothing queued right now".
  std::span<const T> front_block(std::size_t max) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    std::size_t avail = static_cast<std::size_t>(tail_cache_ - head);
    if (avail < max) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      avail = static_cast<std::size_t>(tail_cache_ - head);
      if (avail == 0) return {};
    }
    const std::size_t start = static_cast<std::size_t>(head) & mask_;
    const std::size_t count =
        std::min(std::min(avail, max), capacity() - start);
    return {slots_.data() + start, count};
  }

  /// Consumer side: frees the oldest `n` slots (the prefix handed out by
  /// front_block()).  One release store -- the bulk-dequeue commit.
  void release(std::size_t n) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    ESPICE_ASSERT(n <= static_cast<std::size_t>(tail_cache_ - head),
                  "releasing more slots than were handed out");
    head_.store(head + n, std::memory_order_release);
  }

  /// Approximate occupancy; exact when called by the producer or consumer
  /// thread for its own side's view, a safe snapshot otherwise.  This is the
  /// per-shard queue-depth (backpressure) signal fed to overload detectors.
  std::size_t size() const {
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    return tail >= head ? static_cast<std::size_t>(tail - head) : 0;
  }

  bool empty() const { return size() == 0; }

 private:
  // Producer-owned line: tail cursor plus the cached consumer position.
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  std::uint64_t head_cache_ = 0;
  // Consumer-owned line: head cursor plus the cached producer position.
  alignas(64) std::atomic<std::uint64_t> head_{0};
  std::uint64_t tail_cache_ = 0;
  alignas(64) std::atomic<bool> closed_{false};

  std::vector<T> slots_;
  std::size_t mask_ = 0;
};

/// A bank of P single-producer lanes feeding ONE consumer, merged back into
/// the global stream order by sequence number.  This is the multi-producer
/// ingestion stage: each producer thread owns exactly one lane (a plain
/// SpscRing, so every push stays wait-free and lock-free), and the consumer
/// runs a deterministic P-way merge, emitting items in strictly increasing
/// `.seq` order regardless of how producer pushes interleave in real time.
///
/// Requirements on T and the producers:
///   - T has a public integral `seq` field;
///   - each producer pushes its items in strictly increasing seq order;
///   - seqs are unique across ALL lanes (the merge output is then a total
///     order and bit-identical run to run).
///
/// The merge must never emit seq s while another lane could still produce
/// an item with seq < s.  An empty lane alone cannot decide this -- the
/// producer might simply be between batches -- so each lane carries a
/// "floor": a producer-maintained promise that every FUTURE push on that
/// lane has seq >= floor.  Producers advance it after each batch
/// (set_floor(last_seq + 1)) and close() raises it to infinity.  The merge
/// emits the smallest visible head seq only when every other lane either
/// shows a head above it or promises (floor / closed) never to go below it;
/// otherwise it reports kStall and the caller decides how to wait.
///
/// Memory-ordering note: a floor value may only be trusted against an
/// emptiness observation made AFTER the floor was read.  The producer
/// stores the floor (release) after its batch pushes; the consumer
/// therefore re-reads the lane head after acquiring the floor, so any push
/// the floor "covers" is visible before the lane is judged empty.
template <typename T>
class SpscLaneSet {
 public:
  SpscLaneSet(std::size_t lanes, std::size_t capacity_per_lane) {
    ESPICE_REQUIRE(lanes > 0, "lane set needs at least one lane");
    lanes_.reserve(lanes);
    for (std::size_t i = 0; i < lanes; ++i)
      lanes_.push_back(std::make_unique<Lane>(capacity_per_lane));
  }

  std::size_t lane_count() const { return lanes_.size(); }

  /// Producer side: lane `p` belongs exclusively to producer p.
  SpscRing<T>& lane(std::size_t p) { return lanes_[p]->ring; }

  /// Producer side: promise that every future push on lane `p` has
  /// seq >= `bound`.  Must be monotonically non-decreasing.
  void set_floor(std::size_t p, std::uint64_t bound) {
    lanes_[p]->floor.store(bound, std::memory_order_release);
  }

  /// Producer side: end of stream on lane `p` (floor becomes infinite).
  void close_lane(std::size_t p) {
    Lane& ln = *lanes_[p];
    ln.floor.store(~std::uint64_t{0}, std::memory_order_release);
    ln.ring.close();
  }

  enum class Merge { kItems, kStall, kDone };

  /// Consumer side: pops up to `max` items into `dst` in global seq order.
  /// kItems  -> out_n > 0 items were emitted (more may be ready);
  /// kStall  -> nothing emittable right now: some open lane is empty with a
  ///            floor at or below the smallest visible head, so emitting
  ///            would race a slower producer.  Wait and retry.
  /// kDone   -> every lane is closed and drained; the stream is complete.
  Merge merge_pop(T* dst, std::size_t max, std::size_t& out_n) {
    out_n = 0;
    while (out_n < max) {
      std::uint64_t best_seq = ~std::uint64_t{0};
      std::uint64_t second = ~std::uint64_t{0};
      std::uint64_t stall_bound = ~std::uint64_t{0};
      Lane* best = nullptr;
      bool all_done = true;
      for (auto& lp : lanes_) {
        Lane& ln = *lp;
        refresh(ln);
        if (ln.done) continue;
        all_done = false;
        if (ln.pos < ln.view.size()) {
          const std::uint64_t s =
              static_cast<std::uint64_t>(ln.view[ln.pos].seq);
          if (s < best_seq) {
            second = best_seq;
            best_seq = s;
            best = &ln;
          } else if (s < second) {
            second = s;
          }
        } else {
          stall_bound = std::min(stall_bound, ln.bound);
        }
      }
      if (all_done) return out_n > 0 ? Merge::kItems : Merge::kDone;
      if (best == nullptr || stall_bound <= best_seq)
        return out_n > 0 ? Merge::kItems : Merge::kStall;
      // Drain the winning lane while it provably stays the minimum: its
      // items are below every other visible head AND below every empty
      // lane's floor.
      const std::uint64_t limit = std::min(second, stall_bound);
      while (out_n < max && best->pos < best->view.size()) {
        const T& item = best->view[best->pos];
        if (static_cast<std::uint64_t>(item.seq) >= limit) break;
        dst[out_n++] = item;
        ++best->pos;
      }
    }
    return Merge::kItems;
  }

  /// Approximate total occupancy across lanes (queue-depth signal).
  std::size_t size() const {
    std::size_t n = 0;
    for (const auto& lp : lanes_) n += lp->ring.size();
    return n;
  }

 private:
  struct Lane {
    explicit Lane(std::size_t cap) : ring(cap) {}
    SpscRing<T> ring;
    alignas(64) std::atomic<std::uint64_t> floor{0};
    // Consumer-owned merge state.
    std::span<const T> view{};
    std::size_t pos = 0;
    std::uint64_t bound = 0;  // floor snapshot valid for the current view
    bool done = false;
  };

  /// Consumer side: make the lane's head visible, or establish a trustable
  /// (floor, empty) observation, or mark it done.
  void refresh(Lane& ln) {
    if (ln.done || ln.pos < ln.view.size()) return;
    if (ln.pos > 0) {
      ln.ring.release(ln.pos);
      ln.view = {};
      ln.pos = 0;
    }
    ln.view = ln.ring.front_block(ln.ring.capacity());
    if (!ln.view.empty()) return;
    // Empty: acquire the floor FIRST, then look again -- every push made
    // before that floor value was published is visible to the second look.
    ln.bound = ln.floor.load(std::memory_order_acquire);
    const bool was_closed = ln.ring.closed();
    ln.view = ln.ring.front_block(ln.ring.capacity());
    if (!ln.view.empty()) return;
    if (was_closed) ln.done = true;
  }

  std::vector<std::unique_ptr<Lane>> lanes_;
};

}  // namespace espice
