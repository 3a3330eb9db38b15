#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "cep/incremental_matcher.hpp"
#include "cep/window.hpp"
#include "core/shedder.hpp"
#include "durability/event_log.hpp"
#include "runtime/spsc_ring.hpp"
#include "workloads.hpp"

namespace bench_suite {

using namespace espice;

namespace {

using Clock = std::chrono::steady_clock;

/// Layer-boundary stamp: the TSC where there is one (a few ns, so the
/// per-event stamps of the shedding workloads stay affordable), the steady
/// clock's nanoseconds elsewhere.
std::uint64_t stamp() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
#endif
}

/// Stamp ticks per second, calibrated once against the steady clock.
double ticks_per_second() {
  static const double rate = [] {
    const auto t0 = Clock::now();
    const std::uint64_t s0 = stamp();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const std::uint64_t s1 = stamp();
    const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
    return static_cast<double>(s1 - s0) / secs;
  }();
  return rate;
}

/// Contiguous layer accounting: charge(l) bills the time since the previous
/// boundary to layer l, so the layers partition the traced interval.
template <bool kOn>
struct Ledger {
  std::array<std::uint64_t, kLayerCount> ticks{};
  std::uint64_t last = 0;

  void begin() {
    if constexpr (kOn) last = stamp();
  }
  void charge(Layer layer) {
    if constexpr (kOn) {
      const std::uint64_t now = stamp();
      ticks[layer] += now - last;
      last = now;
    }
  }
};

/// KeptFeed decorator: bills the incremental matchers' advance work to the
/// matcher layer, out of the window call that drives it.
template <bool kOn>
class TimingFeed final : public KeptFeed {
 public:
  TimingFeed(Ledger<kOn>& ledger, KeptFeed& inner, std::uint64_t& fed)
      : ledger_(ledger), inner_(inner), fed_(fed) {}

  void on_event_kept(const Event& e, std::uint64_t offer_index,
                     QueryMask uniform, QueryMask partial) override {
    ledger_.charge(kWindow);
    inner_.on_event_kept(e, offer_index, uniform, partial);
    ledger_.charge(kMatcherAdvance);
    ++fed_;
  }
  void on_window_open(std::uint64_t open_index) override {
    inner_.on_window_open(open_index);
  }

 private:
  Ledger<kOn>& ledger_;
  KeptFeed& inner_;
  std::uint64_t& fed_;
};

/// One shard's pipeline, in DetPipeline's structure: queries with equal
/// windowing share a WindowManager; a group diverges (keep masks) when it
/// has several members and at least one shedder.
template <bool kOn>
class ShardReplay {
 public:
  ShardReplay(std::span<const EngineQuery> queries, std::size_t shard,
              Ledger<kOn>& ledger, ReplayResult& out)
      : ledger_(ledger), out_(out), matches_(queries.size()) {
    runtimes_.reserve(queries.size());
    for (const EngineQuery& q : queries) {
      runtimes_.push_back(Runtime{
          IncrementalMatcher(q.query.pattern, q.query.selection,
                             q.query.consumption,
                             q.query.max_matches_per_window),
          q.shedder_factory ? q.shedder_factory(shard) : nullptr,
          q.predicted_ws > 0.0
              ? q.predicted_ws
              : static_cast<double>(q.query.window.span_events),
          0, {}});
    }
    std::vector<std::vector<std::size_t>> members;
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      auto home = std::find_if(members.begin(), members.end(), [&](auto& m) {
        return same_windowing(queries[m.front()].query.window,
                              queries[qi].query.window);
      });
      if (home == members.end()) home = members.emplace(home);
      runtimes_[qi].bit = home->size();
      home->push_back(qi);
    }
    for (auto& m : members) {
      const WindowSpec& spec = queries[m.front()].query.window;
      bool any_shedder = false;
      bool any_incremental = false;
      for (const std::size_t qi : m) {
        any_shedder = any_shedder || runtimes_[qi].shedder != nullptr;
        any_incremental =
            any_incremental || runtimes_[qi].matcher.stream_incremental();
      }
      const bool diverging = m.size() > 1 && any_shedder;
      groups_.push_back(std::make_unique<Group>(spec, diverging, ledger_,
                                                out_.kept_fed));
      Group& g = *groups_.back();
      g.members = std::move(m);
      for (const std::size_t qi : g.members) {
        g.feed.add(&runtimes_[qi].matcher);
      }
      if (any_incremental && windows_can_overlap(spec)) {
        g.wm.set_kept_feed(&g.timing);
      }
    }
  }

  /// DetPipeline::process_data_block over one in-order run of events.
  void process(std::span<const Event> data) {
    out_.events += data.size();
    for (auto& gp : groups_) {
      Group& g = *gp;
      if (!g.diverging && g.members.size() == 1 &&
          runtimes_[g.members.front()].shedder != nullptr) {
        Runtime& rt = runtimes_[g.members.front()];
        for (const Event& e : data) {
          auto& ms = g.wm.offer(e);
          out_.memberships += ms.size();
          if (ms.empty()) continue;
          positions_of(ms);
          bits_.resize(keep_bitmap_words(ms.size()));
          ledger_.charge(kWindow);
          rt.shedder->score_block(e, pos_.data(), ms.size(), rt.predicted_ws,
                                  bits_.data());
          out_.scored += ms.size();
          ledger_.charge(kShedder);
          for (std::size_t i = 0; i < ms.size(); ++i) {
            if (keep_bit(bits_.data(), i)) g.wm.keep(ms[i], e);
          }
        }
      } else if (!g.diverging) {
        out_.memberships += g.wm.offer_keep_all_block(data);
      } else {
        for (const Event& e : data) {
          auto& ms = g.wm.offer(e);
          const std::size_t n = ms.size();
          out_.memberships += n;
          if (n == 0) continue;
          positions_of(ms);
          const std::size_t words = keep_bitmap_words(n);
          bits_.resize(words * g.members.size());
          ledger_.charge(kWindow);
          for (std::size_t b = 0; b < g.members.size(); ++b) {
            Runtime& rt = runtimes_[g.members[b]];
            std::uint64_t* bits = bits_.data() + b * words;
            if (rt.shedder == nullptr) {
              std::fill(bits, bits + words, ~0ULL);
            } else {
              rt.shedder->score_block(e, pos_.data(), n, rt.predicted_ws,
                                      bits);
              out_.scored += n;
            }
          }
          ledger_.charge(kShedder);
          for (std::size_t i = 0; i < n; ++i) {
            QueryMask mask = 0;
            for (std::size_t b = 0; b < g.members.size(); ++b) {
              if (keep_bit(bits_.data() + b * words, i)) {
                mask |= QueryMask{1} << runtimes_[g.members[b]].bit;
              }
            }
            if (mask != 0) g.wm.keep(ms[i], e, mask);
          }
        }
      }
      ledger_.charge(kWindow);
      flush(g);
    }
  }

  /// End of substream: close every window and flush.
  void close_all() {
    for (auto& g : groups_) {
      g->wm.close_all();
      ledger_.charge(kWindow);
      flush(*g);
    }
  }

  /// Per query, this shard's matches in detection order.
  std::vector<std::vector<ComplexEvent>>& matches() { return matches_; }

 private:
  struct Runtime {
    IncrementalMatcher matcher;
    std::unique_ptr<Shedder> shedder;
    double predicted_ws;
    std::size_t bit;
    std::vector<KeptEntry> filter_scratch;
  };
  struct Group {
    Group(const WindowSpec& spec, bool diverging_, Ledger<kOn>& ledger,
          std::uint64_t& fed)
        : wm(spec, diverging_), diverging(diverging_),
          timing(ledger, feed, fed) {}
    WindowManager wm;
    std::vector<std::size_t> members;
    bool diverging;
    MatcherFeed feed;
    TimingFeed<kOn> timing;
  };

  void positions_of(const std::vector<WindowManager::Membership>& ms) {
    pos_.resize(ms.size());
    for (std::size_t i = 0; i < ms.size(); ++i) pos_[i] = ms[i].position;
  }

  void flush(Group& g) {
    const auto& closed = g.wm.drain_closed();
    ledger_.charge(kWindow);
    for (const WindowView& w : closed) {
      for (const std::size_t qi : g.members) {
        Runtime& rt = runtimes_[qi];
        WindowView view = w;
        if (g.diverging) {
          view = filter_view_for_query(w, rt.bit, rt.filter_scratch);
          ledger_.charge(kWindow);
        }
        rt.matcher.finalize(view, matches_[qi]);
        ++out_.finalized;
        ledger_.charge(kMatcherFinalize);
      }
    }
  }

  Ledger<kOn>& ledger_;
  ReplayResult& out_;
  std::vector<Runtime> runtimes_;
  std::vector<std::unique_ptr<Group>> groups_;
  std::vector<std::vector<ComplexEvent>> matches_;
  std::vector<std::uint32_t> pos_;
  std::vector<std::uint64_t> bits_;
};

/// One shard's ring, reorder stage and pipeline.
template <bool kOn>
struct Shard {
  Shard(const ReplayInput& in, std::size_t shard, Ledger<kOn>& ledger,
        ReplayResult& out)
      : pipe(in.queries, shard, ledger, out),
        ring(in.ring_capacity),
        reorder(in.event_time ? in.event_time->disorder_bound : 0) {
    staged.reserve(kBatch);
  }
  ShardReplay<kOn> pipe;
  SpscRing<Event> ring;
  ReorderBuffer reorder;
  std::vector<Event> released;
  std::vector<Event> staged;  ///< the router's staging buffer
};

template <bool kOn>
ReplayResult run_replay(const ReplayInput& in) {
  ReplayResult out;
  Ledger<kOn> ledger;
  std::vector<std::unique_ptr<Shard<kOn>>> shards;
  for (std::size_t s = 0; s < in.shards; ++s) {
    shards.push_back(std::make_unique<Shard<kOn>>(in, s, ledger, out));
  }
  std::unique_ptr<durability::EventLogWriter> wal;
  if (!in.wal_dir.empty()) {
    durability::EventLogConfig cfg;
    cfg.dir = in.wal_dir;
    cfg.fsync = durability::FsyncPolicy::kNone;
    wal = std::make_unique<durability::EventLogWriter>(cfg);
  }

  // A shard drains one ring block at a time, as the engine's shard loop.
  const auto feed_shard = [&](Shard<kOn>& sh, std::span<const Event> batch) {
    sh.ring.try_push_bulk(batch.data(), batch.size());
    for (std::size_t done = 0; done < batch.size();) {
      const std::span<const Event> blk =
          sh.ring.front_block(batch.size() - done);
      ledger.charge(kRing);
      if (in.event_time == nullptr) {
        sh.pipe.process(blk);
      } else {
        for (const Event& e : blk) {
          sh.released.clear();
          if (sh.reorder.accept(e, sh.released) ==
              ReorderBuffer::Accept::kLate) {
            ++out.late_events;
          }
          ledger.charge(kReorder);
          if (!sh.released.empty()) sh.pipe.process(sh.released);
        }
      }
      sh.ring.release(blk.size());
      done += blk.size();
      ledger.charge(kRing);
    }
  };

  const auto t0 = Clock::now();
  ledger.begin();
  for (std::size_t i = 0; i < in.arrival.size(); i += kBatch) {
    const auto batch =
        in.arrival.subspan(i, std::min(kBatch, in.arrival.size() - i));
    if (wal != nullptr) {
      wal->append_batch(batch);
      ledger.charge(kWal);
    }
    if (in.shards == 1) {
      feed_shard(*shards.front(), batch);
      continue;
    }
    for (const Event& e : batch) {
      shards[StreamEngine::shard_index(e.type, in.shards)]->staged.push_back(
          e);
    }
    ledger.charge(kRoute);
    for (auto& sh : shards) {
      if (sh->staged.empty()) continue;
      feed_shard(*sh, sh->staged);
      sh->staged.clear();
    }
  }

  std::vector<std::vector<std::vector<ComplexEvent>>> per_query(
      in.queries.size(), std::vector<std::vector<ComplexEvent>>(in.shards));
  for (std::size_t s = 0; s < in.shards; ++s) {
    Shard<kOn>& sh = *shards[s];
    if (in.event_time != nullptr) {
      sh.released.clear();
      sh.reorder.flush(sh.released);
      ledger.charge(kReorder);
      if (!sh.released.empty()) sh.pipe.process(sh.released);
    }
    sh.pipe.close_all();
    for (std::size_t qi = 0; qi < in.queries.size(); ++qi) {
      per_query[qi][s] = std::move(sh.pipe.matches()[qi]);
    }
    ledger.charge(kWindow);
  }
  out.matches.reserve(in.queries.size());
  for (auto& per_shard : per_query) {
    out.matches.push_back(StreamEngine::merge_matches(std::move(per_shard)));
  }
  ledger.charge(kMerge);
  out.total_seconds = std::chrono::duration<double>(Clock::now() - t0).count();

  if constexpr (kOn) {
    const double tps = ticks_per_second();
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      out.self_seconds[l] = static_cast<double>(ledger.ticks[l]) / tps;
    }
  }
  return out;
}

}  // namespace

const char* layer_name(Layer layer) {
  static constexpr const char* kNames[kLayerCount] = {
      "router", "wal", "ring", "reorder", "window",
      "shedder", "matcher.advance", "matcher.finalize", "merge"};
  return kNames[layer];
}

ReplayResult replay(const ReplayInput& in, bool traced) {
  return traced ? run_replay<true>(in) : run_replay<false>(in);
}

}  // namespace bench_suite
