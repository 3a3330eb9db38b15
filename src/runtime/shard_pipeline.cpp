#include "runtime/shard_pipeline.hpp"

#include <string>

#include "common/error.hpp"
#include "core/espice_shedder.hpp"
#include "durability/serial.hpp"

namespace espice {

namespace {

void write_ce(durability::SnapshotWriter& w, const ComplexEvent& ce) {
  w.u64(ce.window);
  w.f64(ce.detection_ts);
  w.u64(ce.constituents.size());
  for (const Constituent& c : ce.constituents) {
    w.u32(c.element);
    w.u32(c.position);
    w.event(c.event);
  }
}

ComplexEvent read_ce(durability::SnapshotReader& r) {
  ComplexEvent ce;
  ce.window = static_cast<WindowId>(r.u64());
  ce.detection_ts = r.f64();
  const std::uint64_t n_cons = r.u64();
  for (std::uint64_t ci = 0; ci < n_cons; ++ci) {
    Constituent c;
    c.element = r.u32();
    c.position = r.u32();
    c.event = r.event();
    ce.constituents.push_back(std::move(c));
  }
  return ce;
}

}  // namespace

DetPipeline::DetPipeline(std::span<const EngineQuery> queries,
                         std::vector<std::unique_ptr<Shedder>> shedders,
                         const EventTimeConfig* event_time,
                         WindowObserver observer)
    : queries_(queries), observer_(std::move(observer)) {
  const std::size_t nq = queries.size();
  ESPICE_REQUIRE(shedders.size() == nq,
                 "pipeline needs one shedder slot per query");
  et_on_ = event_time != nullptr;
  if (et_on_) et_cfg_ = *event_time;

  query_matches.resize(nq);
  query_revisions.resize(nq);

  runtimes_.reserve(nq);
  for (std::size_t qi = 0; qi < nq; ++qi) {
    const EngineQuery& q = queries_[qi];
    QueryRuntime rt(IncrementalMatcher(q.query.pattern, q.query.selection,
                                       q.query.consumption,
                                       q.query.max_matches_per_window));
    rt.shedder = std::move(shedders[qi]);
    rt.predicted_ws = q.predicted_ws > 0.0
                          ? q.predicted_ws
                          : static_cast<double>(q.query.window.span_events);
    // Revisability hook: under kRevise, kept events can never force a
    // window revision later, so their utility gets the configured boost.
    // Applied before any restore (configuration, not state).
    if (et_on_ && et_cfg_.late_policy == LatePolicy::kRevise &&
        et_cfg_.revise_utility_boost != 0) {
      if (auto* es = dynamic_cast<EspiceShedder*>(rt.shedder.get())) {
        es->set_revise_boost(et_cfg_.revise_utility_boost);
      }
    }
    runtimes_.push_back(std::move(rt));
  }

  // Group queries by identical windowing: one WindowManager (and event
  // store) per group.  Masks are only tracked where queries actually
  // share, so the single-query hot path stays mask-free.
  std::vector<std::vector<std::size_t>> group_members;
  for (std::size_t qi = 0; qi < nq; ++qi) {
    bool placed = false;
    for (auto& members : group_members) {
      if (same_windowing(queries_[members.front()].query.window,
                         queries_[qi].query.window)) {
        runtimes_[qi].bit = members.size();
        members.push_back(qi);
        placed = true;
        break;
      }
    }
    if (!placed) {
      runtimes_[qi].bit = 0;
      group_members.push_back({qi});
    }
  }
  groups_.reserve(group_members.size());
  for (auto& members : group_members) {
    bool any_shedder = false;
    QueryMask keep_all_mask = 0;
    for (const std::size_t qi : members) {
      if (runtimes_[qi].shedder != nullptr) {
        any_shedder = true;
      } else {
        keep_all_mask |= QueryMask{1} << runtimes_[qi].bit;
      }
    }
    // Keep sets can only diverge between member queries when at least one
    // of them sheds; an all-keep group needs no masks and no per-query
    // filtering (every query sees the full window).
    const bool diverging = members.size() > 1 && any_shedder;
    groups_.push_back(
        Group{WindowManager(queries_[members.front()].query.window,
                            /*track_masks=*/diverging),
              std::move(members), diverging, keep_all_mask, MatcherFeed{}});
  }
  // Wire the feeds only once every group sits at its final address.  A
  // group whose members all take the window scan (last selection,
  // negations, multi-match), or whose windows never overlap (tumbling),
  // skips the per-event feed bookkeeping.
  for (Group& g : groups_) {
    bool any_incremental = false;
    for (const std::size_t qi : g.members) {
      g.feed.add(&runtimes_[qi].matcher);
      any_incremental =
          any_incremental || runtimes_[qi].matcher.stream_incremental();
    }
    const WindowSpec& spec = queries_[g.members.front()].query.window;
    if (any_incremental && windows_can_overlap(spec)) {
      g.wm.set_kept_feed(&g.feed);
    }
  }

  // Side-output attribution and revision both need recently closed windows
  // kept around.
  retain_windows_ = et_on_ && et_cfg_.late_policy != LatePolicy::kDrop;
  if (retain_windows_) {
    retained_.reserve(groups_.size());
    for (const Group& g : groups_) {
      retained_.emplace_back(queries_[g.members.front()].query.window,
                             et_cfg_.revise_horizon_windows);
    }
  }

  pos_scratch_.reserve(64);
  bits_scratch_.reserve(16);
}

void DetPipeline::flush(Group& g, ShardStats& stats) {
  const std::size_t gi = static_cast<std::size_t>(&g - groups_.data());
  for (const WindowView& w : g.wm.drain_closed()) {
    ++stats.windows_closed;
    for (const std::size_t qi : g.members) {
      QueryRuntime& rt = runtimes_[qi];
      WindowView view = w;
      if (g.diverging && rt.shedder != nullptr) {
        view = filter_view_for_query(w, rt.bit, rt.filter_scratch);
      } else {
        // A keep-all member's bit is on every physically kept entry, so
        // its filtered view is the whole window.
        view.kept_masks = {};
      }
      auto matches = rt.matcher.finalize(view);
      if (observer_) observer_(qi, view, matches);
      for (auto& m : matches) {
        query_matches[qi].push_back(std::move(m));
      }
    }
    // Event-time side-output / revise: keep the closed window (and its
    // keep masks) within the retention horizon.
    if (retain_windows_) retained_[gi].retain(w);
  }
}

WindowView DetPipeline::retained_view_for(const RetainedWindow& rw,
                                          const QueryRuntime& rt) {
  // Per-query view of a retained (revised) window: the full kept list for
  // uniform groups, the query's masked subset otherwise.  The spliced late
  // event carries an all-ones mask, so every member query sees it.
  if (rw.masks.empty()) return rw.win.view();
  Window& scratch = revise_scratch_;
  scratch.id = rw.win.id;
  scratch.open_ts = rw.win.open_ts;
  scratch.open_seq = rw.win.open_seq;
  scratch.open_index = rw.win.open_index;
  scratch.arrivals = rw.win.arrivals;
  scratch.kept.clear();
  scratch.kept_pos.clear();
  for (std::size_t i = 0; i < rw.win.kept.size(); ++i) {
    if ((rw.masks[i] >> rt.bit) & 1) {
      scratch.kept.push_back(rw.win.kept[i]);
      scratch.kept_pos.push_back(rw.win.kept_pos[i]);
    }
  }
  return scratch.view();
}

void DetPipeline::handle_late(const Event& e, std::uint64_t watermark_seq,
                              ShardStats& stats) {
  // A late event never enters the stream: it is counted, side-channeled,
  // or spliced into retained windows -- which re-finalize through the
  // legacy matcher under a fresh revision tag.
  ++stats.late_events;
  switch (et_cfg_.late_policy) {
    case LatePolicy::kDrop:
      ++stats.late_dropped;
      break;
    case LatePolicy::kSideOutput: {
      SideOutputRecord rec;
      rec.event = e;
      rec.watermark_seq = watermark_seq;
      for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
        for (const std::size_t idx : retained_[gi].covering(e)) {
          rec.windows.push_back(retained_[gi].at(idx).win.id);
        }
      }
      side_outputs.push_back(std::move(rec));
      ++stats.late_side_output;
      break;
    }
    case LatePolicy::kRevise: {
      bool any = false;
      for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
        Group& g = groups_[gi];
        for (const std::size_t idx : retained_[gi].covering(e)) {
          if (!retained_[gi].insert_event(idx, e)) continue;
          const RetainedWindow& rw = retained_[gi].at(idx);
          any = true;
          ++stats.revisions;
          for (const std::size_t qi : g.members) {
            QueryRuntime& rt = runtimes_[qi];
            RevisionRecord rec;
            rec.late_seq = e.seq;
            rec.window = rw.win.id;
            rec.revision = rw.revisions;
            // Revision bypasses shedding by design: the late event is
            // already paid for, and a revision exists to restore
            // accuracy, not to thin it.
            rec.matches = rt.matcher.rematch_window(retained_view_for(rw, rt));
            query_revisions[qi].push_back(std::move(rec));
          }
        }
      }
      // Beyond every retained horizon: nothing left to revise.
      if (!any) ++stats.late_dropped;
      break;
    }
  }
}

void DetPipeline::load_positions(
    const std::vector<WindowManager::Membership>& ms) {
  pos_scratch_.resize(ms.size());
  for (std::size_t i = 0; i < ms.size(); ++i) {
    pos_scratch_[i] = ms[i].position;
  }
}

bool DetPipeline::dropped_by_every_shedder(const Group& g,
                                           const Event& e) const {
  for (const std::size_t qi : g.members) {
    const Shedder* shedder = runtimes_[qi].shedder.get();
    if (shedder != nullptr && !shedder->drops_everywhere(e)) return false;
  }
  return true;
}

void DetPipeline::offer_pruned_run(Group& g, std::span<const Event> run,
                                   ShardStats& stats) {
  if (run.empty()) return;
  // Every shedding member drops each event of the run in every window, so
  // each membership is kept for exactly the keep-all members: one masked
  // bulk keep, or no keep at all when every member sheds.
  std::uint64_t mcount = 0;
  if (g.keep_all_mask != 0) {
    mcount = g.wm.offer_keep_all_block(run, g.keep_all_mask);
    stats.memberships_kept += mcount;
  } else {
    for (const Event& e : run) mcount += g.wm.offer_dropped(e);
  }
  stats.memberships += mcount;
  for (const std::size_t qi : g.members) {
    QueryRuntime& rt = runtimes_[qi];
    rt.memberships += mcount;
    if (rt.shedder != nullptr) {
      rt.shedder->count_dropped(mcount);
    } else {
      rt.kept += mcount;
    }
  }
}

void DetPipeline::offer_scored(Group& g, const Event& e, ShardStats& stats) {
  auto& memberships = g.wm.offer(e);
  const std::size_t mcount = memberships.size();
  stats.memberships += mcount;
  if (mcount == 0) return;
  load_positions(memberships);
  const std::size_t words = keep_bitmap_words(mcount);
  bits_scratch_.resize(words * g.members.size());
  for (std::size_t b = 0; b < g.members.size(); ++b) {
    QueryRuntime& rt = runtimes_[g.members[b]];
    rt.memberships += mcount;
    std::uint64_t* bits = bits_scratch_.data() + b * words;
    if (rt.shedder == nullptr) {
      for (std::size_t w = 0; w < words; ++w) bits[w] = ~0ULL;
      rt.kept += mcount;
    } else if (rt.shedder->drops_everywhere(e)) {
      for (std::size_t w = 0; w < words; ++w) bits[w] = 0;
      rt.shedder->count_dropped(mcount);
    } else {
      rt.shedder->score_block(e, pos_scratch_.data(), mcount,
                              rt.predicted_ws, bits);
      std::uint64_t kept = 0;
      for (std::size_t i = 0; i < mcount; ++i) {
        kept += keep_bit(bits, i);
      }
      rt.kept += kept;
    }
  }
  // Transpose the per-query bitmaps into per-membership masks.
  for (std::size_t i = 0; i < mcount; ++i) {
    QueryMask mask = 0;
    for (std::size_t b = 0; b < g.members.size(); ++b) {
      if (keep_bit(bits_scratch_.data() + b * words, i)) {
        mask |= QueryMask{1} << runtimes_[g.members[b]].bit;
      }
    }
    // Every query shed it -> physical drop (never buffered).
    if (mask != 0) {
      g.wm.keep(memberships[i], e, mask);
      ++stats.memberships_kept;
    }
  }
}

void DetPipeline::process_data_block(std::span<const Event> data,
                                     ShardStats& stats) {
  stats.events += data.size();
  for (Group& g : groups_) {
    if (g.members.size() == 1) {
      QueryRuntime& rt = runtimes_[g.members.front()];
      if (rt.shedder == nullptr) {
        // All-keep single query: the fully batched window path.
        const std::uint64_t kept = g.wm.offer_keep_all_block(data);
        rt.memberships += kept;
        rt.kept += kept;
        stats.memberships += kept;
        stats.memberships_kept += kept;
      } else {
        for (const Event& e : data) {
          if (rt.shedder->drops_everywhere(e)) {
            // Every window drops it: no membership list, no scoring.
            const std::size_t mcount = g.wm.offer_dropped(e);
            stats.memberships += mcount;
            rt.memberships += mcount;
            rt.shedder->count_dropped(mcount);
            continue;
          }
          auto& memberships = g.wm.offer(e);
          const std::size_t mcount = memberships.size();
          stats.memberships += mcount;
          rt.memberships += mcount;
          if (mcount == 0) continue;
          load_positions(memberships);
          bits_scratch_.resize(keep_bitmap_words(mcount));
          rt.shedder->score_block(e, pos_scratch_.data(), mcount,
                                  rt.predicted_ws, bits_scratch_.data());
          for (std::size_t i = 0; i < mcount; ++i) {
            if (keep_bit(bits_scratch_.data(), i)) {
              g.wm.keep(memberships[i], e);
              ++rt.kept;
              ++stats.memberships_kept;
            }
          }
        }
      }
    } else if (!g.diverging) {
      // Shared all-keep group: one mask-free batched pass covers every
      // member query.
      const std::uint64_t kept = g.wm.offer_keep_all_block(data);
      stats.memberships += kept;
      stats.memberships_kept += kept;
      for (const std::size_t qi : g.members) {
        runtimes_[qi].memberships += kept;
        runtimes_[qi].kept += kept;
      }
    } else {
      // Diverging group: maximal runs of events every shedding member
      // drops everywhere take the bulk path; the rest are scored.
      std::size_t run_begin = 0;
      for (std::size_t i = 0; i < data.size(); ++i) {
        if (dropped_by_every_shedder(g, data[i])) continue;
        offer_pruned_run(g, data.subspan(run_begin, i - run_begin), stats);
        offer_scored(g, data[i], stats);
        run_begin = i + 1;
      }
      offer_pruned_run(g, data.subspan(run_begin), stats);
    }
    flush(g, stats);
  }
}

void DetPipeline::advance_time_watermark(double ts, ShardStats& stats) {
  for (Group& g : groups_) {
    g.wm.advance_time_watermark(ts);
    flush(g, stats);
  }
}

void DetPipeline::close_all(ShardStats& stats) {
  for (Group& g : groups_) {
    g.wm.close_all();
    flush(g, stats);
  }
}

DetPipeline::QueryOutcome DetPipeline::outcome(std::size_t qi) const {
  const QueryRuntime& rt = runtimes_[qi];
  QueryOutcome o;
  o.memberships = rt.memberships;
  o.memberships_kept = rt.kept;
  if (rt.shedder != nullptr) {
    o.shed_decisions = rt.shedder->decisions();
    o.shed_drops = rt.shedder->drops();
  }
  return o;
}

void DetPipeline::serialize_core(durability::SnapshotWriter& w) {
  for (Group& g : groups_) g.wm.serialize(w);
  for (std::size_t qi = 0; qi < runtimes_.size(); ++qi) {
    const QueryRuntime& rt = runtimes_[qi];
    rt.matcher.serialize(w);
    w.boolean(rt.shedder != nullptr);
    if (rt.shedder != nullptr) rt.shedder->serialize(w);
    w.u64(rt.memberships);
    w.u64(rt.kept);
    const auto& matches = query_matches[qi];
    w.u64(matches.size());
    for (const ComplexEvent& ce : matches) write_ce(w, ce);
  }
}

void DetPipeline::restore_core(durability::SnapshotReader& r) {
  for (Group& g : groups_) g.wm.restore(r);
  for (std::size_t qi = 0; qi < runtimes_.size(); ++qi) {
    QueryRuntime& rt = runtimes_[qi];
    rt.matcher.restore(r);
    const bool has_shedder = r.boolean();
    ESPICE_CHECK(has_shedder == (rt.shedder != nullptr),
                 ErrorCode::kCorruptSnapshot,
                 "snapshot shedder presence does not match the engine's "
                 "query configuration");
    if (rt.shedder != nullptr) rt.shedder->restore(r);
    rt.memberships = r.u64();
    rt.kept = r.u64();
    const std::uint64_t n_matches = r.u64();
    auto& matches = query_matches[qi];
    matches.clear();
    for (std::uint64_t m = 0; m < n_matches; ++m) {
      matches.push_back(read_ce(r));
    }
  }
}

void DetPipeline::serialize_event_time(durability::SnapshotWriter& w) {
  if (retain_windows_) {
    for (const RetainedWindowStore& rs : retained_) rs.serialize(w);
  }
  w.size(side_outputs.size());
  for (const SideOutputRecord& so : side_outputs) {
    w.event(so.event);
    w.u64(so.watermark_seq);
    w.vec_int(so.windows);
  }
  for (std::size_t qi = 0; qi < runtimes_.size(); ++qi) {
    const auto& revs = query_revisions[qi];
    w.size(revs.size());
    for (const RevisionRecord& rec : revs) {
      w.u64(rec.late_seq);
      w.u64(rec.window);
      w.u64(rec.revision);
      w.u64(rec.matches.size());
      for (const ComplexEvent& ce : rec.matches) write_ce(w, ce);
    }
  }
}

void DetPipeline::restore_event_time(durability::SnapshotReader& r) {
  if (retain_windows_) {
    for (RetainedWindowStore& rs : retained_) rs.restore(r);
  }
  const std::size_t n_so = r.size();
  side_outputs.clear();
  for (std::size_t i = 0; i < n_so; ++i) {
    SideOutputRecord so;
    so.event = r.event();
    so.watermark_seq = r.u64();
    so.windows = r.vec_int<WindowId>();
    side_outputs.push_back(std::move(so));
  }
  for (std::size_t qi = 0; qi < runtimes_.size(); ++qi) {
    auto& revs = query_revisions[qi];
    revs.clear();
    const std::size_t n_revs = r.size();
    for (std::size_t i = 0; i < n_revs; ++i) {
      RevisionRecord rec;
      rec.late_seq = r.u64();
      rec.window = r.u64();
      rec.revision = r.u64();
      const std::uint64_t nm = r.u64();
      for (std::uint64_t m = 0; m < nm; ++m) {
        rec.matches.push_back(read_ce(r));
      }
      revs.push_back(std::move(rec));
    }
  }
}

}  // namespace espice
