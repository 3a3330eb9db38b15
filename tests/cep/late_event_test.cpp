// Late-event semantics: the reorder stage's classification boundary, the
// watermark-driven close boundary, and the three late policies (drop,
// side_output, revise) end to end through the engine report.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "cep/event_time.hpp"
#include "cep/window.hpp"
#include "durability/serial.hpp"
#include "runtime/stream_engine.hpp"

namespace espice {
namespace {

Event make_event(std::uint64_t seq, double ts, EventTypeId type = 0,
                 double value = 1.0) {
  Event e;
  e.type = type;
  e.seq = seq;
  e.ts = ts;
  e.value = value;
  return e;
}

/// In-order stream: one event per second, alternating direction so the
/// rising/falling test pattern matches.
std::vector<Event> ramp(std::size_t n) {
  std::vector<Event> events;
  events.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    events.push_back(make_event(i, static_cast<double>(i), 0,
                                (i % 2 == 0) ? -1.0 : 1.0));
  }
  return events;
}

// --- ReorderBuffer unit semantics -------------------------------------------

TEST(ReorderBuffer, ReleasesInSequenceOrderOnceWatermarkPasses) {
  ReorderBuffer buf(2);
  std::vector<Event> released;
  // Arrival order 2, 0, 1: all within bound 2.
  EXPECT_EQ(buf.accept(make_event(2, 2.0), released),
            ReorderBuffer::Accept::kBuffered);
  EXPECT_EQ(buf.accept(make_event(0, 0.0), released),
            ReorderBuffer::Accept::kBuffered);
  EXPECT_EQ(buf.accept(make_event(1, 1.0), released),
            ReorderBuffer::Accept::kBuffered);
  EXPECT_TRUE(released.empty()) << "max seq 2 < bound + 1";
  EXPECT_EQ(buf.accept(make_event(3, 3.0), released),
            ReorderBuffer::Accept::kBuffered);
  // max = 3 >= bound + 1: W = 3 - 3 = 0 releases exactly seq 0.
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0].seq, 0u);
  EXPECT_EQ(buf.watermark_seq(), 0u);
  buf.flush(released);
  ASSERT_EQ(released.size(), 4u);
  for (std::size_t i = 0; i < released.size(); ++i) {
    EXPECT_EQ(released[i].seq, i);
  }
  EXPECT_EQ(buf.watermark_seq(), 3u);
  // Peak counts the arriving event before its release: {2,0,1,3} were all
  // resident when seq 3 arrived.
  EXPECT_EQ(buf.peak_buffered(), 4u);
}

TEST(ReorderBuffer, LatenessBeyondBoundIsLate) {
  ReorderBuffer buf(3);
  std::vector<Event> released;
  for (std::uint64_t seq : {1u, 2u, 3u, 4u, 5u}) {
    buf.accept(make_event(seq, static_cast<double>(seq)), released);
  }
  // W = 5 - 4 = 1: seq 0 now has lateness 5 > bound 3.
  EXPECT_EQ(buf.accept(make_event(0, 0.0), released),
            ReorderBuffer::Accept::kLate);
  // Lateness exactly at the bound stays on time: seq 2 released already
  // (<= W), but a fresh seq-2 arrival would be late; seq 3 would not.
  EXPECT_EQ(buf.watermark_seq(), 1u);
}

TEST(ReorderBuffer, PunctuationRaisesWatermarkAndConvicts) {
  ReorderBuffer buf(100);
  std::vector<Event> released;
  buf.accept(make_event(5, 5.0), released);
  buf.accept(make_event(9, 9.0), released);
  EXPECT_FALSE(buf.has_watermark());
  buf.punctuate(7, released);
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0].seq, 5u);
  EXPECT_EQ(buf.watermark_seq(), 7u);
  // An event at or below the punctuation is late despite the huge bound.
  EXPECT_EQ(buf.accept(make_event(7, 7.0), released),
            ReorderBuffer::Accept::kLate);
  EXPECT_EQ(buf.accept(make_event(8, 8.0), released),
            ReorderBuffer::Accept::kBuffered);
  // A stale punctuation (<= W) is a no-op, never a regression.
  buf.punctuate(3, released);
  EXPECT_EQ(buf.watermark_seq(), 7u);
}

TEST(ReorderBuffer, SerializeRestoreRoundTripsMidStream) {
  ReorderBuffer buf(8);
  std::vector<Event> released;
  for (std::uint64_t seq : {4u, 1u, 12u, 7u, 3u}) {
    buf.accept(make_event(seq, static_cast<double>(seq)), released);
  }
  durability::SnapshotWriter w;
  buf.serialize(w);
  const auto blob = w.take();

  ReorderBuffer restored(8);
  durability::SnapshotReader r(blob);
  restored.restore(r);
  EXPECT_EQ(restored.buffered(), buf.buffered());
  EXPECT_EQ(restored.has_watermark(), buf.has_watermark());
  EXPECT_EQ(restored.watermark_seq(), buf.watermark_seq());

  // Both must classify and release identically from here on.
  std::vector<Event> a, b;
  EXPECT_EQ(buf.accept(make_event(2, 2.0), a),
            restored.accept(make_event(2, 2.0), b));
  buf.flush(a);
  restored.flush(b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].seq, b[i].seq);
}

TEST(MeasureDisorder, MatchesDefinition) {
  auto events = ramp(6);
  EXPECT_EQ(measure_disorder(events), 0u);
  std::swap(events[1], events[4]);  // seq order 0 4 2 3 1 5
  EXPECT_EQ(measure_disorder(events), 3u);  // when 1 arrives, max is 4
}

// --- watermark-driven close boundary ----------------------------------------

TEST(WindowManager, WatermarkAtExactSpanEndClosesTimeWindow) {
  WindowSpec spec;
  spec.span_kind = WindowSpan::kTime;
  spec.span_seconds = 7.5;
  spec.open_kind = WindowOpen::kPredicate;
  spec.opener = element("open", TypeSet{1}, DirectionFilter::kAny);
  WindowManager wm(spec);

  const Event opener = make_event(0, 0.0, 1);
  for (const auto& m : wm.offer(opener)) wm.keep(m, opener);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    const Event e = make_event(i, static_cast<double>(i), 0);
    for (const auto& m : wm.offer(e)) wm.keep(m, e);
  }
  EXPECT_TRUE(wm.drain_closed().empty());

  // Strictly inside the span: nothing closes.
  wm.advance_time_watermark(7.4999);
  EXPECT_TRUE(wm.drain_closed().empty());

  // Exactly at open_ts + span: [0, 7.5) is complete, the window closes.
  wm.advance_time_watermark(7.5);
  const auto& closed = wm.drain_closed();
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].kept_count(), 6u);
  EXPECT_EQ(closed[0].arrivals, 6u);
}

TEST(WindowManager, WatermarkCloseIsNoOpForCountSpans) {
  WindowSpec spec;
  spec.span_kind = WindowSpan::kCount;
  spec.span_events = 10;
  spec.open_kind = WindowOpen::kCountSlide;
  spec.slide_events = 10;
  WindowManager wm(spec);
  for (std::uint64_t i = 0; i < 5; ++i) {
    const Event e = make_event(i, static_cast<double>(i));
    for (const auto& m : wm.offer(e)) wm.keep(m, e);
  }
  wm.advance_time_watermark(1e9);
  EXPECT_TRUE(wm.drain_closed().empty()) << "count spans close by count only";
}

// --- the three policies, end to end ------------------------------------------

StreamEngineConfig make_config(LatePolicy policy, std::size_t horizon = 8) {
  StreamEngineConfig config;
  config.shards = 1;
  config.ring_capacity = 256;
  ShardQuery& q = config.queries.emplace_back().query;
  q.pattern =
      make_sequence({element("up", TypeSet{}, DirectionFilter::kRising),
                     element("down", TypeSet{}, DirectionFilter::kFalling)});
  q.window.span_kind = WindowSpan::kCount;
  q.window.span_events = 10;
  q.window.open_kind = WindowOpen::kCountSlide;
  q.window.slide_events = 5;
  EventTimeConfig et;
  et.disorder_bound = 4;
  et.late_policy = policy;
  et.revise_horizon_windows = horizon;
  config.event_time = et;
  return config;
}

/// Pushes `events` minus the withheld seqs in order, then the withheld
/// ones (now late: the watermark has long passed them).
EngineReport run_with_stragglers(StreamEngine& engine,
                                 const std::vector<Event>& events,
                                 const std::vector<std::uint64_t>& withheld) {
  std::vector<Event> head;
  for (const Event& e : events) {
    if (std::find(withheld.begin(), withheld.end(), e.seq) ==
        withheld.end()) {
      head.push_back(e);
    }
  }
  engine.push_batch(head);
  for (const std::uint64_t seq : withheld) engine.push(events[seq]);
  return engine.finish();
}

TEST(LatePolicy, DropCountsAndDiscards) {
  StreamEngine engine(make_config(LatePolicy::kDrop));
  const EngineReport report = run_with_stragglers(engine, ramp(40), {7, 8});
  EXPECT_EQ(report.late_events, 2u);
  EXPECT_EQ(report.late_dropped, 2u);
  EXPECT_EQ(report.late_side_output, 0u);
  EXPECT_EQ(report.revisions, 0u);
  EXPECT_TRUE(report.side_outputs.empty());
  EXPECT_EQ(report.events, 40u);
  EXPECT_EQ(report.shards[0].late_events, 2u);
}

TEST(LatePolicy, SideOutputAttributesToCoveringWindows) {
  StreamEngine engine(make_config(LatePolicy::kSideOutput));
  const EngineReport report = run_with_stragglers(engine, ramp(40), {7, 8});
  EXPECT_EQ(report.late_events, 2u);
  EXPECT_EQ(report.late_side_output, 2u);
  EXPECT_EQ(report.late_dropped, 0u);
  ASSERT_EQ(report.side_outputs.size(), 2u);

  // Canonical order: by late event seq.
  EXPECT_EQ(report.side_outputs[0].event.seq, 7u);
  EXPECT_EQ(report.side_outputs[1].event.seq, 8u);
  for (const SideOutputRecord& rec : report.side_outputs) {
    // Convicting watermark: 39 - bound(4) - 1 = 34.
    EXPECT_EQ(rec.watermark_seq, 34u);
    // Both stragglers fall in the closed windows opened at seq 0 and 5
    // (slide 5, span 10), and no other.
    EXPECT_EQ(rec.windows.size(), 2u) << "seq " << rec.event.seq;
  }
  EXPECT_EQ(report.side_outputs[0].windows, report.side_outputs[1].windows);
}

TEST(LatePolicy, ReviseReEmitsWithMonotoneRevisionTags) {
  // All falling except the stragglers: the on-time windows cannot match
  // the rising->falling pattern at all, so every match in a revision
  // provably consumed a spliced late event.
  auto events = ramp(40);
  for (Event& e : events) e.value = -1.0;
  events[7].value = 1.0;
  events[8].value = 1.0;

  StreamEngine engine(make_config(LatePolicy::kRevise));
  const EngineReport report = run_with_stragglers(engine, events, {7, 8});
  EXPECT_EQ(report.late_events, 2u);
  EXPECT_EQ(report.late_dropped, 0u);
  // Each straggler revises the two covering windows.
  EXPECT_EQ(report.revisions, 4u);
  ASSERT_EQ(report.queries.size(), 1u);
  const auto& revs = report.queries[0].revisions;
  ASSERT_EQ(revs.size(), 4u);

  // Canonical order is (late seq, shard, emission index); within one late
  // event, windows are revised oldest first.
  EXPECT_EQ(revs[0].late_seq, 7u);
  EXPECT_EQ(revs[1].late_seq, 7u);
  EXPECT_EQ(revs[2].late_seq, 8u);
  EXPECT_EQ(revs[3].late_seq, 8u);

  // Per window, revision tags are 1-based and monotone.
  std::map<WindowId, std::uint64_t> last_tag;
  for (const RevisionRecord& rec : revs) {
    const auto it = last_tag.find(rec.window);
    if (it == last_tag.end()) {
      EXPECT_EQ(rec.revision, 1u) << "window " << rec.window;
    } else {
      EXPECT_EQ(rec.revision, it->second + 1) << "window " << rec.window;
    }
    last_tag[rec.window] = rec.revision;
  }
  EXPECT_EQ(last_tag.size(), 2u) << "exactly the two covering windows";
  for (const auto& [window, tag] : last_tag) EXPECT_EQ(tag, 2u);

  // The re-finalized match sets consume the spliced stragglers: the only
  // rising events in any window are seq 7 and 8, so a non-empty revision
  // match can only exist through them.
  bool any_match = false;
  for (const RevisionRecord& rec : revs) {
    for (const ComplexEvent& m : rec.matches) {
      any_match = true;
      bool straggler = false;
      for (const auto& c : m.constituents) {
        if (c.event.seq == 7 || c.event.seq == 8) straggler = true;
      }
      EXPECT_TRUE(straggler) << "revision match without the late event";
    }
  }
  EXPECT_TRUE(any_match) << "revisions never re-matched";
}

TEST(LatePolicy, ReviseBeyondRetentionHorizonCountsAsDropped) {
  // Horizon of 1 window: by the time the straggler from the stream's head
  // arrives, its covering windows have been evicted.
  StreamEngine engine(make_config(LatePolicy::kRevise, /*horizon=*/1));
  const EngineReport report = run_with_stragglers(engine, ramp(200), {2});
  EXPECT_EQ(report.late_events, 1u);
  EXPECT_EQ(report.revisions, 0u);
  EXPECT_EQ(report.late_dropped, 1u);
  EXPECT_TRUE(report.queries[0].revisions.empty());
}

TEST(LatePolicy, ReviseHorizonZeroIsRejected) {
  StreamEngineConfig config = make_config(LatePolicy::kRevise);
  config.event_time->revise_horizon_windows = 0;
  EXPECT_THROW(StreamEngine{config}, ConfigError);
}

}  // namespace
}  // namespace espice
