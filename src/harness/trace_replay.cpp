#include "harness/trace_replay.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <span>
#include <sstream>

#include "common/rng.hpp"
#include "datasets/csv.hpp"

namespace espice {
namespace {

constexpr EventTypeId kNumTypes = 6;
constexpr EventTypeId kOpenerType = 1;
constexpr EventTypeId kCloserType = 2;
constexpr double kPredictedWs = 24.0;

/// Deterministic, stateless shedder (pure hash of seq x position x salt):
/// identical decisions regardless of arrival order once the reorder stage
/// re-sequences the stream.  Mirrors the property-suite idiom.
class TraceHashShedder final : public Shedder {
 public:
  explicit TraceHashShedder(unsigned mod) : mod_(mod) {}

  bool should_drop(const Event& e, std::uint32_t position, double) override {
    const bool drop =
        mod_ != 0 &&
        ((e.seq * 2654435761ULL) ^ (position * 40503ULL)) % mod_ != 0;
    count_decision(drop);
    return drop;
  }
  void on_command(const DropCommand&) override {}
  const char* name() const override { return "trace-hash"; }

 private:
  unsigned mod_;
};

WindowSpec section_spec(const std::string& name) {
  WindowSpec spec;
  if (name == "count_slide") {
    spec.span_kind = WindowSpan::kCount;
    spec.span_events = 24;
    spec.open_kind = WindowOpen::kCountSlide;
    spec.slide_events = 5;
  } else if (name == "time_slide") {
    spec.span_kind = WindowSpan::kTime;
    spec.span_seconds = 7.5;
    spec.open_kind = WindowOpen::kCountSlide;
    spec.slide_events = 5;
  } else {  // predicate open + predicate close
    spec.span_kind = WindowSpan::kPredicate;
    spec.span_events = 40;  // safety cap
    spec.closer =
        element("close", TypeSet{kCloserType}, DirectionFilter::kAny);
    spec.open_kind = WindowOpen::kPredicate;
    spec.opener =
        element("open", TypeSet{kOpenerType}, DirectionFilter::kAny);
  }
  return spec;
}

EngineReport run_section(const std::string& name,
                         const std::vector<Event>& events,
                         const TraceReplayOptions& o) {
  StreamEngineConfig config;
  config.shards = o.shards;
  config.ring_capacity = 256;
  EngineQuery& q = config.queries.emplace_back();
  q.query.pattern =
      make_sequence({element("up", TypeSet{}, DirectionFilter::kRising),
                     element("down", TypeSet{}, DirectionFilter::kFalling)});
  q.query.window = section_spec(name);
  q.predicted_ws = kPredictedWs;
  if (o.drop_mod != 0) {
    const unsigned mod = o.drop_mod;
    q.shedder_factory = [mod](std::size_t) {
      return std::make_unique<TraceHashShedder>(mod);
    };
  }
  EventTimeConfig et;
  et.disorder_bound = o.disorder_bound;
  et.heartbeat_events = o.heartbeat_events;
  et.late_policy = o.late_policy;
  et.revise_horizon_windows = o.revise_horizon_windows;
  config.event_time = et;

  StreamEngine engine(std::move(config));
  const std::span<const Event> all(events);
  for (std::size_t i = 0; i < all.size(); i += o.batch) {
    engine.push_batch(all.subspan(i, std::min(o.batch, all.size() - i)));
  }
  return engine.finish();
}

// --- digest rendering -------------------------------------------------------

/// Shortest round-trip decimal for a double: bit changes surface as text.
std::string fmt_f(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void put_match(std::ostringstream& out, const char* tag, std::size_t i,
               const ComplexEvent& m) {
  out << "  " << tag << "[" << i << "]: window=" << m.window
      << " ts=" << fmt_f(m.detection_ts);
  for (const Constituent& c : m.constituents) {
    out << " (" << c.element << "@p" << c.position << "#s" << c.event.seq
        << " v=" << fmt_f(c.event.value) << ")";
  }
  out << "\n";
}

void put_section(std::ostringstream& out, const TraceReplaySection& s) {
  const EngineReport& r = s.report;
  out << "section " << s.name << "\n";
  out << "  totals: events=" << r.events << " matches=" << r.matches.size()
      << " windows_closed=" << r.total_windows_closed()
      << " shed_drops=" << r.total_shed_drops() << "\n";
  out << "  event_time: punctuations=" << r.punctuations
      << " late=" << r.late_events << " dropped=" << r.late_dropped
      << " side_output=" << r.late_side_output
      << " revisions=" << r.revisions << "\n";
  out << "  low_watermark: valid=" << (r.low_watermark_valid ? 1 : 0)
      << " seq=" << r.low_watermark_seq << "\n";
  for (std::size_t i = 0; i < r.matches.size(); ++i) {
    put_match(out, "match", i, r.matches[i]);
  }
  for (std::size_t qi = 0; qi < r.queries.size(); ++qi) {
    const QueryReport& q = r.queries[qi];
    out << "  query[" << qi << "] \"" << q.name
        << "\": matches=" << q.matches.size()
        << " memberships=" << q.memberships
        << " kept=" << q.memberships_kept
        << " decisions=" << q.shed_decisions << " drops=" << q.shed_drops
        << "\n";
    for (std::size_t ri = 0; ri < q.revisions.size(); ++ri) {
      const RevisionRecord& rev = q.revisions[ri];
      out << "  revision[" << qi << "." << ri << "]: late=" << rev.late_seq
          << " window=" << rev.window << " tag=" << rev.revision
          << " matches=" << rev.matches.size() << "\n";
      for (std::size_t mi = 0; mi < rev.matches.size(); ++mi) {
        out << "  ";
        put_match(out, "rematch", mi, rev.matches[mi]);
      }
    }
  }
  for (std::size_t si = 0; si < r.side_outputs.size(); ++si) {
    const SideOutputRecord& so = r.side_outputs[si];
    out << "  side_output[" << si << "]: seq=" << so.event.seq
        << " type=" << so.event.type << " ts=" << fmt_f(so.event.ts)
        << " wm=" << so.watermark_seq << " windows=[";
    for (std::size_t wi = 0; wi < so.windows.size(); ++wi) {
      out << (wi != 0 ? " " : "") << so.windows[wi];
    }
    out << "]\n";
  }
  // Per-shard deterministic counters only (no queue/backpressure gauges:
  // those depend on thread timing, not on the stream).
  for (const ShardStats& sh : r.shards) {
    out << "  shard[" << sh.shard << "]: events=" << sh.events
        << " memberships=" << sh.memberships
        << " kept=" << sh.memberships_kept
        << " windows_closed=" << sh.windows_closed
        << " matches=" << sh.matches << " late=" << sh.late_events
        << " dropped=" << sh.late_dropped << " side=" << sh.late_side_output
        << " revisions=" << sh.revisions
        << " wm=" << (sh.watermark_valid ? 1 : 0) << ":" << sh.watermark_seq
        << " reorder_peak=" << sh.reorder_peak_buffered << "\n";
  }
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

std::vector<Event> make_regression_trace(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<Event> events;
  events.reserve(n);
  double ts = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    Event e;
    e.type = static_cast<EventTypeId>(rng.uniform_int(kNumTypes));
    e.seq = i;
    ts += rng.uniform(0.0, 1.2);
    e.ts = ts;
    e.value = rng.uniform(-2.0, 2.0);
    events.push_back(e);
  }
  // Bounded shuffle: Fisher-Yates within blocks of 24, so no event is
  // displaced across a block boundary (measured disorder < 24).
  constexpr std::size_t kBlock = 24;
  for (std::size_t base = 0; base < events.size(); base += kBlock) {
    const std::size_t end = std::min(base + kBlock, events.size());
    for (std::size_t i = end - 1; i > base; --i) {
      const std::size_t j = base + rng.uniform_int(i - base + 1);
      std::swap(events[i], events[j]);
    }
  }
  // Two stragglers displaced 100 positions: beyond the canonical bound of
  // 32, so the late path (drop / side-output / revise) fires on replay.
  constexpr std::size_t kDisplace = 100;
  for (const std::size_t victim : {n / 3, (2 * n) / 3}) {
    auto it = std::find_if(events.begin(), events.end(),
                           [&](const Event& e) { return e.seq == victim; });
    if (it == events.end()) continue;
    const Event straggler = *it;
    const auto at = static_cast<std::size_t>(it - events.begin());
    events.erase(it);
    const std::size_t dst = std::min(at + kDisplace, events.size());
    events.insert(events.begin() + static_cast<std::ptrdiff_t>(dst),
                  straggler);
  }
  return events;
}

TraceReplayResult replay_trace(const std::vector<Event>& events,
                               const TraceReplayOptions& options) {
  TraceReplayResult result;
  result.trace_events = events.size();
  result.measured_disorder = measure_disorder(events);
  result.options = options;
  for (const char* name : {"count_slide", "time_slide", "predicate"}) {
    TraceReplaySection section;
    section.name = name;
    section.report = run_section(name, events, options);
    result.sections.push_back(std::move(section));
  }
  return result;
}

TraceReplayResult replay_trace_csv(const std::string& csv_path,
                                   const TraceReplayOptions& options) {
  TypeRegistry registry;
  CsvReadOptions read_options;
  read_options.on_bad_row = BadRowPolicy::kFail;
  read_options.require_stream_order = false;  // disordered capture
  const CsvReadResult loaded =
      load_events_csv(csv_path, registry, read_options);
  return replay_trace(loaded.events, options);
}

std::string replay_digest(const TraceReplayResult& result) {
  std::ostringstream out;
  out << "trace-replay digest v1\n";
  out << "trace: events=" << result.trace_events
      << " measured_disorder=" << result.measured_disorder << "\n";
  const TraceReplayOptions& o = result.options;
  out << "options: shards=" << o.shards << " batch=" << o.batch
      << " bound=" << o.disorder_bound
      << " policy=" << static_cast<int>(o.late_policy)
      << " horizon=" << o.revise_horizon_windows
      << " heartbeat=" << o.heartbeat_events << " drop_mod=" << o.drop_mod
      << "\n";
  for (const TraceReplaySection& s : result.sections) {
    put_section(out, s);
  }
  std::string body = out.str();
  char line[32];
  std::snprintf(line, sizeof line, "fnv=%016" PRIx64 "\n", fnv1a(body));
  body += line;
  return body;
}

}  // namespace espice
