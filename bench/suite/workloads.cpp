#include "workloads.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "core/espice_shedder.hpp"
#include "harness/experiment.hpp"
#include "harness/queries.hpp"

namespace bench_suite {

using namespace espice;

namespace {

// Sizes and rates were chosen from sizing runs of the unchanged engine:
// each open-loop rate sits at or below a third of the workload's measured
// closed-loop capacity (README.md, "Workloads").
constexpr WorkloadSpec kWorkloads[] = {
    {"q4_shed", 1, 4096, 2'500'000, 2.5e6, 0.5, false},
    {"ingest_k2", 2, 4096, 4'000'000, 8.0e6, 0.5, false},
    {"durable_et_k2", 2, 16384, 2'000'000, 2.0e6, 0.5, true},
    {"mq5_shed", 1, 4096, 512'000, 0.5e6, 1.0, false},
};

/// Q4's window: count 2000, slide 100 (overlap 20).
constexpr std::size_t kQ4Window = 2000;
constexpr std::size_t kQ4Slide = 100;
/// UT bin size of every trained model.
constexpr std::size_t kBinSize = 4;

/// Fisher-Yates within consecutive blocks of kDisorder events: the
/// measured disorder stays below the bound, so no event is late.
void block_shuffle(std::vector<Event>& events, std::uint64_t seed) {
  Rng rng(seed ^ 0x5f0f71eULL);
  for (std::size_t base = 0; base < events.size(); base += kDisorder) {
    const std::size_t end = std::min<std::size_t>(base + kDisorder,
                                                  events.size());
    for (std::size_t i = end - 1; i > base; --i) {
      const std::size_t j = base + rng.uniform_int(i - base + 1);
      std::swap(events[i], events[j]);
    }
  }
}

/// Paper Q4's repetition layout over the hot followers of leader `leader`
/// (make_q4 fixes leader 1; the multi-query workload needs all five).
QueryDef q4_for_leader(const StockGenerator& gen, std::size_t leader) {
  static constexpr std::size_t kLayout[] = {1, 1, 2, 3, 2, 4, 2,
                                            5, 6, 7, 2, 8, 9, 10};
  const auto symbols = gen.repetition_symbols(gen.leaders()[leader], 10);
  std::vector<ElementSpec> elements;
  for (const std::size_t idx : kLayout) {
    elements.push_back(element("RE" + std::to_string(idx),
                               TypeSet{symbols[idx - 1]},
                               DirectionFilter::kRising));
  }
  QueryDef q = make_q4(gen, kQ4Window, kQ4Slide);
  q.name = "Q4(leader=" + std::to_string(leader) + ")";
  q.pattern = make_sequence(std::move(elements));
  return q;
}

/// The rising/falling/rising pattern over any type, count 1024 slide 512.
QueryDef ingest_query() {
  QueryDef q;
  q.name = "rfr";
  q.pattern = make_sequence(
      {element("up", TypeSet{}, DirectionFilter::kRising),
       element("down", TypeSet{}, DirectionFilter::kFalling),
       element("up2", TypeSet{}, DirectionFilter::kRising)});
  q.window.span_kind = WindowSpan::kCount;
  q.window.span_events = 1024;
  q.window.open_kind = WindowOpen::kCountSlide;
  q.window.slide_events = 512;
  return q;
}

/// Trains `q`'s model on the training prefix and returns the query with an
/// armed eSPICE shedder per shard.
EngineQuery shedding_query(const QueryDef& q, const Inputs& in,
                           Prepared& out) {
  const TrainedModel trained =
      train_model(q, in.registry.size(), in.train, kBinSize);
  out.models.push_back(trained.model);
  auto model = trained.model;
  return to_engine_query(q, [model](std::size_t) {
    auto shedder = std::make_unique<EspiceShedder>(model);
    shedder->on_command(shed_command());
    return shedder;
  });
}

}  // namespace

std::span<const WorkloadSpec> all_workloads() { return kWorkloads; }

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::size_t open_pass_events(const WorkloadSpec& w, std::size_t available) {
  const auto offered =
      static_cast<std::size_t>(w.open_rate_eps * w.open_seconds);
  return std::min(offered, available) / kBatch * kBatch;
}

Inputs make_inputs(const WorkloadSpec& w, std::uint64_t seed, double scale) {
  Inputs in;
  StockConfig cfg;
  cfg.seed = seed;
  in.gen = std::make_unique<StockGenerator>(cfg, in.registry);
  const auto scaled = [scale](std::size_t n) {
    return static_cast<std::size_t>(std::llround(static_cast<double>(n) *
                                                  scale)) /
           kBatch * kBatch;
  };
  in.train = in.gen->generate(scaled(kTrainEvents));
  in.measure = in.gen->generate(scaled(w.pass_events));
  if (w.durable) {
    in.shuffled = in.measure;
    block_shuffle(in.shuffled, seed);
  }
  return in;
}

DropCommand shed_command() {
  // The paper detector's drop amount at R = 1.2 th: x = N / 6 of each
  // N = 2000 position window, one partition.
  DropCommand cmd;
  cmd.active = true;
  cmd.x = 333.0;
  cmd.partitions = 1;
  return cmd;
}

Prepared prepare_queries(const WorkloadSpec& w, const Inputs& in) {
  Prepared p;
  const std::string name = w.name;
  if (name == "q4_shed") {
    p.queries.push_back(
        shedding_query(make_q4(*in.gen, kQ4Window, kQ4Slide), in, p));
  } else if (name == "ingest_k2") {
    p.queries.push_back(to_engine_query(ingest_query()));
  } else if (name == "durable_et_k2") {
    p.queries.push_back(to_engine_query(make_q2(*in.gen, 20)));
  } else {
    // mq5_shed: one Q4-layout query per leader, all on one shared window;
    // queries 0 and 1 shed with their own models, 2-4 keep everything, so
    // the group diverges and runs with keep masks.
    for (std::size_t leader = 0; leader < 5; ++leader) {
      const QueryDef q = q4_for_leader(*in.gen, leader);
      p.queries.push_back(leader < 2 ? shedding_query(q, in, p)
                                     : to_engine_query(q));
    }
  }
  return p;
}

std::vector<EngineQuery> without_shedders(std::vector<EngineQuery> queries) {
  for (EngineQuery& q : queries) q.shedder_factory = nullptr;
  return queries;
}

StreamEngineConfig engine_config(const WorkloadSpec& w,
                                 const std::string& durable_dir) {
  StreamEngineConfig config;
  config.shards = w.shards;
  config.ring_capacity = w.ring_capacity;
  config.latency_sample_every = 64;
  if (w.durable) {
    DurabilityConfig d;
    d.dir = durable_dir;
    d.fsync = durability::FsyncPolicy::kNone;
    config.durability = d;
    EventTimeConfig et;
    et.disorder_bound = kDisorder;
    et.heartbeat_events = kHeartbeatEvents;
    et.late_policy = LatePolicy::kDrop;
    config.event_time = et;
  }
  return config;
}

}  // namespace bench_suite
