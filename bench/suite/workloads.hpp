// The four bench_suite workloads: their constants, their inputs (generated
// from the run's seed) and the engine configurations and queries they run.
//
// Every workload reads a prefix of ONE synthetic NYSE-like stream: the
// first kTrainEvents events train the eSPICE utility models, the events
// after them are what the passes push.  The sizes and open-loop rates are
// constants, never derived at run time, so two commits always offer the
// same load.  README.md explains why each workload exists.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cep/event.hpp"
#include "cep/type_registry.hpp"
#include "core/utility_model.hpp"
#include "datasets/stock.hpp"
#include "runtime/stream_engine.hpp"

namespace bench_suite {

/// Events per push_batch() call, in every pass.
inline constexpr std::size_t kBatch = 256;
/// Stream prefix the utility models are trained on.
inline constexpr std::size_t kTrainEvents = 470'000;

struct WorkloadSpec {
  const char* name;
  std::size_t shards;
  std::size_t ring_capacity;
  /// Events one closed-loop pass pushes.
  std::size_t pass_events;
  /// Fixed offered rate of the open-loop passes, events per second.
  double open_rate_eps;
  /// Load one open-loop pass offers, in seconds.  The engine takes one
  /// latency sample per shard per pushed batch, so this sets the samples
  /// per pass: at least 19 beyond the p99 on every workload.
  double open_seconds;
  /// WAL, checkpoints, event time and block-shuffled input.
  bool durable;
};

/// The workloads in their canonical order.
std::span<const WorkloadSpec> all_workloads();
/// nullptr when `name` is not a workload.
const WorkloadSpec* find_workload(const std::string& name);

/// Disorder bound of the durable workload's event-time stage; its input is
/// shuffled within blocks of this many events, so nothing is ever late.
inline constexpr std::uint64_t kDisorder = 64;
inline constexpr std::uint64_t kHeartbeatEvents = 4096;
/// The durable workload's traced pass calls checkpoint() every this many
/// pushed events.
inline constexpr std::uint64_t kCheckpointEvery = 500'000;

/// The generated stream of one run.
struct Inputs {
  espice::TypeRegistry registry;
  std::unique_ptr<espice::StockGenerator> gen;
  std::vector<espice::Event> train;
  /// In-order measurement events (the goldens are computed over these).
  std::vector<espice::Event> measure;
  /// Durable workloads: `measure` block-shuffled; empty otherwise.
  std::vector<espice::Event> shuffled;

  /// What the passes push, in arrival order.
  std::span<const espice::Event> arrival() const {
    return shuffled.empty() ? measure : shuffled;
  }
};

/// Generates the seed's stream, `scale` times the workload's sizes
/// (1 = full, 1/20 in smoke mode).
Inputs make_inputs(const WorkloadSpec& w, std::uint64_t seed, double scale);

/// Events an open-loop pass offers: open_seconds of load at the workload's
/// rate, capped at the `available` measurement events (smoke mode), as a
/// multiple of kBatch.
std::size_t open_pass_events(const WorkloadSpec& w, std::size_t available);

/// The workload's queries, with their trained shedders attached.
struct Prepared {
  std::vector<espice::EngineQuery> queries;
  std::vector<std::shared_ptr<const espice::UtilityModel>> models;
};

/// Trains every model the workload needs and builds its queries.
Prepared prepare_queries(const WorkloadSpec& w, const Inputs& in);

/// The drop command every trained eSPICE shedder is armed with.
espice::DropCommand shed_command();

/// The same queries with every shedder removed (the no-shed golden).
std::vector<espice::EngineQuery> without_shedders(
    std::vector<espice::EngineQuery> queries);

/// Engine configuration of the workload; `durable_dir` is used only by
/// durable workloads and must not exist yet.
espice::StreamEngineConfig engine_config(const WorkloadSpec& w,
                                         const std::string& durable_dir);

}  // namespace bench_suite
