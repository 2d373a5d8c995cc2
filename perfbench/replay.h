// Per-layer replay: re-drives a finished run's own arrival stream through
// each layer's public functions (workload generation, routing, locking,
// storage, the planner's graph/partitioner/builder, the check recorder and
// checker, and the simulator's event loop), timing every group of calls
// from outside the program. The run itself stays untouched; the replay is
// the benchmark's span source.

#ifndef SOAP_PERFBENCH_REPLAY_H_
#define SOAP_PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/engine/experiment.h"
#include "src/workload/trace.h"

namespace soap::perf {

/// One timed call (or group of calls of one kind) into a layer. Spans of
/// one replayed transaction share `txn`; interval- and run-level spans
/// carry txn 0. `parent` 0 marks the root.
struct Span {
  uint32_t id = 0;
  uint32_t parent = 0;
  uint64_t txn = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Wall time summed over every call of one kind, and the call count.
struct LayerTime {
  int64_t ns = 0;
  uint64_t calls = 0;

  double NsPerCall() const {
    return calls == 0 ? 0.0
                      : static_cast<double>(ns) / static_cast<double>(calls);
  }
};

struct ReplayOptions {
  /// Keep the spans of every n-th replayed transaction (interval- and
  /// run-level spans are always kept). Timing covers every transaction
  /// either way; this only bounds the span file.
  uint64_t span_every = 1;
};

struct ReplayResult {
  Status status = Status::OK();
  uint64_t txns = 0;       ///< transactions replayed from the trace
  uint64_t generated = 0;  ///< transactions the generator re-drew
  LayerTime generate;      ///< WorkloadGenerator::GenerateInterval
  LayerTime route;         ///< QueryRouter::RouteRead / RouteWrite
  LayerTime lock;          ///< LockManager::Acquire + ReleaseAll (per key)
  LayerTime read;          ///< StorageEngine::Read
  LayerTime update;        ///< StorageEngine::ApplyUpdate
  LayerTime observe;       ///< CoAccessGraph::Observe
  LayerTime replan;        ///< GraphPartitioner::Partition + PlanBuilder::
                           ///< Build, per replan
  LayerTime sim;           ///< Simulator::After + RunUntil (per event)
  LayerTime record;        ///< HistoryRecorder hooks (per transaction)
  LayerTime verify;        ///< check::CheckHistory
  uint64_t sim_queue_depth = 0;
  uint64_t check_violations = 0;
  std::vector<Span> spans;
};

/// Replays `trace` (recorded by the run that produced `run` under
/// `config`). Fails when a layer call errors or when the re-drawn
/// arrival stream differs from the recorded one.
ReplayResult Replay(const engine::ExperimentConfig& config,
                    const engine::ExperimentResult& run,
                    const workload::WorkloadTrace& trace,
                    const ReplayOptions& options);

/// Writes the spans as JSON lines: {"id","parent","txn","name",
/// "start_ns","end_ns"}, times relative to the replay start.
Status WriteSpans(const std::vector<Span>& spans, const std::string& path);

}  // namespace soap::perf

#endif  // SOAP_PERFBENCH_REPLAY_H_
