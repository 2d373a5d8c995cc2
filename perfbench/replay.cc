#include "perfbench/replay.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>

#include "src/check/checker.h"
#include "src/check/history_recorder.h"
#include "src/lion/provisioner.h"
#include "src/planner/co_access_graph.h"
#include "src/planner/graph_partitioner.h"
#include "src/planner/plan_builder.h"
#include "src/repartition/cost_model.h"
#include "src/repartition/optimizer.h"
#include "src/router/query_router.h"
#include "src/router/routing_table.h"
#include "src/sim/simulator.h"
#include "src/storage/storage_engine.h"
#include "src/txn/lock_manager.h"
#include "src/workload/generator.h"
#include "src/workload/template_catalog.h"

namespace soap::perf {
namespace {

using Clock = std::chrono::steady_clock;

/// Collects spans and per-layer totals. A span's time always feeds its
/// LayerTime; the Span record itself is kept only when `keep` is set.
class Tracer {
 public:
  explicit Tracer(std::vector<Span>* out) : out_(out), origin_(Clock::now()) {}

  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  /// Opens a span; returns its id (0 when not kept).
  uint32_t Open(const char* name, uint32_t parent, uint64_t txn, bool keep,
                int64_t start) {
    if (!keep) return 0;
    Span s;
    s.id = static_cast<uint32_t>(out_->size() + 1);
    s.parent = parent;
    s.txn = txn;
    s.name = name;
    s.start_ns = start;
    out_->push_back(s);
    return s.id;
  }

  void Close(uint32_t id, int64_t end) {
    if (id != 0) (*out_)[id - 1].end_ns = end;
  }

 private:
  std::vector<Span>* out_;
  Clock::time_point origin_;
};

/// Times `fn` as one span named `name`, adds it to `layer` (when set)
/// with `calls` calls, and returns the elapsed nanoseconds.
template <typename Fn>
int64_t Timed(Tracer& tracer, const char* name, uint32_t parent,
              uint64_t txn, bool keep, LayerTime* layer, uint64_t calls,
              Fn&& fn) {
  const int64_t start = tracer.Now();
  const uint32_t id = tracer.Open(name, parent, txn, keep, start);
  fn();
  const int64_t end = tracer.Now();
  tracer.Close(id, end);
  if (layer != nullptr) {
    layer->ns += end - start;
    layer->calls += calls;
  }
  return end - start;
}

}  // namespace

ReplayResult Replay(const engine::ExperimentConfig& config,
                    const engine::ExperimentResult& run,
                    const workload::WorkloadTrace& trace,
                    const ReplayOptions& options) {
  ReplayResult out;
  const workload::WorkloadSpec& spec = config.workload_options.spec;
  const uint32_t nodes = config.cluster.num_nodes;
  const uint64_t num_keys = spec.num_keys;
  const bool lazy = num_keys > config.scale.sketch_threshold;
  const uint32_t total_intervals =
      config.warmup_intervals + config.measured_intervals;

  // --- Layer state, built the way Experiment::Run builds it (untimed).
  workload::TemplateCatalog catalog(spec, nodes);
  router::RoutingTable routing(num_keys);
  if (Status s = routing.AssignRoundRobin(0, num_keys, nodes); !s.ok()) {
    out.status = s;
    return out;
  }
  catalog.ForEachInitialOverride(
      [&](storage::TupleKey key, uint32_t partition) {
        (void)routing.SetPrimary(key, partition);
      });
  std::vector<std::unique_ptr<storage::StorageEngine>> engines;
  for (uint32_t p = 0; p < nodes; ++p) {
    engines.push_back(std::make_unique<storage::StorageEngine>(p));
    if (lazy) {
      engines.back()->SetLazyBase(num_keys, nodes);
    } else {
      engines.back()->Reserve(static_cast<size_t>(num_keys / nodes) * 2);
    }
  }
  auto place = [&](storage::TupleKey key, uint32_t partition) {
    storage::Tuple tuple;
    tuple.key = key;
    tuple.content = static_cast<int64_t>(key);
    engines[partition]->BulkLoad(tuple);
  };
  if (lazy) {
    catalog.ForEachInitialOverride(
        [&](storage::TupleKey key, uint32_t partition) {
          engines[key % nodes]->BulkEvict(key);
          place(key, partition);
        });
  } else {
    for (uint64_t key = 0; key < num_keys; ++key) {
      place(key, catalog.InitialPartitionOf(key));
    }
  }
  // The one-shot plan's migrations: the routing exception overlay and the
  // moved rows a run has once its plan deployed.
  const repartition::CostModel cost_model(config.cluster.costs,
                                          spec.queries_per_txn);
  const repartition::Optimizer optimizer(
      &catalog, &cost_model, nodes * config.cluster.workers_per_node);
  for (const repartition::PlacementAction& op :
       optimizer.DerivePlan(routing).ops) {
    if (op.kind != repartition::PlacementKind::kMigrate) continue;
    if (Status s = routing.Migrate(op.key, op.source_partition,
                                   op.target_partition);
        !s.ok()) {
      out.status = s;
      return out;
    }
    engines[op.source_partition]->BulkEvict(op.key);
    place(op.key, op.target_partition);
  }
  for (auto& engine : engines) engine->Checkpoint();
  router::QueryRouter router(&routing);
  txn::LockManager locks;

  // Planner, configured as Experiment::Run configures it.
  const bool planner_on = config.planner_options.enabled;
  planner::PlannerConfig pc = config.planner_options;
  if (pc.first_plan_interval == 0) {
    pc.first_plan_interval = config.warmup_intervals;
  }
  if (pc.replan_period == 0) pc.replan_period = 1;
  pc.graph.num_keys = num_keys;
  pc.graph.sketch_threshold = config.scale.sketch_threshold;
  pc.graph.sketch_topk = config.scale.sketch_topk;
  pc.graph.supernode_ranges = config.scale.supernode_ranges;
  if (config.replicas.enabled) {
    pc.builder.replicate_read_heavy = true;
    pc.builder.max_copies = config.replicas.max_copies;
    pc.builder.min_read_write_ratio = config.replicas.min_read_write_ratio;
    pc.builder.replica_split_threshold = config.replicas.split_threshold;
    pc.builder.drop_stale_replicas = config.replicas.drop_stale_replicas;
  }
  if (config.lion.enabled) {
    pc.builder.lion.enabled = true;
    pc.builder.lion.replica_budget =
        static_cast<uint32_t>(config.lion.replica_budget);
    (void)lion::ParseEvictPolicy(config.lion.evict, &pc.builder.lion.evict);
    pc.builder.lion.shift_threshold = config.lion.shift_threshold;
  }
  planner::CoAccessGraph graph(pc.graph);
  const planner::GraphPartitioner partitioner(pc.partitioner);
  planner::PlanBuilder builder(&catalog, &cost_model, pc.builder);
  lion::Provisioner provisioner(pc.builder.lion);
  if (pc.builder.lion.enabled) builder.set_lion(&provisioner);
  repartition::OpIdAllocator op_ids;

  const bool check_on = config.check.Enabled();
  check::HistoryRecorder recorder;

  // Event loop at the run's queue depth: Experiment::Run schedules every
  // interval's start and end up front, and each admitted transaction keeps
  // about one event pending. Those stand-ins sit past the replay horizon.
  sim::Simulator sim;
  out.sim_queue_depth =
      2ull * total_intervals + config.cluster.max_inflight;
  constexpr SimTime kFar = SimTime{1} << 60;
  for (uint64_t i = 0; i < out.sim_queue_depth; ++i) {
    sim.At(kFar + static_cast<SimTime>(i), []() {});
  }
  const uint64_t events_per_txn =
      run.counters.committed_normal == 0
          ? 1
          : std::max<uint64_t>(1, (run.events_executed +
                                   run.counters.committed_normal / 2) /
                                      run.counters.committed_normal);
  uint64_t lcg = config.seed | 1;
  uint64_t fired = 0;

  workload::WorkloadGenerator generator(&catalog, config.seed * 7919 + 13);
  const double per_interval_mean =
      run.arrival_rate_txn_s * ToSeconds(config.interval_length);

  Tracer tracer(&out.spans);
  const int64_t root_start = tracer.Now();
  const uint32_t root = tracer.Open("replay", 0, 0, true, root_start);
  std::vector<storage::TupleKey> write_keys;
  for (uint32_t k = 0; k < total_intervals && out.status.ok(); ++k) {
    const uint32_t interval =
        tracer.Open("interval", root, 0, true, tracer.Now());

    std::vector<std::unique_ptr<txn::Transaction>> drawn;
    out.generate.ns +=
        Timed(tracer, "workload.generate", interval, 0, true, nullptr, 0,
              [&]() {
                drawn = generator.GenerateInterval(per_interval_mean, k);
              });
    std::vector<std::unique_ptr<txn::Transaction>> batch =
        trace.ReplayInterval(k, catalog);
    out.generated += drawn.size();
    bool same = drawn.size() == batch.size();
    for (size_t i = 0; same && i < batch.size(); ++i) {
      same = drawn[i]->template_id == batch[i]->template_id &&
             drawn[i]->partner_template == batch[i]->partner_template;
    }
    if (!same) {
      out.status = Status::Internal(
          "interval " + std::to_string(k) +
          ": regenerated arrivals differ from the recorded trace");
      break;
    }
    out.generate.calls += drawn.size();
    drawn.clear();

    for (std::unique_ptr<txn::Transaction>& t : batch) {
      const uint64_t id = ++out.txns;
      t->id = id;
      const bool keep = id % options.span_every == 0;
      const uint32_t txn_span =
          tracer.Open("replay.txn", interval, id, keep, tracer.Now());
      const SimTime at = static_cast<SimTime>(k) * config.interval_length +
                         static_cast<SimTime>(id);

      Status failed = Status::OK();
      Timed(tracer, "router.route", txn_span, id, keep, &out.route,
            t->ops.size(), [&]() {
              for (txn::Operation& op : t->ops) {
                Result<router::PartitionId> p =
                    op.kind == txn::OpKind::kWrite ? router.RouteWrite(op.key)
                                                   : router.RouteRead(op.key);
                if (!p.ok()) {
                  failed = p.status();
                  return;
                }
                op.source_partition = *p;
              }
            });
      uint64_t reads = 0;
      write_keys.clear();
      for (const txn::Operation& op : t->ops) {
        if (op.kind == txn::OpKind::kWrite) {
          write_keys.push_back(op.key);
        } else {
          ++reads;
        }
      }
      std::sort(write_keys.begin(), write_keys.end());
      write_keys.erase(std::unique(write_keys.begin(), write_keys.end()),
                       write_keys.end());
      const uint64_t writes = t->ops.size() - reads;

      Timed(tracer, "storage.read", txn_span, id, keep, &out.read, reads,
            [&]() {
              for (const txn::Operation& op : t->ops) {
                if (op.kind == txn::OpKind::kWrite || !failed.ok()) continue;
                Result<storage::Tuple> row =
                    engines[op.source_partition]->Read(op.key);
                if (!row.ok()) failed = row.status();
              }
            });
      // Commit-time exclusive locks on the sorted write set, as the TM
      // takes them; a sequential replay is never blocked.
      out.lock.calls += write_keys.size();
      out.lock.ns +=
          Timed(tracer, "txn.lock", txn_span, id, keep, nullptr, 0, [&]() {
            for (storage::TupleKey key : write_keys) {
              if (locks.Acquire(id, key, txn::LockMode::kExclusive,
                                nullptr) != txn::AcquireOutcome::kGranted) {
                failed = Status::Internal("replay lock not granted");
              }
            }
          });
      Timed(tracer, "storage.update", txn_span, id, keep, &out.update,
            writes, [&]() {
              for (const txn::Operation& op : t->ops) {
                if (op.kind != txn::OpKind::kWrite || !failed.ok()) continue;
                Status s = engines[op.source_partition]->ApplyUpdate(
                    id, op.key, op.write_value);
                if (!s.ok()) failed = s;
              }
            });
      out.lock.ns += Timed(tracer, "txn.release", txn_span, id, keep, nullptr,
                           0, [&]() { locks.ReleaseAll(id); });
      t->state = txn::TxnState::kCommitted;

      if (check_on) {
        Timed(tracer, "check.record", txn_span, id, keep, &out.record, 1,
              [&]() {
                for (const txn::Operation& op : t->ops) {
                  if (op.kind == txn::OpKind::kWrite) {
                    storage::Tuple tuple;
                    tuple.key = op.key;
                    tuple.content = op.write_value;
                    recorder.OnApplyUpdate(op.source_partition, id, tuple);
                  } else {
                    recorder.OnRead(id, op.key, op.source_partition, at);
                  }
                }
                recorder.OnCommit(*t, at);
              });
      }
      if (planner_on) {
        Timed(tracer, "planner.observe", txn_span, id, keep, &out.observe, 1,
              [&]() { graph.Observe(*t); });
      }
      Timed(tracer, "sim.loop", txn_span, id, keep, &out.sim, events_per_txn,
            [&]() {
              for (uint64_t e = 0; e < events_per_txn; ++e) {
                lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
                sim.After(static_cast<Duration>(1 + (lcg >> 54)),
                          [&fired]() { ++fired; });
              }
              sim.RunUntil(sim.Now() + 1024);
            });
      tracer.Close(txn_span, tracer.Now());
      if (!failed.ok()) {
        out.status = Status::Internal("txn " + std::to_string(id) + ": " +
                                      failed.ToString());
        break;
      }
    }

    // Interval close: the planner's replan schedule, then the window decay.
    if (planner_on && out.status.ok()) {
      if (k + 1 >= pc.first_plan_interval &&
          (k + 1 - pc.first_plan_interval) % pc.replan_period == 0) {
        const int64_t start = tracer.Now();
        const uint32_t replan =
            tracer.Open("planner.replan", interval, 0, true, start);
        planner::Clustering clustering;
        Timed(tracer, "planner.partition", replan, 0, true, nullptr, 0, [&]() {
          clustering = partitioner.Partition(graph, routing, nodes);
        });
        Timed(tracer, "planner.build", replan, 0, true, nullptr, 0, [&]() {
          (void)builder.Build(clustering, graph, routing, &op_ids);
        });
        const int64_t end = tracer.Now();
        tracer.Close(replan, end);
        out.replan.ns += end - start;
        ++out.replan.calls;
      }
      Timed(tracer, "planner.decay", interval, 0, true, nullptr, 0,
            [&]() { graph.Decay(); });
    }
    tracer.Close(interval, tracer.Now());
  }

  if (out.status.ok() && fired != out.sim.calls) {
    out.status = Status::Internal("event loop fired " + std::to_string(fired) +
                                  " of " + std::to_string(out.sim.calls) +
                                  " scheduled events");
  }
  if (out.status.ok() && check_on) {
    Timed(tracer, "check.verify", root, 0, true, &out.verify, 1, [&]() {
      const check::CheckReport report = check::CheckHistory(
          recorder,
          config.cluster.isolation == cluster::IsolationLevel::kSerializable);
      out.check_violations = report.violations.size();
    });
  }
  tracer.Close(root, tracer.Now());
  return out;
}

Status WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::Unavailable("cannot open " + path);
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"id\":%u,\"parent\":%u,\"txn\":%llu,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 s.id, s.parent, static_cast<unsigned long long>(s.txn),
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  if (std::fclose(f) != 0) return Status::Unavailable("cannot write " + path);
  return Status::OK();
}

}  // namespace soap::perf
