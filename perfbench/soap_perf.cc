// soap_perf: runs one benchmark workload once and prints its raw facts as
// one JSON object on stdout. perfbench/run.py drives it (one process per
// run, so each run's peak RSS is its own) and turns the facts into the
// benchmark's metrics.
//
//   soap_perf --mode run    --workload paper --seed 3   untraced run
//   soap_perf --mode setup  --workload paper --seed 3   set-up only
//   soap_perf --mode traced --workload paper --seed 3 --out .bench_out/x
//
// `traced` turns on the TxnTracer, records the arrival stream to
// <out>.arrivals, replays it through every layer (replay.h) and writes the
// replay's spans to <out>.spans.jsonl. `--quick` shrinks every workload to
// a few seconds for the benchmark's own tests.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/replay.h"
#include "src/common/flags.h"
#include "src/common/json.h"
#include "src/engine/experiment.h"
#include "src/engine/flag_table.h"
#include "src/workload/trace.h"

namespace {

using soap::Result;
using soap::Status;
using soap::engine::ExperimentConfig;
using soap::engine::ExperimentResult;

// Every n-th transaction gets TxnTracer spans in traced runs: ~140k traced
// transactions on the paper cell, well under the tracer's span cap.
constexpr uint32_t kTraceSample = 8;
// Replayed transactions whose spans go to the span file.
constexpr uint64_t kSpanTxns = 4000;

#ifdef NDEBUG
constexpr bool kAssertsOn = false;
#else
constexpr bool kAssertsOn = true;
#endif

/// Why this build must not be measured, or empty when it may.
std::string BuildRefusal() {
  const std::string type = SOAP_PERF_BUILD_TYPE;
  const std::string flags = SOAP_PERF_CXX_FLAGS;
  if (type != "Release" && type != "RelWithDebInfo") {
    return "build type '" + type + "' is not Release or RelWithDebInfo";
  }
  if (kAssertsOn) return "assertions are enabled (NDEBUG is not defined)";
#if defined(_GLIBCXX_ASSERTIONS) || defined(_GLIBCXX_DEBUG)
  return "libstdc++ assertions are enabled";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#endif
  if (flags.find("-fsanitize") != std::string::npos) {
    return "built with a sanitizer";
  }
  return "";
}

/// Minimal JSON object writer for the one-line result.
class JsonObject {
 public:
  JsonObject& Num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return Raw(key, buf);
  }
  JsonObject& Int(const char* key, uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  JsonObject& Bool(const char* key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  JsonObject& Str(const char* key, const std::string& v) {
    return Raw(key, "\"" + soap::json::Escape(v) + "\"");
  }
  JsonObject& Raw(const char* key, const std::string& json) {
    os_ << (first_ ? "{" : ",") << '"' << key << "\":" << json;
    first_ = false;
    return *this;
  }
  std::string Done() {
    os_ << (first_ ? "{}" : "}");
    return os_.str();
  }

 private:
  std::ostringstream os_;
  bool first_ = true;
};

/// The `bench_scale` cell shape: planner on, hybrid deployment, zipf with
/// a pair-hub drift phase after warmup.
ExperimentConfig ScaleOutConfig(bool quick) {
  ExperimentConfig config;
  config.workload_options.spec = soap::workload::WorkloadSpec::Zipf(1.0);
  config.workload_options.spec.num_keys = quick ? 200'000 : 4'000'000;
  config.cluster.num_nodes = 16;
  config.workload_options.utilization = soap::workload::kHighLoadUtilization;
  config.deployment.strategy = soap::SchedulingStrategy::kHybrid;
  config.deployment.feedback.sp = 1.05;
  config.warmup_intervals = quick ? 1 : 2;
  config.measured_intervals = quick ? 3 : 20;
  config.planner_options.enabled = true;
  config.planner_options.replan_period = 2;
  // The default threshold; quick runs lower it so the 200k-key cell still
  // takes the lazy-table and sketch paths.
  if (quick) config.scale.sketch_threshold = 100'000;
  soap::workload::DriftPhase hub;
  hub.start_interval = config.warmup_intervals;
  hub.zipf_s = config.workload_options.spec.zipf_s;
  hub.pair_fraction = 0.3;
  hub.pair_hub = 16;
  config.workload_options.spec.phases.push_back(hub);
  return config;
}

/// The workloads, as soap_run flags on top of the default paper cell.
Result<ExperimentConfig> MakeConfig(const std::string& workload,
                                    uint64_t seed, bool quick) {
  ExperimentConfig config;
  if (workload == "scale_out") {
    config = ScaleOutConfig(quick);
  } else {
    std::vector<std::string> args = {"soap_perf"};
    if (workload == "hub_drift") {
      args.insert(args.end(),
                  {"--lion", "--drift", "hotspot", "--pair_hub", "4"});
    } else if (workload == "paper_checked") {
      args.push_back("--check");
    } else if (workload != "paper") {
      return Status::InvalidArgument("unknown workload: " + workload);
    }
    if (quick) {
      args.insert(args.end(), {"--keys", "20000", "--templates", "2000",
                               "--warmup", "2", "--intervals", "4"});
    }
    std::vector<const char*> argv;
    for (const std::string& a : args) argv.push_back(a.c_str());
    Result<soap::Flags> flags =
        soap::Flags::Parse(static_cast<int>(argv.size()), argv.data());
    if (!flags.ok()) return flags.status();
    if (Status s = soap::engine::ExperimentFlagTable().Apply(*flags, &config);
        !s.ok()) {
      return s;
    }
  }
  config.seed = seed;
  // The run-wide committed-latency histogram lives in the metrics
  // registry, so every run keeps it (counters only; no tracer, no files).
  config.obs.collect_metrics = true;
  if (Status s = config.Validate(); !s.ok()) return s;
  return config;
}

double Seconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

uint64_t CounterValue(const ExperimentResult& r, const char* name) {
  const soap::obs::Counter* c = r.metrics->FindCounter(name);
  return c == nullptr ? 0 : c->value();
}

/// Mean of a per-interval series over the measured intervals.
double MeasuredMean(const ExperimentConfig& config, const soap::Series& s) {
  double sum = 0.0;
  size_t n = 0;
  for (size_t i = config.warmup_intervals; i < s.size(); ++i, ++n) {
    sum += s.at(i);
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

/// The simulated database's own outcome: virtual-time values that repeat
/// exactly for a fixed seed, traced or not.
std::string SimFacts(const ExperimentConfig& config,
                     const ExperimentResult& r) {
  const soap::obs::LatencyHistogram* latency = r.metrics->FindHistogram(
      "soap_txn_latency_seconds", "outcome=\"committed\"");
  // Distributed-transaction ratio over the last third of the intervals,
  // as counts rebuilt from the per-interval series.
  const size_t n = r.distributed_ratio.size();
  const double minutes = soap::ToSeconds(config.interval_length) / 60.0;
  uint64_t tail_commits = 0;
  uint64_t tail_distributed = 0;
  for (size_t i = n - n / 3; i < n; ++i) {
    const uint64_t commits =
        static_cast<uint64_t>(std::llround(r.throughput.at(i) * minutes));
    tail_commits += commits;
    tail_distributed += static_cast<uint64_t>(std::llround(
        r.distributed_ratio.at(i) * static_cast<double>(commits)));
  }
  return JsonObject()
      .Int("commits", r.counters.committed_normal)
      .Int("submitted", r.counters.submitted_normal)
      .Int("aborted", r.counters.aborted_normal)
      .Int("latency_samples", latency == nullptr ? 0 : latency->count())
      .Num("p50_ms", latency == nullptr ? 0.0
                                        : latency->PercentileSeconds(50) * 1e3)
      .Num("p99_ms", MeasuredMean(config, r.latency_p99_ms))
      .Int("tail_commits", tail_commits)
      .Int("tail_distributed", tail_distributed)
      .Int("events", r.events_executed)
      .Done();
}

/// Per-layer counts the run itself kept.
std::string LayerCounts(const ExperimentResult& r) {
  const size_t n = r.rep_work_ratio.size();
  return JsonObject()
      .Int("net_msgs", CounterValue(r, "soap_network_messages_total"))
      .Int("routing_exceptions", r.routing_exceptions)
      .Int("routing_bytes", r.routing_bytes)
      .Int("lock_acquires", r.lock_stats.acquires)
      .Int("lock_waits", r.lock_stats.waits)
      .Int("tpc_protocols", r.tpc_stats.protocols_run)
      .Int("tpc_msgs", r.tpc_stats.messages)
      .Int("storage_rows", r.storage_materialized_rows)
      .Int("storage_bytes", r.storage_bytes)
      .Int("queue_timeouts", r.counters.aborts_queue_timeout)
      .Int("rep_txns", r.counters.committed_repartition)
      .Int("piggybacked_ops", r.piggybacked_ops)
      .Num("rep_complete_iv", r.RepartitionCompletedAt())
      .Num("rep_work_ratio_tail",
           r.rep_work_ratio.TailMean(std::max<size_t>(1, n / 3)))
      .Int("replans", r.planner_stats.plans_emitted)
      .Int("ops_emitted", r.planner_stats.ops_emitted)
      .Int("graph_vertices", r.graph_vertices)
      .Int("graph_bytes", r.graph_bytes)
      .Int("replica_creates", r.planner_stats.replica_creates_emitted)
      .Int("replica_drops", r.planner_stats.replica_drops_emitted)
      .Int("reads_routed", r.reads_routed)
      .Int("replica_reads", r.replica_reads)
      .Int("shifts_applied", r.counters.leader_shifts_applied)
      .Int("budget_denials", r.planner_stats.replica_budget_denials)
      .Int("invariant_checks", r.invariant_checks)
      .Int("stripped_resubmissions",
           CounterValue(r, "soap_repartition_stripped_resubmissions_total"))
      .Done();
}

std::string LayerTimeJson(const soap::perf::LayerTime& t) {
  return JsonObject()
      .Int("ns", static_cast<uint64_t>(t.ns))
      .Int("calls", t.calls)
      .Done();
}

int RunSetup(ExperimentConfig config, JsonObject* out) {
  // Stack construction through bulk load and checkpoint only: no
  // intervals, no drain, no audit.
  config.warmup_intervals = 0;
  config.measured_intervals = 0;
  config.drain_and_audit = false;
  const ExperimentResult r = soap::engine::Experiment(config).Run();
  if (!r.audit.ok()) {
    std::fprintf(stderr, "setup probe failed: %s\n",
                 r.audit.ToString().c_str());
    return 1;
  }
  out->Num("load_wall_s", r.load_wall_seconds);
  return 0;
}

int RunOnce(ExperimentConfig config, bool traced,
            const std::string& out_prefix,
            JsonObject* out) {
  const std::string arrivals = out_prefix + ".arrivals";
  if (traced) {
    config.obs.collect_trace = true;
    config.obs.trace_sample = kTraceSample;
    config.workload_options.record_trace_path = arrivals;
  }
  const auto t0 = std::chrono::steady_clock::now();
  const ExperimentResult r = soap::engine::Experiment(config).Run();
  const double wall = Seconds(t0);

  out->Num("run_wall_s", wall)
      .Num("load_wall_s", r.load_wall_seconds)
      .Num("audit_wall_s", r.audit_wall_seconds)
      .Bool("audit_ok", r.audit.ok())
      .Str("audit", r.audit.ToString())
      .Bool("drained", r.drained)
      .Bool("check_enabled", r.check_enabled)
      .Bool("check_ok", r.check_report.ok())
      .Str("check", r.check_enabled ? r.check_report.ToString() : "")
      .Raw("sim", SimFacts(config, r))
      .Raw("counts", LayerCounts(r));
  if (!traced) return 0;

  const soap::obs::CriticalPathBreakdown& cp = r.critical_path;
  const double per = cp.txns == 0 ? 0.0 : 1.0 / static_cast<double>(cp.txns);
  out->Raw("critical_path",
           JsonObject()
               .Int("txns", cp.txns)
               .Num("queued_ms", soap::ToMillis(cp.queued) * per)
               .Num("lock_wait_ms", soap::ToMillis(cp.lock_wait) * per)
               .Num("execute_ms", soap::ToMillis(cp.execute) * per)
               .Num("prepare_ms", soap::ToMillis(cp.prepare) * per)
               .Num("commit_ms", soap::ToMillis(cp.commit) * per)
               .Done());

  Result<soap::workload::WorkloadTrace> trace =
      soap::workload::WorkloadTrace::LoadFromFile(arrivals);
  if (!trace.ok()) {
    std::fprintf(stderr, "cannot load the recorded arrivals: %s\n",
                 trace.status().ToString().c_str());
    return 1;
  }
  soap::perf::ReplayOptions options;
  options.span_every = std::max<uint64_t>(1, trace->size() / kSpanTxns);
  const soap::perf::ReplayResult replay =
      soap::perf::Replay(config, r, *trace, options);
  if (!replay.status.ok()) {
    std::fprintf(stderr, "replay failed: %s\n",
                 replay.status.ToString().c_str());
    return 1;
  }
  const std::string spans_path = out_prefix + ".spans.jsonl";
  if (Status s = soap::perf::WriteSpans(replay.spans, spans_path); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  out->Raw("replay", JsonObject()
                         .Int("txns", replay.txns)
                         .Int("generated", replay.generated)
                         .Int("sim_queue_depth", replay.sim_queue_depth)
                         .Int("check_violations", replay.check_violations)
                         .Raw("generate", LayerTimeJson(replay.generate))
                         .Raw("route", LayerTimeJson(replay.route))
                         .Raw("lock", LayerTimeJson(replay.lock))
                         .Raw("read", LayerTimeJson(replay.read))
                         .Raw("update", LayerTimeJson(replay.update))
                         .Raw("observe", LayerTimeJson(replay.observe))
                         .Raw("replan", LayerTimeJson(replay.replan))
                         .Raw("sim", LayerTimeJson(replay.sim))
                         .Raw("record", LayerTimeJson(replay.record))
                         .Raw("verify", LayerTimeJson(replay.verify))
                         .Int("spans", replay.spans.size())
                         .Str("spans_path", spans_path)
                         .Done());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Result<soap::Flags> parsed = soap::Flags::Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 2;
  }
  const soap::Flags& flags = *parsed;
  const std::string mode = flags.GetString("mode", "run");
  const std::string workload = flags.GetString("workload", "");
  const auto seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const bool quick = flags.GetBool("quick");

  if (const std::string refusal = BuildRefusal(); !refusal.empty()) {
    std::fprintf(stderr, "soap_perf: refusing to measure: %s\n",
                 refusal.c_str());
    return 3;
  }
  Result<ExperimentConfig> config = MakeConfig(workload, seed, quick);
  if (!config.ok()) {
    std::fprintf(stderr, "soap_perf: %s\n",
                 config.status().ToString().c_str());
    return 2;
  }

  JsonObject out;
  out.Str("workload", workload)
      .Int("seed", seed)
      .Str("mode", mode)
      .Str("build_type", SOAP_PERF_BUILD_TYPE)
      .Str("compiler", __VERSION__);
  int rc = 0;
  if (mode == "setup") {
    rc = RunSetup(*config, &out);
  } else if (mode == "run" || mode == "traced") {
    rc = RunOnce(*config, mode == "traced",
                 flags.GetString("out", "soap_perf"),
                 &out);
  } else {
    std::fprintf(stderr, "soap_perf: unknown --mode %s\n", mode.c_str());
    return 2;
  }
  if (rc != 0) return rc;
  std::printf("%s\n", out.Done().c_str());
  return 0;
}
