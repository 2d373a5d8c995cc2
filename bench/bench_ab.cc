// bench_ab: feature off (A) versus feature on (B) for each of the five
// scheduling strategies — the paper's side-by-side comparison (§4) run as
// an A/B test. Each scenario is one table row: base config, treatment,
// labels, metrics, win predicate, extra run and gates. The shared code
// below the rows runs and audits the cells, then prints the table, the
// JSON and the exit code.
//
//   bench_ab [--scenario adaptive|replica|lion|mvcc] [--smoke] [--seed S]
//            [--threads N] [--json PATH]
//
// No --scenario runs all four in order; --json needs one. --smoke (or
// SOAP_BENCH_FAST=1) shrinks every scenario for CI. With SOAP_OBS_DIR set,
// each cell exports its observability bundle under the stem
// [<workload>_]<Strategy>_<label> (bench_common.h). Progress lines carry
// wall time and go to stderr, so stdout and the JSON are byte-identical at
// any --threads and reproducible per seed. Exit 1 when a gate fails or a
// cell fails its audit or never drains; exit 2 on a usage error.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/flags.h"
#include "src/engine/flag_table.h"
#include "src/engine/parallel_runner.h"

namespace {

using namespace soap;
using engine::ExperimentConfig;
using engine::ExperimentResult;
using workload::WorkloadSpec;

struct Options {
  bool smoke = false;
  uint64_t seed = 42;
};

/// Printed (table and JSON alike) in the scenario's real format, as
/// %llu, or as true|false.
using Value = std::variant<double, uint64_t, bool>;

/// One strategy's A and B runs, and whether B won.
struct Pair {
  const ExperimentResult& a;
  const ExperimentResult& b;
  bool win;
};

/// `get` applied to the A run is reported as `a`, to the B run as `b`; a
/// null name skips that side, a null `get` reports the win flag. Names are
/// table rows and JSON keys; "group.key" nests under "group" in the JSON.
struct Metric {
  const char* a;
  const char* b;
  std::function<Value(const ExperimentResult&)> get;
};

/// A workload variant; single-workload scenarios have one unnamed entry.
struct Workload {
  const char* name;
  bool gated;  ///< the scenario's wins gate applies to this workload
  void (*shape)(ExperimentConfig*);
};

/// What a scenario's own gates read and add.
struct Verdict {
  const Options& options;
  std::span<const Pair> pairs;
  const ExperimentResult* extra;  ///< the extra run, when the row has one
  std::vector<std::string> failures = {};
  std::vector<std::pair<std::string, Value>> json = {};  ///< top level
};

struct Scenario {
  const char* name;
  const char* win_rule;
  const char* labels[2];
  ExperimentConfig (*base)(SchedulingStrategy, const Options&);
  void (*treat)(ExperimentConfig*);
  bool (*win)(const ExperimentResult& a, const ExperimentResult& b);
  std::vector<Metric> metrics;
  std::vector<Workload> workloads = {{nullptr, true, nullptr}};
  int min_wins = 0;  ///< wins gate on each gated workload; 0 = none
  bool gate_wins_in_smoke = false;
  const char* extra_stem = nullptr;
  ExperimentConfig (*extra)(const Options&) = nullptr;
  void (*gates)(Verdict*) = nullptr;
  const char* strategy_key = "name";  ///< JSON key of the strategy name
  const char* real_format = "%.6f";
};

double Dist10(const ExperimentResult& r) {
  return r.distributed_ratio.TailMean(10);
}
WorkloadSpec& Spec(ExperimentConfig* c) { return c->workload_options.spec; }

// --- adaptive: continuous co-access-graph planning (src/planner/) vs the
// paper's one-shot static plan (optimizer plan deployed once at the end of
// warmup) on three drifting workloads. A win is a strictly lower
// steady-state distributed-transaction ratio AND a higher committed
// throughput; under hotspot drift continuous planning must win on at
// least 3 of 5 strategies, at both scales.

// Drift geometry: phases start right after warmup and rotate the hot set
// every kPhaseLen intervals. Steady state = the tail of the last phase,
// after the planner has had time to chase the final drift step.
constexpr uint32_t kPhases = 3;
constexpr uint32_t kPhaseLen = 8;
double DriftDist(const ExperimentResult& r) {
  return r.distributed_ratio.TailMean(kPhaseLen / 2);
}
double DriftTput(const ExperimentResult& r) {
  return r.throughput.TailMean(kPhaseLen / 2);
}

ExperimentConfig AdaptiveBase(SchedulingStrategy strategy,
                              const Options& opt) {
  ExperimentConfig config = bench::MakeCellConfig(
      strategy, workload::PopularityDist::kZipf, /*high_load=*/true,
      /*alpha=*/1.0, opt.seed);
  Spec(&config).num_keys = opt.smoke ? 5'000 : 20'000;
  Spec(&config).num_templates = opt.smoke ? 200 : 800;
  config.warmup_intervals = opt.smoke ? 2 : 3;
  config.measured_intervals = kPhases * kPhaseLen;
  return config;
}

Scenario Adaptive() {
  return {
      .name = "adaptive",
      .win_rule = "win: lower tail dist ratio AND higher tail throughput",
      .labels = {"static", "adaptive"},
      .base = &AdaptiveBase,
      .treat = [](ExperimentConfig* c) {
        c->planner_options.enabled = true;
        c->planner_options.replan_period = 2;
        c->planner_options.min_plan_ops = 8;
      },
      .win = [](auto& a, auto& b) {
        return DriftDist(b) < DriftDist(a) && DriftTput(b) > DriftTput(a);
      },
      .metrics = {
          {"static.distributed_ratio", "adaptive.distributed_ratio",
           DriftDist},
          {"static.tail_throughput_txn_min",
           "adaptive.tail_throughput_txn_min", DriftTput},
          {"static.generations", "adaptive.generations",
           [](auto& r) { return r.plan_generations; }},
          {nullptr, "adaptive.plans_emitted",
           [](auto& r) { return r.planner_stats.plans_emitted; }},
          {nullptr, "adaptive.ops_emitted",
           [](auto& r) { return r.planner_stats.ops_emitted; }},
          {nullptr, "adaptive.last_cut_weight",
           [](auto& r) { return r.planner_stats.last_cut_weight; }},
          {"static.audit_ok", "adaptive.audit_ok",
           [](auto& r) { return r.audit.ok(); }},
          {nullptr, "adaptive_wins", nullptr},
      },
      // Offered load is relative to pre-repartitioning capacity. Hotspot
      // runs near saturation: rotation-induced node imbalance is the effect
      // under test, and at the paper's 1.30 overload the unbounded backlog
      // delays commits by many intervals, decoupling the measured tail from
      // the live phase. The other workloads keep the paper's 1.30
      // overload, where their capacity effects (skew width, pair churn)
      // are visible.
      .workloads = {
          {"hotspot", true, [](ExperimentConfig* c) {
             c->workload_options.utilization = 0.95;
             Spec(c) = WorkloadSpec::HotspotDrift(
                 Spec(c), c->warmup_intervals, kPhases, kPhaseLen);
           }},
          {"skewflip", false, [](ExperimentConfig* c) {
             c->workload_options.utilization = 1.30;
             Spec(c) = WorkloadSpec::SkewFlip(Spec(c), c->warmup_intervals,
                                              kPhases, kPhaseLen);
           }},
          {"mixrotation", false, [](ExperimentConfig* c) {
             c->workload_options.utilization = 1.30;
             Spec(c) = WorkloadSpec::MixRotation(
                 Spec(c), c->warmup_intervals, kPhases, kPhaseLen);
           }},
      },
      .min_wins = 3,
      .gate_wins_in_smoke = true,
      .strategy_key = "strategy",
      .real_format = "%.6g",
  };
}

// --- The hub workload of replica, lion and mvcc: Zipf with a stationary
// phase from interval 0 in which a pair_fraction of transactions also read
// keys of a small hub of hot templates — shared reference data read from
// every partition. Smoke scale is ~4x smaller.

uint32_t HubWarmup(const Options& opt) { return opt.smoke ? 3 : 5; }

ExperimentConfig HubConfig(SchedulingStrategy strategy, const Options& opt,
                           double alpha, double write_fraction,
                           uint32_t pair_hub) {
  ExperimentConfig config;
  WorkloadSpec& spec = Spec(&config);
  spec = WorkloadSpec::Zipf(alpha);
  spec.num_templates = opt.smoke ? 1'000 : 4'000;
  spec.num_keys = opt.smoke ? 25'000 : 100'000;
  spec.write_fraction = write_fraction;
  spec.phases.push_back(workload::DriftPhase{
      .zipf_s = spec.zipf_s, .pair_fraction = 0.35, .pair_hub = pair_hub});
  config.workload_options.utilization = workload::kHighLoadUtilization;
  config.warmup_intervals = HubWarmup(opt);
  config.measured_intervals = opt.smoke ? 15 : 40;
  config.seed = opt.seed;
  config.deployment.strategy = strategy;
  return config;
}

// --- replica: replica-aware planning vs migration-only planning (the
// paper's §2.2 replica create/delete ops). A migration can collocate the
// hub with at most one of its reader partitions; copies of its read-only
// keys can serve all of them, which is the structural gap measured. Smoke
// gates only on mechanics (replicas created, replica reads observed,
// promotions on crash); the full run also needs >= 3/5 wins.

ExperimentConfig ReplicaBase(SchedulingStrategy strategy,
                             const Options& opt) {
  // 10% writes: read-heavy, so replicas stay cheap to keep.
  ExperimentConfig config = HubConfig(strategy, opt, /*alpha=*/1.0, 0.1,
                                      /*pair_hub=*/opt.smoke ? 40 : 100);
  config.planner_options.enabled = true;
  return config;
}

void WithReplicas(ExperimentConfig* config) {
  config->replicas.enabled = true;
  // The hub is read from every partition; let copies reach all of them.
  config->replicas.max_copies = config->cluster.num_nodes;
}

double ReplicaReadFrac(const ExperimentResult& r) {
  return r.reads_routed > 0 ? static_cast<double>(r.replica_reads) /
                                  static_cast<double>(r.reads_routed)
                            : 0.0;
}

// The extra run crashes node 2, which holds replicated primaries, mid-run:
// reads must keep committing from surviving replicas while it is down.
constexpr long kCrashDownSeconds = 40;
uint32_t CrashInterval(const Options& opt) {
  return HubWarmup(opt) + (opt.smoke ? 6 : 10);
}

ExperimentConfig CrashConfig(const Options& opt) {
  ExperimentConfig config = ReplicaBase(SchedulingStrategy::kHybrid, opt);
  WithReplicas(&config);
  config.fault_options.spec =
      "crash:node=2,at=" + std::to_string(CrashInterval(opt) * 20) +
      "s,down=" + std::to_string(kCrashDownSeconds) + "s";
  return config;
}

void ReplicaGates(Verdict* v) {
  uint64_t creates = 0;
  double max_read_frac = 0.0;
  for (const Pair& p : v->pairs) {
    creates += p.b.planner_stats.replica_creates_emitted;
    max_read_frac = std::max(max_read_frac, ReplicaReadFrac(p.b));
  }
  const ExperimentResult& crash = *v->extra;
  // The outage spans two intervals starting at the crash interval.
  const uint32_t at = CrashInterval(v->options);
  double outage_reads = 0.0;
  for (uint32_t k = at; k < at + 2 && k < crash.replica_read_ratio.size();
       ++k) {
    outage_reads += crash.replica_read_ratio.values()[k];
  }
  const uint64_t promotions = crash.replica_stats.promotions;
  std::printf("# crash run: %s\n\n", crash.Summary().c_str());
  if (creates == 0) v->failures.push_back("no replicas were ever created");
  if (max_read_frac <= 0.0) {
    v->failures.push_back("no read was ever served by a replica");
  }
  if (promotions == 0) v->failures.push_back("crash promoted no replica");
  if (outage_reads <= 0.0) {
    v->failures.push_back("no replica reads during the primary outage");
  }
  v->json = {{"crash.promotions", promotions},
             {"crash.outage_replica_read_frac", outage_reads / 2.0},
             {"crash.audit_ok", crash.audit.ok()}};
}

Scenario Replica() {
  return {
      .name = "replica",
      .win_rule = "win: lower tail distributed ratio",
      .labels = {"migration", "replicas"},
      .base = &ReplicaBase,
      .treat = &WithReplicas,
      .win = [](auto& a, auto& b) { return Dist10(b) < Dist10(a); },
      .metrics = {
          {"dist_tail_migration", "dist_tail_replica", Dist10},
          {nullptr, "win", nullptr},
          {nullptr, "replica_read_frac", ReplicaReadFrac},
          {nullptr, "replica_creates",
           [](auto& r) { return r.planner_stats.replica_creates_emitted; }},
      },
      .min_wins = 3,
      .extra_stem = "hybrid_crash_failover",
      .extra = &CrashConfig,
      .gates = &ReplicaGates,
  };
}

// --- lion: adaptive replica provisioning (soap::lion; Lion, PAPERS.md)
// vs the static replica-aware planner on a drifting affinity-hub workload
// whose second phase wedges the static planner: migrating a hub key's
// primary to its borrower is vetoed because a copy already lives there,
// the borrower's copy is kept by read hysteresis, and a primary can never
// be dropped — so every borrowed write 2PCs across the stranded primary
// and the borrower's copy forever. Lion prices migrate vs replicate vs
// leader-shift per key from one candidate pool: the borrower dominates the
// key's windowed write sources, the leader *shifts* onto the existing copy
// at zero move cost, and the next sweep retires the faded owner's copy;
// the tail distributed-*write* ratio shows it (lower = write-hot keys went
// single-node). Smoke gates only on mechanics (shifts emitted and applied,
// clean audits); the full run also needs >= 3/5 wins.

ExperimentConfig LionBase(SchedulingStrategy strategy, const Options& opt) {
  // alpha = 0.2: a modest initial repartitioning backlog. The paper's
  // alpha = 1.0 floods every plan generation with the 2-keys-per-template
  // migration storm, and the slow-deploying strategies then never get the
  // hub copies placed before the drift — this scenario measures placement
  // *policy* under drift, not backlog scheduling. 20% writes: enough that
  // leadership placement matters.
  ExperimentConfig config =
      HubConfig(strategy, opt, /*alpha=*/0.2, 0.2,
                /*pair_hub=*/cluster::ClusterConfig().num_nodes);
  std::vector<workload::DriftPhase>& phases = Spec(&config).phases;
  // Phase 1, read-only affinity pairing: each partition's paired
  // transactions read the keys of one hot template homed on the
  // neighbouring partition, so each hub key has an owner partition and
  // exactly one borrower. Both planners answer with the split-reader
  // state: primary with the owner, fan-in copy on the borrower.
  phases[0].pair_affinity = true;
  // Phase 2 (mid-window): popularity rotates away from the hub owners (the
  // owners go cold), and an eighth of the borrowed accesses become writes.
  // The borrower — unchanged by rotation, because affinity pairing keys the
  // hub off the issuing partition — is now each hub key's only reader and
  // its dominant write source; the owner-side primary is stranded dead
  // weight only a leader shift can unseat.
  workload::DriftPhase drift = phases[0];
  drift.start_interval = opt.smoke ? 10 : 18;
  drift.rotation = opt.smoke ? 250 : 1'000;
  drift.pair_write = 0.125;
  phases.push_back(drift);
  // The slow-deploying strategies replan only when the previous plan has
  // fully deployed (a new generation every ~4-5 intervals); the
  // shift-then-retire sequence needs two post-drift generations plus
  // deployment, so the measured window leaves them that runway.
  config.measured_intervals = opt.smoke ? 25 : 60;
  config.planner_options.enabled = true;
  // The rotation kick floods a single plan generation (every template's
  // stranded remote keys go hot at once); the default per-generation op
  // cap would displace cooler migrates behind lion's extra shift/drop ops
  // and measure cap scheduling instead of placement policy.
  config.planner_options.builder.max_ops = 8192;
  // Both modes get the static replica machinery; lion builds on top of it.
  WithReplicas(&config);
  return config;
}

void LionGates(Verdict* v) {
  uint64_t emitted = 0;
  uint64_t applied = 0;
  for (const Pair& p : v->pairs) {
    emitted += p.b.planner_stats.leader_shifts_emitted;
    applied += p.b.counters.leader_shifts_applied;
  }
  if (emitted == 0) v->failures.push_back("no leader shift was emitted");
  if (applied == 0) v->failures.push_back("no leader shift was applied");
  v->json = {{"shifts_applied", applied}};
}

Scenario Lion() {
  return {
      .name = "lion",
      .win_rule = "win: lower tail distributed ratio",
      .labels = {"static", "lion"},
      .base = &LionBase,
      .treat = [](ExperimentConfig* c) { c->lion.enabled = true; },
      .win = [](auto& a, auto& b) { return Dist10(b) < Dist10(a); },
      .metrics = {
          {"dist_tail_static", "dist_tail_lion", Dist10},
          {nullptr, "win", nullptr},
          {"dist_write_tail_static", "dist_write_tail_lion",
           [](auto& r) { return r.distributed_write_ratio.TailMean(10); }},
          {nullptr, "shifts_emitted",
           [](auto& r) { return r.planner_stats.leader_shifts_emitted; }},
          {nullptr, "shifts_applied",
           [](auto& r) { return r.counters.leader_shifts_applied; }},
          {nullptr, "evictions",
           [](auto& r) { return r.planner_stats.replicas_evicted_budget; }},
          {nullptr, "denials",
           [](auto& r) { return r.planner_stats.replica_budget_denials; }},
      },
      .min_wins = 3,
      .gates = &LionGates,
  };
}

// --- mvcc: MVCC snapshot reads vs 2PL shared locks at serializable
// isolation. Under 2PL the hub's readers take shared locks and queue
// behind writers; at high load they time out and abort. Under --cc=mvcc
// the same reads come off version-chain snapshots without touching the
// lock manager; writers still lock and pay first-updater-wins conflicts
// instead. The headline metric is the READ-SIDE failure rate, lock-timeout
// aborts per completed transaction: on this read-heavy workload those are
// the readers' failure mode, and snapshot reads make them structurally
// impossible (only writers still wait on locks). The overall failure rate
// is reported too, and is honest about the trade: SI turns writer lock
// waits into first-updater-wins aborts, so on write-contended keys MVCC
// aborts more writers while failing far fewer readers.

ExperimentConfig MvccBase(SchedulingStrategy strategy, const Options& opt) {
  // 10% writes: read-heavy, so the contention is on reads.
  ExperimentConfig config = HubConfig(strategy, opt, /*alpha=*/1.0, 0.1,
                                      /*pair_hub=*/opt.smoke ? 40 : 100);
  config.cluster.isolation = cluster::IsolationLevel::kSerializable;
  // OLTP SLA: give up a lock wait after 200ms instead of the 30s default
  // (the PostgreSQL lock_timeout analogue). This is what makes the
  // read-side failure mode visible — under 2PL, hub readers queued behind
  // writers blow the deadline and abort; under MVCC they never wait.
  config.cluster.costs.lock_timeout = Millis(200);
  return config;
}

double ReadFailRate(const ExperimentResult& r) {
  const uint64_t completed =
      r.counters.committed_normal + r.counters.aborted_normal;
  return completed > 0 ? static_cast<double>(r.counters.aborts_lock_timeout) /
                             static_cast<double>(completed)
                       : 0.0;
}

// Gates (both scales): some cell ran under mvcc, GC pruned, and since
// snapshot reads cannot time out on locks, every strategy with read-side
// aborts under 2PL strictly improves and the cross-strategy total falls.
void MvccGates(Verdict* v) {
  bool any_mvcc = false;
  bool contended = false;
  bool every_contended_improved = true;
  uint64_t timeouts_2pl = 0;
  uint64_t timeouts_mvcc = 0;
  uint64_t pruned = 0;
  for (const Pair& p : v->pairs) {
    const uint64_t before = p.a.counters.aborts_lock_timeout;
    const uint64_t after = p.b.counters.aborts_lock_timeout;
    any_mvcc = any_mvcc || p.b.mvcc_enabled;
    contended = contended || before > 0;
    if (before > 0 && after >= before) every_contended_improved = false;
    timeouts_2pl += before;
    timeouts_mvcc += after;
    pruned += p.b.mvcc_gc_pruned;
  }
  if (!any_mvcc) v->failures.push_back("no cell ran under --cc=mvcc");
  if (pruned == 0) v->failures.push_back("MVCC GC never pruned a version");
  if (!contended) {
    v->failures.push_back("2PL produced no read-side aborts anywhere — the "
                          "workload is not contended enough to measure");
  }
  if (!every_contended_improved || timeouts_mvcc >= timeouts_2pl) {
    v->failures.push_back("lock-timeout aborts did not strictly fall");
  }
  v->json = {{"lock_timeouts_2pl", timeouts_2pl},
             {"lock_timeouts_mvcc", timeouts_mvcc}};
}

Scenario Mvcc() {
  return {
      .name = "mvcc",
      .win_rule = "win: lower read-side failure rate",
      .labels = {"2pl", "mvcc"},
      .base = &MvccBase,
      .treat = [](ExperimentConfig* c) {
        c->cluster.cc = mvcc::ConcurrencyControl::kMvcc;
      },
      .win = [](auto& a, auto& b) { return ReadFailRate(b) < ReadFailRate(a); },
      .metrics = {
          {"read_fail_2pl", "read_fail_mvcc", ReadFailRate},
          {"fail_tail_2pl", "fail_tail_mvcc",
           [](auto& r) { return r.failure_rate.TailMean(10); }},
          {nullptr, "win", nullptr},
          {"lock_timeouts_2pl", "lock_timeouts_mvcc",
           [](auto& r) { return r.counters.aborts_lock_timeout; }},
          {nullptr, "write_conflicts_mvcc",
           [](auto& r) { return r.counters.aborts_write_conflict; }},
          {nullptr, "gc_pruned", [](auto& r) { return r.mvcc_gc_pruned; }},
      },
      .gates = &MvccGates,
  };
}

// --- Shared harness ---------------------------------------------------

/// Renders a value as both the table and the JSON print it.
std::string Format(const Value& v, const char* real_format) {
  if (const bool* b = std::get_if<bool>(&v)) return *b ? "true" : "false";
  char buf[64];
  if (const double* d = std::get_if<double>(&v)) {
    std::snprintf(buf, sizeof(buf), real_format, *d);
  } else {
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(std::get<uint64_t>(v)));
  }
  return buf;
}

std::string Join(const std::vector<std::string>& items, const char* sep) {
  std::string out;
  for (const std::string& item : items) out += (out.empty() ? "" : sep) + item;
  return out;
}

using Field = std::pair<std::string, std::string>;  // key, rendered value

/// A JSON object; "group.key" fields nest under "group", placed where the
/// group first appears. The top level puts one field per line.
std::string Object(const std::vector<Field>& fields, bool top = false) {
  std::vector<std::string> parts;
  std::vector<std::string> groups;
  for (const auto& [key, value] : fields) {
    const size_t dot = key.find('.');
    const std::string name = key.substr(0, dot);
    std::string rendered = value;
    if (dot != std::string::npos) {
      if (std::ranges::count(groups, name) > 0) continue;
      groups.push_back(name);
      std::vector<Field> group;
      for (const auto& [k, v] : fields) {
        if (k.starts_with(name + ".")) group.emplace_back(k.substr(dot + 1), v);
      }
      rendered = Object(group);
    }
    parts.push_back("\"" + name + "\": " + rendered);
  }
  return top ? "{\n  " + Join(parts, ",\n  ") + "\n}\n"
             : "{" + Join(parts, ", ") + "}";
}

/// Prints one workload's table (metrics as rows, strategies as columns)
/// and returns its JSON object per strategy.
std::vector<std::string> Report(const Scenario& s,
                                std::span<const Pair> pairs) {
  std::vector<std::vector<Field>> objects;
  std::printf("# %-32s", "metric");
  for (const Pair& p : pairs) {
    std::printf(" %10s", p.a.strategy_name.c_str());
    objects.push_back({{s.strategy_key, "\"" + p.a.strategy_name + "\""}});
  }
  for (const Metric& m : s.metrics) {
    for (int side = 0; side < 2; ++side) {
      const char* name = side == 0 ? m.a : m.b;
      if (name == nullptr) continue;
      std::printf("\n# %-32s", name);
      for (size_t i = 0; i < pairs.size(); ++i) {
        const Pair& p = pairs[i];
        const Value v = !m.get ? Value(p.win) : m.get(side == 0 ? p.a : p.b);
        objects[i].emplace_back(name, Format(v, s.real_format));
        std::printf(" %10s", objects[i].back().second.c_str());
      }
    }
  }
  std::printf("\n");
  std::vector<std::string> items;
  for (const std::vector<Field>& fields : objects) {
    items.push_back(Object(fields));
  }
  return items;
}

int RunScenario(const Scenario& s, const Options& opt, unsigned threads,
                const std::string& json_path) {
  const size_t n = bench::AllStrategies().size();
  std::vector<engine::ExperimentCell> cells;
  std::vector<std::string> stems;
  auto add = [&](ExperimentConfig config, std::string stem) {
    bench::ApplyObsEnv(&config, stem);
    cells.push_back(engine::ExperimentCell{std::move(config)});
    stems.push_back(std::move(stem));
  };
  // Workload-major, then strategy, A before B; the extra run last.
  for (const Workload& w : s.workloads) {
    for (SchedulingStrategy strategy : bench::AllStrategies()) {
      ExperimentConfig config = s.base(strategy, opt);
      if (w.shape != nullptr) w.shape(&config);
      const std::string stem = (w.name ? std::string(w.name) + "_" : "") +
                               StrategyName(strategy) + "_";
      add(config, stem + s.labels[0]);
      s.treat(&config);
      add(std::move(config), stem + s.labels[1]);
    }
  }
  if (s.extra != nullptr) add(s.extra(opt), s.extra_stem);

  std::printf("==== bench_ab %s: %s (B) vs %s (A), %s scale, seed %llu "
              "====\n# %s\n\n",
              s.name, s.labels[1], s.labels[0], opt.smoke ? "smoke" : "full",
              static_cast<unsigned long long>(opt.seed), s.win_rule);
  const std::vector<engine::CellOutcome> outcomes =
      engine::ParallelRunner(threads).Run(
          std::move(cells), [&](const engine::CellOutcome& outcome) {
            const ExperimentResult& r = outcome.result;
            std::fprintf(stderr, "# ran %s %s: %.1fs wall, %s\n", s.name,
                         stems[outcome.index].c_str(), outcome.wall_seconds,
                         r.audit.ok() ? "audit ok"
                                      : r.audit.ToString().c_str());
          });
  std::vector<std::string> failures;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const ExperimentResult& r = outcomes[i].result;
    if (!r.audit.ok()) failures.push_back(stems[i] + ": audit failed");
    if (!r.drained) {
      failures.push_back(stems[i] + ": never drained");
    }
  }
  std::vector<Pair> pairs;
  for (size_t i = 0; i < s.workloads.size() * n; ++i) {
    const ExperimentResult& a = outcomes[2 * i].result;
    const ExperimentResult& b = outcomes[2 * i + 1].result;
    pairs.push_back(Pair{a, b, s.win(a, b)});
  }

  std::vector<Field> top;
  std::vector<std::string> per_workload;
  for (size_t w = 0; w < s.workloads.size(); ++w) {
    const Workload& workload = s.workloads[w];
    const std::span<const Pair> mine(pairs.data() + w * n, n);
    if (workload.name) std::printf("## workload %s\n", workload.name);
    const std::vector<std::string> items = Report(s, mine);
    const int wins = static_cast<int>(
        std::ranges::count_if(mine, [](const Pair& p) { return p.win; }));
    const bool gated = workload.gated && s.min_wins > 0 &&
                       (!opt.smoke || s.gate_wins_in_smoke);
    std::printf("# %s wins %d/%zu%s\n\n", s.labels[1], wins, n,
                gated ? " (gated)" : "");
    if (gated && wins < s.min_wins) {
      failures.push_back(
          (workload.name ? std::string(workload.name) + ": " : "") +
          s.labels[1] + " won " + std::to_string(wins) + "/" +
          std::to_string(n) + ", gate >= " + std::to_string(s.min_wins));
    }
    if (workload.name) {  // one nested object per named workload
      per_workload.push_back(
          Object({{"scenario", "\"" + std::string(workload.name) + "\""},
                  {"strategies", "[" + Join(items, ", ") + "]"},
                  {"wins", std::to_string(wins)},
                  {"gated", Format(workload.gated, "")}}));
    } else {
      top = {{"scale", opt.smoke ? "\"smoke\"" : "\"full\""},
             {"strategies", "[\n    " + Join(items, ",\n    ") + "\n  ]"},
             {"wins", std::to_string(wins)}};
    }
  }
  if (!per_workload.empty()) {
    top = {{"seed", std::to_string(opt.seed)},
           {"scenarios", "[\n    " + Join(per_workload, ",\n    ") + "\n  ]"}};
  }

  Verdict verdict{opt, pairs, s.extra ? &outcomes.back().result : nullptr};
  if (s.gates != nullptr) s.gates(&verdict);
  for (const auto& [key, value] : verdict.json) {
    top.emplace_back(key, Format(value, s.real_format));
    std::printf("# %s: %s\n", key.c_str(), top.back().second.c_str());
  }
  failures.insert(failures.end(), verdict.failures.begin(),
                  verdict.failures.end());
  for (const std::string& failure : failures) {
    std::fprintf(stderr, "GATE: %s: %s\n", s.name, failure.c_str());
  }
  if (!json_path.empty()) {
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fputs(Object(top, /*top=*/true).c_str(), f);
    std::fclose(f);
    std::printf("# wrote %s\n", json_path.c_str());
  }
  return failures.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<Scenario> scenarios = {Adaptive(), Replica(), Lion(),
                                           Mvcc()};
  std::vector<std::string> names;
  for (const Scenario& s : scenarios) names.push_back(s.name);
  Result<Flags> parsed = Flags::Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 2;
  }
  using engine::FlagType;
  engine::FlagTable table({
      {"scenario", FlagType::kString, "",
       "(" + Join(names, "|") + "; default: all, in order)", nullptr},
      {"smoke", FlagType::kBool, "off",
       "CI scale, ~4x smaller (SOAP_BENCH_FAST=1 also works)", nullptr},
      {"seed", FlagType::kInt, "42", "seed of every cell", nullptr},
      {"threads", FlagType::kInt, "1",
       "run cells on N threads (identical results at any count; "
       "SOAP_BENCH_THREADS also works)", nullptr},
      {"json", FlagType::kString, "",
       "write the scenario's outcome as JSON (needs --scenario)", nullptr},
      {"help", FlagType::kBool, "", "this text", nullptr},
  });
  if (parsed->GetBool("help")) {
    std::printf("%s", table.Help("bench_ab", "feature off (A) vs on (B) "
                                 "across the five strategies").c_str());
    return 0;
  }
  const std::string only = parsed->GetString("scenario", "");
  const std::string json_path = parsed->GetString("json", "");
  Status usage = table.CheckUnknown(*parsed);
  if (usage.ok() && !only.empty()) {
    usage = engine::CheckEnumValue("scenario", only, names);
  }
  if (usage.ok() && !json_path.empty() && only.empty()) {
    usage = Status::InvalidArgument("--json needs --scenario");
  }
  if (!usage.ok()) {
    std::fprintf(stderr, "%s\n", usage.ToString().c_str());
    return 2;
  }
  const Options opt{parsed->GetBool("smoke") || bench::FastMode(),
                    static_cast<uint64_t>(parsed->GetInt("seed", 42))};
  const unsigned threads = bench::BenchThreads(argc, argv);
  int exit_code = 0;
  for (const Scenario& s : scenarios) {
    if (only.empty() || only == s.name) {
      exit_code = std::max(exit_code, RunScenario(s, opt, threads, json_path));
    }
  }
  return exit_code;
}
