// Shared harness for the figure benches: runs one evaluation panel
// (workload distribution x load level) across all five strategies and the
// paper's alpha sweep, at the paper's full scale, and prints the series
// each figure plots plus CSV dumps for external plotting.

#ifndef SOAP_BENCH_BENCH_COMMON_H_
#define SOAP_BENCH_BENCH_COMMON_H_

#include <string>
#include <vector>

#include "src/engine/experiment.h"

namespace soap::bench {

/// The SP values of Table 1, keyed by (strategy, distribution, load,
/// alpha). Only Feedback and Hybrid consume an SP; other strategies get
/// the default.
double Table1Sp(SchedulingStrategy strategy,
                workload::PopularityDist distribution, bool high_load,
                double alpha);

/// Scale knob: SOAP_BENCH_FAST=1 in the environment shrinks the workload
/// and the horizon ~10x for smoke runs. Full scale reproduces §4.1:
/// 500,000 tuples, 23,457/30,000 templates, 10 + 125 intervals of 20 s.
/// The environment is read once and cached (benches call this per cell).
bool FastMode();

/// Worker-thread count for panel runs: `--threads N` (or `--threads=N`)
/// from argv, else SOAP_BENCH_THREADS, else 1. Cells are independent
/// experiments, so any thread count produces identical results; see
/// engine::ParallelRunner.
unsigned BenchThreads(int argc, char** argv);

/// Builds the full §4.1 configuration for one experiment cell.
engine::ExperimentConfig MakeCellConfig(SchedulingStrategy strategy,
                                        workload::PopularityDist distribution,
                                        bool high_load, double alpha,
                                        uint64_t seed = 42);

/// Applies the SOAP_OBS_DIR observability-export convention to an
/// arbitrary cell config: when the variable is set, the cell writes
/// <dir>/<stem>.{prom,jsonl,trace.json,audit.jsonl,timeline.jsonl}.
/// No-op when unset, keeping the default path unobserved. Used by benches
/// that build their configs outside MakeCellConfig, or that run several
/// cells per MakeCellConfig stem (e.g. bench_ab).
void ApplyObsEnv(engine::ExperimentConfig* config, const std::string& stem);

struct PanelResult {
  double alpha;
  std::vector<engine::ExperimentResult> per_strategy;  // 5 entries
};

/// All five strategies ordered as the paper's legends list them.
const std::vector<SchedulingStrategy>& AllStrategies();

/// Runs one (distribution, load) panel for the given alphas. Prints a
/// progress line per run (always in run order). `threads > 1` fans the
/// independent cells across an engine::ParallelRunner pool; results and
/// output ordering are identical at any thread count.
std::vector<PanelResult> RunPanel(workload::PopularityDist distribution,
                                  bool high_load,
                                  const std::vector<double>& alphas,
                                  unsigned threads = 1);

/// Prints the per-interval series for one metric across strategies, one
/// table per alpha, and writes "<csv_prefix>_a<alpha>.csv".
void PrintMetric(const std::vector<PanelResult>& panel,
                 const std::string& metric,  // rep_rate | throughput |
                                             // latency_ms | failure_rate
                 const std::string& title, const std::string& csv_prefix,
                 size_t stride = 5);

/// One-line closing summary per (alpha, strategy): completion interval,
/// tail throughput/latency/failure — the quantities EXPERIMENTS.md quotes.
void PrintPanelSummary(const std::vector<PanelResult>& panel);

/// Whole-figure driver for Figures 4-7: one (distribution, load) panel,
/// alpha in {100%, 60%, 20%}, printing the figure's three rows (RepRate,
/// throughput, latency) plus the failure-rate series and a summary.
/// Returns a process exit code.
int RunFigureMain(workload::PopularityDist distribution, bool high_load,
                  const char* figure_name, const char* description,
                  int argc = 0, char** argv = nullptr);

}  // namespace soap::bench

#endif  // SOAP_BENCH_BENCH_COMMON_H_
