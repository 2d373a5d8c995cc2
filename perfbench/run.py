#!/usr/bin/env python3
"""The SOAP benchmark: one command, four canonical simulator runs.

    python3 perfbench/run.py --workload paper --seed 3 --seconds 15 --trace 0

Builds perfbench/soap_perf (Release) into .bench_build, then runs the named
workload single-threaded, each simulator run in its own process:

  --trace 0  repeats the untraced run for about --seconds (at least twice)
             plus five set-up-only processes, and reports the end-to-end
             metrics;
  --trace 1  makes one untraced and one traced run, replays the traced
             run's arrival stream through every layer (soap_perf
             --mode traced), and reports the per-layer metrics. The
             replay's spans go to .bench_out/<workload>-s<seed>.spans.jsonl.

The last stdout line is one JSON object {"correct", "attempted", "failed",
"metrics"}. `attempted` counts the full simulator runs made and `failed`
those that failed a correctness check; the simulated database's own aborts
are the sim_failed_frac metric. Any failed check (audit, drain, checker,
repeatability, traced-vs-untraced agreement, replay coverage) reports no
metrics and exits 1. See perfbench/README.md for the metric definitions.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "soap_perf")

WORKLOADS = ("paper", "hub_drift", "scale_out", "paper_checked")
# Every run has to finish within 180 s of measuring; leave room for exit.
RUN_BUDGET_S = 170.0
MIN_REPS = 2
SETUP_PROBES = 5


def metric_units(kind):
    """{name: unit} of the BENCHMARK.json metrics of one kind."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


class BenchError(Exception):
    """A failure that must produce no metrics and a non-zero exit."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds soap_perf; cmake skips up-to-date work."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no SOAP sources under %s/src" % ROOT)
    os.makedirs(OUT_DIR, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "soap_perf",
                  "-j", str(os.cpu_count() or 1)])
    log_path = os.path.join(OUT_DIR, "build.log")
    with open(log_path, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                raise BenchError("build failed (%s):\n%s" %
                                 (" ".join(cmd), tail))


def run_child(args, deadline, tag):
    """Runs soap_perf to completion; returns its facts plus the process's
    CPU seconds and peak RSS."""
    out_path = os.path.join(OUT_DIR, tag + ".stdout")
    err_path = os.path.join(OUT_DIR, tag + ".stderr")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        proc = subprocess.Popen([BINARY] + args, stdout=out, stderr=err,
                                cwd=ROOT)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid != 0:
                    break
                if time.monotonic() > deadline:
                    raise BenchError("%s did not finish in time" % tag)
                time.sleep(0.02)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as f:
        stdout = f.read()
    with open(err_path) as f:
        stderr = f.read()
    os.remove(out_path)
    os.remove(err_path)
    if proc.returncode != 0:
        raise BenchError("soap_perf %s exited %d: %s" %
                         (" ".join(args), proc.returncode, stderr.strip()))
    facts = json.loads(stdout.strip().splitlines()[-1])
    facts["cpu_s"] = usage.ru_utime + usage.ru_stime
    facts["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return facts


def run_problems(workload, facts):
    """Correctness problems of one simulator run (empty when it passed)."""
    problems = []
    if not facts["audit_ok"]:
        problems.append("consistency audit failed: " + facts["audit"])
    if not facts["drained"]:
        problems.append("the run did not drain")
    if workload == "paper_checked" and not facts["check_enabled"]:
        problems.append("the checker did not run")
    if facts["check_enabled"] and not facts["check_ok"]:
        problems.append("checker violation: " + facts["check"])
    return problems


def trace_problems(untraced, traced):
    """Disagreements between a workload's untraced and traced runs."""
    problems = []
    if traced["sim"] != untraced["sim"]:
        problems.append("traced and untraced runs disagree: %s vs %s" %
                        (traced["sim"], untraced["sim"]))
    replay = traced["replay"]
    # Stripped resubmissions (Algorithm 2) count as submissions but are
    # not new arrivals, so the trace does not hold them.
    arrived = (untraced["sim"]["submitted"] -
               untraced["counts"]["stripped_resubmissions"])
    if replay["txns"] != arrived or replay["generated"] != replay["txns"]:
        problems.append("replayed %d transactions (%d regenerated); the run "
                        "submitted %d arrivals" %
                        (replay["txns"], replay["generated"], arrived))
    if replay["check_violations"] != 0:
        problems.append("the checker flagged the serial replay history")
    return problems


def us_per_commit(facts):
    return ((facts["run_wall_s"] - facts["load_wall_s"]) * 1e6 /
            facts["sim"]["commits"])


def end_to_end(reps, setup_samples):
    sim = reps[0]["sim"]
    return {
        "setup_s": statistics.median(setup_samples),
        "us_per_commit": statistics.median(us_per_commit(r) for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "sim_commits": sim["commits"],
        # Add-one smoothing keeps both ratios positive on runs with no
        # aborts (paper) or no distributed tail (paper after its plan).
        "sim_failed_frac": (sim["aborted"] + 1) / (sim["submitted"] + 1),
        "sim_p50_ms": sim["p50_ms"],
        "sim_p99_ms": sim["p99_ms"],
        "sim_dist_ratio": ((sim["tail_distributed"] + 1) /
                           (sim["tail_commits"] + 1)),
    }


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(untraced, traced):
    c = untraced["counts"]
    sim = untraced["sim"]
    cp = traced["critical_path"]
    rp = traced["replay"]

    def ns_per_call(layer):
        return ratio(rp[layer]["ns"], rp[layer]["calls"])

    return {
        "workload.gen_ns_per_txn": ns_per_call("generate"),
        "sim.events": sim["events"],
        "sim.events_per_commit": ratio(sim["events"], sim["commits"]),
        "sim.ns_per_event": ratio((untraced["run_wall_s"] -
                                   untraced["load_wall_s"]) * 1e9,
                                  sim["events"]),
        "sim.loop_ns_per_event": ns_per_call("sim"),
        "sim.net_msgs": c["net_msgs"],
        "router.route_ns": ns_per_call("route"),
        "router.exceptions": c["routing_exceptions"],
        "router.bytes": c["routing_bytes"],
        "txn.lock_ns": ns_per_call("lock"),
        "txn.lock_acquires": c["lock_acquires"],
        "txn.lock_waits": c["lock_waits"],
        "txn.tpc_protocols": c["tpc_protocols"],
        "txn.tpc_msgs": c["tpc_msgs"],
        "txn.lock_wait_ms": cp["lock_wait_ms"],
        "txn.prepare_ms": cp["prepare_ms"],
        "txn.commit_ms": cp["commit_ms"],
        "storage.read_ns": ns_per_call("read"),
        "storage.update_ns": ns_per_call("update"),
        "storage.rows": c["storage_rows"],
        "storage.bytes": c["storage_bytes"],
        "cluster.queued_ms": cp["queued_ms"],
        "cluster.execute_ms": cp["execute_ms"],
        "cluster.queue_timeouts": c["queue_timeouts"],
        "cluster.audit_s": untraced["audit_wall_s"],
        "core.rep_txns": c["rep_txns"],
        "core.piggybacked_ops": c["piggybacked_ops"],
        "core.rep_complete_iv": c["rep_complete_iv"],
        "core.rep_work_ratio": c["rep_work_ratio_tail"],
        "planner.observe_ns": ns_per_call("observe"),
        "planner.replan_ms": ns_per_call("replan") / 1e6,
        "planner.replans": c["replans"],
        "planner.ops_emitted": c["ops_emitted"],
        "planner.graph_vertices": c["graph_vertices"],
        "planner.graph_bytes": c["graph_bytes"],
        "replica.creates": c["replica_creates"],
        "replica.drops": c["replica_drops"],
        "replica.read_frac": ratio(c["replica_reads"], c["reads_routed"]),
        "lion.shifts_applied": c["shifts_applied"],
        "lion.budget_denials": c["budget_denials"],
        "check.record_ns_per_txn": ratio(rp["record"]["ns"], rp["txns"]),
        "check.verify_s": rp["verify"]["ns"] / 1e9,
        "check.invariant_checks": c["invariant_checks"],
        "obs.overhead_frac": (us_per_commit(traced) /
                              us_per_commit(untraced) - 1.0),
        "engine.wall_s": untraced["run_wall_s"],
    }


def measure(args, deadline):
    """Returns (metrics, attempted runs, facts kept for the record)."""
    tag = "%s-s%d" % (args.workload, args.seed)
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        base.append("--quick")

    def simulate(mode, extra=()):
        facts = run_child(["--mode", mode] + base + list(extra), deadline,
                          "%s-%s" % (tag, mode))
        problems = run_problems(args.workload, facts)
        if problems:
            raise BenchError("; ".join(problems))
        return facts

    if args.trace == 0:
        reps = [simulate("run")]
        wanted = max(MIN_REPS, round(args.seconds / reps[0]["run_wall_s"]))
        while len(reps) < wanted:
            reps.append(simulate("run"))
            if reps[-1]["sim"] != reps[0]["sim"]:
                raise BenchError("a repeated run changed its simulated "
                                 "outcome")
        # Set-up is timed in fresh processes only, as a user meets it.
        setup = [r["load_wall_s"] for r in reps] + [
            run_child(["--mode", "setup"] + base, deadline,
                      tag + "-setup")["load_wall_s"]
            for _ in range(SETUP_PROBES)]
        record = {"reps": reps, "setup_s": setup}
        return end_to_end(reps, setup), len(reps), record

    untraced = simulate("run")
    out_prefix = os.path.join(OUT_DIR, tag)
    arrivals = out_prefix + ".arrivals"
    try:
        traced = simulate("traced", ["--out", out_prefix])
    finally:
        if os.path.exists(arrivals):
            os.remove(arrivals)
    problems = trace_problems(untraced, traced)
    if problems:
        raise BenchError("; ".join(problems))
    print("# spans: " + os.path.relpath(traced["replay"]["spans_path"], ROOT))
    record = {"untraced": untraced, "traced": traced}
    return per_layer(untraced, traced), 2, record


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="scaled-down workloads (the benchmark's tests)")
    args = parser.parse_args()

    try:
        build()
        deadline = time.monotonic() + RUN_BUDGET_S
        host = {"nproc": os.cpu_count(), "machine": platform.machine(),
                "seed": args.seed, "workload": args.workload,
                "trace": args.trace, "quick": args.quick}
        metrics, attempted, record = measure(args, deadline)
    except BenchError as e:
        log("perfbench: %s" % e)
        return 1
    first = record.get("reps", [record.get("untraced")])[0]
    host["compiler"] = first["compiler"]
    host["build_type"] = first["build_type"]
    print("# host: " + " ".join("%s=%s" % kv for kv in sorted(host.items())))
    with open(os.path.join(OUT_DIR, "%s-s%d-trace%d.json" %
                           (args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"host": host, "metrics": metrics, "facts": record}, f,
                  indent=1)
    units = metric_units("end_to_end" if args.trace == 0 else "per_layer")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
