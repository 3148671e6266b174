#!/usr/bin/env python3
"""Serving-path benchmark for MIDAS: update freshness, panel quality and
per-stage cost of serve::EngineHost under four update workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload steady --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --report      # |D|-scaling and tracing overhead

The first call configures and builds perfbench/ (the MIDAS library from
../src plus the serve_bench program) into .bench_build/perfbench. Every phase
of a run is a fresh serve_bench process, so no run inherits a warm
ComputeCache or MetricsRegistry:

  --trace 0   two extra `setup` processes, then `run` (set-up, load phase,
              correctness gate) and `recover` (RecoverEngine on the engine
              directory the run left, as an operator restart would).
              Prints the end-to-end metrics.
  --trace 1   `run` with the benchmark's own timers on, plus the bare-engine
              replay, then `restore` and `recover`. Prints per-layer metrics,
              the stage table, the tracing overhead and, once both `steady`
              and `large` have a traced result, each stage's log-log |D|
              slope.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
`attempted` counts submitted batches. `failed` counts batches that went
wrong: rejected by validation, never visible, or anything the correctness
gate caught. A batch shed by admission control is the host's designed answer
to overload, so it shows in `batches_applied_frac` (= 1 - the failed-batch
fraction, kept as a complement because closed loops would report a zero)
rather than in `failed`.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "serve_bench"
RUNS = BUILD / "runs"
RESULTS = BUILD / "results"

WORKLOADS = ("steady", "large", "drift", "burst")
CLOSED_LOOP = ("steady", "large", "drift")
SETUP_REPEATS = 3          # set-ups per untraced run, the run's own included
PHASE_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 840

# name -> unit, in output order.
END_TO_END = {
    "setup_s": "s",
    "fresh_ms_p50": "ms",
    "fresh_ms_tail": "ms",
    "goodput_graphs_per_s": "graphs/s",
    "batches_applied_frac": "ratio",
    "panel_scov": "ratio",
    "panel_lcov": "ratio",
    "panel_div": "edits",
    "panel_cog": "score",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "mining.fct_ms_mean": "ms",
    "mining.extensions_per_round": "count",
    "view.refresh_ms_mean": "ms",
    "view.delta_row_share": "ratio",
    "graph.iso_runs_per_round": "count",
    "graph.iso_nodes_per_round": "count",
    "graph.cache_hit_ratio": "ratio",
    "graph.cache_evictions_per_round": "count",
    "select.candidate_ms_mean": "ms",
    "select.candidates_per_round": "count",
    "maintain.swap_ms_mean": "ms",
    "maintain.swaps_per_round": "count",
    "graph.ged_exact_per_round": "count",
    "maintain.major_frac": "ratio",
    "graph.apply_ms_mean": "ms",
    "cluster.cluster_ms_mean": "ms",
    "cluster.csg_ms_mean": "ms",
    "cluster.splits_per_round": "count",
    "index.index_ms_mean": "ms",
    "serve.submit_us_p50": "us",
    "serve.submit_us_p99": "us",
    "serve.queue_wait_ms_p50": "ms",
    "serve.queue_wait_ms_p99": "ms",
    "serve.shed_frac": "ratio",
    "serve.gen_lateness_ms_p99": "ms",
    "serve.gen_lateness_ms_max": "ms",
    "serve.residual_ms_mean": "ms",
    "serve.residual_ms_p99": "ms",
    "maintain.journal_ms_mean": "ms",
    "maintain.checkpoint_ms_mean": "ms",
    "serve.publish_ms_mean": "ms",
    "maintain.journal_bytes_per_round": "B",
    "select.initialize_s": "s",
    "serve.start_s": "s",
    "maintain.recover_s": "s",
    "maintain.restore_s": "s",
    "maintain.replay_s": "s",
    "maintain.replayed_rounds": "count",
    "maintain.round_ms_p50": "ms",
    "maintain.round_ms_p99": "ms",
    "maintain.unattributed_ms_mean": "ms",
    "serve.read_us_p99": "us",
    "serve.fresh_ms_p50_traced": "ms",
}

# Stages whose |D| slope (steady at 300 -> large at 1000) the report prints.
SCALING_STAGES = (
    "graph.apply_ms_mean", "mining.fct_ms_mean", "cluster.cluster_ms_mean",
    "cluster.csg_ms_mean", "index.index_ms_mean", "view.refresh_ms_mean",
    "select.candidate_ms_mean", "maintain.swap_ms_mean",
    "maintain.journal_ms_mean", "maintain.checkpoint_ms_mean",
    "serve.publish_ms_mean", "maintain.round_ms_p50",
    "serve.fresh_ms_p50_traced", "select.initialize_s",
    "maintain.restore_s",
)


def log(msg=""):
    print(msg, file=sys.stderr, flush=True)


def run_cmd(cmd, timeout, stdout, stderr):
    """Runs cmd in its own process group; on timeout the whole group (make's
    compilers included) is killed and reaped before the error propagates."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build():
    """Configures (once) and builds serve_bench; False when it cannot."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: MIDAS sources (src/) not found next to perfbench/")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "serve_bench"])
    for cmd in steps:
        try:
            code, out = run_cmd(cmd, BUILD_TIMEOUT_S, subprocess.PIPE,
                                subprocess.STDOUT)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"perfbench: build step failed: {e}")
            return False
        if code != 0:
            log(out[-4000:])
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return False
    return BINARY.is_file()


def phase(mode, workload, seed, seconds, trace, workdir):
    """Runs one serve_bench phase in a fresh process; returns its JSON."""
    cmd = [str(BINARY), mode, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--dir", str(workdir)]
    code, out = run_cmd(cmd, PHASE_TIMEOUT_S, subprocess.PIPE, sys.stderr)
    if code != 0:
        raise RuntimeError(f"serve_bench {mode} exited {code}")
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        raise RuntimeError(f"serve_bench {mode} printed no result")
    return json.loads(lines[-1])


def fresh_dir(name):
    path = RUNS / name
    shutil.rmtree(path, ignore_errors=True)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def build_id():
    return hashlib.sha256(BINARY.read_bytes()).hexdigest()[:16]


def check_digests(workload, seed, digests):
    """Closed loops are serial and seeded: every run of a workload with one
    seed must publish the same panel at the same round, for as long as the
    binary is the same. Returns failures."""
    if workload not in CLOSED_LOOP:
        return []
    store = RESULTS / "digests" / build_id() / f"{workload}-{seed}.json"
    known = {}
    if store.is_file():
        known = json.loads(store.read_text())
    bad = [f"panel digest at round {seq} differs from an earlier run"
           for seq, d in digests.items() if seq in known and known[seq] != d]
    known.update(digests)
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text(json.dumps(known, sort_keys=True))
    return bad


def run_once(args):
    tag = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    workdir = fresh_dir(tag)
    setups = []
    try:
        if not args.trace:
            for i in range(SETUP_REPEATS - 1):
                sdir = fresh_dir(f"{tag}-setup{i}")
                try:
                    setups.append(phase("setup", args.workload, args.seed,
                                        args.seconds, False, sdir)["setup_s"])
                finally:
                    shutil.rmtree(sdir, ignore_errors=True)
        run = phase("run", args.workload, args.seed, args.seconds,
                    args.trace, workdir)
        restore = None
        if args.trace:
            restore = phase("restore", args.workload, args.seed,
                            args.seconds, True, workdir)
        recover = phase("recover", args.workload, args.seed, args.seconds,
                        args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(run["setup_s"])
    return run, restore, recover, setups


def summarize(args, run, restore, recover, setups):
    failures = list(run["failures"]) + list(recover["failures"])
    failures += check_digests(args.workload, args.seed, run["digests"])

    if args.trace:
        layer = dict(run["per_layer"])
        layer["maintain.recover_s"] = recover["recover_s"]
        layer["maintain.restore_s"] = restore["restore_s"]
        layer["maintain.replay_s"] = recover["recover_s"] - restore["restore_s"]
        layer["maintain.replayed_rounds"] = recover["replayed_rounds"]
        values, units = layer, PER_LAYER
    else:
        values = {k: run[k] for k in END_TO_END if k != "setup_s"}
        values["setup_s"] = statistics.median(setups)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}

    failed = (run["submitted"] - run["accepted"] - run["shed"]) + \
        (run["accepted"] - run["visible"])
    if failures:
        failed = max(failed, 1)
    return {
        "correct": not failures,
        "attempted": max(1, run["submitted"]),
        "failed": failed,
        "metrics": metrics,
    }, failures


def save_result(args, run, result):
    RESULTS.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "build_id": build_id(),
              "env": run["env"], "tail_percentile": run["tail_pct"],
              "result": result}
    if args.trace:
        record["stages"] = run.get("stages", {})
    path = RESULTS / f"{args.workload}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True))


def load_result(workload, trace):
    path = RESULTS / f"{workload}-trace{trace}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text())


def value(record, name):
    return record["result"]["metrics"].get(name, {}).get("value")


def comparable(a, b):
    """Results from one host and one build only."""
    return (a["env"].get("hostname") == b["env"].get("hostname") and
            a.get("build_id") == b.get("build_id"))


def report():
    """Cross-run reports from the latest stored results."""
    for w in WORKLOADS:
        traced, plain = load_result(w, 1), load_result(w, 0)
        if traced and plain and comparable(traced, plain):
            over = value(traced, "serve.fresh_ms_p50_traced") - \
                value(plain, "fresh_ms_p50")
            log(f"tracing overhead ({w}): traced fresh_ms_p50 - untraced "
                f"fresh_ms_p50 = {over:+.3f} ms "
                f"(seeds {traced['seed']} / {plain['seed']})")
    small, big = load_result("steady", 1), load_result("large", 1)
    if not (small and big):
        return
    if not comparable(small, big):
        log("|D|-scaling: steady and large results come from different "
            "hosts or builds")
        return
    d_small = int(small["env"]["config.db_size"])
    d_big = int(big["env"]["config.db_size"])
    ratio = math.log(d_big / d_small)
    log(f"|D|-scaling, same 3+3 batches at |D| {d_small} -> {d_big} "
        f"(log-log slope; 0 = flat, 1 = linear in |D|)")
    for stage in SCALING_STAGES:
        a, b = value(small, stage), value(big, stage)
        if a and b and a > 0 and b > 0:
            log(f"  {stage:32s} {a:12.4f} -> {b:12.4f}  slope "
                f"{math.log(b / a) / ratio:+.2f}")
        else:
            log(f"  {stage:32s} {'n/a (zero on one side)':>40s}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true")
    args = parser.parse_args()
    if args.report:
        report()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    started = time.monotonic()
    if not build():
        return 1
    try:
        run, restore, recover, setups = run_once(args)
    except (RuntimeError, subprocess.TimeoutExpired, KeyError,
            json.JSONDecodeError) as e:
        log(f"perfbench: {e}")
        return 1
    result, failures = summarize(args, run, restore, recover, setups)
    save_result(args, run, result)

    log(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"({time.monotonic() - started:.1f} s)")
    for key in sorted(run["env"]):
        log(f"  env {key} = {run['env'][key]}")
    log(f"  fresh_ms_tail is p{run['tail_pct']:g} of {run['measured_visible']} "
        f"applied batches")
    for name, m in result["metrics"].items():
        log(f"  {name:34s} {m['value']:14.4f} {m['unit']}")
    for f in failures:
        log(f"  CHECK FAILED: {f}")
    if args.trace:
        report()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
