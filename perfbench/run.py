#!/usr/bin/env python3
"""Pipeline benchmark: runs one workload of the long-tail KB extension
pipeline for a seed, checks its outputs and prints its metrics.

    python3 perfbench/run.py --workload gfplayer-bench --seed 7 --seconds 1 --trace 0

Run it from the repository root. The first run compiles the program and the
JVM harness (see build.py). Each repetition runs in a fresh JVM on Spark
local[nproc] with the tests' Spark settings; repetitions follow each other
until --seconds have passed (at least one). With --trace 1 one more,
traced, repetition gives the per-layer metrics. The last stdout line is the
result as JSON; see README.md for the metrics.
"""
import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402
import metrics  # noqa: E402

# workload -> does one repetition run the full two-iteration pipeline?
WORKLOADS = {"gfplayer-bench": True, "song-bench": True, "match-bench": False}
# every run must end within 180 s; stop starting repetitions well before
RUN_LIMIT_S = 170.0
HEAP = "3g"


def jvm_command(cp, workload, seed, trace, out, tmp):
    return [build.java(), f"-Xmx{HEAP}", "-Xss8m",
            f"-Dlog4j2.configurationFile={build.ROOT / 'perfbench' / 'log4j2.properties'}",
            f"-Djava.io.tmpdir={tmp}",
            "-cp", cp, "perfbench.PerfBench",
            "--workload", workload, "--seed", str(seed), "--trace", "1" if trace else "0",
            "--out", str(out), "--local-dir", str(tmp / "spark")]


def repetition(cp, args, trace, tmp, n, deadline):
    """One repetition in its own JVM; returns its JSON, or None if it failed."""
    out = tmp / f"rep-{n}.json"
    jtmp = tmp / f"jvm-{n}"
    jtmp.mkdir(parents=True)
    cmd = jvm_command(cp, args.workload, args.seed, trace, out, jtmp)
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"# repetition {n} killed at the run's time limit", file=sys.stderr)
        return None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(jtmp, ignore_errors=True)
    if code != 0 or not out.exists():
        print(f"# repetition {n} exited with {code}", file=sys.stderr)
        return None
    with open(out) as f:
        return json.load(f)


def end_to_end(reps):
    quality = reps[0]["quality"]
    values = {
        "run_s": statistics.median(r["run_s"] for r in reps),
        "setup_s": statistics.median(metrics.setup_s(r) for r in reps),
        "driver_heap_mb": statistics.median(r["heap_mb"] for r in reps),
        "table_class_acc": quality["table_class_acc"],
        "attr_f1": quality["attr_f1"],
    }
    return {n: {"value": values[n], "unit": u} for n, (u, _) in metrics.END_TO_END.items()}


def per_layer(traced, untraced):
    values = {name: 0.0 for name, _, _ in metrics.per_layer_catalogue()}
    trace = metrics.trace_metrics(traced, [r["run_s"] for r in untraced])
    quality = {metrics.QUALITY_METRICS[k]: v for k, v in traced["quality"].items()
               if k in metrics.QUALITY_METRICS}
    for part in (metrics.span_metrics(traced), metrics.spark_metrics(traced),
                 traced["counts"], quality, trace):
        for name, v in part.items():
            if name not in values:
                raise KeyError(f"metric {name} is missing from the catalogue")
            values[name] = v
    units = {name: unit for name, unit, _ in metrics.per_layer_catalogue()}
    return {n: {"value": v, "unit": units[n]} for n, v in values.items()}, trace


def stop(signum, _frame):
    # unwinds through the finally blocks, which stop the JVM and clean up
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, stop)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    try:
        cp = build.build()
    except build.BuildError as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 2
    # counted from here: a first run in a checkout may also take the build time
    deadline = time.monotonic() + RUN_LIMIT_S

    full_run = WORKLOADS[args.workload]
    tmp = build.OUT / "runs" / str(os.getpid())
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        attempted, failed = 0, 0
        untraced = []
        t0 = time.monotonic()
        while True:
            started = time.monotonic()
            rep = repetition(cp, args, False, tmp, attempted, deadline)
            attempted += 1
            last = time.monotonic() - started
            if rep is None:
                failed += 1
            else:
                untraced.append(rep)
            left = deadline - time.monotonic()
            if time.monotonic() - t0 >= args.seconds or left < 1.5 * last * (2 if args.trace else 1):
                break
        traced = None
        if args.trace:
            traced = repetition(cp, args, True, tmp, attempted, deadline)
            attempted += 1
            if traced is None:
                failed += 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if not untraced or (args.trace and traced is None):
        print("no usable repetition", file=sys.stderr)
        return 1

    # output checks, and the digest and quality metrics repeated exactly
    reference = None
    for i, rep in enumerate(untraced + ([traced] if traced else [])):
        problems = metrics.check_outputs(rep["outputs"], rep["quality"], full_run)
        d = metrics.digest(rep["outputs"])
        if reference is None:
            reference = (d, rep["quality"])
        elif (d, rep["quality"]) != reference:
            problems.append("outputs or quality differ from the first repetition")
        tag = "traced" if rep is traced else "untraced"
        print(f"# rep {i} {tag} run_s={rep['run_s']:.3f} digest={d[:16]} "
              f"checks={'ok' if not problems else '; '.join(problems)}")
        if problems:
            failed += 1

    env = dict(untraced[0]["env"])
    print("# env " + json.dumps(env, sort_keys=True))

    if args.trace:
        result_metrics, trace = per_layer(traced, untraced)
        if not metrics.self_times_account(trace):
            print(f"# self times leave {trace['trace.unaccounted_s']:.3f} s of the traced run "
                  f"unaccounted (overhead {trace['trace.overhead_s']:.3f} s)")
            failed += 1
    else:
        result_metrics = end_to_end(untraced)

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
