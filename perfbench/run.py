"""Run the poslab benchmark.

    python3 perfbench/run.py [--workload coa-wide|coa-long|lottery|all]
                             [--seed N] [--seconds S] [--trace 0|1]

One workload runs in this process, so ``peak_rss_mb`` is its own. With
``--trace 0`` it repeats the workload body for S seconds and prints the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
bodies and prints the per-layer metrics and the tracing overhead. Either way
every operation's output is checked (perfbench/README.md lists the checks),
and the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--workload all``
runs each workload in its own child process. The exit code is 0 when every
check passed, 1 when one failed and 2 when the poslab sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from perfbench import tracer as tracing  # noqa: E402
from perfbench import workloads  # noqa: E402
from perfbench.speed import CpuSpeed  # noqa: E402
from perfbench.workloads import OpResult  # noqa: E402

OUT = os.path.join(HERE, ".out")
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
SETUP_PROBES = 7
CHILD_TIMEOUT = 150


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def run_body(cli, ops, workdir, speed, tracer=None) -> tuple:
    """Run every operation once, sampling the CPU's speed while poslab runs;
    returns (seconds in poslab, results)."""
    results = []
    for i, op in enumerate(ops):
        gc.collect()
        if tracer is not None:
            tracer.run_id = i
        r = workloads.run_op(cli, op, os.path.join(workdir, "op%d" % i),
                             count_rejects=tracer is not None, during=speed.sampling)
        if tracer is not None:
            tracer.end_operation()
            tracer.rejects.update(r.rejects)
        results.append(r)
    return sum(r.seconds for r in results), results


def setup_seconds(workload, seed, workdir) -> float:
    """Wall time from spawning a fresh interpreter until it is ready to run."""
    probe_dir = os.path.join(workdir, "setup")
    os.makedirs(probe_dir, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), "setup", workload,
           str(seed), probe_dir]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.wait(timeout=CHILD_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("setup probe failed (exit %r)" % proc.returncode)
    return elapsed


def check_in_child(workload, seed, workdir) -> list:
    """Re-run operations in a child with a different PYTHONHASHSEED."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
    check_dir = os.path.join(workdir, "check")
    os.makedirs(check_dir, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), "check", workload,
           str(seed), check_dir]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        return [OpResult("check child", seed, problems=["timed out"])]
    if proc.returncode != 0:
        return [OpResult("check child", seed,
                         problems=["exit %d: %s" % (proc.returncode, proc.stderr[-2000:])])]
    return [OpResult(**r) for r in json.loads(proc.stdout.splitlines()[-1])]


def within(seconds, start, last) -> bool:
    """Whether another step of `last` seconds still ends inside the window."""
    return time.perf_counter() - start + last <= seconds


def measure(cli, workload, seed, seconds, workdir) -> tuple:
    """Untraced run: end-to-end metrics and every operation's result."""
    checks = check_in_child(workload, seed, workdir)
    ops = workloads.plan(workload, seed, workdir)
    setups, walls, bodies, results = [], [], [], []
    speed = CpuSpeed()

    def setup():
        speed.begin()
        return speed.end(setup_seconds(workload, seed, workdir))[1]

    start = time.perf_counter()
    while not walls or within(seconds, start, walls[-1]):
        setups.append(setup())
        speed.begin()
        body_s, body_results = run_body(cli, ops, workdir, speed)
        wall, scaled = speed.end(body_s)
        walls.append(wall)
        bodies.append(scaled)
        results.extend(body_results)
    while len(setups) < SETUP_PROBES:
        setups.append(setup())
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run_s = statistics.median(bodies)
    blocks = sum(r.blocks for r in results[:len(ops)])
    metrics = {
        "run_s": run_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_mb,
        "blocks_per_s": blocks / run_s,
    }
    notes = ["run_s: median of %d bodies at reference speed; wall median %.4f s, range %.4f-%.4f s"
             % (len(bodies), statistics.median(walls), min(walls), max(walls)),
             "setup_s: median of %d fresh interpreters at reference speed" % len(setups),
             "blocks_per_s: %d blocks per body / run_s" % blocks]
    return metrics, results + checks, notes


def traced(cli, workload, seed, seconds, workdir) -> tuple:
    """Traced run: per-layer metrics and every operation's result."""
    ops = workloads.plan(workload, seed, workdir)
    tr = tracing.Tracer()
    speed = CpuSpeed()
    plain, timed, walls, layers, results = [], [], [], [], []
    start = time.perf_counter()
    while not walls or within(seconds, start, walls[-1]):
        speed.begin()
        body_s, body_results = run_body(cli, ops, workdir, speed)
        wall, scaled = speed.end(body_s)
        plain.append(scaled)
        results.extend(body_results)
        with tracing.installed(tr):
            speed.begin()
            body_s, body_results = run_body(cli, ops, workdir, speed, tracer=tr)
            traced_wall, scaled = speed.end(body_s)
        timed.append(scaled)
        walls.append(wall + traced_wall)
        results.extend(body_results)
        layers.append(tr.layer_metrics())
        if len(timed) == 1:
            write_spans(tr, workload, seed)
        tr.reset()
    metrics = tracing.median_metrics(layers)
    metrics["trace.overhead_s"] = statistics.median(timed) - statistics.median(plain)
    notes = ["%d untraced and %d traced bodies; medians at reference speed %.4f s and %.4f s"
             % (len(plain), len(timed), statistics.median(plain), statistics.median(timed))]
    return metrics, results, notes


def write_spans(tr, workload, seed):
    """Keep the first traced body's spans next to the benchmark."""
    path = os.path.join(OUT, "spans-%s-seed%d.npz" % (workload, seed))
    np.savez_compressed(path, names=np.array(tr.names), name=np.asarray(tr.name),
                        parent=np.asarray(tr.parent), run=np.asarray(tr.run),
                        start=np.asarray(tr.start), end=np.asarray(tr.end))


def report(workload, seed, trace, metrics, results, notes) -> dict:
    spec = load_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    failed = sum(r.failed for r in results)
    print("perfbench %s seed %d trace %d" % (workload, seed, trace))
    for m in wanted:
        print("  %-52s %14.6f %s" % (m["name"], metrics[m["name"]], m["unit"]))
    if not trace:
        print("  %-52s %14.6f %s" % ("error_rate", failed / len(results), "ratio"))
    for note in notes:
        print("  " + note)
    for r in results:
        for problem in r.problems:
            print("  FAILED %s (seed %d): %s" % (r.op, r.seed, problem))
    return {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def run_all(args) -> int:
    codes = []
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        codes.append(subprocess.run(cmd).returncode)
    return max(codes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    cli = workloads.import_cli()
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, "work-%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(workdir)
    try:
        run = traced if args.trace else measure
        metrics, results, notes = run(cli, args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.gate(args.workload, results, workloads.load_pins())
    result = report(args.workload, args.seed, args.trace, metrics, results, notes)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
