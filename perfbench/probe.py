"""Child processes of the benchmark.

    python3 perfbench/probe.py setup <workload> <seed> <workdir>
        Start-up as the benchmark does it (interpreter, ``import poslab.cli``,
        input generation), then print "ready". The parent times this.
    python3 perfbench/probe.py check <workload> <seed> <workdir>
        Re-run operations under another PYTHONHASHSEED and print their
        results as one JSON line: a CoA workload's body at <seed>, and the
        body at the default seed when <seed> has no pinned digests.
    python3 perfbench/probe.py pins <workdir>
        Print the pinned digests of every workload for the default and the
        held-out seed (the contents of perfbench/pins.json).
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import workloads  # noqa: E402


def check_ops(workload: str, seed: int, workdir: str) -> list:
    ops = workloads.plan(workload, seed, workdir)
    out = ops if workload != "lottery" else []
    if seed not in workloads.pinned_seeds(workload, workloads.load_pins()):
        out = out + [op for op in workloads.plan(workload, workloads.DEFAULT_SEED, workdir)
                     if op not in ops]
    return out


def main(argv) -> int:
    mode = argv[0]
    if mode == "setup":
        workload, seed, workdir = argv[1], int(argv[2]), argv[3]
        workloads.import_cli()
        workloads.plan(workload, seed, workdir)
        print("ready", flush=True)
        return 0
    cli = workloads.import_cli()
    if mode == "check":
        workload, seed, workdir = argv[1], int(argv[2]), argv[3]
        results = [workloads.run_op(cli, op, os.path.join(workdir, "out"))
                   for op in check_ops(workload, seed, workdir)]
        print(json.dumps([dataclasses.asdict(r) for r in results]))
        return 0
    if mode == "pins":
        workdir = argv[1]
        pins, bad = {}, 0
        for workload in workloads.WORKLOADS:
            for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
                for op in workloads.plan(workload, seed, workdir):
                    r = workloads.run_op(cli, op, os.path.join(workdir, "pins"))
                    bad += r.failed
                    pins.setdefault(workload, {}).setdefault(str(op.seed), {})[op.name] = r.digest
        print(json.dumps(pins, indent=1, sort_keys=True))
        return 1 if bad else 0
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
