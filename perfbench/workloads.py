"""Workload plans, operation runner and correctness gate.

A workload body is a list of operations, each one call of ``poslab.cli.main``
in this process. An operation's outcome is its trace digest (``run``) or the
SHA-256 of its result table (``reproduce``), plus the invariants read back
from the files it wrote.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from . import inputs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")

WORKLOADS = ("coa-wide", "coa-long", "lottery")
DEFAULT_SEED = 0
HELD_OUT_SEED = 5694
LOTTERY_SCENARIOS = ("ppcoin-honest", "ppcoin-multifork", "dense-baseline",
                     "dense-withhold")
# `reproduce all` always runs at the default seed, the one the paper's
# numbers are checked at: its Monte-Carlo checks use 3-sigma and +-15-20%
# tolerances, so some seeds legitimately FAIL (mu-concat fails at 2 of seeds
# 1-100). Its cost does not depend on the seed.
REPRODUCE_SEED = 0


def import_cli():
    """Import ``poslab.cli`` from this checkout's ``src``; exit 2 without it."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "poslab", "cli.py")):
        sys.stderr.write("perfbench: no poslab sources under %s\n" % src)
        raise SystemExit(2)
    if src not in sys.path:
        sys.path.insert(0, src)
    from poslab import cli
    return cli


@dataclass(frozen=True)
class Op:
    name: str                 # e.g. "run coa-wide", "reproduce all"
    argv: tuple               # poslab arguments, without --out/--format
    seed: int                 # the seed the op's input is made from
    target: Optional[int]     # slots the run must reach, if any
    protocol: str = ""


@dataclass
class OpResult:
    op: str
    seed: int
    code: Optional[int] = None
    digest: Optional[str] = None
    blocks: int = 0
    seconds: float = 0.0
    problems: list = field(default_factory=list)
    rejects: Counter = field(default_factory=Counter)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def plan(workload: str, seed: int, workdir: str) -> list:
    """The operations of one body; writes the generated config if any."""
    if workload in ("coa-wide", "coa-long"):
        path = os.path.join(workdir, "%s-%d.json" % (workload, seed))
        config = inputs.write_config(path, workload, seed)
        return [Op("run " + workload, ("run", "--config", path, "--seed", str(seed)),
                   seed, config["duration"]["slots"], "coa")]
    if workload == "lottery":
        from poslab.scenarios import SCENARIOS
        ops = [Op("reproduce all", ("reproduce", "all", "--jobs", "1",
                                    "--seed", str(REPRODUCE_SEED)),
                  REPRODUCE_SEED, None)]
        for name in LOTTERY_SCENARIOS:
            config = SCENARIOS[name]
            ops.append(Op("run " + name, ("run", "--config", name, "--seed", str(seed)),
                          seed, config.duration.get("slots"), config.protocol))
        return ops
    raise ValueError("unknown workload %r (known: %s)" % (workload, ", ".join(WORKLOADS)))


def run_op(cli, op: Op, out: str, count_rejects: bool = False,
           during=contextlib.nullcontext) -> OpResult:
    """Call ``poslab.cli.main`` once, inside ``during()``, and check what it
    wrote."""
    result = OpResult(op.name, op.seed)
    argv = list(op.argv) + ["--out", out, "--format", "json"]
    err = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err), during():
            result.code = cli.main(argv)
    except Exception:  # the benchmark reports a crashing operation and goes on
        result.problems.append("raised: " + traceback.format_exc(limit=3))
        return result
    finally:
        result.seconds = time.perf_counter() - start
    if result.code != 0:
        result.problems.append("exit code %r: %s" % (result.code, err.getvalue().strip()))
    try:
        if op.argv[0] == "reproduce":
            _check_reproduce(result, out)
        else:
            _check_run(result, op, out, count_rejects)
    except (OSError, ValueError, KeyError) as exc:
        result.problems.append("unreadable output: %r" % exc)
    return result


def _check_reproduce(result: OpResult, out: str):
    with open(os.path.join(out, "reproduce.json"), "rb") as fh:
        raw = fh.read()
    result.digest = hashlib.sha256(raw).hexdigest()
    for row in json.loads(raw):
        if row["verdict"] != "pass":
            result.problems.append("reproduction %s: %s" % (row["id"], row["verdict"]))


def _check_run(result: OpResult, op: Op, out: str, count_rejects: bool):
    with open(os.path.join(out, "manifest.json")) as fh:
        result.digest = json.load(fh)["trace_digest"]
    with open(os.path.join(out, "metrics.json")) as fh:
        metrics = json.load(fh)
    result.blocks = int(metrics["blocks"])
    if op.protocol == "coa" and metrics.get("conservation_ok") is not True:
        result.problems.append("supply conservation violated")
    # The loop stops once any node reaches the target; the reference node's
    # chain may still have that last block in flight (blocks are >= G0 apart).
    need = op.target - 1 if op.protocol == "coa" else op.target
    if need is not None and result.blocks < need:
        result.problems.append("reached %d blocks, target %d" % (result.blocks, op.target))
    if result.blocks < 1:
        result.problems.append("no blocks produced")
    if count_rejects:
        with open(os.path.join(out, "events.jsonl")) as fh:
            for line in fh:
                event = json.loads(line)
                if event.get("event") == "block-rejected":
                    result.rejects[event["reason"]] += 1


def load_pins() -> dict:
    with open(PINS_PATH) as fh:
        return json.load(fh)


def gate(workload: str, results: list, pins: dict) -> int:
    """Flag each result whose digest differs from its pin or, for an
    unpinned seed, from the first result of the same operation and seed.
    Returns the number of failed operations."""
    first = {}
    for r in results:
        pin = pins.get(workload, {}).get(str(r.seed), {}).get(r.op)
        want = pin if pin is not None else first.setdefault((r.op, r.seed), r.digest)
        if r.digest != want:
            r.problems.append("digest %s, expected %s" % (r.digest, want))
    return sum(r.failed for r in results)


def pinned_seeds(workload: str, pins: dict) -> set:
    return {int(s) for s in pins.get(workload, {})}
