"""Span tracing for the traced benchmark run.

Wrappers are installed around public poslab functions from outside the
package. A module-level function is replaced in every poslab module that
binds it, because ``coa``, ``netsim`` and ``cli`` import names directly; a
method is replaced on its class. Each call records a span (name, start, end,
parent span, run id) in flat arrays that stay in memory until the body's
metrics are taken. A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time
from array import array
from collections import Counter

import numpy as np


def _receive_block(tracer, args):
    node, block = args[0], args[1]
    tracer.nodes[id(node)] = node
    return block.index


def _process_block(tracer, args):
    tracer.blocks.add(args[1].signature)


def _run_scenario(tracer, args):
    return args[0].protocol


def _run_reproduction(tracer, args):
    return args[0]


# (layer metric prefix, module, function or Class.method, tag hook)
TARGETS = (
    ("ledger.utxo_covering", "poslab.ledger", "LedgerState.utxo_covering", None),
    ("ledger.with_strikes", "poslab.ledger", "LedgerState.with_strikes", None),
    ("ledger.with_frozen", "poslab.ledger", "LedgerState.with_frozen", None),
    ("ledger.canonical_block_digest", "poslab.ledger", "canonical_block_digest", None),
    ("ledger.BlockTree.best_tip", "poslab.ledger", "BlockTree.best_tip", None),
    ("ledger.BlockTree.is_ancestor", "poslab.ledger", "BlockTree.is_ancestor", None),
    ("fts.satoshi_index", "poslab.fts", "satoshi_index", None),
    ("fts.follow_the_satoshi", "poslab.fts", "follow_the_satoshi", None),
    ("comb.comb_apply", "poslab.comb", "comb_apply", None),
    ("comb.last_player_advantage", "poslab.comb", "last_player_advantage", None),
    ("coa.process_block", "poslab.coa", "process_block", _process_block),
    ("coa.ChainView.clone", "poslab.coa", "ChainView.clone", None),
    ("coa.ChainView.slot_candidates", "poslab.coa", "ChainView.slot_candidates", None),
    ("coa.CoaNode.receive_block", "poslab.coa", "CoaNode.receive_block", _receive_block),
    ("netsim.run_scenario", "poslab.netsim", "run_scenario", _run_scenario),
    ("netsim.DelayModel.sample", "poslab.netsim", "DelayModel.sample", None),
    ("netsim.SimTrace.digest", "poslab.netsim", "SimTrace.digest", None),
    ("dense.derive_committee", "poslab.dense", "derive_committee", None),
    ("attacks.fork_rate_study", "poslab.attacks", "fork_rate_study", None),
    ("attacks.simulate_withholding_dos", "poslab.attacks", "simulate_withholding_dos", None),
    ("attacks.simulate_streak_interval", "poslab.attacks", "simulate_streak_interval", None),
    ("issuance.simulate_issuance", "poslab.issuance", "simulate_issuance", None),
    ("scenarios.run_reproduction", "poslab.scenarios", "run_reproduction", _run_reproduction),
    ("cli.main", "poslab.cli", "main", None),
)

# Rejection reasons CoaNode.receive_block reports in honest runs; any other
# reason still counts in coa.rejects.total.
REJECT_REASONS = ("orphan", "below-solidified", "wrong-creator", "too-early",
                  "future-dated")
REPRODUCTION_IDS = ("claim1", "claim2", "takeover", "dense-dos", "ppcoin-mk",
                    "fork-rate", "mu-concat", "mu-majority", "kz-bounds",
                    "issuance")


class Tracer:
    """In-memory span store for one process; one instance per traced run."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.run_id = 0
        self._stack: list = []
        self.reset()

    def reset(self):
        """Drop recorded spans and per-body state."""
        self.name = array("l")
        self.parent = array("l")
        self.run = array("l")
        self.start = array("d")
        self.end = array("d")
        self.tags: dict = {}          # span index -> tag
        self.nodes: dict = {}         # CoaNodes seen by the current operation
        self.blocks: set = set()      # distinct blocks validated (by signature)
        self.views_live = 0
        self.rejects: Counter = Counter()

    def wrap(self, name: str, fn, tag=None):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            value = tag(self, args) if tag is not None else None
            idx = len(self.start)
            if value is not None:
                self.tags[idx] = value
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.run.append(self.run_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()

        return traced

    def end_operation(self):
        """Count the views the operation's nodes still hold, then drop them."""
        self.views_live += sum(len(n.views) for n in self.nodes.values())
        self.nodes.clear()

    # -- aggregation ---------------------------------------------------------

    def span_table(self):
        """Per span: name id, duration and self time (duration - children)."""
        name = np.asarray(self.name, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested],
                            minlength=len(dur))
        return name, dur, dur - child

    def layer_metrics(self) -> dict:
        """Per-layer metrics of the spans recorded since the last reset."""
        name, dur, self_s = self.span_table()
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        self_sum = np.bincount(name, weights=self_s, minlength=n)
        incl_sum = np.bincount(name, weights=dur, minlength=n)
        out = {}
        for i, layer in enumerate(self.names):
            out[layer + ".calls"] = int(calls[i])
            out[layer + ".self_s"] = float(self_sum[i])
            out[layer + ".incl_s"] = float(incl_sum[i])

        def ratio(a, b):
            return a / b if b else 0.0

        validations = out.get("coa.process_block.calls", 0)
        out["ledger.digests_per_validation"] = ratio(
            out.get("ledger.canonical_block_digest.calls", 0), validations)
        out["fts.derivations_per_validation"] = ratio(
            out.get("fts.satoshi_index.calls", 0), validations)
        out["coa.validations_per_block"] = ratio(validations, len(self.blocks))
        out["coa.views_live"] = self.views_live
        for reason in REJECT_REASONS:
            out["coa.rejects." + reason] = self.rejects[reason]
        out["coa.rejects.total"] = sum(self.rejects.values())

        by_tag: dict = {}
        for idx, value in self.tags.items():
            key = (self.names[name[idx]], value)
            by_tag[key] = by_tag.get(key, 0.0) + float(dur[idx])
        out["netsim.ppcoin_run_s"] = by_tag.get(("netsim.run_scenario", "ppcoin"), 0.0)
        out["netsim.dense_run_s"] = by_tag.get(("netsim.run_scenario", "dense_coa"), 0.0)
        for rid in REPRODUCTION_IDS:
            out["scenarios.run_reproduction.%s.incl_s" % rid] = by_tag.get(
                ("scenarios.run_reproduction", rid), 0.0)
        out.update(self._receive_latency(name, dur))
        out["trace.spans"] = len(dur)
        return out

    def _receive_latency(self, name, dur) -> dict:
        prefix = "coa.CoaNode.receive_block."
        nid = self._name_ids.get("coa.CoaNode.receive_block")
        idx = np.flatnonzero(name == nid) if nid is not None else []
        if not len(idx):
            return {prefix + k: 0.0 for k in
                    ("p50_ms", "p99_ms", "first_tenth_mean_ms", "last_tenth_mean_ms")}
        ms = dur[idx] * 1e3
        index = np.array([self.tags[i] for i in idx])
        top = int(index.max())
        first = ms[index <= max(1, top // 10)]
        last = ms[index > top - top // 10]
        return {
            prefix + "p50_ms": float(np.percentile(ms, 50)),
            prefix + "p99_ms": float(np.percentile(ms, 99)),
            prefix + "first_tenth_mean_ms": float(first.mean()),
            prefix + "last_tenth_mean_ms": float(last.mean()),
        }


def _poslab_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "poslab" or k.startswith("poslab."))]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore."""
    patches = []   # (owner, attribute, original)
    try:
        for layer, module_name, qualname, tag in TARGETS:
            module = importlib.import_module(module_name)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                patches.append((owner, attr, original))
                setattr(owner, attr, tracer.wrap(layer, original, tag))
                continue
            original = getattr(module, qualname)
            wrapped = tracer.wrap(layer, original, tag)
            for mod in _poslab_modules():
                for key in [k for k, v in vars(mod).items() if v is original]:
                    patches.append((mod, key, original))
                    setattr(mod, key, wrapped)
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def median_metrics(bodies: list) -> dict:
    """Per metric, the median over the traced bodies (counts repeat exactly)."""
    return {k: statistics.median(b[k] for b in bodies) for k in bodies[0]}
