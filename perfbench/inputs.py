"""Seeded input generator for the CoA workloads.

Everything is drawn from a ``random.Random`` keyed by a SHA-256 of the
workload name and seed, so the same seed gives byte-identical config files in
every process and under every ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib
import json
import random

KAPPA = 16
# coa-wide: many validators, short chain -> ledger interval index and FTS.
WIDE_HOLDERS, WIDE_SLOTS = 100, 100
# coa-long: few validators, long chain -> view cloning, strikes, memory.
# 1,500 slots keeps peak RSS under about 1 GB (it grows quadratically).
LONG_HOLDERS, LONG_SLOTS = 6, 1500
# Stake weights are drawn from [1, MAX_WEIGHT]: uneven, but no holder is so
# small that its share rounds to zero satoshis at kappa = 16.
MAX_WEIGHT = 8


def _rng(workload: str, seed: int) -> random.Random:
    key = hashlib.sha256(("perfbench:%s:%d" % (workload, seed)).encode()).digest()
    return random.Random(int.from_bytes(key, "big"))


def split_stake(rng: random.Random, names: list, kappa: int) -> list:
    """Uneven integer stake summing to exactly 2^kappa."""
    weights = [rng.randint(1, MAX_WEIGHT) for _ in names]
    total = 1 << kappa
    amounts = [total * w // sum(weights) for w in weights]
    amounts[0] += total - sum(amounts)
    return [[n, a] for n, a in zip(names, amounts)]


def coa_config(workload: str, seed: int) -> dict:
    """The scenario config of a CoA workload ("coa-wide" or "coa-long")."""
    if workload == "coa-wide":
        holders, slots = WIDE_HOLDERS, WIDE_SLOTS
    elif workload == "coa-long":
        holders, slots = LONG_HOLDERS, LONG_SLOTS
    else:
        raise ValueError("not a CoA workload: %r" % workload)
    rng = _rng(workload, seed)
    names = ["h%03d" % i for i in range(holders)]
    stake = split_stake(rng, names, KAPPA)
    behaviors = {}
    if workload == "coa-long":
        behaviors[rng.choice(names)] = {"strategy": "offline"}
    return {
        "name": workload, "protocol": "coa",
        "params": {"kappa": KAPPA, "w": 1, "comb": "concat",
                   "g0_seconds": 300, "t0": 8},
        "stake": stake,
        "behaviors": behaviors,
        "delays": {"min": 0.2, "max": 2.0, "distribution": "uniform"},
        "clock_drift_max": 2.0,
        "duration": {"slots": slots},
        "seed": seed,
    }


def config_bytes(config: dict) -> bytes:
    return (json.dumps(config, sort_keys=True, indent=1) + "\n").encode()


def write_config(path: str, workload: str, seed: int) -> dict:
    config = coa_config(workload, seed)
    with open(path, "wb") as fh:
        fh.write(config_bytes(config))
    return config
