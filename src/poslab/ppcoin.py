"""Reference model of the PPCoin stake kernel.

The kernel grants an output the right to mint at second `t` when

    hash(prev_blocks_data, stake_modifier, t, output) <= d0 * coins * timeweight

Here d0 is kept as a plain probability scalar: an output with c coins and
timeweight tw wins a given second with probability min(1, d0*c*tw). One
attempt per output per integer second.

Timeweight units: age is in seconds, and the v0.3 cap is the constant 90
days (CAP_SECONDS). The protocol also gives the cap as 60*60*60, a coin-age
in day units; that reading is not modelled, since it bounds coins times age,
not age, while the kernel inequality above and the timeweight attack
analysis weigh an output as its coins times a timeweight of its age alone.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from .rng import make_rng

MODIFIER_PERIOD = 6 * 3600
TARGET_INTERVAL = 600
V02 = "v0.2"
V03 = "v0.3"
CAP_SECONDS = 90 * 86400   # the v0.3 timeweight cap


@dataclass(frozen=True)
class StakeOutput:
    owner: str
    coins: int
    creation_time: int
    uid: int = 0


@dataclass(frozen=True)
class StakeKernelState:
    d0: float
    stake_modifier: int = 0
    modifier_time: int = 0
    clock: int = 0
    version: str = V02

    def __post_init__(self):
        if self.d0 <= 0:
            raise ValueError("d0 must be positive")
        if self.version not in (V02, V03):
            raise ValueError("unknown kernel version %r" % self.version)


def timeweight(age_seconds, version: str = V02):
    """Coin-age multiplier: linear in v0.2, capped at 90 days in v0.3. One
    age gives a float; an array of ages gives an array, uncopied in v0.2."""
    array = isinstance(age_seconds, np.ndarray)
    if (age_seconds.min() if array else age_seconds) < 0:
        raise ValueError("age must be nonnegative")
    if version not in (V02, V03):
        raise ValueError("unknown kernel version %r" % version)
    weight = age_seconds if version == V02 else np.minimum(age_seconds, CAP_SECONDS)
    return weight if array else float(weight)


def kernel_eligibility(state: StakeKernelState, prev_blocks_data: bytes,
                       time_s: int, txout: StakeOutput) -> bool:
    """Evaluate the stake-kernel inequality for one output at one second."""
    h = hashlib.sha256(
        b"kernel:" + prev_blocks_data
        + state.stake_modifier.to_bytes(8, "big")
        + int(time_s).to_bytes(8, "big")
        + txout.owner.encode() + b"\x00"
        + int(txout.uid).to_bytes(8, "big")
        + int(txout.coins).to_bytes(8, "big")
        + int(txout.creation_time).to_bytes(8, "big")
    ).digest()
    u = int.from_bytes(h, "big") / 2.0 ** 256
    tw = timeweight(max(0, time_s - txout.creation_time), state.version)
    return u < state.d0 * txout.coins * tw


def recompute_modifier(state: StakeKernelState, block_digests: Iterable[bytes],
                       now: int) -> StakeKernelState:
    """New stake modifier from the chain data of the elapsed period."""
    h = hashlib.sha256()
    h.update(b"modifier:")
    for d in block_digests:
        h.update(d)
    modifier = int.from_bytes(h.digest()[:8], "big")
    return replace(state, stake_modifier=modifier, modifier_time=now, clock=now)


def predictability_horizon(state: StakeKernelState) -> int:
    """Seconds until the next modifier recompute: the attacker's foresight window."""
    elapsed = state.clock - state.modifier_time
    if elapsed < 0:
        raise ValueError("clock precedes the last modifier recompute")
    return MODIFIER_PERIOD - elapsed % MODIFIER_PERIOD


def retarget_d0(d0: float, recent_intervals: Sequence[float],
                target: float = TARGET_INTERVAL, max_step: float = 4.0) -> float:
    """Multiplicative difficulty adjustment toward the target interval.

    Longer-than-target intervals mean too few online stakeholders, so the
    threshold d0 grows. The per-call factor is clamped to [1/max_step, max_step].
    """
    if not recent_intervals:
        raise ValueError("need at least one observed interval")
    mean = sum(recent_intervals) / len(recent_intervals)
    factor = min(max_step, max(1.0 / max_step, mean / target))
    return d0 * factor


def solve_probability(d0: float, outputs: Sequence[StakeOutput], time_s: int,
                      version: str = V02) -> float:
    """Probability that some output solves at this second."""
    miss = 1.0
    for o in outputs:
        tw = timeweight(max(0, time_s - o.creation_time), version)
        miss *= 1.0 - min(1.0, d0 * o.coins * tw)
    return 1.0 - miss


def calibrate_d0(outputs: Sequence[StakeOutput], time_s: int,
                 rate: float = 1.0 / TARGET_INTERVAL, version: str = V02) -> float:
    """Find d0 so the network-wide per-second solve probability equals `rate`."""
    if not 0 < rate < 1:
        raise ValueError("rate must be in (0,1)")
    lo, hi = 0.0, 1.0
    while solve_probability(hi, outputs, time_s, version) < rate:
        hi *= 2.0
        if hi > 1e30:
            raise ValueError("no output has positive weight at this time")
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if solve_probability(mid, outputs, time_s, version) < rate:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def expected_reorg_interval(m: float, k: int) -> float:
    """Mean number of blocks between k-block private streaks for a 1/m-stake
    attacker with many small outputs: m**k."""
    if m <= 1 or k < 1:
        raise ValueError("require m > 1 and k >= 1")
    return float(m) ** k


def simulate_retarget(n_blocks: int, base_solve_prob: float,
                      participation: float = 1.0, d0_start: float = 1.0,
                      window: int = 20, seed: int = 0) -> dict:
    """Closed-loop retarget simulation.

    The online population's aggregate weight is folded into a single
    per-second solve probability min(1, d0 * participation * base_solve_prob);
    block intervals are geometric draws and d0 is readjusted each block from
    the trailing interval window. Returns the d0 path and interval stats.
    """
    rng = make_rng(seed, "retarget", n_blocks, participation)
    d0 = d0_start
    intervals = []
    for _ in range(n_blocks):
        p = min(1.0, d0 * participation * base_solve_prob)
        intervals.append(int(rng.geometric(p)))
        recent = intervals[-window:]
        d0 = retarget_d0(d0, recent, max_step=1.25)
    arr = np.asarray(intervals, dtype=np.float64)
    burn = len(arr) // 5
    return {
        "mean_interval": float(arr[burn:].mean()),
        "final_d0": d0,
        "intervals": arr,
    }
