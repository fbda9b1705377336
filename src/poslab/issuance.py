"""Fixed-difficulty proof-of-work issuance dynamics.

With the difficulty readjustment removed, the block rate tracks the amount
of mining equipment online: miners enter while a minted coin is worth more
than it costs to produce and quit when it is worth less, so the coin value
gravitates to the production cost during the inflationary phase. A minimal
average gap keeps the rate bounded when too much equipment shows up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .rng import make_rng

COINS_PER_BLOCK = 50.0
STEP_SECONDS = 3600.0     # the length of one simulated step


def constant_demand(d: float) -> Callable[[float], float]:
    """Coin value as a function of supply under fixed aggregate demand d."""
    if d <= 0:
        raise ValueError("demand must be positive")
    def value(supply: float) -> float:
        return d / max(supply, 1e-9)
    return value


@dataclass(frozen=True)
class IssuanceParams:
    production_cost_per_coin: float
    demand_value_fn: Callable[[float], float]
    fixed_difficulty: float          # blocks per miner-second
    min_gap_seconds: float = 60.0
    adjust_rate: float = 0.25        # fraction of the miner-population gap closed per step
    initial_miners: float = 10.0
    initial_supply: float = 1000.0
    last_pow_step: Optional[int] = None  # issuance stops for good after this step

    def __post_init__(self):
        if self.min_gap_seconds < 0:
            raise ValueError("min_gap_seconds must be >= 0")
        if self.production_cost_per_coin <= 0 or self.fixed_difficulty <= 0:
            raise ValueError("production cost and difficulty must be positive")


def block_rate(params: IssuanceParams, miners: float) -> float:
    """Blocks per second for a given miner population, floored by the
    minimal-gap rule."""
    raw = params.fixed_difficulty * miners
    if params.min_gap_seconds > 0:
        return min(raw, 1.0 / params.min_gap_seconds)
    return raw


def simulate_issuance(params: IssuanceParams, steps: int, seed: int = 0,
                      demand_shock: Optional[np.ndarray] = None,
                      bitcoin_style_retarget: bool = False,
                      noise: float = 0.02) -> dict:
    """Supply/price/miner trajectory.

    Each step mints block_rate*STEP_SECONDS blocks (under retargeting the
    rate is pinned at the 10-minute target instead), updates the coin value
    from the demand function (optionally scaled by a shock series), and grows
    or shrinks the miner population by a clamped factor of the per-miner
    profitability ratio. While the min-gap floor (or a retarget) caps the
    block rate, the minted coins are shared across the population, so entry
    is self-limiting. A small multiplicative noise term keeps the dynamic
    from being a fixed point exactly.
    """
    rng = make_rng(seed, "issuance", steps, bitcoin_style_retarget)
    miners = np.empty(steps)
    blocks = np.empty(steps)
    supply = np.empty(steps)
    value = np.empty(steps)
    m = params.initial_miners
    s = params.initial_supply
    per_miner_cost = (params.production_cost_per_coin * params.fixed_difficulty
                      * STEP_SECONDS * COINS_PER_BLOCK)
    for t in range(steps):
        if bitcoin_style_retarget:
            rate = 1.0 / 600.0 if m > 0 else 0.0
        else:
            rate = block_rate(params, m)
        minted = rate * STEP_SECONDS * COINS_PER_BLOCK
        if params.last_pow_step is not None and t > params.last_pow_step:
            minted = 0.0
        s += minted
        shock = float(demand_shock[t]) if demand_shock is not None else 1.0
        v = params.demand_value_fn(s) * shock
        # enter while a miner's share of the minted value beats its burn,
        # exit otherwise; unclamped this reduces to the sign of value - cost
        if m > 0 and per_miner_cost > 0:
            profitability = (v * minted / m) / per_miner_cost
            factor = min(1.0 + params.adjust_rate,
                         max(1.0 - params.adjust_rate, profitability))
            m *= factor
        m *= 1.0 + noise * (rng.random() - 0.5)
        miners[t] = m
        blocks[t] = minted / COINS_PER_BLOCK
        supply[t] = s
        value[t] = v
    return {"miners": miners, "blocks": blocks, "supply": supply, "value": value}
