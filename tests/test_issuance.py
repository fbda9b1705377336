import numpy as np
import pytest

from poslab.issuance import (IssuanceParams, block_rate, constant_demand,
                             simulate_issuance)


def make_params(**kw):
    defaults = dict(production_cost_per_coin=1.0,
                    demand_value_fn=constant_demand(10 ** 6),
                    fixed_difficulty=2e-6)
    defaults.update(kw)
    return IssuanceParams(**defaults)


def test_params_validation():
    with pytest.raises(ValueError):
        make_params(min_gap_seconds=-1)


def test_block_rate_min_gap_floor():
    params = make_params(min_gap_seconds=60)
    assert block_rate(params, 10) == pytest.approx(2e-5)
    # doubling equipment doubles the rate until the floor binds
    assert block_rate(params, 20) == pytest.approx(4e-5)
    assert block_rate(params, 10 ** 9) == pytest.approx(1.0 / 60)
    free = make_params(min_gap_seconds=0)
    assert block_rate(free, 10 ** 9) == pytest.approx(2e3)


def test_value_converges_to_production_cost():
    """Free entry and exit pins the coin value near its production cost."""
    params = make_params()
    out = simulate_issuance(params, steps=800, seed=0)
    tail = out["value"][400:]
    rel = np.abs(tail - params.production_cost_per_coin) \
        / params.production_cost_per_coin
    assert float(rel.max()) < 0.1


def test_convergence_from_both_sides():
    # starting overvalued (scarce supply) and undervalued both settle at cost
    rich = make_params(initial_supply=100.0)
    poor = make_params(initial_supply=5 * 10 ** 5)
    for params in (rich, poor):
        out = simulate_issuance(params, steps=800, seed=1)
        tail = out["value"][500:]
        assert abs(float(tail.mean()) - 1.0) < 0.1


def test_zero_miners_mint_nothing():
    params = make_params(initial_miners=0.0)
    out = simulate_issuance(params, steps=50, seed=2, noise=0.0)
    assert np.all(out["blocks"] == 0)
    assert np.all(out["supply"] == params.initial_supply)


def test_issuance_stops_after_last_pow_step():
    params = make_params(last_pow_step=100)
    out = simulate_issuance(params, steps=300, seed=3)
    assert np.all(out["blocks"][101:] == 0)
    assert out["supply"][-1] == out["supply"][101]
    # with a fixed supply the miner dynamic no longer anchors the value
    assert np.all(out["value"][101:] == out["value"][101])


def test_miner_adjustment_is_clamped():
    params = make_params(adjust_rate=0.25)
    out = simulate_issuance(params, steps=200, seed=4, noise=0.0)
    m = out["miners"]
    ratios = m[1:] / m[:-1]
    assert np.all(ratios <= 1.25 + 1e-9)
    assert np.all(ratios >= 0.75 - 1e-9)


def test_retarget_damps_demand_shocks():
    """Difficulty retargeting decouples issuance from the equipment level,
    so supply growth stays steady through a demand shock while the
    fixed-difficulty chain overshoots."""
    steps = 600
    shock = np.ones(steps)
    shock[300:] = 4.0  # demand quadruples mid-run
    fixed = simulate_issuance(make_params(), steps, seed=5,
                              demand_shock=shock)
    pinned = simulate_issuance(make_params(), steps, seed=5,
                               demand_shock=shock,
                               bitcoin_style_retarget=True)
    # post-shock issuance: retargeted stays at the 6-per-hour schedule
    assert np.allclose(pinned["blocks"][300:], 6.0)
    # the fixed-difficulty chain answers the shock with more equipment
    assert fixed["miners"][-1] > fixed["miners"][290] * 1.5
    assert pinned["miners"][-1] > pinned["miners"][290] * 1.5


def test_demand_shock_reconverges_to_cost():
    # supply must roughly triple to absorb the shock, and the min-gap floor
    # caps minting, so reconvergence takes several hundred steps
    steps = 2400
    shock = np.ones(steps)
    shock[600:] = 3.0
    params = make_params()
    out = simulate_issuance(params, steps, seed=6, demand_shock=shock)
    tail = out["value"][2200:]
    assert abs(float(tail.mean()) - 1.0) < 0.15
