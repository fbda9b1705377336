import math

import numpy as np
import pytest

from poslab.ppcoin import (CAP_SECONDS, MODIFIER_PERIOD,
                           StakeKernelState, StakeOutput, TARGET_INTERVAL,
                           V02, V03, calibrate_d0, expected_reorg_interval,
                           kernel_eligibility, predictability_horizon,
                           recompute_modifier, retarget_d0, simulate_retarget,
                           solve_probability, timeweight)

DAY = 86400


def test_state_validation():
    with pytest.raises(ValueError):
        StakeKernelState(d0=0.0)
    with pytest.raises(ValueError):
        StakeKernelState(d0=1e-9, version="v0.4")


def test_timeweight_versions():
    assert timeweight(10 * DAY, V02) == 10 * DAY
    assert timeweight(10 * DAY, V03) == 10 * DAY
    # the versions agree up to the cap and split beyond it
    assert timeweight(90 * DAY, V02) == timeweight(90 * DAY, V03)
    assert timeweight(180 * DAY, V03) == 90 * DAY
    assert timeweight(180 * DAY, V02) == 180 * DAY
    assert CAP_SECONDS == 90 * DAY
    with pytest.raises(ValueError):
        timeweight(-1)
    with pytest.raises(ValueError):
        timeweight(DAY, "v0.4")


def test_timeweight_of_an_array_is_its_ages_one_by_one():
    """An array of ages gives the array of their timeweights: in v0.2 the
    array itself, not a copy, and in v0.3 a capped copy."""
    ages = np.array([[0.0, 10 * DAY], [90 * DAY, 180 * DAY]])
    assert timeweight(ages, V02) is ages
    capped = timeweight(ages, V03)
    assert capped.tolist() == [[timeweight(a, V03) for a in row] for row in ages]
    assert ages[1, 1] == 180 * DAY
    with pytest.raises(ValueError):
        timeweight(ages - DAY, V03)


def test_kernel_is_deterministic_and_one_attempt_per_second():
    state = StakeKernelState(d0=1e-10)
    out = StakeOutput("a", coins=100, creation_time=0)
    r1 = kernel_eligibility(state, b"prev", 5000, out)
    assert r1 == kernel_eligibility(state, b"prev", 5000, out)
    # distinct seconds give fresh independent draws; nothing in the kernel
    # lets an output retry within the same second
    draws = {t: kernel_eligibility(state, b"prev", t, out)
             for t in range(5000, 5010)}
    assert len(draws) == 10


def test_eligibility_scales_with_coins():
    """An output with 10x the coins wins about 10x as often."""
    d0 = 2e-10
    state = StakeKernelState(d0=d0)
    small = StakeOutput("s", coins=10, creation_time=0, uid=1)
    big = StakeOutput("b", coins=100, creation_time=0, uid=2)
    wins = {1: 0, 2: 0}
    for t in range(DAY, DAY + 10 ** 5):
        for o in (small, big):
            if kernel_eligibility(state, b"x", t, o):
                wins[o.uid] += 1
    assert wins[2] > 0
    ratio = wins[2] / max(1, wins[1])
    # Poisson counts: expect roughly 27 and 270 wins, ratio within noise
    assert 6.0 < ratio < 16.0, wins


def test_zero_weight_output_never_wins():
    state = StakeKernelState(d0=1e-6)
    fresh = StakeOutput("z", coins=1000, creation_time=9000)
    # age 0 means timeweight 0: the right-hand side is 0 and u >= 0
    assert not any(kernel_eligibility(state, b"x", 9000, fresh)
                   for _ in range(3))
    zero = StakeOutput("z", coins=0, creation_time=0)
    assert not any(kernel_eligibility(state, b"x", t, zero)
                   for t in range(100, 110))


def test_modifier_recompute_and_horizon():
    state = StakeKernelState(d0=1e-9)
    s1 = recompute_modifier(state, [b"\x01" * 32, b"\x02" * 32], now=7 * 3600)
    assert s1.stake_modifier != state.stake_modifier
    assert s1.modifier_time == s1.clock == 7 * 3600
    # same chain data gives the same modifier
    s2 = recompute_modifier(state, [b"\x01" * 32, b"\x02" * 32], now=7 * 3600)
    assert s2.stake_modifier == s1.stake_modifier
    assert predictability_horizon(s1) == MODIFIER_PERIOD
    later = StakeKernelState(d0=1e-9, modifier_time=0, clock=5 * 3600)
    assert predictability_horizon(later) == 3600
    assert MODIFIER_PERIOD == 6 * 3600
    with pytest.raises(ValueError):
        predictability_horizon(StakeKernelState(d0=1e-9, modifier_time=10,
                                                clock=0))


def test_modifier_changes_kernel_outcomes():
    out = StakeOutput("a", coins=50, creation_time=0)
    base = StakeKernelState(d0=5e-9)
    other = recompute_modifier(base, [b"\x07" * 32], now=0)
    diff = sum(
        kernel_eligibility(base, b"p", t, out)
        != kernel_eligibility(other, b"p", t, out)
        for t in range(1000, 21000))
    assert diff > 0


def test_retarget_direction_and_clamp():
    assert retarget_d0(1e-9, [1200.0]) == pytest.approx(2e-9)
    assert retarget_d0(1e-9, [300.0]) == pytest.approx(0.5e-9)
    assert retarget_d0(1e-9, [600.0]) == pytest.approx(1e-9)  # fixed point
    # clamped at max_step regardless of how skewed the window is
    assert retarget_d0(1e-9, [10 ** 6], max_step=4.0) == pytest.approx(4e-9)
    assert retarget_d0(1e-9, [0.001], max_step=4.0) == pytest.approx(0.25e-9)
    with pytest.raises(ValueError):
        retarget_d0(1e-9, [])


def test_retarget_never_reaches_zero():
    d0 = 1.0
    for _ in range(200):
        d0 = retarget_d0(d0, [1.0])  # intervals far below target
        assert d0 > 0


def test_solve_probability_and_calibration():
    outputs = [StakeOutput("a", 500, 0, 1), StakeOutput("b", 300, 0, 2),
               StakeOutput("c", 200, 0, 3)]
    t = 30 * DAY
    d0 = calibrate_d0(outputs, t, rate=1.0 / TARGET_INTERVAL)
    assert solve_probability(d0, outputs, t) == \
        pytest.approx(1.0 / 600, rel=1e-6)
    # doubling d0 roughly doubles the per-second rate in the small-p regime
    assert solve_probability(2 * d0, outputs, t) == \
        pytest.approx(2.0 / 600, rel=1e-3)
    with pytest.raises(ValueError):
        calibrate_d0(outputs, t, rate=1.5)
    with pytest.raises(ValueError):
        calibrate_d0([StakeOutput("a", 0, 0)], t)


def test_closed_loop_retarget_holds_target():
    outputs = [StakeOutput("a", 1000, 0)]
    base = solve_probability(calibrate_d0(outputs, 30 * DAY), outputs, 30 * DAY)
    result = simulate_retarget(10 ** 4, base_solve_prob=base / 1.0,
                               participation=1.0, d0_start=0.2, seed=9)
    assert abs(result["mean_interval"] - 600) / 600 < 0.15
    # halved participation: the controller compensates, same interval
    half = simulate_retarget(10 ** 4, base_solve_prob=base, participation=0.5,
                             d0_start=0.2, seed=10)
    assert abs(half["mean_interval"] - 600) / 600 < 0.15


def test_expected_reorg_interval():
    assert expected_reorg_interval(4, 6) == 4096
    assert expected_reorg_interval(4, 1) == 4
    assert expected_reorg_interval(10, 3) == 1000
    with pytest.raises(ValueError):
        expected_reorg_interval(1, 6)
    with pytest.raises(ValueError):
        expected_reorg_interval(4, 0)


def test_kernel_uniformity():
    """The kernel hash behaves as a uniform draw: win frequency matches the
    threshold d0*coins*tw within 4 sigma."""
    coins, age = 7, 3 * DAY
    d0 = 1.0 / (coins * age * 500.0)  # per-second win probability 1/500
    state = StakeKernelState(d0=d0)
    out = StakeOutput("u", coins=coins, creation_time=0)
    n = 2 * 10 ** 5
    wins = sum(kernel_eligibility(state, b"p", age, StakeOutput("u", coins, 0, uid))
               for uid in range(n))
    p = 1.0 / 500.0
    sigma = math.sqrt(n * p * (1 - p))
    assert abs(wins - n * p) < 4 * sigma, wins
