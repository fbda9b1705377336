import math

import numpy as np
import pytest

from poslab.comb import (ALPHA, CombSpec, coalition_bias,
                         coalition_bounds, comb_apply, comb_apply_batch,
                         exhaustive_strategy, greedy_strategy, kz_width,
                         last_player_advantage, majority_tie_probability,
                         undetermined_fraction)
from poslab.ledger import ConfigError
from poslab.rng import make_rng


def test_spec_validation():
    """A bad triple is a ConfigError naming the param at fault."""
    CombSpec("concat", 8, 1)
    CombSpec("majority", 4, 5)
    CombSpec("iterated_majority", 2, 27)
    for args, param in ((("tribes", 8, 1), "comb"), (("concat", 8, 3), "w"),
                        (("majority", 8, 4), "w"),
                        (("iterated_majority", 8, 6), "w"),
                        (("concat", 0, 1), "kappa")):
        with pytest.raises(ConfigError) as e:
            CombSpec(*args)
        assert e.value.fieldname == param


def test_concat_is_identity_on_bits():
    spec = CombSpec("concat", 4, 1)
    assert comb_apply(spec, [1, 0, 1, 1]) == 0b1011
    assert comb_apply(spec, [0, 0, 0, 0]) == 0
    assert comb_apply(spec, [1, 1, 1, 1]) == 15


def test_majority_groups():
    spec = CombSpec("majority", 2, 3)
    # groups (1,1,0) -> 1 and (0,0,1) -> 0
    assert comb_apply(spec, [1, 1, 0, 0, 0, 1]) == 0b10


def test_iterated_majority_small():
    spec = CombSpec("iterated_majority", 1, 9)
    # three sub-triples vote 1, 0, 1 -> output 1
    bits = [1, 1, 0, 0, 0, 1, 1, 0, 1]
    assert comb_apply(spec, bits) == 1


def test_batch_matches_scalar():
    rng = make_rng(2, "comb-batch")
    for spec in (CombSpec("concat", 6, 1), CombSpec("majority", 3, 5),
                 CombSpec("iterated_majority", 2, 9)):
        bits = rng.integers(0, 2, size=(50, spec.ell), dtype=np.uint8)
        batch = comb_apply_batch(spec, bits)
        for row, seed in zip(bits, batch):
            assert comb_apply(spec, row) == int(seed)


def test_wrong_length_rejected():
    with pytest.raises(ValueError):
        comb_apply(CombSpec("concat", 4, 1), [1, 0])
    with pytest.raises(ValueError):
        comb_apply(CombSpec("concat", 4, 1), [0, 1, 2, 1])


@pytest.mark.parametrize("bad", [[0.5, 0, 0, 0], [256, 0, 0, 0], [-1, 0, 0, 0],
                                 [1.0, 0, 0, 0], np.zeros((4, 1), np.uint8)])
def test_anything_but_integer_bits_is_rejected(bad):
    """A fraction is not truncated, an integer out of range does not wrap,
    and neither a float that equals a bit nor a row counts as one."""
    with pytest.raises(ValueError, match="inputs must be bits"):
        comb_apply(CombSpec("concat", 4, 1), bad)


def test_a_two_dimensional_input_is_rejected():
    with pytest.raises(ValueError):
        comb_apply(CombSpec("concat", 4, 1), np.zeros((1, 4), np.uint8))
    with pytest.raises(ValueError):
        comb_apply(CombSpec("concat", 4, 1), [[0, 1], [1, 0]])


def test_bools_and_numpy_integers_are_bits():
    spec = CombSpec("concat", 4, 1)
    assert comb_apply(spec, [True, False, True, True]) == 0b1011
    assert comb_apply(spec, np.array([1, 0, 1, 1], np.int64)) == 0b1011


@pytest.mark.parametrize("kind, w", [("concat", 1), *(("majority", w) for w in (1, 3, 5, 7)),
                                     *(("iterated_majority", w) for w in (1, 3, 9))])
@pytest.mark.parametrize("kappa", [1, 3, 16])
def test_comb_apply_equals_the_batch_row_by_row(kind, w, kappa):
    """The engine's pure-Python comb and the analyzers' numpy comb agree on
    random rows and on the all-zero and all-one rows."""
    spec = CombSpec(kind, kappa, w)
    bits = make_rng(9, "comb-rows", kind, w, kappa).integers(
        0, 2, size=(300, spec.ell), dtype=np.uint8)
    bits[0], bits[1] = 0, 1
    assert [comb_apply(spec, row.tolist()) for row in bits] == \
        comb_apply_batch(spec, bits).tolist()


def test_kz_width_power_of_three():
    # c/eps = 2 -> 3 * 2^(1/alpha) = 9 exactly
    assert kz_width(0.2, 0.1) == 9
    assert kz_width(1, 0.5) == 9
    w = kz_width(10, 0.1)
    assert w >= 3 and 3 ** round(math.log(w, 3)) == w


def test_coalition_bounds_known_instance():
    lo, hi = coalition_bounds(459, 51, 0.1)
    assert lo == pytest.approx(0.2)
    assert hi == pytest.approx(9.18)
    # achievable scales linearly in eps
    lo2, hi2 = coalition_bounds(459, 51, 0.2)
    assert lo2 == pytest.approx(2 * lo) and hi2 == pytest.approx(2 * hi)


def test_majority_tie_probability():
    assert majority_tie_probability(9) == 70 / 256
    assert majority_tie_probability(1) == 1.0
    assert majority_tie_probability(3) == 0.5
    with pytest.raises(ValueError):
        majority_tie_probability(4)


def test_undetermined_fraction_matches_tie_arithmetic():
    for w in (1, 3, 5, 9):
        spec = CombSpec("majority", 1, w)
        assert undetermined_fraction(spec) == majority_tie_probability(w)
    # concat: the last (only) bit always decides
    assert undetermined_fraction(CombSpec("concat", 1, 1)) == 1.0
    # iterated 3-ary majority, w=3: the last bit is pivotal iff the first two differ
    assert undetermined_fraction(CombSpec("iterated_majority", 1, 3)) == 0.5


def test_last_player_advantage_concat():
    spec = CombSpec("concat", 8, 1)
    for p in (0.05, 0.2):
        mu, stderr = last_player_advantage(spec, p, 10 ** 5, rng_seed=1)
        want = 2 * p - p * p
        assert abs(mu - want) <= 4 * stderr
    with pytest.raises(ValueError):
        last_player_advantage(spec, 0.1, 100)


def test_last_player_advantage_majority_between_p_and_concat():
    # with w > 1 the last bit only sometimes flips the seed, so
    # p <= mu <= 2p - p^2
    spec = CombSpec("majority", 4, 9)
    p = 0.2
    mu, stderr = last_player_advantage(spec, p, 10 ** 5, rng_seed=3)
    assert p - 4 * stderr <= mu <= 2 * p - p * p + 4 * stderr
    # and the excess over p is governed by the tie probability
    want = p + majority_tie_probability(9) * (p - p * p)
    assert abs(mu - want) <= 4 * stderr


def test_coalition_bias_no_coalition_near_zero():
    spec = CombSpec("concat", 4, 1)
    bias = coalition_bias(spec, [], trials=200_000, rng_seed=4)
    assert bias < 0.02


def test_coalition_bias_full_bit_control():
    # controlling one concat position pins one output bit: distance 1/2
    spec = CombSpec("concat", 4, 1)
    bias = coalition_bias(spec, [0], trials=100_000, rng_seed=5)
    assert abs(bias - 0.5) < 0.02


def test_greedy_not_weaker_than_random_play():
    spec = CombSpec("majority", 2, 3)
    biased = coalition_bias(spec, [0, 3], strategy=greedy_strategy,
                            trials=50_000, rng_seed=6)
    honest = coalition_bias(spec, [], trials=50_000, rng_seed=6)
    assert biased > honest


def test_exhaustive_at_least_as_strong_as_greedy():
    spec = CombSpec("majority", 2, 5)
    coalition = [0, 1, 5, 6]
    exh = coalition_bias(spec, coalition, strategy=exhaustive_strategy,
                         trials=40_000, rng_seed=7)
    gre = coalition_bias(spec, coalition, strategy=greedy_strategy,
                         trials=40_000, rng_seed=7)
    assert exh >= gre - 0.01


def test_alpha_constant():
    assert ALPHA == pytest.approx(math.log(2, 3))
