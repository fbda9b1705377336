import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from poslab import attacks, rng as rng_module
from poslab.attacks import (_as_fraction, bribe_accepted,
                            confirmation_wait_seconds, fork_rate_study,
                            measure_delta, min_safe_confirmations_density,
                            min_safe_confirmations_observed,
                            simulate_bribe_attack, simulate_streak_interval,
                            simulate_timeweight_attack,
                            simulate_withholding_dos, takeover_log_bound,
                            takeover_q_hat, takeover_tail_montecarlo,
                            timeweight_win_probability)
from poslab.netsim import canonical_json, run_scenario
from poslab.rng import binomial_nonzero, derive_key, make_rng
from poslab.scenarios import SCENARIOS


def min_safe_confirmations_observed_scan(v, epsilon, rho_prime, delta,
                                         limit: int = 10 ** 6) -> int:
    """Brute-force oracle for the closed form: linear scan over S."""
    rp = _as_fraction(rho_prime)
    ve = _as_fraction(v) / _as_fraction(epsilon)
    for s in range(limit):
        if ve < rp * s - delta + 1:
            return s
    raise ValueError("no S below the scan limit")


def test_confirmations_known_instances():
    # V=100, eps=10, rho'=0.7, delta=20 -> S=42
    assert min_safe_confirmations_observed(100, 10, 0.7, 20) == 42
    # density form with rho=0.7, K=20 matches
    assert min_safe_confirmations_density(100, 10, 0.7, 20) == 42
    assert confirmation_wait_seconds(42, 300) == 12600.0


def test_confirmations_closed_form_matches_scan():
    rng = make_rng(1, "confirmations-oracle")
    for _ in range(300):
        v = int(rng.integers(1, 500))
        eps = int(rng.integers(1, 30))
        rho_p = round(float(rng.uniform(0.05, 1.0)), 2)
        delta = int(rng.integers(0, 40))
        closed = min_safe_confirmations_observed(v, eps, rho_p, delta)
        scan = min_safe_confirmations_observed_scan(v, eps, rho_p, delta)
        assert closed == scan, (v, eps, rho_p, delta)


def test_confirmations_boundary_is_exact():
    # V/eps = 7, rho'=1, delta=1: need 7 < S, so S=8 (not 7)
    assert min_safe_confirmations_observed(7, 1, 1.0, 1) == 8
    # strict inequality: V/eps exactly on the line still bumps S by one
    assert min_safe_confirmations_observed(70, 10, 0.7, 1) == 11
    with pytest.raises(ValueError):
        min_safe_confirmations_observed(10, 0, 0.7, 1)
    with pytest.raises(ValueError):
        min_safe_confirmations_density(10, 1, 0.5, 5)


def test_density_form_never_below_observed_form():
    """The density assumption only gives the attacker more head start
    (delta <= K), so its S is at least the observed-chain S."""
    rng = make_rng(2, "density-dominance")
    for _ in range(200):
        v = int(rng.integers(1, 300))
        eps = int(rng.integers(1, 20))
        rho = round(float(rng.uniform(0.55, 1.0)), 2)
        k = int(rng.integers(1, 30))
        delta = int(rng.integers(0, k + 1))
        s_density = min_safe_confirmations_density(v, eps, rho, k)
        s_observed = min_safe_confirmations_observed(v, eps, rho, delta)
        assert s_density >= s_observed


def test_measure_delta():
    # all produced: no <=1/2 segment misses anything
    assert measure_delta([True] * 10) == 0
    # one missing block forms a 1-long segment with participation 0
    assert measure_delta([True, False, True]) == 1
    # the worst window here misses 3 of 6
    assert measure_delta([True, False, False, True, False, True]) == 3
    assert measure_delta([]) == 0
    # a dense prefix cannot dilute a sparse suffix
    assert measure_delta([True] * 8 + [False] * 4) == 4


def test_bribe_scenario_validation():
    with pytest.raises(ValueError, match=r"rho_prime must be in \(0,1\]"):
        simulate_bribe_attack(v=100, epsilon=10, delta=19, rho_prime=0.0,
                              s=42, mu=5.0, p_success=0.5)


def test_takeover_arithmetic():
    assert takeover_q_hat(0.2, 0.0) == pytest.approx(0.25)
    qh = takeover_q_hat(0.1, 0.2)
    assert qh == pytest.approx(1.0 / (0.9 * 0.8) - 1.0)
    e = takeover_log_bound(459, 0.1, 0.2)
    assert e == pytest.approx(371.02, abs=0.05)
    # more offline honest stake weakens the bound
    assert takeover_log_bound(459, 0.1, 0.3) < e
    with pytest.raises(ValueError):
        takeover_log_bound(180, 0.45, 0.2)  # (2+q_hat)*p >= 1


def test_takeover_bound_monotone_in_ell():
    values = [takeover_log_bound(ell, 0.2, 0.0) for ell in (60, 120, 180, 240)]
    assert values == sorted(values)
    # linear in ell
    assert values[3] == pytest.approx(4 * values[0])


def test_takeover_montecarlo_respects_bound():
    out = takeover_tail_montecarlo(20, 0.3, 0.0, trials=2 * 10 ** 5, seed=3)
    assert not out["violated"]
    assert out["empirical"] <= out["bound"]
    assert out["bound"] == pytest.approx(
        math.exp(-takeover_log_bound(20, 0.3, 0.0)))


def test_bribe_acceptance_rule():
    # losing fee 10, bribe 5, no attacker fee: joins only if P large
    assert not bribe_accepted(mu=5, f_loss=10, f_prime=0, p_success=0.5)
    assert bribe_accepted(mu=5, f_loss=10, f_prime=0, p_success=0.7)
    # an attacker-chain fee F' substitutes for the bribe
    assert bribe_accepted(mu=0, f_loss=10, f_prime=11, p_success=0.5)


def test_underfunded_bribe_fails_at_safe_s():
    out = simulate_bribe_attack(v=100, epsilon=10, delta=20, rho_prime=0.7,
                                s=42, mu=9.0, p_success=0.4, seed=5)
    assert not out["success"]
    assert out["attacker_profit"] <= 0
    assert out["min_unprofitable_s"] == 42


def test_a_failed_bribe_that_cost_nothing_reports_a_positive_zero_profit():
    """A failure that cost nothing reads 0.0, not -0.0, in the calculator
    and in the bundled scenario's trace, at its own seed and at seed 0."""
    out = simulate_bribe_attack(v=100, epsilon=10, delta=20, rho_prime=0.7,
                                s=42, mu=9.0, p_success=0.4, seed=5)
    assert (out["success"], out["attacker_cost"]) == (False, 0.0)
    assert math.copysign(1.0, out["attacker_profit"]) == 1.0
    config = SCENARIOS["bribe-underfunded"]
    for seed in (config.seed, 0):
        trace = run_scenario(dataclasses.replace(config, seed=seed))
        assert not trace.metrics["success"]
        assert math.copysign(1.0, trace.metrics["attacker_profit"]) == 1.0
        assert '"attacker_profit":0.0' in canonical_json(trace.metrics)


def test_funded_bribe_succeeds_below_safe_s():
    out = simulate_bribe_attack(v=1000, epsilon=1, delta=20, rho_prime=0.7,
                                s=5, mu=50.0, p_success=0.99, seed=6)
    assert out["success"]
    assert out["attacker_profit"] > 0


def test_free_headstart_alone_can_win():
    # delta so large the attacker needs no acceptors at all
    out = simulate_bribe_attack(v=10, epsilon=1, delta=50, rho_prime=0.9,
                                s=3, mu=0.0, p_success=0.01, seed=7)
    assert out["success"]
    assert out["needed_bribed_blocks"] == 0
    assert out["attacker_cost"] == 0.0


def test_withholding_dos_limits():
    # no withholder: every committee completes, one block per G0
    assert simulate_withholding_dos(23, 0.0, 300, n_blocks=2000, seed=1) \
        == pytest.approx(300.0)
    # forks can only speed things up relative to the single-committee form
    measured = simulate_withholding_dos(23, 0.1, 300, n_blocks=4000, seed=2)
    single = 300 / 0.9 ** 23
    assert measured <= single * 1.05
    assert measured > 300
    with pytest.raises(ValueError):
        simulate_withholding_dos(23, 0.1, 300, n_blocks=100)
    with pytest.raises(ValueError):
        simulate_withholding_dos(5, 1.0, 300)


def test_timeweight_closed_form():
    assert timeweight_win_probability(0.1, 1.0) == pytest.approx(0.1)
    # x5 aging at 10% stake: r = 5*0.9/0.5 = 9, win = 0.9/1.8 = 0.5
    assert timeweight_win_probability(0.1, 5.0) == pytest.approx(0.5)
    # waiting past 1/f saturates at certainty
    assert timeweight_win_probability(0.1, 10.0) == 1.0


def test_timeweight_simulation_matches_closed_form():
    win = simulate_timeweight_attack("v0.2", 0.1, 5.0, trials=10 ** 5, seed=4)
    assert win == pytest.approx(0.5, abs=0.02)
    base = simulate_timeweight_attack("v0.2", 0.1, 1.0, trials=10 ** 5, seed=4)
    assert base == pytest.approx(0.1, abs=0.01)


def test_timeweight_cap_blocks_aging_when_saturated():
    """In the saturated v0.3 regime every output is at the cap, so waiting
    gains nothing: the attacker's win rate stays near their stake."""
    win = simulate_timeweight_attack("v0.3", 0.1, 5.0, trials=10 ** 5,
                                     seed=5, saturated=True)
    assert win == pytest.approx(0.1, abs=0.01)
    # unsaturated v0.3 still allows some gain, but less than v0.2
    some = simulate_timeweight_attack("v0.3", 0.1, 5.0, trials=10 ** 5, seed=5)
    v02 = simulate_timeweight_attack("v0.2", 0.1, 5.0, trials=10 ** 5, seed=5)
    assert 0.1 < some <= v02 + 0.02
    with pytest.raises(ValueError):
        simulate_timeweight_attack("v0.4", 0.1, 5.0)


def test_streak_interval_small_case():
    out = simulate_streak_interval(0.5, 3, n_blocks=200_000, seed=8)
    assert out["expected"] == 8.0
    assert out["mean_gap"] == pytest.approx(8.0, rel=0.05)


def test_streak_count_equals_brute_force():
    for fraction, k, n_blocks, seed in ((0.7, 1, 40, 0), (0.7, 3, 50, 1),
                                        (0.6, 2, 7, 2), (0.8, 5, 200, 3),
                                        (0.9, 6, 6, 4), (0.5, 4, 1000, 5)):
        wins = make_rng(seed, "streak", fraction, k).random(n_blocks) < fraction
        want = sum(all(wins[i:i + k]) for i in range(n_blocks - k + 1))
        if not want:
            with pytest.raises(ValueError):
                simulate_streak_interval(fraction, k, n_blocks, seed)
            continue
        out = simulate_streak_interval(fraction, k, n_blocks, seed)
        assert out["streaks"] == want
        assert out["mean_gap"] == n_blocks / want
    for k in (0, -1):
        with pytest.raises(ValueError):
            simulate_streak_interval(0.5, k, 100, 0)
    with pytest.raises(ValueError):   # no window of length k fits
        simulate_streak_interval(0.99, 5, 4, 0)


def test_fork_rate_small_run():
    out = fork_rate_study(seconds=4 * 10 ** 6, seed=9)
    # expected 360000 and 720000 seconds; a short run stays within 3x
    assert 120_000 < out["pairwise_interval"] < 1_080_000
    assert out["multi_solve_interval"] > out["pairwise_interval"]


def test_fork_rate_outputs_are_pinned():
    for seconds, seed, counts in ((4 * 10 ** 7, 0, (90, 45)),
                                  (4 * 10 ** 6, 9, (10, 5))):
        out = fork_rate_study(seconds=seconds, seed=seed)
        assert (out["pair_events"], out["multi_solve_seconds"]) == counts


FORK_Q = 1.0 - (1.0 - 1.0 / 600) ** (1.0 / 600)


class CountingGenerator(np.random.Generator):
    """A Philox generator that counts its ``binomial`` calls."""
    binomial_calls = 0

    def binomial(self, *args, **kwargs):
        self.binomial_calls += 1
        return super().binomial(*args, **kwargs)


def _pair(seed):
    return tuple(CountingGenerator(np.random.Philox(key=derive_key(seed, "bin")))
                 for _ in range(2))


def _state(rng):
    return repr(rng.bit_generator.state)


@pytest.mark.parametrize("n, p", [(600, FORK_Q), (10, 0.3), (60, 0.5),
                                  (61, 0.5), (600, 0.7), (0, 0.3), (5, 0.0)])
def test_binomial_nonzero_equals_numpy_word_for_word(n, p):
    for seed in range(3):
        for size in (1, 7, 1001, 2 ** 16 + 3):
            oracle, fast = _pair(seed)
            k = oracle.binomial(n, p, size)
            at, values = binomial_nonzero(fast, n, p, size)
            assert np.array_equal(at, np.flatnonzero(k))
            assert np.array_equal(values, k[at])
            assert _state(fast) == _state(oracle)
            # the inversion regime reads the words itself
            assert fast.binomial_calls == (n == 0 or p == 0 or p > 0.5
                                           or n * p > 30)


def test_zero_limit_is_the_last_word_that_draws_zero():
    for qn in ((1.0 - FORK_Q) ** 600, 0.5, 0.3 ** 10, 2.0 ** -53, 0.0, 1.0):
        limit = rng_module._zero_limit(qn)
        assert (limit >> 11) * 2.0 ** -53 <= qn
        assert limit == 2 ** 64 - 1 or ((limit + 1) >> 11) * 2.0 ** -53 > qn


def test_binomial_nonzero_redraws_when_numpy_would_restart(monkeypatch):
    # with a bound of 0 every non-zero draw is one numpy would redraw
    monkeypatch.setattr(rng_module, "_inversion_bound", lambda n, p, q: 0)
    for n, p, size in ((10, 0.3, 1001), (600, FORK_Q, 2 ** 16 + 3)):
        oracle, fast = _pair(4)
        k = oracle.binomial(n, p, size)
        at, values = binomial_nonzero(fast, n, p, size)
        assert fast.binomial_calls == 1
        assert np.array_equal(at, np.flatnonzero(k))
        assert np.array_equal(values, k[at])
        assert _state(fast) == _state(oracle)


def test_fork_rate_study_reads_the_words_of_per_second_binomials(monkeypatch):
    used = []
    monkeypatch.setattr(attacks, "make_rng",
                        lambda *labels: used.append(make_rng(*labels))
                        or used[-1])
    seconds, n = 3 * 10 ** 6 + 5, 600
    out = fork_rate_study(seconds=seconds, n_outputs=n, seed=3, chunk=2 ** 20)
    oracle = make_rng(3, "forks", n, seconds)
    k = np.concatenate([oracle.binomial(n, FORK_Q, size=m)
                        for m in (2 * 10 ** 6, 10 ** 6 + 5)])
    assert out["pair_events"] == int((k * (k - 1)).sum())
    assert out["multi_solve_seconds"] == int((k >= 2).sum())
    assert _state(used[0]) == _state(oracle)


@pytest.mark.parametrize("cores", [1, 4])
def test_fork_rate_study_in_many_chunks_reads_per_second_binomials(
        monkeypatch, cores):
    monkeypatch.setattr(rng_module, "usable_cores", lambda: cores)
    used, calls = [], []
    monkeypatch.setattr(attacks, "make_rng",
                        lambda *labels: used.append(make_rng(*labels))
                        or used[-1])
    monkeypatch.setattr(attacks, "binomial_nonzero",
                        lambda *args: calls.append(args[3])
                        or binomial_nonzero(*args))
    # 41 chunks, the last one 151 words: a multiple of neither 2^12 nor 4
    seconds, n, rate = 40 * 2 ** 12 + 151, 50, 0.3
    out = fork_rate_study(seconds=seconds, n_outputs=n, target_rate=rate,
                          seed=6, chunk=2 ** 12)
    oracle = make_rng(6, "forks", n, seconds)
    k = oracle.binomial(n, 1.0 - (1.0 - rate) ** (1.0 / n), size=seconds)
    assert out["pair_events"] == int((k * (k - 1)).sum()) > 0
    assert out["multi_solve_seconds"] == int((k >= 2).sum()) > 0
    assert _state(used[0]) == _state(oracle)
    # each chunk started at its own words, so none was drawn twice
    assert sorted(calls) == [151] + [2 ** 12] * 40


@pytest.mark.parametrize("cores", [1, 4])
def test_map_word_chunks_redoes_the_chunks_after_an_over_read(
        monkeypatch, cores):
    monkeypatch.setattr(rng_module, "usable_cores", lambda: cores)
    words, chunk = 9 * 64 + 22, 64                 # ten chunks
    stream = make_rng(2, "map").bit_generator.random_raw(words + 1)
    greedy = stream[4 * chunk]                     # chunk 4's first word
    calls = []

    def fn(gen, m):
        calls.append(m)
        got = gen.bit_generator.random_raw(m)
        if got[0] == greedy:                       # read one word too many
            gen.bit_generator.random_raw(1)
        return got

    serial = make_rng(2, "map")
    want = [fn(serial, min(chunk, words - s)) for s in range(0, words, chunk)]
    assert want[5][0] == stream[5 * chunk + 1]     # the serial loop shifted
    rng = make_rng(2, "map")
    calls.clear()
    got = rng_module.map_word_chunks(rng, words, chunk, fn)
    assert len(got) == len(want) == 10
    assert len(calls) == 10 + 5                    # chunks 5-9 ran again
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert _state(rng) == _state(serial)


@pytest.mark.parametrize("cores", [1, 4])
def test_map_word_chunks_rebuilds_a_cached_half_word_for_the_redo(
        monkeypatch, cores):
    """A chunk that draws an odd number of uint32s ends at its last word
    but holds half of it cached; the chunks after it run again from that
    state and read the cached half first, as the serial loop does."""
    monkeypatch.setattr(rng_module, "usable_cores", lambda: cores)
    words, chunk = 9 * 64 + 22, 64                 # ten chunks
    calls = []

    def fn(gen, m):
        calls.append(m)
        at = int(gen.bit_generator.state["state"]["counter"][0])
        if at == chunk:            # chunk 4 (word 4 * chunk): three halves
            halves = gen.integers(2 ** 32, size=3, dtype=np.uint32)
            return halves, gen.bit_generator.random_raw(m - 2)
        halves = gen.integers(2 ** 32, size=2, dtype=np.uint32)
        return halves, gen.bit_generator.random_raw(m - 1)

    serial = make_rng(2, "map")
    want = [fn(serial, min(chunk, words - s)) for s in range(0, words, chunk)]
    assert serial.bit_generator.state["has_uint32"] == 1
    rng = make_rng(2, "map")
    calls.clear()
    got = rng_module.map_word_chunks(rng, words, chunk, fn)
    assert len(calls) == 10 + 5                    # chunks 5-9 ran again
    assert all(np.array_equal(g[0], w[0]) and np.array_equal(g[1], w[1])
               for g, w in zip(got, want))
    assert _state(rng) == _state(serial)


def _peak_bytes(fn, *args, **kwargs) -> int:
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


MEMORY_MARGIN = 512 * 1024   # bytes; a fork-rate chunk keeps ~170 B of result and mark


def test_streak_memory_does_not_grow_with_length():
    """The traced peak of a streak run is the same, within a fixed margin,
    at 4 and at 32 streak chunks."""
    simulate_streak_interval(0.5, 6, 1000, seed=0)     # one-time costs
    small, large = (_peak_bytes(simulate_streak_interval, 0.5, 6,
                                n * attacks.STREAK_CHUNK, seed=0)
                    for n in (4, 32))
    assert large < small + MEMORY_MARGIN


def test_fork_rate_memory_does_not_grow_with_length(monkeypatch):
    """The traced peak of a fork-rate run is the same, within a fixed
    margin, at 16 and at 1,024 chunks of 2^12 seconds. Two threads, so the
    chunks in flight do not depend on the machine. A solve every ten
    seconds, so that even the short run sees forks, as a study must."""
    monkeypatch.setattr(rng_module, "usable_cores", lambda: 2)
    fork_rate_study(seconds=16 * 2 ** 12, target_rate=0.1,
                    chunk=2 ** 12)  # one-time costs
    small, large = (_peak_bytes(fork_rate_study, seconds=n * 2 ** 12,
                                target_rate=0.1, chunk=2 ** 12)
                    for n in (16, 1024))
    assert large < small + MEMORY_MARGIN


def test_fork_rate_study_does_not_depend_on_the_core_count(monkeypatch):
    import threading
    helpers = []

    class CountedThread(threading.Thread):
        def start(self):
            helpers.append(self)
            super().start()

    monkeypatch.setattr(rng_module.threading, "Thread", CountedThread)
    outs = []
    for cores in (1, 4):
        monkeypatch.setattr(rng_module, "usable_cores", lambda: cores)
        helpers.clear()
        outs.append(fork_rate_study(seconds=2 * 10 ** 6 + 1, n_outputs=50,
                                    target_rate=0.3, seed=1, chunk=2 ** 14))
        assert len(helpers) == cores - 1           # plus the calling thread
    assert outs[0] == outs[1]
    assert outs[0]["pair_events"] > 0


@pytest.mark.parametrize("failing", ["helper", "caller"])
def test_map_word_chunks_reraises_a_chunks_error_and_leaves_no_helper_alive(
        monkeypatch, failing):
    """An exception fn raises on a chunk reaches the caller as itself,
    whether the chunk ran on a helper thread or on the calling thread, and
    no helper thread outlives the call."""
    import threading
    helpers = []

    class CountedThread(threading.Thread):
        def start(self):
            helpers.append(self)
            super().start()

    monkeypatch.setattr(rng_module.threading, "Thread", CountedThread)
    monkeypatch.setattr(rng_module, "usable_cores", lambda: 2)
    caller, started = threading.current_thread(), set()
    both = threading.Barrier(2, timeout=10)     # each thread holds a chunk
    boom = RuntimeError("chunk failed")

    def fn(gen, m):
        me = threading.current_thread()
        if me not in started:
            started.add(me)
            both.wait()
        if (me is caller) == (failing == "caller"):
            raise boom
        return gen.bit_generator.random_raw(m)

    with pytest.raises(RuntimeError) as raised:
        rng_module.map_word_chunks(make_rng(0, "map"), 8 * 64, 64, fn)
    assert raised.value is boom
    assert len(helpers) == 1 and not helpers[0].is_alive()
    assert len(started) == 2


def test_map_word_chunks_rejects_a_stream_inside_a_counter_step():
    rng = make_rng(0, "map")
    with pytest.raises(ValueError):
        rng_module.map_word_chunks(rng, 16, 6, lambda gen, m: m)
    rng.bit_generator.random_raw(1)
    with pytest.raises(ValueError):
        rng_module.map_word_chunks(rng, 16, 8, lambda gen, m: m)
    assert rng_module.map_word_chunks(make_rng(0, "map"), 0, 8,
                                      lambda gen, m: m) == []


THREE_CHUNKS = 2 * attacks.STREAK_CHUNK + 1001   # blocks: two chunks and a part


@pytest.mark.parametrize("k", [1, 6])
@pytest.mark.parametrize("n_blocks, fraction", [
    (1000, 0.5), (THREE_CHUNKS, 0.5),
    (THREE_CHUNKS, 0.99),      # streaks straddle every chunk boundary
    (5, 0.5),                  # below k = 6
], ids=["1000", str(THREE_CHUNKS), "%d-0.99" % THREE_CHUNKS, "5"])
def test_streak_count_equals_one_shot_draws(k, n_blocks, fraction):
    if n_blocks < k:                               # no window fits
        with pytest.raises(ValueError):
            simulate_streak_interval(fraction, k, n_blocks, seed=7)
        return
    wins = make_rng(7, "streak", fraction, k).random(n_blocks) < fraction
    windows = np.convolve(wins, np.ones(k, int), "valid")
    out = simulate_streak_interval(fraction, k, n_blocks, seed=7)
    assert out["streaks"] == int((windows == k).sum())
