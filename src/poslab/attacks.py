"""Quantified attack analyses: confirmation bounds, takeover tail,
withholding DoS, timeweight aging, private streaks, and fork rates.

The confirmation calculators operate on the density assumption: in the
longest chain, every window of at least K potential blocks contains at
least rho*K produced blocks (rho > 1/2). A merchant who waits S
confirmations is safe from a bribe-funded double-spend of value V once the
fees the attacker must match exceed V.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import comb, issuance, ppcoin
from .rng import binomial_nonzero, make_rng, map_word_chunks


def _as_fraction(x) -> Fraction:
    """Exact rational view of a parameter; floats go through their shortest
    decimal repr so 0.7 means 7/10."""
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


def min_safe_confirmations_observed(v, epsilon, rho_prime, delta) -> int:
    """Smallest S with V < epsilon*(rho_prime*S - delta + 1).

    Uses the observed chain: rho_prime is the post-payment density and delta
    the attacker's free head start from the worst pre-payment segment.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    rp = _as_fraction(rho_prime)
    if not 0 < rp <= 1:
        raise ValueError("rho_prime must be in (0,1]")
    # V/eps < rp*S - delta + 1  <=>  S > (V/eps + delta - 1)/rp
    x = (_as_fraction(v) / _as_fraction(epsilon) + delta - 1) / rp
    s = math.floor(x) + 1
    return max(s, 0)


def min_safe_confirmations_density(v, epsilon, rho, k) -> int:
    """Smallest S with V < epsilon*(rho*S - K + 1), from the density
    assumption alone (no chain observation needed)."""
    r = _as_fraction(rho)
    if not r > Fraction(1, 2):
        raise ValueError("density assumption requires rho > 1/2")
    return min_safe_confirmations_observed(v, epsilon, r, k)


def confirmation_wait_seconds(s: int, g0: float) -> float:
    return s * g0


def measure_delta(produced: Sequence[bool]) -> int:
    """Attacker head start before the payment block: the largest number of
    missing blocks over all segments whose participation rate is <= 1/2."""
    n = len(produced)
    best = 0
    miss = np.cumsum([0] + [0 if b else 1 for b in produced])
    for i in range(n):
        for j in range(i + 1, n + 1):
            missing = int(miss[j] - miss[i])
            if 2 * missing >= j - i:  # participation <= 1/2
                best = max(best, missing)
    return best


# ---------------------------------------------------------------------------
# majority takeover
# ---------------------------------------------------------------------------

def takeover_q_hat(p: float, q: float) -> float:
    return 1.0 / ((1.0 - p) * (1.0 - q)) - 1.0


def takeover_log_bound(ell: int, p: float, q: float) -> float:
    """Natural-log exponent E of the takeover tail bound e^{-E}.

    p is the hostile stake fraction, q the fraction of honest stake offline;
    Y counts hostile slots among the (2+q_hat)*ell derivations needed to
    accumulate ell honest blocks.
    """
    if not 0 < p < 1 or not 0 <= q < 1:
        raise ValueError("require 0 < p < 1 and 0 <= q < 1")
    qh = takeover_q_hat(p, q)
    if (2 + qh) * p >= 1:
        raise ValueError("tail bound vacuous: (2+q_hat)*p >= 1")
    dev = 1.0 / ((2 + qh) * p) - 1.0
    return dev * dev * (2 + qh) * ell * p / 3.0


def takeover_tail_montecarlo(ell: int, p: float, q: float, trials: int,
                             seed: int = 0) -> dict:
    """Sample Y ~ Bin(round((2+q_hat)*ell), p) and compare Pr[Y > ell] with
    the analytic bound."""
    qh = takeover_q_hat(p, q)
    n = int(round((2 + qh) * ell))
    rng = make_rng(seed, "takeover", ell, p, q)
    exceed = 0
    done = 0
    while done < trials:
        m = min(trials - done, 10 ** 7)
        y = rng.binomial(n, p, size=m)
        exceed += int((y > ell).sum())
        done += m
    empirical = exceed / trials
    bound = math.exp(-takeover_log_bound(ell, p, q))
    return {"empirical": empirical, "bound": bound, "n_trials": trials,
            "violated": empirical > bound}


# ---------------------------------------------------------------------------
# bribe-funded double spend (decision-theoretic model)
# ---------------------------------------------------------------------------

def bribe_accepted(mu: float, f_loss: float, f_prime: float,
                   p_success: float) -> bool:
    """A rational stakeholder joins the attacker chain iff
    (mu + F')*P > F*(1-P)."""
    return (mu + f_prime) * p_success > f_loss * (1.0 - p_success)


def simulate_bribe_attack(v: float, epsilon: float, delta: int,
                          rho_prime: float, s: int, mu: float,
                          p_success: float, seed: int = 0) -> dict:
    """Outcome of a bribe campaign over the S-block confirmation window.

    A double-spend of value `v` against a merchant who waits `s`
    confirmations, at an average fee `epsilon` per block, with the head
    start `delta` and the observed density `rho_prime` of
    ``min_safe_confirmations_observed``.
    The attacker signs the skipped slots personally (their holders ask
    nothing, the worst case) and must bribe enough produced-slot winners to
    overtake the honest chain. Each winner weighs the offer mu plus the
    attacker-chain fee F' against the honest fee epsilon they forfeit
    (F = epsilon; chain binding keeps F' = 0 in CoA). Strategy space is the
    two-action model: extend honestly or join the attacker chain; nobody
    double-signs.
    """
    min_unprofitable_s = min_safe_confirmations_observed(v, epsilon, rho_prime,
                                                         delta)
    rng = make_rng(seed, "bribe", s, mu, p_success)
    produced = rng.random(s) < rho_prime
    n_produced = int(produced.sum())
    free = (s - n_produced) + delta - 1
    needed = s + 1 - free  # attacker chain must strictly exceed S blocks
    accepts = bribe_accepted(mu, epsilon, 0.0, p_success)
    n_accepting = n_produced if accepts else 0
    success = free >= s + 1 or (accepts and n_accepting >= needed)
    cost = float(mu * needed) if success and needed > 0 else 0.0
    return {
        "success": success,
        "needed_bribed_blocks": max(needed, 0),
        "free_blocks": max(free, 0),
        "attacker_cost": cost,
        # 0.0 - cost: a failure that cost nothing reads 0.0, not -0.0
        "attacker_profit": (v - cost) if success else 0.0 - cost,
        "min_unprofitable_s": min_unprofitable_s,
    }


# ---------------------------------------------------------------------------
# committee withholding DoS
# ---------------------------------------------------------------------------

MAX_DOS_TICKS = 10 ** 8   # the most ticks a withholding run may expect (minutes)


def simulate_withholding_dos(ell: int, stake_fraction: float, g0: float,
                             n_blocks: int = 4000, seed: int = 0) -> float:
    """Mean block interval (seconds) under a withholding stakeholder.

    Each G0 tick, every live committee completes independently with
    probability (1-f)^ell. Forks off the previous height can also become the
    longest chain, which is why the measured interval runs below the
    single-committee geometric value G0/(1-f)^ell. Node participation is
    bounded: at most two tip committees and one fallback committee at the
    parent height are serviced at once.
    """
    if n_blocks < 10 ** 3:
        raise ValueError("need at least 10^3 blocks for a stable estimate")
    s = (1.0 - stake_fraction) ** ell
    if n_blocks > MAX_DOS_TICKS * s:
        raise ValueError("%d blocks need over %d G0 ticks at a completion "
                         "chance of %.3g a tick" % (n_blocks, MAX_DOS_TICKS, s))
    rng = make_rng(seed, "dos", ell, stake_fraction)
    max_tips, max_parents = 2, 1
    n, m = 1, 0  # committees racing at the tip height / at the parent height
    height, ticks = 0, 0
    while height < n_blocks:
        ticks += 1
        x = int(rng.binomial(n, s))
        y = int(rng.binomial(m, s)) if m else 0
        if x >= 1:
            height += 1
            m = min(n + y, max_parents)
            n = min(x, max_tips)
        else:
            n = min(n + y, max_tips)
            m = min(m, max_parents)
    return ticks * g0 / n_blocks


# ---------------------------------------------------------------------------
# timeweight aging attack
# ---------------------------------------------------------------------------

def timeweight_win_probability(stake_fraction: float,
                               wait_multiplier: float) -> float:
    """Closed-form next-block win probability for an attacker whose average
    timeweight is `wait_multiplier` times the network-wide average."""
    f, m = stake_fraction, wait_multiplier
    if m * f >= 1:
        return 1.0
    r = m * (1.0 - f) / (1.0 - m * f)  # attacker/honest timeweight ratio
    return f * r / (f * r + (1.0 - f))


def simulate_timeweight_attack(version: str, stake_fraction: float,
                               wait_multiplier: float, trials: int = 10 ** 5,
                               seed: int = 0, saturated: bool = False) -> float:
    """Empirical probability the attacker's aged outputs win the next block.

    The ages of 50 honest outputs are resampled each trial, uniform with
    mean 30 days; the attacker waits until their average timeweight is
    `wait_multiplier` times the network-wide average (which includes the
    attacker's own stake). In the saturated v0.3 regime every output sits at
    the cap, so waiting moves nothing.
    """
    f = stake_fraction
    if not 0 < f < 1:
        raise ValueError("stake fraction must be in (0,1)")
    rng = make_rng(seed, "timeweight", version, f, wait_multiplier, saturated)
    n_honest_outputs = 50
    base_age = ppcoin.CAP_SECONDS * 2.0 if saturated else 30 * 86400.0
    ages = rng.uniform(0.2 * base_age, 1.8 * base_age,
                       size=(trials, n_honest_outputs))
    honest_tw = ppcoin.timeweight(ages, version)
    mean_honest = float(honest_tw.mean())
    if wait_multiplier * f >= 1:
        attacker_tw = np.inf
    else:
        ratio = wait_multiplier * (1.0 - f) / (1.0 - wait_multiplier * f)
        attacker_tw = ratio * mean_honest
    attacker_tw = ppcoin.timeweight(attacker_tw, version)
    # per-coin kernel weights; the winner of the next block is drawn
    # proportionally (the small-probability race limit)
    honest_weight = ((1.0 - f) / n_honest_outputs) * honest_tw.sum(axis=1)
    attacker_weight = f * attacker_tw
    wins = rng.random(trials) * (attacker_weight + honest_weight) < attacker_weight
    return float(wins.mean())


# ---------------------------------------------------------------------------
# private streaks (the M^k statistic)
# ---------------------------------------------------------------------------

STREAK_CHUNK = 2 ** 18     # blocks drawn per rng.random call


def simulate_streak_interval(stake_fraction: float = 0.25, k: int = 6,
                             n_blocks: int = 4_000_000, seed: int = 0) -> dict:
    """Mean block gap between k-long attacker streaks.

    With many small outputs the attacker wins each block independently with
    probability 1/M, so a reorg opportunity (k consecutive wins, counted over
    all sliding windows) occurs at rate M^-k per block. The blocks are
    drawn and counted a ``STREAK_CHUNK`` at a time, so the memory held is
    one chunk's win flags plus the k-1 carried from the chunk before.
    """
    if not 0 < stake_fraction < 1:
        raise ValueError("stake fraction must be in (0,1)")
    if k < 1:
        raise ValueError("streak length k must be at least 1")
    rng = make_rng(seed, "streak", stake_fraction, k)
    wins = np.zeros(k - 1 + STREAK_CHUNK, bool)   # carried flags, then a chunk's
    draws, count = np.empty(STREAK_CHUNK), 0
    for start in range(0, n_blocks, STREAK_CHUNK):
        m = min(STREAK_CHUNK, n_blocks - start)
        np.less(rng.random(m, out=draws[:m]), stake_fraction,
                out=wins[k - 1:k - 1 + m])
        streak = wins[:m].copy()   # after the ANDs: wins[i:i + k] all won
        for j in range(1, k):
            streak &= wins[j:j + m]
        count += int(np.count_nonzero(streak))
        wins[:k - 1] = wins[m:m + k - 1]
    if count == 0:
        raise ValueError("no streaks observed; increase n_blocks")
    return {
        "mean_gap": n_blocks / count,
        "expected": ppcoin.expected_reorg_interval(1.0 / stake_fraction, k),
        "streaks": count,
        "blocks": n_blocks,
    }


# ---------------------------------------------------------------------------
# fork-rate study
# ---------------------------------------------------------------------------

def fork_rate_study(seconds: int = 4 * 10 ** 8, n_outputs: int = 600,
                    target_rate: float = 1.0 / 600.0, seed: int = 0,
                    chunk: int = 2 ** 18) -> dict:
    """Simulate per-second solve counts and report both fork-interval
    conventions.

    Each second, each of n_outputs gets a Bernoulli trial with q calibrated
    so Pr[>= 1 solve] = target_rate. Pairwise convention: mean seconds per
    ordered solver pair, sum k(k-1); expected ~ 1/rate^2 = 360000 s at the
    10-minute target. Multi-solve convention: mean seconds between seconds
    with >= 2 solves; expected ~ 2/rate^2 = 720000 s. The seconds are drawn
    in chunks of `chunk` seconds (one word each) on every usable core.
    """
    q = 1.0 - (1.0 - target_rate) ** (1.0 / n_outputs)
    rng = make_rng(seed, "forks", n_outputs, seconds)

    def count(gen, m):
        _at, k = binomial_nonzero(gen, n_outputs, q, m)
        return int((k * (k - 1)).sum()), int((k >= 2).sum())

    counts = map_word_chunks(rng, seconds, chunk, count)
    pair_events = sum(c[0] for c in counts)
    multi_seconds = sum(c[1] for c in counts)
    if not multi_seconds:   # then no pair either
        raise ValueError("no second had two solves; increase seconds")
    return {
        "seconds": seconds,
        "pairwise_interval": seconds / pair_events,
        "multi_solve_interval": seconds / multi_seconds,
        "pair_events": pair_events,
        "multi_solve_seconds": multi_seconds,
    }


# ---------------------------------------------------------------------------
# the analysis table: `attack` scenarios and reproductions run these entries
# ---------------------------------------------------------------------------

REQUIRED = ...   # the default of a param that a config must give


class Analysis(NamedTuple):
    params: dict    # each param -> (kind, default or REQUIRED)
    fn: Callable[[dict, int], dict]   # (params with defaults, seed) -> metrics


def _claim2(p: dict, seed: int) -> dict:
    s = min_safe_confirmations_density(p["v"], p["epsilon"], p["rho"], p["k"])
    return {"s": s,
            "wait_minutes": confirmation_wait_seconds(s, p["g0_seconds"]) / 60.0}


def _pick(out: dict, *keys) -> dict:
    return {k: out[k] for k in keys}


def _mu(p: dict, seed: int) -> dict:
    spec = comb.CombSpec(p["comb"], p["kappa"], p["w"])
    mu, stderr = comb.last_player_advantage(spec, p["p"], p["trials"], seed)
    return {"mu": mu, "stderr": stderr,
            "closed_form_concat": 2 * p["p"] - p["p"] ** 2}


def _issuance(p: dict, seed: int) -> dict:
    cost, steps = p["cost"], p["steps"]
    params = issuance.IssuanceParams(
        production_cost_per_coin=cost,
        demand_value_fn=issuance.constant_demand(p["demand"]),
        fixed_difficulty=p["difficulty"], min_gap_seconds=p["min_gap"])
    value = issuance.simulate_issuance(params, steps, seed)["value"]
    tail = value[steps // 2:]   # after the burn-in
    return {"final_value": float(value[-1]), "mean_value": float(tail.mean()),
            "cost": cost, "max_deviation": float(abs(tail - cost).max()) / cost}


_NUMBER, _COUNT = ("number", REQUIRED), ("count", REQUIRED)  # the commonest kinds

ANALYSES = {
    "claim1": Analysis(
        {"v": _NUMBER, "epsilon": _NUMBER, "rho_prime": _NUMBER,
         "delta": ("integer", REQUIRED)},
        lambda p, seed: {"s": min_safe_confirmations_observed(
            p["v"], p["epsilon"], p["rho_prime"], p["delta"])}),
    "claim2": Analysis({"v": _NUMBER, "epsilon": _NUMBER, "rho": _NUMBER,
                        "k": _COUNT, "g0_seconds": ("number", 300)}, _claim2),
    "takeover": Analysis(
        {"ell": _COUNT, "p": _NUMBER, "q": _NUMBER},
        lambda p, seed: {"exponent": takeover_log_bound(p["ell"], p["p"], p["q"])}),
    "dense-dos": Analysis(
        {"ell": _COUNT, "f": _NUMBER, "g0_seconds": _NUMBER,
         "blocks": ("count", 1000)},
        lambda p, seed: {"mean_interval_minutes": simulate_withholding_dos(
            p["ell"], p["f"], p["g0_seconds"], p["blocks"], seed) / 60.0}),
    "ppcoin-mk": Analysis(
        {"stake": ("number", 0.25), "k": ("count", 6), "blocks": ("count", 10 ** 6)},
        lambda p, seed: _pick(simulate_streak_interval(
            p["stake"], p["k"], p["blocks"], seed), "mean_gap", "expected")),
    "fork-rate": Analysis(
        {"seconds": ("count", 10 ** 7)},
        lambda p, seed: _pick(fork_rate_study(p["seconds"], seed=seed),
                              "pairwise_interval", "multi_solve_interval")),
    "timeweight": Analysis(
        {"version": ("string", REQUIRED), "stake": _NUMBER, "multiplier": _NUMBER,
         "trials": ("count", 10 ** 4), "saturated": ("bool", False)},
        lambda p, seed: {"win_probability": simulate_timeweight_attack(
            p["version"], p["stake"], p["multiplier"], p["trials"], seed,
            saturated=p["saturated"])}),
    "bribe": Analysis(
        {"v": _NUMBER, "epsilon": _NUMBER, "delta": ("integer", REQUIRED),
         "rho_prime": _NUMBER, "s": ("integer", REQUIRED), "mu": _NUMBER,
         "p_success": _NUMBER},
        lambda p, seed: simulate_bribe_attack(**p, seed=seed)),
    "mu": Analysis({"comb": ("string", REQUIRED), "kappa": _COUNT, "p": _NUMBER,
                    "w": ("count", 1), "trials": ("count", 10 ** 4)}, _mu),
    "tie-fraction": Analysis(
        {"comb": ("string", REQUIRED), "kappa": _COUNT, "w": ("count", 1)},
        lambda p, seed: {"tie_fraction": comb.undetermined_fraction(
            comb.CombSpec(p["comb"], p["kappa"], p["w"]))}),
    "kz-bounds": Analysis(
        {"ell": _COUNT, "kappa": _COUNT, "epsilon": _NUMBER},
        lambda p, seed: dict(zip(("achievable", "upper"), comb.coalition_bounds(
            p["ell"], p["kappa"], p["epsilon"])))),
    "issuance": Analysis(
        {"cost": ("number", 1.0), "demand": ("number", 10 ** 6),
         "difficulty": ("number", 2e-6), "min_gap": ("number", 60.0),
         "steps": ("count", 400)},
        _issuance),
}
