"""Bundled scenarios and the reproduction registry.

Scenarios are small, fast configurations exercising every protocol engine
and analysis. A reproduction is one of the paper's quantitative results: a
bundled analysis scenario, the params each of its runs changes, and a
verdict against the expected value, runnable from the CLI or the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from . import comb
from .netsim import ScenarioConfig, config_from_dict, run_analysis


def _split_stake(kappa: int, names: List[str], weights: List[int]) -> list:
    """Integer stake allocation summing to exactly 2^kappa."""
    total = 1 << kappa
    wsum = sum(weights)
    amounts = [total * w // wsum for w in weights]
    amounts[0] += total - sum(amounts)
    return [[n, a] for n, a in zip(names, amounts)]


def _coa(name, kappa=12, slots=12, weights=None, behaviors=None, seed=7,
         **params):
    """A five-holder CoA config with the default network; `params` are
    those that differ from the defaults."""
    names = ["s%d" % i for i in range(5)]
    return {
        "name": name, "protocol": "coa",
        "params": dict(params, kappa=kappa),
        "stake": _split_stake(kappa, names, weights or [1] * 5),
        "behaviors": behaviors or {},
        "duration": {"slots": slots},
        "seed": seed,
    }


def _four(name, protocol, duration, seed, weights=(1, 1, 1, 1),
          behaviors=None, **params):
    """A four-holder kappa-12 PPCoin or Dense-CoA config; `params` are
    those that differ from the defaults."""
    return {
        "name": name, "protocol": protocol,
        "params": dict(params, kappa=12),
        "stake": _split_stake(12, ["a", "b", "c", "d"], weights),
        "behaviors": behaviors or {},
        "duration": duration, "seed": seed,
    }


def _analysis(name, kind, params):
    return {"name": name, "seed": 7, "attack": {"kind": kind, "params": params}}


_RAW_SCENARIOS = [
    _coa("coa-baseline"),
    _coa("coa-majority", kappa=4, w=3, comb="majority", slots=14, seed=11),
    _coa("coa-iterated", kappa=3, w=3, comb="iterated_majority", slots=11,
         seed=13),
    _coa("coa-offline", behaviors={"s4": {"strategy": "offline"}}, seed=17),
    _coa("coa-fast", g0_seconds=60, slots=20, seed=19),
    _coa("coa-skewed", weights=[8, 4, 2, 1, 1], seed=23),
    dict(_coa("coa-nodrift", seed=29), clock_drift_max=0.0),
    _four("ppcoin-honest", "ppcoin", {"seconds": 60000}, 31, target_interval=30),
    _four("ppcoin-multifork", "ppcoin", {"seconds": 60000}, 31,
          behaviors={n: {"strategy": "ppcoin-multifork"} for n in "abcd"},
          target_interval=30),
    _four("dense-baseline", "dense_coa", {"slots": 30}, 37, ell=5,
          g0_seconds=300),
    _four("dense-withhold", "dense_coa", {"slots": 30}, 37, weights=[9, 1, 1, 1],
          behaviors={"d": {"strategy": "offline"}}, ell=5, g0_seconds=300),
    _analysis("claim1", "claim1",
              {"v": 100, "epsilon": 10, "rho_prime": 0.7, "delta": 20}),
    _analysis("claim2", "claim2",
              {"v": 100, "epsilon": 10, "rho": 0.7, "k": 20,
               "g0_seconds": 300}),
    _analysis("takeover", "takeover", {"ell": 459, "p": 0.1, "q": 0.2}),
    _analysis("dense-dos", "dense-dos",
              {"ell": 23, "f": 0.1, "g0_seconds": 300, "blocks": 1000}),
    _analysis("ppcoin-mk", "ppcoin-mk",
              {"stake": 0.25, "k": 6, "blocks": 400000}),
    _analysis("fork-rate", "fork-rate", {"seconds": 10 ** 7}),
    _analysis("timeweight-v02", "timeweight",
              {"version": "v0.2", "stake": 0.1, "multiplier": 5.0,
               "trials": 20000}),
    _analysis("timeweight-v03-saturated", "timeweight",
              {"version": "v0.3", "stake": 0.1, "multiplier": 5.0,
               "trials": 20000, "saturated": True}),
    _analysis("bribe-underfunded", "bribe",
              {"v": 100, "epsilon": 10, "delta": 19, "rho_prime": 0.7,
               "s": 42, "mu": 5.0, "p_success": 0.5}),
    _analysis("mu-concat", "mu",
              {"comb": "concat", "kappa": 8, "p": 0.05, "trials": 50000}),
    _analysis("mu-majority", "tie-fraction", {"comb": "majority", "kappa": 1, "w": 9}),
    _analysis("kz-bounds", "kz-bounds",
              {"ell": 459, "kappa": 51, "epsilon": 0.1}),
    _analysis("issuance-equilibrium", "issuance",
              {"cost": 1.0, "demand": 10 ** 6, "difficulty": 2e-6,
               "steps": 800}),
]

SCENARIOS: Dict[str, ScenarioConfig] = {
    raw["name"]: config_from_dict(raw) for raw in _RAW_SCENARIOS
}


# ---------------------------------------------------------------------------
# reproductions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReproResult:
    repro_id: str
    expected: str
    computed: str
    tolerance: str
    passed: bool

    def row(self) -> list:
        return [self.repro_id, self.expected, self.computed, self.tolerance,
                "pass" if self.passed else "FAIL"]


@dataclass(frozen=True)
class Reproduction:
    scenario: str           # the bundled analysis scenario it checks
    param_sets: tuple       # one run per entry: the params it changes
    expected: str
    tolerance: str
    verdict: Callable[[dict, dict], tuple]   # (params, metrics) -> (computed, passed)


def _within(value: float, want: float, rel: float) -> bool:
    return abs(value - want) / want <= rel


def _mu_verdict(p: dict, m: dict) -> tuple:
    want = m["closed_form_concat"]
    return ("p=%.2f: %.4f~%.4f" % (p["p"], m["mu"], want),
            abs(m["mu"] - want) <= 3 * m["stderr"])


def _kz_verdict(p: dict, m: dict) -> tuple:
    eps, lo, hi = p["epsilon"], m["achievable"], m["upper"]
    return ("%.3f, %.3f (ε=%.1f)" % (lo, hi, eps),
            abs(lo - 2 * eps) < 1e-9 and abs(hi - 91.8 * eps) < 1e-9)


REPRODUCTIONS: Dict[str, Reproduction] = {
    # delta = K reproduces the density-assumption instance exactly
    "claim1": Reproduction(
        "claim1", ({},), "S=42", "exact",
        lambda p, m: ("S=%d" % m["s"], m["s"] == 42)),
    "claim2": Reproduction(
        "claim2", ({},), "S=42, 3.5 h", "exact",
        lambda p, m: ("S=%d, %.2f h" % (m["s"], m["wait_minutes"] / 60.0),
                      m["s"] == 42 and abs(m["wait_minutes"] / 60.0 - 3.5) < 1e-9)),
    "takeover": Reproduction(
        "takeover", ({},), "exponent 371", "±1",
        lambda p, m: ("%.2f" % m["exponent"], abs(m["exponent"] - 371) <= 1.0)),
    "dense-dos": Reproduction(
        "dense-dos", ({"blocks": 4000},),
        "below 56.4 min (forks pull it under 56)", "[40, 56.4] min",
        lambda p, m: ("%.1f min" % m["mean_interval_minutes"],
                      40.0 <= m["mean_interval_minutes"] <= 56.4)),
    "ppcoin-mk": Reproduction(
        "ppcoin-mk", ({"blocks": 4_000_000},), "4096 blocks", "±15%",
        lambda p, m: ("%.0f" % m["mean_gap"],
                      _within(m["mean_gap"], m["expected"], 0.15))),
    "fork-rate": Reproduction(
        "fork-rate", ({"seconds": 4 * 10 ** 8},),
        "360000 s pairwise / 720000 s multi-solve", "±20%",
        lambda p, m: ("%.0f / %.0f s" % (m["pairwise_interval"],
                                         m["multi_solve_interval"]),
                      _within(m["pairwise_interval"], 360000, 0.2)
                      and _within(m["multi_solve_interval"], 720000, 0.2))),
    "mu-concat": Reproduction(
        "mu-concat", tuple({"p": p, "trials": 10 ** 5} for p in (0.02, 0.05, 0.1)),
        "2p-p^2", "3σ", _mu_verdict),
    "mu-majority": Reproduction(
        "mu-majority", ({},), "tie 70/256", "exact",
        lambda p, m: ("%.6f" % m["tie_fraction"],
                      m["tie_fraction"] == comb.majority_tie_probability(p["w"]))),
    "kz-bounds": Reproduction(
        "kz-bounds", ({},), "achievable 2ε, upper 91.8ε", "exact", _kz_verdict),
    "issuance": Reproduction(
        "issuance-equilibrium", ({},), "value converges to cost", "< 0.1",
        lambda p, m: ("max |value-cost|/cost = %.3f" % m["max_deviation"],
                      m["max_deviation"] < 0.1)),
}


def run_reproduction(repro_id: str, seed: int = 0) -> ReproResult:
    """Each param set merged over the scenario's params, run and judged."""
    repro = REPRODUCTIONS[repro_id]     # a KeyError for an unknown id
    attack = SCENARIOS[repro.scenario].attack
    merged = [{**attack["params"], **change} for change in repro.param_sets]
    outcomes = [repro.verdict(p, run_analysis(
        attack["kind"], p, seed, "%s.params." % repro_id)) for p in merged]
    return ReproResult(repro_id, repro.expected,
                       "; ".join(text for text, _ok in outcomes),
                       repro.tolerance, all(ok for _text, ok in outcomes))
