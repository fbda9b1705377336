"""Validation equals execution: a config `validate-config` accepts runs.

Raw configs are drawn over the three engines and the closed-form analyses,
with random strategies and, now and then, an unknown key or a value of the
wrong type. Both commands go through ``cli.main``.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from poslab import attacks
from poslab.cli import EXIT_CONFIG_ERROR, EXIT_OK, main
from poslab.netsim import ENGINES, ConfigError, config_from_dict

HOLDERS = ("a", "b", "c", "d")
WRONG_VALUES = ("x", None, [], {}, True, 1.5, -1)
FIELD = re.compile(r"^config error: \S+: ", re.M)


def _optional(**fields):
    return st.fixed_dictionaries({}, optional=fields)


@st.composite
def engine_configs(draw):
    protocol = draw(st.sampled_from(("coa", "dense_coa", "ppcoin")))
    kappa = draw(st.integers(1, 6) | st.just(64))
    total = 1 << kappa
    holders = draw(st.integers(1, min(4, total)))
    cuts = sorted(draw(st.lists(st.integers(1, total - 1), unique=True,
                                min_size=holders - 1, max_size=holders - 1)))
    stake = [[HOLDERS[i], hi - lo]
             for i, (lo, hi) in enumerate(zip([0] + cuts, cuts + [total]))]
    if protocol == "coa":
        params = draw(_optional(
            w=st.sampled_from((1, 2, 3)),
            comb=st.sampled_from(("concat", "majority", "iterated_majority")),
            g0_seconds=st.integers(1, 600), c0=st.integers(0, 8),
            c1=st.integers(0, 4), t0=st.sampled_from((2, 4, 7, 8)),
            timestamp_leniency=st.integers(0, 200)))
        duration = draw(st.fixed_dictionaries(
            {"slots": st.integers(1, 6)},
            optional={"seconds": st.integers(1, 2000)}))
    elif protocol == "dense_coa":
        params = draw(_optional(ell=st.integers(1, 5),
                                g0_seconds=st.integers(1, 600)))
        duration = {"slots": draw(st.integers(1, 6))}
    else:
        params = draw(_optional(target_interval=st.integers(1, 600),
                                max_tips=st.integers(1, 6)))
        duration = {"seconds": draw(st.integers(1, 2000))}
    behaviors = draw(st.dictionaries(
        st.sampled_from([name for name, _a in stake]),
        st.fixed_dictionaries({"strategy": st.sampled_from(
            ENGINES[protocol].strategies)})))
    low = draw(st.floats(0, 3))
    network = {"delays": {"min": low, "max": low + draw(st.floats(0, 3))},
               "clock_drift_max": draw(st.floats(0, 5))}
    return dict({key: network[key] for key in ENGINES[protocol].network},
                protocol=protocol, params=dict(params, kappa=kappa),
                stake=stake, behaviors=behaviors, duration=duration,
                seed=draw(st.integers(0, 2 ** 16)))


NUMBER = st.one_of(st.integers(-5, 1000), st.floats(-1, 1000))
FRACTION = st.floats(0, 1.2)

ANALYSIS_PARAMS = {
    "claim1": st.fixed_dictionaries({
        "v": NUMBER, "epsilon": NUMBER, "rho_prime": FRACTION,
        "delta": st.integers(0, 40)}),
    "claim2": st.fixed_dictionaries(
        {"v": NUMBER, "epsilon": NUMBER, "rho": FRACTION,
         "k": st.integers(0, 40)},
        optional={"g0_seconds": st.integers(1, 600)}),
    "bribe": st.fixed_dictionaries({
        "v": NUMBER, "epsilon": NUMBER, "delta": st.integers(0, 40),
        "rho_prime": FRACTION, "s": st.integers(0, 60), "mu": NUMBER,
        "p_success": FRACTION}),
    "takeover": st.fixed_dictionaries({
        "ell": st.integers(1, 5), "p": FRACTION, "q": FRACTION}),
    "kz-bounds": st.fixed_dictionaries({
        "ell": st.integers(0, 5), "kappa": st.integers(0, 6),
        "epsilon": FRACTION}),
    "tie-fraction": st.fixed_dictionaries(
        {"comb": st.sampled_from(("concat", "majority", "iterated_majority",
                                  "tribes")),
         "kappa": st.integers(0, 6)},
        optional={"w": st.integers(0, 9)}),
    # the Monte-Carlo kinds, bounded so that an example stays cheap
    "dense-dos": st.fixed_dictionaries(
        {"ell": st.integers(1, 5), "f": st.floats(0, 0.2), "g0_seconds": NUMBER},
        optional={"blocks": st.just(1000)}),
    "ppcoin-mk": st.fixed_dictionaries(
        {"blocks": st.integers(1, 10 ** 4)},
        optional={"stake": FRACTION, "k": st.integers(1, 8)}),
    "fork-rate": st.fixed_dictionaries({"seconds": st.integers(1, 10 ** 5)}),
    "timeweight": st.fixed_dictionaries(
        {"version": st.sampled_from(("v0.2", "v0.3", "v0.4")), "stake": FRACTION,
         "multiplier": NUMBER, "trials": st.integers(1000, 2000)},
        optional={"saturated": st.booleans()}),
    "mu": st.fixed_dictionaries(
        {"comb": st.sampled_from(("concat", "majority", "iterated_majority",
                                  "tribes")),
         "kappa": st.integers(1, 6), "p": FRACTION,
         "trials": st.integers(1000, 2000)},
        optional={"w": st.integers(1, 3)}),
    "issuance": st.fixed_dictionaries(
        {"steps": st.integers(1, 50)},
        optional={"cost": NUMBER, "demand": NUMBER, "difficulty": FRACTION,
                  "min_gap": NUMBER}),
}


def test_every_analysis_kind_is_drawn():
    assert set(ANALYSIS_PARAMS) == set(attacks.ANALYSES)


@st.composite
def analysis_configs(draw):
    kind = draw(st.sampled_from(sorted(ANALYSIS_PARAMS)))
    return dict(draw(_optional(name=st.just("analysis"),
                               seed=st.integers(0, 2 ** 16))),
                attack={"kind": kind, "params": draw(ANALYSIS_PARAMS[kind])})


def _slots(value):
    """Every (container, key) in a config, the root's keys included."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield value, key
        if isinstance(child, (dict, list)):
            yield from _slots(child)


@st.composite
def raw_configs(draw):
    config = draw(st.one_of(engine_configs(), analysis_configs()))
    mutation = draw(st.sampled_from(("none", "none", "unknown-key",
                                     "wrong-type")))
    if mutation != "none":
        slots = list(_slots(config))
        container, key = draw(st.sampled_from(slots))
        if mutation == "wrong-type":
            container[key] = draw(st.sampled_from(WRONG_VALUES))
        elif isinstance(container, dict):
            container["unknown_key"] = 1
    return config


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


@settings(derandomize=True, database=None, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(raw_configs())
def test_validate_config_accepts_only_what_runs(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(raw))
        checked, check_err = _cli("validate-config", "--config", str(path))
        ran, run_err = _cli("run", "--config", str(path), "--out",
                            str(Path(tmp) / "out"))
    for code, err in ((checked, check_err), (ran, run_err)):
        assert code in (EXIT_OK, EXIT_CONFIG_ERROR), (raw, err)
        assert code == EXIT_OK or FIELD.search(err), (raw, err)
    if checked == EXIT_OK and ran != EXIT_OK:
        # only an analysis can find a bad param by running
        assert "config error: attack.params" in run_err, (raw, run_err)
    if checked != EXIT_OK:
        assert ran == EXIT_CONFIG_ERROR, (raw, run_err)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(engine_configs())
def test_a_config_resolves_every_param_of_its_engine(raw):
    """An accepted engine config holds kappa and each of its engine's params,
    as given or else its default, and its dict form reads back to itself."""
    try:
        config = config_from_dict(raw)
    except ConfigError:
        reject()
    engine = ENGINES[config.protocol]
    resolved = config.to_dict()
    assert set(resolved["params"]) == {"kappa", *engine.params}
    defaults = {key: default for key, (_kind, default) in engine.params.items()}
    assert resolved["params"] == {**defaults, **raw["params"]}
    assert config_from_dict(resolved).to_dict() == resolved
