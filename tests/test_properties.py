"""Validation equals execution: a config `validate-config` accepts runs.

Raw configs are drawn for each engine and each analysis kind in turn, with
random strategies and, now and then, an unknown key or a value of the wrong
type. Both commands go through ``cli.main``.
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
def engine_configs(draw, protocols=tuple(ENGINES)):
    protocol = draw(st.sampled_from(protocols))
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


# each leads with values the analyses accept, so that every kind runs now
# and then, and goes on to draw ones they reject
NUMBER = st.one_of(st.floats(0.5, 1000), st.integers(-5, 1000),
                   st.floats(-1, 1000))
FRACTION = st.one_of(st.floats(0.05, 0.45), st.floats(0, 1.2))
COUNT = st.one_of(st.integers(1, 40), st.integers(-1, 40))

ANALYSIS_PARAMS = {
    "claim1": st.fixed_dictionaries({
        "v": NUMBER, "epsilon": NUMBER, "rho_prime": FRACTION,
        "delta": st.integers(0, 40)}),
    "claim2": st.fixed_dictionaries(
        {"v": NUMBER, "epsilon": NUMBER, "rho": st.floats(0.5, 1.2),
         "k": COUNT},
        optional={"g0_seconds": st.integers(1, 600)}),
    "bribe": st.fixed_dictionaries({
        "v": NUMBER, "epsilon": NUMBER, "delta": st.integers(0, 40),
        "rho_prime": FRACTION, "s": st.integers(0, 60), "mu": NUMBER,
        "p_success": FRACTION}),
    "takeover": st.fixed_dictionaries({
        "ell": st.integers(1, 5), "p": FRACTION, "q": FRACTION}),
    "kz-bounds": st.one_of(st.integers(2, 6), st.integers(0, 6)).flatmap(
        lambda kappa: st.fixed_dictionaries({
            "ell": st.sampled_from((kappa, 3 * kappa, 5)),
            "kappa": st.just(kappa), "epsilon": FRACTION})),
    "tie-fraction": st.fixed_dictionaries(
        {"comb": st.sampled_from(("concat", "majority", "iterated_majority",
                                  "tribes")),
         "kappa": COUNT},
        optional={"w": st.integers(0, 9)}),
    # the Monte-Carlo kinds, bounded so that an example stays cheap
    "dense-dos": st.fixed_dictionaries(
        {"ell": st.integers(1, 5), "f": st.floats(0, 0.2), "g0_seconds": NUMBER},
        optional={"blocks": st.just(1000)}),
    "ppcoin-mk": st.fixed_dictionaries(
        {"blocks": st.sampled_from((10 ** 4, 1, 100))},
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
def analysis_configs(draw, kind):
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
def raw_configs(draw, kind):
    """A config of `kind` (an engine or an analysis kind), then maybe one
    mutation of it."""
    config = draw(engine_configs((kind,)) if kind in ENGINES
                  else analysis_configs(kind))
    mutation = draw(st.sampled_from(("none", "none", "none", "unknown-key",
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


KINDS = (*ENGINES, *sorted(ANALYSIS_PARAMS))
EXAMPLES_PER_KIND = 10  # 150 examples over the 15 kinds


def test_validate_config_accepts_only_what_runs():
    """For each kind in turn, whatever `validate-config` accepts runs, and
    whatever it rejects fails to run, naming a field. Each kind runs to exit
    0 at least once, so the property holds on successful runs of each."""
    for kind in KINDS:
        exits = []

        @settings(derandomize=True, database=None, deadline=None,
                  max_examples=EXAMPLES_PER_KIND,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(raw_configs(kind))
        def check(raw):
            exits.append(_validate_then_run(raw))

        check()
        assert EXIT_OK in exits, kind


def _validate_then_run(raw) -> int:
    """The exit code of `run` on `raw`, after checking it against that of
    `validate-config`."""
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
    return ran


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
