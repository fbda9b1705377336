import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import pytest

from poslab.attacks import ANALYSES
from poslab.cli import (EXIT_CONFIG_ERROR, EXIT_OK, EXIT_REPRO_FAILURE, main)
from poslab.netsim import ConfigError, resolve_params, run_scenario
from poslab.scenarios import REPRODUCTIONS, SCENARIOS, run_reproduction


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _no_constant(name):
    raise ValueError("%s is not JSON" % name)


def read_metrics(path):
    """A metrics.json, parsed as strict JSON: NaN or Infinity fails."""
    return json.loads(path.read_text(), parse_constant=_no_constant)


def test_run_bundled_scenario_writes_artifacts(tmp_path, capsys):
    out = str(tmp_path / "run1")
    code, stdout, _err = run_cli(capsys, "run", "--config", "coa-baseline",
                                 "--seed", "7", "--out", out)
    assert code == EXIT_OK
    manifest = json.loads((tmp_path / "run1" / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["trace_digest"] in stdout
    assert (tmp_path / "run1" / "events.jsonl").exists()
    assert (tmp_path / "run1" / "metrics.csv").exists()


def test_run_same_seed_same_digest(tmp_path, capsys):
    """Two runs write the same events and manifest, bar `out` and the
    measured `run_seconds`, `write_seconds` and `peak_rss_mb`, which are
    positive."""
    manifests, events = [], []
    for sub in ("a", "b"):
        out = tmp_path / sub
        run_cli(capsys, "run", "--config", "coa-baseline", "--seed", "5",
                "--out", str(out))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest.pop("run_seconds") > 0
        assert manifest.pop("write_seconds") > 0
        assert manifest.pop("peak_rss_mb") > 0
        manifests.append(dict(manifest, out=None))
        events.append((out / "events.jsonl").read_text())
    assert manifests[0] == manifests[1]
    assert events[0] == events[1]


def test_run_profile_writes_pstats_and_keeps_the_digest(tmp_path, capsys):
    """--profile adds profile.pstats, which pstats loads, to the artifacts;
    the trace is the same as without the flag."""
    import pstats
    digests, events = [], []
    for sub, flags in (("plain", ()), ("profiled", ("--profile",))):
        out = tmp_path / sub
        code, _o, _e = run_cli(capsys, "run", "--config", "coa-baseline",
                               "--out", str(out), *flags)
        assert code == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        digests.append(manifest["trace_digest"])
        events.append((out / "events.jsonl").read_text())
    assert digests[0] == digests[1] and events[0] == events[1]
    assert manifest["artifacts"] == ["events.jsonl", "metrics.csv",
                                     "profile.pstats"]
    stats = pstats.Stats(str(tmp_path / "profiled" / "profile.pstats"))
    assert any(name == "run_scenario" for _f, _l, name in stats.stats)
    assert not (tmp_path / "plain" / "profile.pstats").exists()


def test_run_json_format(tmp_path, capsys):
    out = str(tmp_path / "runj")
    code, _o, _e = run_cli(capsys, "run", "--config", "claim1", "--out", out,
                           "--format", "json")
    assert code == EXIT_OK
    metrics = read_metrics(tmp_path / "runj" / "metrics.json")
    assert metrics["s"] == 42


def test_run_config_file(tmp_path, capsys):
    config = {
        "protocol": "coa",
        "params": {"kappa": 4, "g0_seconds": 300},
        "stake": [["alice", 6], ["bob", 5], ["carol", 5]],
        "duration": {"slots": 5},
        "seed": 3,
    }
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(config))
    out = str(tmp_path / "runc")
    code, stdout, _e = run_cli(capsys, "run", "--config", str(path),
                               "--out", out)
    assert code == EXIT_OK
    assert "mean_interval" in stdout


def test_run_unknown_config_is_config_error(capsys):
    code, _o, err = run_cli(capsys, "run", "--config", "no-such-thing")
    assert code == EXIT_CONFIG_ERROR
    assert "no-such-thing" in err


def test_reproduce_single_and_all(tmp_path, capsys):
    code, stdout, _e = run_cli(capsys, "reproduce", "claim2")
    assert code == EXIT_OK
    assert "42" in stdout and "pass" in stdout
    out = str(tmp_path / "rep")
    code, stdout, _e = run_cli(capsys, "reproduce", "claim1", "--out", out,
                               "--format", "json")
    assert code == EXIT_OK
    payload = json.loads((tmp_path / "rep" / "reproduce.json").read_text())
    assert payload[0]["id"] == "claim1"
    assert payload[0]["verdict"] == "pass"


def test_reproduce_manifest_times_every_id_and_leaves_the_table_alone(
        tmp_path, monkeypatch, capsys):
    import poslab.cli as cli
    from poslab import __version__
    from poslab.scenarios import ReproResult
    monkeypatch.setattr(cli, "run_reproduction", lambda repro_id, seed:
                        ReproResult(repro_id, "1", "1.0", "exact", True))
    out = tmp_path / "rep"
    code, stdout, _e = run_cli(capsys, "reproduce", "all", "--seed", "3",
                               "--out", str(out), "--format", "json")
    assert code == EXIT_OK
    # the table holds the rows and nothing else, as it did before the manifest
    table = [{"id": i, "expected": "1", "computed": "1.0",
              "tolerance": "exact", "verdict": "pass"} for i in REPRODUCTIONS]
    assert (out / "reproduce.json").read_text() == stdout \
        == json.dumps(table, indent=2) + "\n"
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["seconds"]) == sorted(REPRODUCTIONS)
    assert all(s >= 0 for s in manifest["seconds"].values())
    assert manifest["peak_rss_mb"] > 0
    # each id's peak is read right after it, in the one process
    by_id = manifest["peak_rss_mb_by_id"]
    assert sorted(by_id) == sorted(REPRODUCTIONS)
    peaks = [by_id[i] for i in REPRODUCTIONS]     # in table order
    assert peaks == sorted(peaks) and peaks[-1] <= manifest["peak_rss_mb"]
    assert (manifest["seed"], manifest["jobs"], manifest["poslab_version"],
            manifest["artifacts"]) == (3, 1, __version__, ["reproduce.json"])
    code, _o, _e = run_cli(capsys, "reproduce", "claim2", "--out",
                           str(tmp_path / "one"))
    manifest = json.loads((tmp_path / "one" / "manifest.json").read_text())
    assert list(manifest["seconds"]) == ["claim2"]
    assert manifest["artifacts"] == ["reproduce.csv"]


def test_reproduce_unknown_id(capsys):
    code, _o, err = run_cli(capsys, "reproduce", "nonsense")
    assert code == EXIT_CONFIG_ERROR
    assert "nonsense" in err
    assert "config error: id:" in err


def test_reproduce_failure_exit_code(monkeypatch, capsys):
    import poslab.cli as cli
    from poslab.scenarios import ReproResult

    def fake(repro_id, seed):
        return ReproResult(repro_id, "x", "y", "exact", False)

    monkeypatch.setattr(cli, "run_reproduction", fake)
    code, stdout, _e = run_cli(capsys, "reproduce", "claim1")
    assert code == EXIT_REPRO_FAILURE
    assert "FAIL" in stdout


@pytest.mark.parametrize("jobs, workers", [("2", 2), ("5000", 3)])
def test_reproduce_pool_has_no_more_workers_than_reproductions(
        monkeypatch, capsys, jobs, workers):
    import concurrent.futures

    import poslab.cli as cli
    from poslab.scenarios import ReproResult
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(cli, "REPRODUCTIONS", dict.fromkeys(("a", "b", "c")))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(cli, "run_reproduction", lambda repro_id, seed:
                        ReproResult(repro_id, "x", "x", "exact", True))
    code, _o, _e = run_cli(capsys, "reproduce", "all", "--jobs", jobs)
    assert code == EXIT_OK
    assert sizes == [workers]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_reproduce_rejects_jobs_below_one(monkeypatch, capsys, jobs):
    import poslab.cli as cli
    monkeypatch.setattr(cli, "run_reproduction", None)   # never reached
    code, _o, err = run_cli(capsys, "reproduce", "claim1", "--jobs", jobs)
    assert code == EXIT_CONFIG_ERROR
    assert "--jobs" in err


def test_a_config_error_in_a_pool_worker_exits_2_naming_the_field(
        monkeypatch, capsys):
    """A reproduction set that fails its param check, or whose calculator
    rejects a param, exits 2 naming `<id>.params.<key>`, in-process and in
    a worker of a two-process pool. The pool forks, so the workers see the
    patched table."""
    import poslab.cli as cli
    import poslab.scenarios as scenarios
    for repro_id, change, error in (
            ("claim1", {"delta": 19.5}, "claim1.params.delta: must be an integer"),
            ("mu-concat", {"comb": "tribes"},
             "mu-concat.params.comb: unknown comb kind 'tribes'"),
            ("fork-rate", {"seconds": 5},
             "fork-rate.params: no second had two solves")):
        repro = REPRODUCTIONS[repro_id]
        bad = dataclasses.replace(repro, param_sets=(
            dict(repro.param_sets[0], **change),))
        table = {repro_id: bad, "claim2": REPRODUCTIONS["claim2"]}
        monkeypatch.setattr(cli, "REPRODUCTIONS", table)
        monkeypatch.setattr(scenarios, "REPRODUCTIONS", table)
        for jobs in ("1", "2"):
            code, _o, err = run_cli(capsys, "reproduce", "all", "--jobs", jobs)
            assert code == EXIT_CONFIG_ERROR
            assert "config error: %s" % error in err


def test_reproduce_in_a_pool_records_its_jobs_and_the_workers_peak_rss(
        tmp_path, monkeypatch, capsys):
    """``reproduce --jobs 2 --out`` over two reproductions writes a manifest
    with its jobs and a peak RSS that also reads the pool's workers. The
    pool forks, so the workers see the patched table."""
    import resource

    import poslab.cli as cli
    import poslab.scenarios as scenarios
    table = {key: REPRODUCTIONS[key] for key in ("claim1", "claim2")}
    monkeypatch.setattr(cli, "REPRODUCTIONS", table)
    monkeypatch.setattr(scenarios, "REPRODUCTIONS", table)
    peak_rss_mb, asked = cli._peak_rss_mb, []
    monkeypatch.setattr(cli, "_peak_rss_mb",
                        lambda who: asked.append(who) or peak_rss_mb(who))
    out = tmp_path / "rep"
    code, _o, _e = run_cli(capsys, "reproduce", "all", "--jobs", "2",
                           "--out", str(out))
    assert code == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["jobs"], sorted(manifest["seconds"])) == (
        2, ["claim1", "claim2"])
    assert manifest["peak_rss_mb"] > 0
    by_id = manifest["peak_rss_mb_by_id"]
    assert sorted(by_id) == ["claim1", "claim2"]
    assert 0 < max(by_id.values()) <= manifest["peak_rss_mb"]
    assert asked == [resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN]


@pytest.mark.parametrize("argv", [
    ("run", "--config", "coa-baseline", "--out", "{file}"),
    ("run", "--config", "coa-baseline", "--out", "{file}/sub"),
    ("reproduce", "claim1", "--out", "{file}"),
    ("reproduce", "claim1", "--out", "{file}/sub"),
])
def test_out_that_cannot_be_a_directory_is_a_config_error(
        tmp_path, monkeypatch, capsys, argv):
    import poslab.cli as cli
    # the directory is made before any work starts
    monkeypatch.setattr(cli, "run_scenario", None)
    monkeypatch.setattr(cli, "run_reproduction", None)
    path = tmp_path / "afile"
    path.write_text("x")
    code, _o, err = run_cli(capsys, *(a.format(file=path) for a in argv))
    assert code == EXIT_CONFIG_ERROR
    assert "--out" in err


@pytest.mark.parametrize("command", ["run", "validate-config"])
@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_config_is_a_config_error(tmp_path, capsys, command, kind):
    path = tmp_path / "config.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"protocol": "\xff\xfe"}')
    code, _o, err = run_cli(capsys, command, "--config", str(path),
                            *(("--out", str(tmp_path / "out"))
                              if command == "run" else ()))
    assert code == EXIT_CONFIG_ERROR
    assert "--config" in err


def test_list_scenarios(capsys):
    code, stdout, _e = run_cli(capsys, "list-scenarios")
    assert code == EXIT_OK
    assert "coa-baseline" in stdout
    assert "reproduction ids:" in stdout
    for repro_id in REPRODUCTIONS:
        assert repro_id in stdout


def test_validate_config_good_and_bad(tmp_path, capsys):
    good = {
        "protocol": "coa",
        "params": {"kappa": 4},
        "stake": [["alice", 16]],
    }
    path = tmp_path / "good.json"
    path.write_text(json.dumps(good))
    code, stdout, _e = run_cli(capsys, "validate-config", "--config", str(path))
    assert code == EXIT_OK and "ok:" in stdout

    bad = dict(good, stake=[["alice", 10], ["bob", 5]])
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    code, _o, err = run_cli(capsys, "validate-config", "--config",
                            str(bad_path))
    assert code == EXIT_CONFIG_ERROR
    # the error names the offending field and the numbers involved
    assert "stake" in err and "15" in err and "16" in err


def test_reproductions_all_pass_quick_subset():
    # the fast ones run directly; the slow Monte Carlo ones are covered by
    # the acceptance suite
    for repro_id in ("claim1", "claim2", "takeover", "kz-bounds",
                     "mu-majority"):
        result = run_reproduction(repro_id, seed=0)
        assert result.passed, (repro_id, result.computed)


def test_reproduction_param_sets_obey_their_analysis_declarations():
    """Every param set, merged over its scenario's params, resolves against
    the scenario's analysis's declared params, so none holds an unknown
    key, a value of the wrong kind or too few params; this runs no
    calculator."""
    for repro_id, repro in REPRODUCTIONS.items():
        attack = SCENARIOS[repro.scenario].attack
        declared = ANALYSES[attack["kind"]].params
        for p in repro.param_sets:
            resolved = resolve_params({**attack["params"], **p}, declared,
                                      repro_id + ".params.")
            assert set(resolved) == set(declared), repro_id


def test_a_reproduction_names_only_the_params_it_changes():
    """Each param a reproduction's sets name moves its scenario's value in
    at least one set: a sweep may name the scenario's own value in one."""
    for repro_id, repro in REPRODUCTIONS.items():
        attack = SCENARIOS[repro.scenario].attack
        given = resolve_params(attack["params"],
                               ANALYSES[attack["kind"]].params, "")
        for key in set().union(*repro.param_sets):
            assert any(p.get(key, given[key]) != given[key]
                       for p in repro.param_sets), (repro_id, key)


@pytest.mark.parametrize("repro_id", [
    repro_id for repro_id, repro in REPRODUCTIONS.items()
    if repro.param_sets == ({},)])
def test_a_reproduction_that_changes_no_param_judges_its_scenario(
        repro_id, monkeypatch):
    """A reproduction whose one param set is empty hands its verdict the
    params and metrics (bar `kind`) of its bundled scenario's run at the
    same seed."""
    repro, judged = REPRODUCTIONS[repro_id], []
    monkeypatch.setitem(REPRODUCTIONS, repro_id, dataclasses.replace(
        repro, verdict=lambda p, m: judged.append((p, m)) or ("", True)))
    for seed in (0, 5694):
        run_reproduction(repro_id, seed)
        config = dataclasses.replace(SCENARIOS[repro.scenario], seed=seed)
        metrics = dict(run_scenario(config).metrics)
        del metrics["kind"]
        assert judged.pop() == (config.attack["params"], metrics)


def test_reproduce_all_table_at_seed_0_is_pinned(capsys):
    """``reproduce all --format json`` at seed 0 writes the same bytes, so
    a reproduction whose params drift fails here."""
    code, stdout, _e = run_cli(capsys, "reproduce", "all", "--seed", "0",
                               "--format", "json")
    assert code == EXIT_OK
    assert hashlib.sha256(stdout.encode()).hexdigest() == (
        "ab03760e4e6cf0b97135c11ee537c0ee372a1328527f9768e83a7c94302e087a")


def test_reproduction_resolves_its_params_before_running(monkeypatch):
    bad = dataclasses.replace(REPRODUCTIONS["claim1"], param_sets=(
        {"v": 100, "epsilon": 10, "rho_prime": 0.7, "delta": 19.5},))
    monkeypatch.setitem(REPRODUCTIONS, "claim1", bad)
    with pytest.raises(ConfigError, match=r"^claim1\.params\.delta: "):
        run_reproduction("claim1")


def _config_with(params=None, **kw):
    config = {
        "protocol": "coa",
        "params": dict({"kappa": 4}, **(params or {})),
        "stake": [["alice", 6], ["bob", 5], ["carol", 5]],
        "duration": {"slots": 5},
    }
    config.update(kw)
    return config


def _analysis(kind, **params):
    return {"attack": {"kind": kind, "params": params}}


CLAIM1 = {"v": 100, "epsilon": 10, "rho_prime": 0.7, "delta": 20}


@pytest.mark.parametrize("config, field", [
    (_config_with({"t0": 7}), "params.t0"),
    (_config_with({"comb": "tribes"}), "params.comb"),
    (_config_with({"comb": "majority", "w": 2}), "params.w"),
    (_config_with({"c0": 4, "c1": 3}), "params.c1"),
    (_config_with(delays={"distribution": "pareto"}), "delays.distribution"),
    (_analysis("nonsense"), "attack.kind"),
    (_analysis("claim1", epsilon=10, rho_prime=0.7, delta=20), "attack.params.v"),
    (_config_with(behaviors={"bob": {"strategy": "bribe-acceptor"}}),
     "behaviors.bob.strategy"),
    (_config_with(duration={"seconds": 10 ** 6}), "duration.slots"),
    (_config_with(protocol="dense_coa", duration={"seconds": 600}),
     "duration.seconds"),
    (_config_with(protocol="ppcoin", duration={"slots": 5}), "duration.slots"),
    (_config_with(protocol="dense_coa", duration={"slots": 0}),
     "duration.slots"),
    (_config_with(delays=5), "delays"),
    (_config_with(delays={"min": "a"}), "delays.min"),
    (_config_with(delays={"max": float("inf")}), "delays.max"),
    (_config_with(clock_drift_max="abc"), "clock_drift_max"),
    (_config_with(clock_drift_max=float("nan")), "clock_drift_max"),
    (_config_with({"g0_seconds": "x"}), "params.g0_seconds"),
    (_config_with({"w": 1.0}), "params.w"),
    (_config_with({"c0": "4"}), "params.c0"),
    (_config_with({"c1": None}), "params.c1"),
    (_config_with({"t0": 8.0}), "params.t0"),
    (_config_with({"timestamp_leniency": True}), "params.timestamp_leniency"),
    (_config_with({"g0_seconds": "x"}, protocol="dense_coa"),
     "params.g0_seconds"),
    (_config_with({"ell": "x"}, protocol="dense_coa"), "params.ell"),
    (_config_with({"target_interval": "x"}, protocol="ppcoin",
                  duration={"seconds": 600}), "params.target_interval"),
    (_config_with({"max_tips": 0}, protocol="ppcoin",
                  duration={"seconds": 600}), "params.max_tips"),
    (_config_with({"t0": -2}), "params.t0"),
    (_config_with({"t0": 0}), "params.t0"),
    (_config_with({"timestamp_leniency": -5}), "params.timestamp_leniency"),
    (_config_with({"g0_seconds": -5}), "params.g0_seconds"),
    (_config_with({"g0_seconds": 0}), "params.g0_seconds"),
    (_config_with({"c0": -1}), "params.c0"),
    (_config_with({"c1": -1}), "params.c1"),
    (_config_with(duraton={"slots": 3}), "duraton"),
    (_config_with({"tO": 4}), "params.tO"),
    (_config_with(delays={"mn": 0.5}), "delays.mn"),
    (_config_with(behaviors={"bob": {"strategy": "offline", "params": {}}}),
     "behaviors.bob.params"),
    (_analysis("fork-rate", second=10), "attack.params.second"),
    (dict(_analysis("claim1", **CLAIM1), protocol="coa"), "protocol"),
    (dict(_analysis("claim1", **CLAIM1), stake=[["alice", 16]]), "stake"),
    (dict(_analysis("claim1", **CLAIM1), duration={"slots": 1}), "duration"),
    (_config_with({"kappa": True}, stake=[["alice", 1], ["bob", 1]]),
     "params.kappa"),
    (_config_with(clock_drift_max=-5), "clock_drift_max"),
    (_config_with({"ell": 3}), "params.ell"),
    (_config_with(protocol="ppcoin", duration={"seconds": 600},
                  params={"kappa": 4, "t0": 8}), "params.t0"),
    ({"attack": {"kind": "claim1", "params": CLAIM1, "seed": 3}}, "attack.seed"),
    (dict(_analysis("claim1", **CLAIM1), seed=True), "seed"),
    (_config_with(seed=2.0), "seed"),
    (dict(_analysis("claim1", **CLAIM1), name=5), "name"),
    (_config_with(name=["coa"]), "name"),
    (_analysis("claim2", v=100, epsilon=10, rho=0.7, k=20, g0_seconds="x"),
     "attack.params.g0_seconds"),
    (_analysis("claim1", **dict(CLAIM1, v="x")), "attack.params.v"),
    (_analysis("claim1", **dict(CLAIM1, epsilon=True)), "attack.params.epsilon"),
    (_analysis("claim1", **dict(CLAIM1, delta=float("inf"))),
     "attack.params.delta"),
    (_analysis("mu", comb=5, kappa=8, p=0.05), "attack.params.comb"),
    (_analysis("timeweight", version=2, stake=0.2, multiplier=2),
     "attack.params.version"),
    (_analysis("timeweight", version="v0.2", stake=0.2, multiplier=2,
               saturated="no"), "attack.params.saturated"),
    (_analysis("fork-rate", seconds=10.5), "attack.params.seconds"),
    (_analysis("fork-rate", seconds=0), "attack.params.seconds"),
    (_analysis("dense-dos", ell=3, f=0.1, g0_seconds=300, blocks=True),
     "attack.params.blocks"),
    (_analysis("mu", comb="concat", kappa=8, p=0.05, trials=-1),
     "attack.params.trials"),
    (_analysis("issuance", steps="400"), "attack.params.steps"),
    (_analysis("ppcoin-mk", k=2.5), "attack.params.k"),
    (_analysis("mu", comb="concat", kappa=8.0, p=0.05), "attack.params.kappa"),
    (_analysis("kz-bounds", ell=4.5, kappa=51, epsilon=0.1), "attack.params.ell"),
    (_analysis("tie-fraction", comb="majority", kappa=1, w=3.0),
     "attack.params.w"),
    (_config_with(protocol="ppcoin", duration={"seconds": 600},
                  behaviors={"bob": {"strategy": "offline"}}),
     "behaviors.bob.strategy"),
    (_config_with(behaviors={"bob": {"strategy": "ppcoin-multifork"}}),
     "behaviors.bob.strategy"),
    (_config_with(protocol="dense_coa",
                  behaviors={"bob": {"strategy": "ppcoin-multifork"}}),
     "behaviors.bob.strategy"),
    (_config_with({"kappa": 65}), "params.kappa"),
    ({k: v for k, v in _config_with().items() if k != "params"},
     "params.kappa"),
    (dict(_config_with(), params=[4]), "params"),
    (_config_with(stake=[]), "stake"),
    (_config_with(stake="alice"), "stake"),
    (_config_with(behaviors=["bob"]), "behaviors"),
    (_config_with(behaviors={"bob": {}}), "behaviors.bob.strategy"),
    (_config_with(behaviors={"bob": "offline"}), "behaviors.bob"),
    (_config_with(protocol=["coa"]), "protocol"),
    ({"attack": "claim1"}, "attack"),
    ({"attack": {"kind": ["claim1"], "params": CLAIM1}}, "attack.kind"),
    ({"attack": {"kind": "claim1", "params": [1]}}, "attack.params"),
    (_config_with(duration=[5]), "duration"),
    (_config_with(protocol="ppcoin", duration={"seconds": 600},
                  delays={"min": 50, "max": 900}), "delays"),
    (_config_with(protocol="ppcoin", duration={"seconds": 600},
                  clock_drift_max=500), "clock_drift_max"),
    (_config_with(protocol="dense_coa", clock_drift_max=500),
     "clock_drift_max"),
    (_config_with(stake=[["alice", 6], ["bob", 5], ["alice", 5]]), "stake[2]"),
    (_config_with(protocol="ppcoin", duration={"seconds": 600},
                  stake=[["a", 12], ["a", 4]]), "stake[1]"),
    (_analysis("claim1", **dict(CLAIM1, delta=19.5)), "attack.params.delta"),
    (_analysis("bribe", v=100, epsilon=10, delta=19, rho_prime=0.7, s=42.5,
               mu=5.0, p_success=0.5), "attack.params.s"),
    ([1], "<root>"),
    # a block's timestamp, and each engine's time params, fit a u64
    (_config_with(clock_drift_max=1e308), "clock_drift_max"),
    (_config_with({"g0_seconds": 10 ** 30}), "params.g0_seconds"),
    (_config_with({"g0_seconds": 10 ** 18}), "params.g0_seconds"),
    (_config_with(duration={"slots": 10 ** 17}), "duration.slots"),
    (_config_with({"timestamp_leniency": 2 ** 64}), "params.timestamp_leniency"),
    (_config_with({"target_interval": 10 ** 400}, protocol="ppcoin",
                  duration={"seconds": 600}), "params.target_interval"),
    (_config_with({"g0_seconds": 10 ** 400}, protocol="dense_coa"),
     "params.g0_seconds"),
    (_analysis("claim2", v=10 ** 400, epsilon=1, rho=0.7, k=1), "attack.params.v"),
])
def test_rejected_config_names_field_in_validate_and_run(tmp_path, capsys,
                                                          config, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    for argv in (("validate-config", "--config", str(path)),
                 ("run", "--config", str(path), "--out", str(tmp_path / "o"))):
        code, _o, err = run_cli(capsys, *argv)
        assert code == EXIT_CONFIG_ERROR, (argv[0], err)
        assert field + ":" in err, (argv[0], err)


def test_key_error_is_not_reported_as_a_config_error(tmp_path, monkeypatch):
    import poslab.netsim as netsim

    def broken_engine(config):
        raise KeyError("bug")

    monkeypatch.setitem(netsim.ENGINES, "coa",
                        netsim.ENGINES["coa"]._replace(run=broken_engine))
    with pytest.raises(KeyError):
        main(["run", "--config", "coa-baseline", "--out", str(tmp_path)])


def test_digest_does_not_depend_on_the_hash_seed(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    digests = []
    for hash_seed in ("0", "1"):
        out = tmp_path / hash_seed
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, (src, os.environ.get("PYTHONPATH")))))
        subprocess.run([sys.executable, "-m", "poslab.cli", "run", "--config",
                        "coa-offline", "--out", str(out)],
                       env=env, check=True, capture_output=True)
        digests.append(json.loads((out / "manifest.json").read_text())
                       ["trace_digest"])
    assert digests[0] == digests[1]


def test_importing_the_cli_leaves_numpy_random_unloaded():
    """``poslab run`` loads numpy.random before it starts its timer, so
    ``run_seconds`` times only the run; importing the CLI must not load it,
    or every start-up would pay for it."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    probe = subprocess.run(
        [sys.executable, "-c", "import sys, poslab.cli; "
         "print('numpy' in sys.modules, 'numpy.random' in sys.modules)"],
        env=env, check=True, capture_output=True, text=True)
    assert probe.stdout.split() == ["True", "False"]


@pytest.mark.parametrize("attack, field", [
    (_analysis("takeover", ell=459, p=0.5, q=0.5), "attack.params"),
    (_analysis("claim1", **dict(CLAIM1, epsilon=0)), "attack.params"),
    (_analysis("mu", comb="tribes", kappa=8, p=0.05), "attack.params.comb"),
    (_analysis("claim1", **dict(CLAIM1, rho_prime=1.5)), "attack.params"),
    (_analysis("dense-dos", ell=23, f=0.5, g0_seconds=300), "attack.params"),
    (_analysis("claim2", v=1e308, epsilon=1e-308, rho=0.7, k=1), "attack.params"),
    (_analysis("fork-rate", seconds=5), "attack.params"),
    (_analysis("issuance", cost=0), "attack.params"),
    # out of range, though each is of its param's kind
    (_analysis("issuance", cost=-1), "attack.params"),
    (_analysis("issuance", demand=-5), "attack.params"),
    (_analysis("issuance", difficulty=-1), "attack.params"),
    (_analysis("dense-dos", ell=5, f=0.1, g0_seconds=-300), "attack.params"),
    (_analysis("dense-dos", ell=5, f=-0.5, g0_seconds=300), "attack.params"),
    (_analysis("claim1", **dict(CLAIM1, delta=-3)), "attack.params"),
    (_analysis("bribe", **dict(CLAIM1, s=42, mu=-1, p_success=0.5)),
     "attack.params"),
    (_analysis("bribe", **dict(CLAIM1, s=42, mu=5, p_success=2)),
     "attack.params"),
    # out of memory: each first array is 2^57 to 2^63 bytes, so numpy's
    # allocation fails at once, under any overcommit setting
    (_analysis("timeweight", version="v0.3", stake=0.1, multiplier=2,
               trials=10 ** 15), "attack.params"),
    (_analysis("mu", comb="majority", kappa=4, w=3, p=0.1, trials=10 ** 17),
     "attack.params"),
    (_analysis("issuance", steps=10 ** 17), "attack.params"),
    (_analysis("bribe", **dict(CLAIM1, delta=19, s=10 ** 17, mu=5.0,
                               p_success=0.5)), "attack.params"),
])
def test_analysis_param_error_found_by_run_exits_2(tmp_path, capsys, attack,
                                                   field):
    path = tmp_path / "analysis.json"
    path.write_text(json.dumps(attack))
    code, _o, _e = run_cli(capsys, "validate-config", "--config", str(path))
    assert code == EXIT_OK
    code, _o, err = run_cli(capsys, "run", "--config", str(path),
                            "--out", str(tmp_path / "o"))
    assert code == EXIT_CONFIG_ERROR
    assert "config error: %s:" % field in err, err


def test_dense_dos_names_a_stake_fraction_out_of_range(tmp_path, capsys):
    path = tmp_path / "analysis.json"
    path.write_text(json.dumps(_analysis("dense-dos", ell=5, f=-0.5,
                                         g0_seconds=300)))
    code, _o, err = run_cli(capsys, "run", "--config", str(path),
                            "--out", str(tmp_path / "o"))
    assert code == EXIT_CONFIG_ERROR
    assert "f=-0.5" in err and "p < 0" not in err, err


def test_dense_run_without_a_clean_committee_ends_at_a_stall(tmp_path, capsys):
    config = {"protocol": "dense_coa", "params": {"kappa": 4, "ell": 3},
              "stake": [["alice", 8], ["bob", 8]],
              "behaviors": {"alice": {"strategy": "offline"},
                            "bob": {"strategy": "offline"}},
              "duration": {"slots": 3}}
    path = tmp_path / "stall.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "o"
    code, _o, _e = run_cli(capsys, "run", "--config", str(path), "--out",
                           str(out), "--format", "json")
    assert code == EXIT_OK
    metrics = read_metrics(out / "metrics.json")
    assert (metrics["blocks"], metrics["mean_interval"]) == (0, 0.0)
    events = (out / "events.jsonl").read_text().splitlines()
    assert [json.loads(e) for e in events] == [
        {"event": "stall", "index": 1, "fallbacks": 0}]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["events_dropped"] == 0


def test_dense_run_at_kappa_64_exits_0(tmp_path, capsys):
    """validate-config accepts kappa up to 64, and the run draws its genesis
    seed over all 64 bits."""
    half = 1 << 63
    config = {"protocol": "dense_coa", "params": {"kappa": 64},
              "stake": [["alice", half], ["bob", half]],
              "duration": {"slots": 3}}
    path = tmp_path / "k64.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "o"
    for argv in (("validate-config", "--config", str(path)),
                 ("run", "--config", str(path), "--out", str(out),
                  "--format", "json")):
        code, _o, err = run_cli(capsys, *argv)
        assert code == EXIT_OK, (argv[0], err)
    assert read_metrics(out / "metrics.json")["blocks"] == 3


def test_manifest_says_what_ran(tmp_path, capsys):
    import poslab
    out = tmp_path / "o"
    code, stdout, _e = run_cli(capsys, "run", "--config", "ppcoin-multifork",
                               "--out", str(out))
    assert code == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["events_dropped"] == 473
    assert manifest["events"] == 2000
    assert manifest["write_seconds"] > 0
    assert "473 events dropped" in stdout
    assert manifest["trace_digest"] == (
        "0c958e42d77f07002633318e2fadb0091f1685ca523776f3b7a4158f3023d349")
    assert manifest["poslab_version"] == poslab.__version__
    resolved = SCENARIOS["ppcoin-multifork"].to_dict()
    assert manifest["resolved_config"] == resolved
    # every param the engine read, its defaults included
    assert resolved["params"] == {"kappa": 12, "target_interval": 30,
                                  "max_tips": 6}
    # ppcoin reads neither delays nor a clock drift
    assert not {"delays", "clock_drift_max"} & set(resolved)
    assert manifest["config_sha256"] == hashlib.sha256(json.dumps(
        resolved, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    assert len((out / "events.jsonl").read_text().splitlines()) == 2000
    code, stdout, _e = run_cli(capsys, "run", "--config", "coa-baseline",
                               "--out", str(out))
    assert json.loads((out / "manifest.json").read_text())["events_dropped"] == 0
    assert "dropped" not in stdout


def test_a_config_with_its_defaults_written_out_is_the_same_run(tmp_path,
                                                                capsys):
    """The manifest resolves every engine param: bundled coa-baseline and the
    same config with each coa default written out give the same resolved
    config, config hash and trace digest."""
    raw = SCENARIOS["coa-baseline"].to_dict()
    raw["params"] = {"kappa": 12, "w": 1, "comb": "concat", "g0_seconds": 300,
                     "c0": 0, "c1": 0, "t0": 8, "timestamp_leniency": 120}
    path = tmp_path / "written-out.json"
    path.write_text(json.dumps(raw))
    manifests = []
    for spec in ("coa-baseline", str(path)):
        out = tmp_path / str(len(manifests))
        assert run_cli(capsys, "run", "--config", spec,
                       "--out", str(out))[0] == EXIT_OK
        manifests.append(json.loads((out / "manifest.json").read_text()))
    bundled, written = manifests
    assert bundled["resolved_config"] == written["resolved_config"] == raw
    assert bundled["config_sha256"] == written["config_sha256"] == (
        "d4581f5ff1930e74da0cf36655a8b0281d974d8e60e4ecac59262c51c315ba28")
    assert bundled["trace_digest"] == written["trace_digest"] == (
        "7a2e85108166a09b2facd80dd55be8e52555b5307e46d33eddf775410d88dadd")


def test_validate_config_names_the_analysis_kind(capsys):
    code, stdout, _e = run_cli(capsys, "validate-config", "--config", "claim2")
    assert code == EXIT_OK
    assert "ok: scenario 'claim2', analysis claim2, seed 7" in stdout
