import json

import pytest

from poslab.cli import (EXIT_CONFIG_ERROR, EXIT_OK, EXIT_REPRO_FAILURE, main)
from poslab.scenarios import REPRODUCTIONS, run_reproduction


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    digests = []
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        run_cli(capsys, "run", "--config", "coa-baseline", "--seed", "5",
                "--out", out)
        digests.append(json.loads(
            (tmp_path / sub / "manifest.json").read_text())["trace_digest"])
    assert digests[0] == digests[1]


def test_run_json_format(tmp_path, capsys):
    out = str(tmp_path / "runj")
    code, _o, _e = run_cli(capsys, "run", "--config", "claim1", "--out", out,
                           "--format", "json")
    assert code == EXIT_OK
    metrics = json.loads((tmp_path / "runj" / "metrics.json").read_text())
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


def test_reproduce_unknown_id(capsys):
    code, _o, err = run_cli(capsys, "reproduce", "nonsense")
    assert code == EXIT_CONFIG_ERROR
    assert "nonsense" in err


def test_reproduce_failure_exit_code(monkeypatch, capsys):
    import poslab.cli as cli
    from poslab.scenarios import ReproResult

    def fake(repro_id, seed):
        return ReproResult(repro_id, "x", "y", "exact", False)

    monkeypatch.setattr(cli, "run_reproduction", fake)
    code, stdout, _e = run_cli(capsys, "reproduce", "claim1")
    assert code == EXIT_REPRO_FAILURE
    assert "FAIL" in stdout


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


def _config_with(params=None, **kw):
    config = {
        "protocol": "coa",
        "params": dict({"kappa": 4}, **(params or {})),
        "stake": [["alice", 6], ["bob", 5], ["carol", 5]],
        "duration": {"slots": 5},
    }
    config.update(kw)
    return config


@pytest.mark.parametrize("config, field", [
    (_config_with({"t0": 7}), "params.t0"),
    (_config_with({"comb": "tribes"}), "params.comb"),
    (_config_with({"comb": "majority", "w": 2}), "params.w"),
    (_config_with({"c0": 4, "c1": 3}), "params.c1"),
    (_config_with(delays={"distribution": "pareto"}), "delays.distribution"),
    (_config_with(attack={"kind": "nonsense", "params": {}}), "attack.kind"),
    (_config_with(attack={"kind": "claim1", "params": {
        "epsilon": 10, "rho_prime": 0.7, "delta": 20}}), "attack.params.v"),
    (_config_with(behaviors={"bob": {"strategy": "bribe-acceptor"}}),
     "behaviors.bob.strategy"),
    (_config_with(duration={"seconds": 10 ** 6}), "duration.slots"),
    (_config_with(protocol="dense_coa", duration={"seconds": 600}),
     "duration.seconds"),
    (_config_with(protocol="ppcoin", duration={"slots": 5}), "duration.slots"),
    (_config_with(protocol="dense_coa", duration={"slots": 0}),
     "duration.slots"),
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
