"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import hashlib
import os
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perfbench import inputs, tracer, workloads  # noqa: E402
from perfbench.workloads import OpResult  # noqa: E402

cli = workloads.import_cli()


def test_nested_self_times_add_up_to_parent_duration():
    tr = tracer.Tracer()

    def leaf():
        time.sleep(0.002)

    leaf = tr.wrap("leaf", leaf)

    def middle():
        time.sleep(0.001)
        leaf()
        leaf()

    middle = tr.wrap("middle", middle)

    def root():
        middle()
        leaf()
        time.sleep(0.001)

    tr.wrap("root", root)()
    name, dur, self_s = tr.span_table()
    assert [tr.names[i] for i in name] == ["root", "middle", "leaf", "leaf", "leaf"]
    assert list(tr.parent) == [-1, 0, 1, 1, 0]
    assert (self_s >= 0).all()
    assert self_s.sum() == pytest.approx(dur[0], rel=1e-9)
    assert self_s[1] == pytest.approx(dur[1] - dur[2] - dur[3], rel=1e-9)
    metrics = tr.layer_metrics()
    assert metrics["leaf.calls"] == 3
    assert metrics["root.self_s"] + metrics["middle.self_s"] + metrics["leaf.self_s"] \
        == pytest.approx(metrics["root.incl_s"], rel=1e-9)


def _bindings():
    """Every (owner, attribute) -> object that a tracer target replaces."""
    import importlib
    found = {}
    for _layer, module_name, qualname, _tag in tracer.TARGETS:
        module = importlib.import_module(module_name)
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            owner = getattr(module, cls_name)
            found[(owner, attr)] = owner.__dict__[attr]
            continue
        original = getattr(module, qualname)
        for mod in tracer._poslab_modules():
            for key, value in vars(mod).items():
                if value is original:
                    found[(mod, key)] = value
    return found


def test_wrappers_are_installed_everywhere_and_removed_after(tmp_path):
    from poslab import coa, netsim
    before = _bindings()
    # coa imports satoshi_index and canonical_block_digest by name
    assert (coa, "satoshi_index") in before
    assert (netsim, "canonical_block_digest") in before
    op = workloads.Op("run coa-offline", ("run", "--config", "coa-offline"), 17, 12, "coa")
    plain = workloads.run_op(cli, op, str(tmp_path / "plain"))
    tr = tracer.Tracer()
    with tracer.installed(tr):
        assert all(getattr(owner, attr) is not obj for (owner, attr), obj in before.items())
        traced = workloads.run_op(cli, op, str(tmp_path / "traced"))
        tr.end_operation()
    assert all(getattr(owner, attr) is obj for (owner, attr), obj in before.items())
    assert not plain.failed and not traced.failed
    assert traced.digest == plain.digest
    metrics = tr.layer_metrics()
    assert metrics["coa.process_block.calls"] > 0
    assert metrics["fts.satoshi_index.calls"] > metrics["coa.process_block.calls"]
    assert metrics["coa.validations_per_block"] == pytest.approx(5, abs=1)
    assert metrics["coa.views_live"] > 0
    assert metrics["cli.main.calls"] == 1


def test_generator_is_deterministic():
    for workload in ("coa-wide", "coa-long"):
        a = inputs.config_bytes(inputs.coa_config(workload, 11))
        assert a == inputs.config_bytes(inputs.coa_config(workload, 11))
        assert a != inputs.config_bytes(inputs.coa_config(workload, 12))
        config = inputs.coa_config(workload, 11)
        assert sum(amount for _name, amount in config["stake"]) == 1 << inputs.KAPPA
        assert all(amount > 0 for _name, amount in config["stake"])
    long_config = inputs.coa_config("coa-long", 11)
    assert [b["strategy"] for b in long_config["behaviors"].values()] == ["offline"]
    assert len(inputs.coa_config("coa-wide", 11)["stake"]) == inputs.WIDE_HOLDERS


def test_generator_does_not_depend_on_the_hash_seed():
    code = ("import hashlib, sys; sys.path.insert(0, %r); from perfbench import inputs; "
            "print(hashlib.sha256(inputs.config_bytes(inputs.coa_config('coa-long', 3)))"
            ".hexdigest())" % ROOT)
    outs = {subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=dict(os.environ, PYTHONHASHSEED=h), check=True).stdout
            for h in ("0", "1")}
    local = hashlib.sha256(inputs.config_bytes(inputs.coa_config("coa-long", 3))).hexdigest()
    assert outs == {local + "\n"}


def test_gate_flags_a_tampered_digest():
    pins = {"lottery": {"0": {"run dense-baseline": "aa"}}}
    good = [OpResult("run dense-baseline", 0, code=0, digest="aa"),
            OpResult("run dense-withhold", 7, code=0, digest="bb"),
            OpResult("run dense-withhold", 7, code=0, digest="bb")]
    assert workloads.gate("lottery", good, pins) == 0
    tampered = [OpResult("run dense-baseline", 0, code=0, digest="ab"),
                OpResult("run dense-withhold", 7, code=0, digest="bb"),
                OpResult("run dense-withhold", 7, code=0, digest="bc")]
    assert workloads.gate("lottery", tampered, pins) == 2
    assert "expected aa" in tampered[0].problems[0]
    assert "expected bb" in tampered[2].problems[0]


def test_pinned_digest_of_a_bundled_scenario(tmp_path):
    ops = workloads.plan("lottery", workloads.DEFAULT_SEED, str(tmp_path))
    dense = [op for op in ops if op.name == "run dense-baseline"]
    results = [workloads.run_op(cli, op, str(tmp_path / "out")) for op in dense]
    assert workloads.gate("lottery", results, workloads.load_pins()) == 0


def test_speed_samples_during_a_step_and_restores_the_timer():
    import signal
    from perfbench.speed import SAMPLES_AROUND, CpuSpeed
    previous = signal.getsignal(signal.SIGALRM)
    speed = CpuSpeed()
    speed.begin()
    start = time.perf_counter()
    with speed.sampling():
        while time.perf_counter() - start < 0.5:
            pass
    wall = time.perf_counter() - start
    own, scaled = speed.end(wall)
    assert len(speed.samples) > 2 * SAMPLES_AROUND
    assert 0 < own < wall and own == pytest.approx(wall - speed.inside)
    assert scaled > 0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
