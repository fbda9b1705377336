import dataclasses
import gc
import hashlib
import heapq
import io
import itertools
import json
import pickle
import sys
import tracemalloc
import weakref
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poslab import cli, coa, netsim
from poslab.coa import ACCEPT, ChainView, CoaParams, make_genesis
from poslab.ledger import Block, BlockTree
from poslab.netsim import (ACCEPT_LINE, ENGINES, SEND_LINE, SOLIDIFICATION_LINE,
                           MAX_EVENTS, ConfigError, DelayModel, SimTrace,
                           canonical_json, config_from_dict, load_config,
                           run_scenario, strategy_of)
from poslab.rng import make_rng
from poslab.scenarios import SCENARIOS


def parsed_events(trace) -> list:
    """The events of `trace`, read back from their canonical lines."""
    return [json.loads(line) for line in trace.events]


def base_raw(**kw):
    raw = {
        "protocol": "coa",
        "params": {"kappa": 4, "g0_seconds": 300},
        "stake": [["alice", 6], ["bob", 5], ["carol", 5]],
        "duration": {"slots": 8},
        "seed": 1,
    }
    raw.update(kw)
    return raw


def test_config_error_survives_pickling():
    """A ConfigError raised in a pool worker reaches the parent as itself,
    with its message and its field."""
    error = pickle.loads(pickle.dumps(ConfigError("a.b", "msg: c")))
    assert type(error) is ConfigError
    assert (str(error), error.fieldname) == ("a.b: msg: c", "a.b")


def test_config_validation_names_offending_field():
    with pytest.raises(ConfigError) as e:
        config_from_dict(base_raw(protocol="pow"))
    assert e.value.fieldname == "protocol"
    with pytest.raises(ConfigError) as e:
        config_from_dict(base_raw(params={"kappa": 0}))
    assert e.value.fieldname == "params.kappa"
    with pytest.raises(ConfigError) as e:
        config_from_dict(base_raw(stake=[["alice", 6]]))
    assert e.value.fieldname == "stake"  # does not sum to 2^kappa
    with pytest.raises(ConfigError) as e:
        config_from_dict(base_raw(stake=[["alice", 16], ["bob", 0]]))
    assert e.value.fieldname == "stake[1]"
    with pytest.raises(ConfigError) as e:
        config_from_dict(base_raw(
            behaviors={"mallory": {"strategy": "honest"}}))
    assert e.value.fieldname == "behaviors.mallory"
    for strategy in ("nonsense", "bribe-acceptor", "ppcoin-multifork"):
        with pytest.raises(ConfigError) as e:
            config_from_dict(base_raw(
                behaviors={"alice": {"strategy": strategy}}))
        assert e.value.fieldname == "behaviors.alice.strategy"
    # each engine runs only its own strategies
    for protocol, duration, strategy in (
            ("ppcoin", {"seconds": 100}, "offline"),
            ("coa", {"slots": 2}, "withhold"),
            ("dense_coa", {"slots": 2}, "withhold"),
            ("dense_coa", {"slots": 2}, "ppcoin-multifork")):
        with pytest.raises(ConfigError) as e:
            config_from_dict(base_raw(
                protocol=protocol, params={"kappa": 4}, duration=duration,
                behaviors={"bob": {"strategy": strategy}}))
        assert e.value.fieldname == "behaviors.bob.strategy"
    with pytest.raises(ConfigError) as e:
        config_from_dict(base_raw(delays={"min": 3.0, "max": 1.0}))
    assert e.value.fieldname == "delays"
    with pytest.raises(ConfigError) as e:
        config_from_dict(base_raw(duration={}))
    assert e.value.fieldname == "duration"
    with pytest.raises(ConfigError) as e:
        config_from_dict(base_raw(seed="one"))
    assert e.value.fieldname == "seed"


def test_config_roundtrip_through_dict():
    config = config_from_dict(base_raw())
    again = config_from_dict(config.to_dict())
    assert again.to_dict() == config.to_dict()


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_behavior_defaults_to_honest():
    config = config_from_dict(base_raw(
        behaviors={"bob": {"strategy": "offline"}}))
    assert strategy_of(config, "alice") == "honest"
    assert strategy_of(config, "bob") == "offline"
    assert all("honest" in engine.strategies for engine in ENGINES.values())


def test_trace_is_deterministic():
    for name in ("coa-baseline", "ppcoin-honest", "dense-baseline", "claim2"):
        config = SCENARIOS[name]
        assert run_scenario(config).digest() == run_scenario(config).digest()


# Trace digest of every bundled scenario at its bundled seed. A change that
# moves one must say which and why.
PINNED_DIGESTS = {
    "bribe-underfunded":
        "195f783edc2d72d7c08e6603ed34fa5362aa5607df4ff0ebf5ffa64e0538b2d1",
    "claim1":
        "90ee5271dcfa0ba81e21a7eacadb87ed75516c7d546675f36f5a98d1bbb79772",
    "claim2":
        "4435d29b1ef53840f8b3393eb68a4efeaf4d878b00e1c5edaea5590fe8e2b8f9",
    "coa-baseline":
        "7a2e85108166a09b2facd80dd55be8e52555b5307e46d33eddf775410d88dadd",
    "coa-fast":
        "f66d2674cffc47e8b6663340b4203605092e9a9ceaac4f2140b9aa71008f6a15",
    "coa-iterated":
        "a27b9094a902cb498a0d2061ddd79c80c5459315405ffc8a1d3aecbe87fb271b",
    "coa-majority":
        "4602e446bd99e9c412060b3a4dd89189d631d76168b31f464f8539f5e124a246",
    "coa-nodrift":
        "a0d3e96bccbd1483c0212296449d83afae945bf766b38d030c21d6dfd229e535",
    "coa-offline":
        "be0734d98356030e528b1b2decef7ed5b630e8311e1a55539529d0678abb23be",
    "coa-skewed":
        "f8618df0d0554bfb7124e69ac61e1c26582b142c1cbcb028bf95fcd600a602d8",
    "dense-baseline":
        "bf574db7b8c0677428c81dee6b30cfe2d38fefc532face3e921416d377592b4b",
    "dense-dos":
        "df9c84d36f947e44ad2546a694976f8b7c55f204baa3a4788931d81a6b7ec932",
    "dense-withhold":
        "dcd74364f2bf4510468c8bca6158854edd8d4e5b68f5f77500497a74800581a6",
    "fork-rate":
        "8ab25ae2fe1dc6e21ff4350001212f9e2bf2df26abe1212b11751f27fe6ee0e5",
    "issuance-equilibrium":
        "628ac9f2aac590d87ae2ee466616c799ff9afb30ac1a575f95ee092323cd0a98",
    "kz-bounds":
        "d0695fdc5f6c8b00fa9ab2d94f0ed57bdbe15faae543259f3f80e9659218d985",
    "mu-concat":
        "1d6aa3f21faa176641e20d925ce4f762727252af3ea65ec9923e46e3b881188d",
    "mu-majority":
        "1c271dce425c08809842ebea385f0d3289f1ddda9685e70e2e97d90531592ffa",
    "ppcoin-honest":
        "5c2081bedd7e2956c67676cb083ec305e28a0fe9d357aad2bc8f3b46a731ec91",
    "ppcoin-mk":
        "b6c4aec63f59620b9ef8d01b0d62258bf229098883e820d688d7eb00be596164",
    "ppcoin-multifork":
        "0c958e42d77f07002633318e2fadb0091f1685ca523776f3b7a4158f3023d349",
    "takeover":
        "eba6a20100d8cfae716db6a436992795d2579cd94b4cc859794df2126825b267",
    "timeweight-v02":
        "310d587e0895db2ef73f5da4782a3874af4e8c75b98c512112a7b8a772992d3e",
    "timeweight-v03-saturated":
        "0794e92e992b64772d89e59fd442a86bb50e9bfa9f717a15b9ff0b23b5206d73",
}


def test_bundled_digests_are_pinned():
    digests = {name: run_scenario(config).digest()
               for name, config in SCENARIOS.items()}
    assert digests == PINNED_DIGESTS


# Trace digest of every bundled scenario at seed 0.
PINNED_DIGESTS_SEED_0 = {
    "bribe-underfunded":
        "9c66552a27500aa21a3354a5da5197ad435c4c5fad0ff57b68328562657abc2c",
    "claim1":
        "90ee5271dcfa0ba81e21a7eacadb87ed75516c7d546675f36f5a98d1bbb79772",
    "claim2":
        "4435d29b1ef53840f8b3393eb68a4efeaf4d878b00e1c5edaea5590fe8e2b8f9",
    "coa-baseline":
        "1ee1bf41e8cb229377e9d637aeeb67ef896a653829aa90d0c462b2cd20657375",
    "coa-fast":
        "f3650240ac8e9b8a701f2379abed80d1317842bfb7d5469620adab0f9cf0a2b6",
    "coa-iterated":
        "4d08d9926609c8b8a9d9284946cc41a5cf24a360ea93a0aa70867638522efe83",
    "coa-majority":
        "77232deed860f1715f6b174ebc350d69feeb89f587b17316d4ec2fcf922a6eff",
    "coa-nodrift":
        "aad729a292bca0c7f3cf5f0af25d662167e33e47967b2d15a022854e76d81d17",
    "coa-offline":
        "c0d41e3c2a58674b40439a29ad984b53014d7a78d182a624c0849cd7571ad391",
    "coa-skewed":
        "53d9870b38bb96b6ebf2e5f7c0017d118cbf2f4f1631115d9e10aa04810d415e",
    "dense-baseline":
        "f3589fe215c1227303e06ea5c7751d61102939747c2924a0c32f94b2a104c254",
    "dense-dos":
        "a73ecbe3c7b191beb14f3cc2c8e05fea2e6490f1e1a5297c22a83d278efe71bc",
    "dense-withhold":
        "4effec4be9172c87895f3e90a6858b11d5ff43b9ad668500ae9a99f5ea524632",
    "fork-rate":
        "b18f9d415978774db344b67703ab9cab01f532a70566f2e280b88d1dcb2cdce6",
    "issuance-equilibrium":
        "74c5c5d96ff65f539dda72a780cf4bf2fa5a3976df323db47a48afc5d3a768dc",
    "kz-bounds":
        "d0695fdc5f6c8b00fa9ab2d94f0ed57bdbe15faae543259f3f80e9659218d985",
    "mu-concat":
        "731842043cc6c69fadfb5ef2990bffa75cf36159f1938ebd3b330b524e7cdda0",
    "mu-majority":
        "1c271dce425c08809842ebea385f0d3289f1ddda9685e70e2e97d90531592ffa",
    "ppcoin-honest":
        "13009e0259d38265efbc4f2c1df165054f550e917e0854f41d69f4501222011d",
    "ppcoin-mk":
        "7fa5733ba4c1f6f2687a60814665de3616d7916e6d509fc6071d00c444cf7f7c",
    "ppcoin-multifork":
        "8208bc4f0035d5c9705e4644dabdb9b1a847e2dd0c85d0e642410eb8600e9191",
    "takeover":
        "eba6a20100d8cfae716db6a436992795d2579cd94b4cc859794df2126825b267",
    "timeweight-v02":
        "c536cca1ad429e6d2127711721de1675945948d3f788f91de887d167e74e02b0",
    "timeweight-v03-saturated":
        "0302739d23216722ffe078761ee25993d622fa72cda4eeb9aa7ea463f86afd75",
}


def test_bundled_digests_are_pinned_at_seed_0():
    digests = {name: run_scenario(dataclasses.replace(config, seed=0)).digest()
               for name, config in SCENARIOS.items()}
    assert digests == PINNED_DIGESTS_SEED_0


# Trace digest of the non-attack CoA scenarios at the held-out seed 5694.
PINNED_COA_DIGESTS_5694 = {
    "coa-baseline":
        "ab53e523b808eb9943e356ee13fe221f9350851f2d4614dd863e9c351c0b4c8e",
    "coa-fast":
        "609e880febb92d875b0e3317ca2166966a106285759652e966eec1959a1b2826",
    "coa-iterated":
        "e6c88e2a650623f042696bdc54474b4afff00dbcc2909781ed62a01cf88a91f7",
    "coa-majority":
        "bcda4a43ffe8d3cb84fe6434517d86823c81a2f9dc8418c38441652867465db7",
    "coa-nodrift":
        "4541a50de0a0566eaec8db306b9927c47eed082c71822abcf5b6ec048b07b1e7",
    "coa-offline":
        "44a654737f04b214a6fc1d82c04babc32fac32fc74a5b2d6ee3390c62a85399b",
    "coa-skewed":
        "c3b80715895bfafb5a23c0a392a18582e853db5f63dc6c8a825f909e0be7bcd9",
}


def test_coa_digests_are_pinned_at_seed_5694():
    assert sorted(PINNED_COA_DIGESTS_5694) == [
        name for name, config in sorted(SCENARIOS.items())
        if config.protocol == "coa" and config.attack is None]
    digests = {name: run_scenario(dataclasses.replace(SCENARIOS[name],
                                                      seed=5694)).digest()
               for name in PINNED_COA_DIGESTS_5694}
    assert digests == PINNED_COA_DIGESTS_5694


def test_a_large_drift_coa_run_is_pinned():
    """coa-fast with clock drifts up to 400 s, at seed 0: some create steps
    find their slot dated past their node's clock and wait for it (without
    that wait this digest moves)."""
    config = dataclasses.replace(SCENARIOS["coa-fast"], seed=0,
                                 clock_drift_max=400.0)
    assert run_scenario(config).digest() == \
        "030f249d9e554341844df3b5de7aa7d18a4e5e1e9729a511a1a4672183b26aee"


def test_the_create_step_sends_what_its_clock_admits_and_waits_otherwise(
        monkeypatch):
    """The create step holds its slot to CoA's clock test. One holder with
    no drift plans slot 2 on the genesis view for t = 600 s, where its node
    clock reads 601; the view the step finds there (after block 1) is made
    to date slot 2 `extra` s later, as a best tip moved onto a later-dated
    parent would. Dated the clock plus the leniency, the block is sent at
    600 s; a second later, it waits until the clock admits it (602 s)."""
    min_timestamp = coa.min_timestamp
    for leniency in (0, 120):
        for extra, sent in ((leniency + 1, 600.0), (leniency + 2, 602.0)):
            monkeypatch.setattr(
                coa, "min_timestamp", lambda ts, child, parent, g0, extra=extra:
                min_timestamp(ts, child, parent, g0) + extra * (parent == 1))
            trace = run_scenario(config_from_dict(base_raw(
                params={"kappa": 4, "timestamp_leniency": leniency},
                stake=[["alice", 16]], duration={"slots": 2},
                clock_drift_max=0.0)))
            assert [(e["index"], e["time"]) for e in parsed_events(trace)
                    if e["event"] == "send"] == [(1, 300.0), (2, sent)]
            assert trace.metrics["blocks"] == 2


def test_seed_changes_the_trace():
    config = SCENARIOS["coa-baseline"]
    other = dataclasses.replace(config, seed=config.seed + 1)
    assert run_scenario(config).digest() != run_scenario(other).digest()


def test_coa_baseline_interval_and_consistency():
    trace = run_scenario(SCENARIOS["coa-baseline"])
    m = trace.metrics
    g0 = SCENARIOS["coa-baseline"].params["g0_seconds"]
    assert m["blocks"] > 0
    # with everyone online each slot is filled; drift can add a little
    assert g0 <= m["mean_interval"] <= g0 * 1.05
    assert m["reorgs"] == 0
    assert m["conservation_ok"]
    # nodes agree up to propagation: every chain is a prefix of the longest
    # (the run stops while the last block may still be in flight)
    chains = sorted(trace.final_chains.values(), key=len)
    longest = chains[-1]
    for c in chains:
        assert longest[:len(c)] == c


def test_coa_views_alive_do_not_grow_with_the_chain(monkeypatch):
    """A CoA run keeps only the views its nodes can still extend: the
    ChainViews alive when the trace is built stay within a few t0, with
    forks and reorgs, however long the chain. Under delays far above G0 a
    node holds a block until its parent arrives, so no chain stalls."""
    t0 = 4
    alive = []

    def views_alive():
        gc.collect()
        return sum(isinstance(obj, ChainView) for obj in gc.get_objects())

    def count_then_build(*args):
        alive[-1] = views_alive() - alive[-1]
        return SimTrace(*args)

    monkeypatch.setattr(netsim, "SimTrace", count_then_build)
    inputs = [(320.0, {}, 150), (320.0, {}, 450),
              (700.0, {"carol": {"strategy": "offline"}}, 450)]
    for max_delay, behaviors, slots in inputs:
        config = config_from_dict(base_raw(
            params={"kappa": 4, "g0_seconds": 300, "t0": t0},
            delays={"min": 0.2, "max": max_delay}, behaviors=behaviors,
            duration={"slots": slots}))
        alive.append(views_alive())
        trace = run_scenario(config)
        assert trace.metrics["blocks"] > slots // 2
        assert trace.metrics["reorgs"] > 0
        assert not [e for e in parsed_events(trace)
                    if e.get("reason") == "orphan"]
        heights = [len(chain) - 1 for chain in trace.final_chains.values()]
        assert min(heights) >= slots - t0, heights
    assert max(alive) <= 3 * t0, alive


def test_coa_offline_creators_stretch_intervals():
    online = run_scenario(SCENARIOS["coa-baseline"]).metrics
    offline = run_scenario(SCENARIOS["coa-offline"]).metrics
    assert offline["mean_interval"] > online["mean_interval"]
    assert offline["conservation_ok"]


def test_coa_causality_and_delay_bounds():
    config = SCENARIOS["coa-baseline"]
    events = parsed_events(run_scenario(config))
    sends = {e["index"]: e["time"] for e in events if e["event"] == "send"}
    for e in events:
        if e["event"] == "block-accept":
            lag = e["time"] - sends[e["index"]]
            assert -1e-9 <= lag <= config.delays.max + 1e-9


def test_ppcoin_multifork_diverges_more_than_honest():
    honest = run_scenario(SCENARIOS["ppcoin-honest"]).metrics
    forked = run_scenario(SCENARIOS["ppcoin-multifork"]).metrics
    assert forked["divergence"] > honest["divergence"]
    assert forked["fork_blocks"] > honest["fork_blocks"]


def test_dense_withholding_forces_fallbacks():
    clean = run_scenario(SCENARIOS["dense-baseline"]).metrics
    held = run_scenario(SCENARIOS["dense-withhold"]).metrics
    assert clean["fallbacks"] == 0
    assert held["fallbacks"] > 0
    assert held["mean_interval"] > clean["mean_interval"]


def test_attack_scenario_dispatch():
    trace = run_scenario(SCENARIOS["claim2"])
    assert trace.metrics["s"] == 42
    assert trace.metrics["wait_minutes"] == pytest.approx(210.0)
    bad = dataclasses.replace(SCENARIOS["claim2"],
                              attack={"kind": "nonsense", "params": {}})
    with pytest.raises(ConfigError):
        run_scenario(bad)


def test_all_bundled_scenarios_validate():
    assert len(SCENARIOS) >= 20
    for config in SCENARIOS.values():
        # round-tripping through the dict form revalidates every field
        assert config_from_dict(config.to_dict()).name == config.name


def test_trace_serialization_formats(tmp_path):
    """events.jsonl has one line per event; the CLI writes the metrics as a
    sorted CSV header and one value row, or as sorted, indented JSON."""
    trace = run_scenario(SCENARIOS["claim1"])
    buf = io.StringIO()
    trace.digest(events_out=buf)
    jsonl = buf.getvalue()
    assert jsonl.endswith("\n") and jsonl.count("\n") == len(trace.events)
    keys = sorted(trace.metrics)
    assert "kind" in keys
    for fmt in ("csv", "json"):
        assert cli.main(["run", "--config", "claim1", "--out", str(tmp_path),
                         "--format", fmt]) == 0
    assert (tmp_path / "metrics.csv").read_bytes() == (
        "%s\r\n%s\r\n" % (",".join(keys), ",".join(
            str(trace.metrics[k]) for k in keys))).encode()
    assert (tmp_path / "metrics.json").read_text() == json.dumps(
        trace.metrics, sort_keys=True, indent=2) + "\n"


def test_delay_model():
    d = DelayModel(0.5, 1.5)
    from poslab.rng import make_rng
    rng = make_rng(0, "delay-test")
    assert all(0.5 <= s <= 1.5 for s in d.sample(rng, 100))
    with pytest.raises(ConfigError):
        DelayModel(0.5, 1.5, "pareto")


def digest_oracle(trace):
    """The trace digest's defining formula: sha256 of the canonical JSON of
    events, metrics and chains."""
    payload = json.dumps({"events": parsed_events(trace),
                          "metrics": trace.metrics,
                          "chains": trace.final_chains},
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def stormy_raw(seed=2):
    """A CoA run whose trace has rejections, reorgs and blacklists: delays
    above G0 and clocks up to 100 s apart."""
    return base_raw(params={"kappa": 4, "g0_seconds": 300, "t0": 4},
                    delays={"min": 0.2, "max": 400.0}, clock_drift_max=100.0,
                    duration={"slots": 60}, seed=seed)


def stormy_coa_config():
    return config_from_dict(stormy_raw())


# Trace digests of runs whose delivery order rests on the queue's tie-breaks:
# the stormy runs' fan-outs overlap, since delays run up to 400 s against a
# G0 of 300 s; with no delay each arrival ties on time with its send; with a
# fixed delay and no drift the peers tie with each other.
@pytest.mark.parametrize("raw, digest", [
    (stormy_raw(seed=2),
     "189248f2eec4042ef0d3b2cae2e0fe4721fec398ee88a3aee2a783fbc8ccd767"),
    (stormy_raw(seed=11),
     "b5bcb921d9a125dd11b2f5d9b12844dd2e2b612b77f1ebd271f620cd60908dc2"),
    (base_raw(delays={"min": 0.0, "max": 0.0}, duration={"slots": 30}),
     "811bb37b2f5d1324b5fe505ad1f4340ff8044872e1801d0c816762ce4f94ea26"),
    (base_raw(delays={"min": 1.5, "max": 1.5}, clock_drift_max=0.0,
              duration={"slots": 30}),
     "9843c1c9ef7ec270d36e75c9ef5d07b4dfa722f683ac2ef96e086fd518bade8e"),
], ids=["stormy-2", "stormy-11", "no-delay", "fixed-delay-no-drift"])
def test_digests_of_runs_whose_deliveries_tie_or_overlap_are_pinned(raw, digest):
    assert run_scenario(config_from_dict(raw)).digest() == digest


class ScriptedDelays:
    """A delay model that returns the given delays, one list per created
    block in the order the run creates them."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def sample(self, rng, count):
        delays = self.draws.pop(0)
        assert len(delays) == count
        return delays


def test_deliveries_at_one_time_go_in_sender_rank_order():
    """Two senders' blocks reach alice at the same time. carol (rank 2)
    sent hers first, at slot 1, so her delivery has the lower sequence
    number; bob (rank 1) builds slot 2 on genesis, as carol's block reaches
    him late. The queue orders deliveries by (time, sender's rank,
    sequence), so alice gets bob's block first and keeps it as her tip."""
    config = config_from_dict(base_raw(clock_drift_max=0.0,
                                       duration={"slots": 8, "seconds": 650}))
    params = CoaParams(**config.params)
    genesis_view = ChainView(params, *make_genesis(params, list(config.stake)))
    assert [(i, owner) for i, _z, owner, _u in
            genesis_view.slot_candidates(2)] == [(1, "carol"), (2, "bob")]
    # peers in stake order: carol's go to alice and bob, bob's to alice
    # and carol
    trace = run_scenario(dataclasses.replace(config, delays=ScriptedDelays(
        [301.0, 400.0], [1.0, 1.0])))
    events = parsed_events(trace)
    assert [(e["node"], e["index"], e["time"]) for e in events
            if e["event"] == "send"] == [("carol", 1, 300.0), ("bob", 2, 600.0)]
    assert [(e["node"], e["creator"], e["time"]) for e in events
            if e["event"] == "block-accept"] == [
        ("carol", "carol", 300.0), ("bob", "bob", 600.0),
        ("alice", "bob", 601.0), ("carol", "bob", 601.0),
        ("alice", "carol", 601.0)]
    assert trace.final_chains["alice"] == trace.final_chains["bob"]


def test_a_run_whose_views_lose_every_creator_ends_with_exit_0(tmp_path,
                                                              capsys):
    """At seed 11 the stormy run reaches a view on which all stake is
    blacklisted. Such a view plans no block, so the run stops short of its
    60 slots instead of failing."""
    path = tmp_path / "stormy.json"
    path.write_text(json.dumps(stormy_raw(seed=11)))
    assert cli.main(["validate-config", "--config", str(path)]) == 0
    assert cli.main(["run", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 0
    assert "  blocks = 32\n" in capsys.readouterr().out


@pytest.mark.parametrize("name", [n for n, c in SCENARIOS.items()
                                  if c.protocol] + ["stormy"])
def test_digest_hashes_each_event_line_of_events_jsonl(name):
    """The digest streamed from the stored event lines equals the formula
    over the parsed events, and each events.jsonl line is the canonical
    encoding of the event it parses to."""
    if name == "stormy":
        trace = run_scenario(stormy_coa_config())
        kinds = {e["event"] for e in parsed_events(trace)}
        assert {"block-rejected", "reorg", "blacklist"} <= kinds
    else:
        trace = run_scenario(SCENARIOS[name])
    out = io.StringIO()
    assert trace.digest(events_out=out) == digest_oracle(trace) == trace.digest()
    lines = out.getvalue().splitlines()
    assert lines == trace.events
    assert lines == [json.dumps(json.loads(line), sort_keys=True,
                                separators=(",", ":")) for line in lines]


names = st.text() | st.sampled_from(
    ['"', "\\", '\\"', "\x00\x1f\x7f", "\n\t", "é", "名前", "\U0001f600",
     "%s", "%%"])
times = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [300.0, 0.0, -0.0, 1e-07, 1e+16, 1e16 + 2, 5e-324, 123456.789012])


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(creator=names, node=names, index=st.integers(), time=times)
def test_block_accept_line_is_the_canonical_json_of_its_event(
        creator, node, index, time):
    """The block-accept format, filled as the CoA loop fills it (the block's
    head at its send, then per delivery the node, the time and the end), is
    the canonical encoding of the same event."""
    head = netsim.ACCEPT_HEAD % (canonical_json(creator), index)
    line = head + canonical_json(node) + netsim.ACCEPT_AT \
        + float.__repr__(time) + netsim.ACCEPT_END
    assert line == ACCEPT_LINE % (canonical_json(creator), index,
                                  canonical_json(node), float.__repr__(time))
    assert line == canonical_json({"event": "block-accept", "time": time,
                                   "node": node, "index": index,
                                   "creator": creator})
    assert json.loads(line) == {"event": "block-accept", "time": time,
                                "node": node, "index": index,
                                "creator": creator}


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(node=names, index=st.integers(), time=times)
def test_send_and_solidification_lines_are_the_canonical_json_of_their_events(
        node, index, time):
    """The send and solidification formats, filled as the CoA loop fills
    them, are the canonical encodings of the same events."""
    for line, event in (
            (SEND_LINE % (index, canonical_json(node), float.__repr__(time)),
             {"event": "send", "time": time, "node": node, "index": index}),
            (SOLIDIFICATION_LINE % (index, canonical_json(node)),
             {"event": "solidification", "height": index, "node": node})):
        assert line == canonical_json(event)
        assert json.loads(line) == event


def test_a_coa_run_maps_each_views_owners_at_most_once(monkeypatch):
    """Nodes look ahead through their best view's owner map, which each view
    builds at most once, however many nodes hold it."""
    built = []      # the views that built a map, held so no id is reused
    owners = ChainView.owners

    def counting(view):
        if view._owners is None:
            built.append(view)
        return owners(view)

    monkeypatch.setattr(ChainView, "owners", counting)
    trace = run_scenario(SCENARIOS["coa-baseline"])
    accepts = sum(e["event"] == "block-accept" for e in parsed_events(trace))
    assert built
    assert len({id(view) for view in built}) == len(built)
    assert len(built) < accepts


@pytest.mark.parametrize("config, forks", [(SCENARIOS["coa-offline"], False),
                                           (stormy_coa_config(), True)],
                         ids=["coa-offline", "stormy"])
def test_a_node_plans_only_when_its_best_tip_moves(monkeypatch, config, forks):
    """A node's plan is a function of its best view alone. So the run looks
    a node's slots up in its best view's owner map at its first plan and at
    each create event (both read ``best_view``), and otherwise only just
    after a node's best tip moved onto the view: at most once per move, and
    never for a node that creates no blocks. An accepted block that leaves
    the best tip in place costs no lookup; the stormy run has such blocks,
    as well as rejections, reorgs and held blocks."""
    counts = {"creations": 0, "moves": 0, "accepts": 0, "planning": 0}
    moved = {"to": None}    # the view a node's best tip just moved onto
    creating = [False]      # a node's best view was just read: a create lookup
    owners = ChainView.owners

    class RecordedNode(netsim.CoaNode):
        @property
        def best_view(self):
            creating[0] = True
            return super().best_view

        def receive_block(self, block, local_time=None):
            best = self.tree.best
            outcome = super().receive_block(block, local_time)
            counts["accepts"] += outcome[1] == ACCEPT
            moved["to"] = None
            if self.tree.best != best:
                counts["moves"] += 1
                moved["to"] = self.tree.live[self.tree.best]
            return outcome

    def counting_owners(view):
        if creating[0]:
            counts["creations"] += 1
            creating[0] = False
        else:
            counts["planning"] += 1
            assert view is moved["to"]
            moved["to"] = None
        return owners(view)

    monkeypatch.setattr(netsim, "CoaNode", RecordedNode)
    monkeypatch.setattr(ChainView, "owners", counting_owners)
    trace = run_scenario(config)
    sends = sum(e["event"] == "send" for e in parsed_events(trace))
    assert counts["creations"] >= sends > 0
    assert 0 < counts["planning"] <= counts["moves"]
    if forks:
        assert counts["moves"] < counts["accepts"]
    else:   # the offline holder moves with the rest but plans nothing
        assert counts["planning"] < counts["moves"] == counts["accepts"]


def test_a_coa_run_leaves_nothing_for_the_cycle_collector(monkeypatch):
    """Nothing of a CoA run is held in a reference cycle: its nodes, and so
    their states and views, are freed as soon as the run returns."""
    nodes = []

    class RecordedNode(netsim.CoaNode):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            nodes.append(weakref.ref(self))

    monkeypatch.setattr(netsim, "CoaNode", RecordedNode)
    gc.disable()
    try:
        run_scenario(stormy_coa_config())
        assert nodes and all(node() is None for node in nodes)
    finally:
        gc.enable()


def test_nodes_with_one_history_hold_one_state_and_prune_once_per_checkpoint(
        monkeypatch):
    """In an honest many-holder run the nodes accept one chain in one order,
    and the nodes that have accepted the same blocks hold one fork-choice
    state. A checkpoint prunes once per height for the whole run, while
    the run still writes each node's own solidification event."""
    nodes, prunes = [], []
    solidify = BlockTree.solidify

    class RecordedNode(netsim.CoaNode):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            nodes.append(self)

    def counting(tree, digest):
        prunes.append(tree.height[digest])
        return solidify(tree, digest)

    monkeypatch.setattr(netsim, "CoaNode", RecordedNode)
    monkeypatch.setattr(BlockTree, "solidify", counting)
    t1 = 4
    stake = [["h%02d" % i, 16] for i in range(16)]
    trace = run_scenario(config_from_dict(base_raw(
        params={"kappa": 8, "g0_seconds": 300, "t0": 2 * t1},
        stake=stake, duration={"slots": 40})))
    events = parsed_events(trace)
    # the run builds one node per holder, in stake order
    by_name = dict(zip([name for name, _amount in stake], nodes, strict=True))
    histories = {name: () for name in by_name}
    for e in events:
        if e["event"] == "block-accept":
            histories[e["node"]] += ((e["creator"], e["index"]),)
    longest = max(histories.values(), key=len)
    assert len(longest) == 40
    states = {}     # history -> the states of the nodes with it
    for name, node in by_name.items():
        history = histories[name]
        assert history == longest[:len(history)]
        states.setdefault(history, set()).add(id(node.tree))
    assert all(len(ids) == 1 for ids in states.values())
    # each node solidifies height h - t1 at each height h = k*t1, k >= 2,
    # that it reaches; the run prunes once per such height
    assert prunes == list(range(t1, len(longest) - t1 + 1, t1))
    solidified = [e["height"] for e in events if e["event"] == "solidification"]
    assert sorted(solidified) == sorted(
        h - t1 for history in histories.values()
        for h in range(2 * t1, len(history) + 1, t1))


def test_each_node_writes_each_effect_of_each_block_it_accepts_once(
        monkeypatch):
    """The run writes the effects a block's view carries once for each node
    that accepts the block, stamped with the node's name, just before that
    node's block-accept line: on the stormy run, blacklists."""
    nodes, accepted = [], []    # (node, block, effects) per acceptance

    class RecordedNode(netsim.CoaNode):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            nodes.append(self)

        def receive_block(self, block, local_time=None):
            outcome = super().receive_block(block, local_time)
            if outcome[1] == ACCEPT:
                accepted.append((self, block, self.views[block.digest].effects))
            return outcome

    monkeypatch.setattr(netsim, "CoaNode", RecordedNode)
    config = stormy_coa_config()
    trace = run_scenario(config)
    # the run builds one node per holder, in stake order
    name = {id(node): who for (who, _amount), node
            in zip(config.stake, nodes, strict=True)}
    expected = []
    for node, block, effects in accepted:
        who = name[id(node)]
        expected += [canonical_json(dict(payload, event=kind, node=who))
                     for kind, payload in effects]
        expected.append((who, block.index, block.creator))
    written = [(e["node"], e["index"], e["creator"])
               if e["event"] == "block-accept" else line
               for line, e in zip(trace.events, parsed_events(trace))
               if e["event"] in ("block-accept", "confiscation", "blacklist")]
    assert written == expected
    assert any('"event":"blacklist"' in line for line in written)


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(t=st.floats(allow_nan=False, allow_infinity=False) | st.floats(0.0, 2e9)
       | st.integers(0, 10 ** 15).map(lambda k: k / 1e6 + 5e-7)
       | st.sampled_from([0.0, -0.0, 1e-4, 9.99995e-5, 1e9, 999999999.9999995]))
def test_time_text_is_the_repr_of_the_time_rounded_to_six_places(t):
    """CoA writes an event's time with ``_time_text``: the float.__repr__ of
    the time rounded to six places, as the JSON encoder writes it."""
    assert netsim._time_text(t) == float.__repr__(round(t, 6))


@pytest.mark.parametrize("n", [0, 1, 5, 99])
def test_batched_delays_equal_scalar_draws(n):
    d = DelayModel(0.2, 2.0)
    batched, scalar = make_rng(3, "delay"), make_rng(3, "delay")
    drawn = d.sample(batched, n)
    assert drawn == [float(scalar.uniform(d.min, d.max))
                     for _ in range(n)]
    assert all(type(x) is float for x in drawn)
    # the Philox state holds short arrays: their repr shows every word
    assert repr(batched.bit_generator.state) == repr(scalar.bit_generator.state)


def test_analysis_config_is_name_seed_and_attack():
    raw = {"name": "c1", "seed": 3, "attack": {"kind": "claim1", "params": {
        "v": 100, "epsilon": 10, "rho_prime": 0.7, "delta": 20}}}
    config = config_from_dict(raw)
    assert config.protocol is None
    assert config.to_dict() == raw
    for key, value in (("protocol", "coa"), ("stake", [["a", 2]]),
                       ("params", {"kappa": 1}), ("duration", {"slots": 1})):
        with pytest.raises(ConfigError) as e:
            config_from_dict(dict(raw, **{key: value}))
        assert e.value.fieldname == key
    analyses = [config for config in SCENARIOS.values()
                if config.attack is not None]
    assert len(analyses) == 13
    for config in analyses:
        assert config.protocol is None
        assert set(config.to_dict()) == {"name", "seed", "attack"}


def run_ppcoin_per_second(config):
    """The PPCoin lottery drawn one trial at a time, second by second: the
    oracle for ``netsim._run_ppcoin``. Returns the trace and its rng."""
    total = 1 << config.params["kappa"]
    target = config.params.get("target_interval", 600)
    seconds = config.duration["seconds"]
    max_tips = config.params.get("max_tips", 6)
    rng = make_rng(config.seed, "ppcoin-run")
    events = []
    probs = {}
    for name, amount in config.stake:
        probs[name] = (amount / total) / target
    forks_all_tips = {name: strategy_of(config, name) == "ppcoin-multifork"
                      for name, _a in config.stake}

    tips = [0]
    blocks = 0
    fork_blocks = 0
    tip_count_sum = 0
    for t in range(seconds):
        tip_count_sum += len(tips)
        best = max(tips)
        solves = []
        for name, _amount in config.stake:
            if forks_all_tips[name]:
                work_on = range(len(tips))
            else:
                work_on = [tips.index(best)]
            for tip_idx in work_on:
                if rng.random() < probs[name]:
                    solves.append((tip_idx, name))
        base = list(tips)
        for tip_idx, name in solves:
            h = base[tip_idx] + 1
            if h > max(tips):
                tips[tip_idx] = h
                blocks += 1
                events.append({"event": "block-accept", "time": t,
                               "node": name, "height": h})
            else:
                fork_blocks += 1
                events.append({"event": "fork", "time": t, "node": name,
                               "height": h})
                if len(tips) < max_tips:
                    tips.append(h)
        best = max(tips)
        tips = sorted((h for h in tips if h >= best - 2),
                      reverse=True)[:max_tips]
    metrics = {
        "protocol": "ppcoin",
        "blocks": blocks + fork_blocks,
        "canonical_blocks": blocks,
        "fork_blocks": fork_blocks,
        "divergence": tip_count_sum / seconds,
        "mean_interval": seconds / max(1, blocks + fork_blocks),
    }
    # the trace keeps the first MAX_EVENTS events and counts the rest
    trace = SimTrace([canonical_json(e) for e in events[:MAX_EVENTS]], metrics,
                     {"tips": [max(tips)]}, max(0, len(events) - MAX_EVENTS))
    return trace, rng


@st.composite
def ppcoin_configs(draw):
    kappa = draw(st.integers(1, 6))
    total = 1 << kappa
    holders = draw(st.integers(1, min(4, total)))
    cuts = sorted(draw(st.lists(st.integers(1, total - 1), unique=True,
                                min_size=holders - 1, max_size=holders - 1)))
    stake = [["h%d" % i, hi - lo]
             for i, (lo, hi) in enumerate(zip([0] + cuts, cuts + [total]))]
    behaviors = draw(st.dictionaries(
        st.sampled_from([name for name, _a in stake]),
        st.fixed_dictionaries({"strategy": st.sampled_from(
            ENGINES["ppcoin"].strategies)})))
    return config_from_dict({
        "protocol": "ppcoin", "stake": stake, "behaviors": behaviors,
        "params": {"kappa": kappa,
                   "target_interval": draw(st.integers(1, 40)),
                   "max_tips": draw(st.integers(1, 6))},
        "duration": {"seconds": draw(st.integers(1, 3000))},
        "seed": draw(st.integers(0, 2 ** 16))})


def _ppcoin_run_and_rng(config, monkeypatch):
    used = []
    monkeypatch.setattr(netsim, "make_rng",
                        lambda *labels: used.append(make_rng(*labels))
                        or used[-1])
    trace = run_scenario(config)
    return trace, used[0]


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(ppcoin_configs())
def test_ppcoin_run_equals_the_per_second_lottery(config):
    with pytest.MonkeyPatch.context() as monkeypatch:
        trace, rng = _ppcoin_run_and_rng(config, monkeypatch)
    oracle, oracle_rng = run_ppcoin_per_second(config)
    assert trace.digest() == oracle.digest()
    assert trace.events_dropped == oracle.events_dropped
    assert (repr(rng.bit_generator.state)
            == repr(oracle_rng.bit_generator.state))


@pytest.mark.parametrize("name", ["ppcoin-honest", "ppcoin-multifork"])
def test_bundled_ppcoin_runs_equal_the_per_second_lottery(name, monkeypatch):
    config = dataclasses.replace(SCENARIOS[name], seed=5694)
    trace, rng = _ppcoin_run_and_rng(config, monkeypatch)
    oracle, oracle_rng = run_ppcoin_per_second(config)
    assert trace.digest() == oracle.digest()
    assert (repr(rng.bit_generator.state)
            == repr(oracle_rng.bit_generator.state))


def test_a_long_ppcoin_run_holds_only_the_events_it_keeps():
    """At ten times the bundled duration a PPCoin run keeps exactly
    MAX_EVENTS lines, and its traced peak stays within a fixed margin of
    the bundled run's: the events past the cut are counted, not held."""
    bundled = SCENARIOS["ppcoin-honest"]
    long = dataclasses.replace(bundled, duration={
        "seconds": 10 * bundled.duration["seconds"]})
    run_scenario(dataclasses.replace(bundled, duration={"seconds": 1000}))
    peaks, traces = [], []          # after the one-time costs, above
    for config in (bundled, long):
        tracemalloc.start()
        try:
            traces.append(run_scenario(config))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len(traces[1].events) == MAX_EVENTS
    assert traces[1].events_dropped > 9 * MAX_EVENTS
    kept = traces[0].events                         # the same first events
    assert traces[1].events[:len(kept)] == kept
    assert peaks[1] < peaks[0] + 256 * 1024


def run_coa_per_delivery(config):
    """CoA's run loop written out: one queue entry per delivery, each node
    on a private genesis view and fork-choice state (so no view, state or
    outcome is shared between nodes), a re-plan after every accepted block,
    events built as dicts, and metrics recomputed from each node's chain.
    The oracle for ``netsim._run_coa``'s queue order, planning, clocks,
    holds and event lines."""
    params = CoaParams(**config.params)
    genesis, ledger0 = make_genesis(params, list(config.stake))
    rng_delay = make_rng(config.seed, "delay")
    names = [name for name, _amount in config.stake]
    rank = {name: i for i, name in enumerate(names)}
    drift = {name: float(make_rng(config.seed, "drift", name).uniform(
        -config.clock_drift_max, config.clock_drift_max)) for name in names}
    nodes = {name: coa.CoaNode(BlockTree(genesis, ChainView(
        params, genesis, ledger0), params.t1)) for name in names}
    creates = {name: strategy_of(config, name) == "honest" for name in names}
    held = {name: {} for name in names}         # parent digest -> [block]
    planned = {name: set() for name in names}   # slot indices with a create
    slots = config.duration["slots"]
    limit = config.duration.get("seconds", (slots + 2) * params.g0_seconds * 20)
    leniency = params.timestamp_leniency
    events = []
    queue = []      # (time, sender's rank, sequence, node, block or slot index)
    seq = itertools.count()

    def push(when, sender, name, item):
        heapq.heappush(queue, (when, rank[sender], next(seq), name, item))

    def plan(name, now):
        """Queue a create for each of the node's slots in its best view."""
        if creates[name]:
            owned = nodes[name].best_view.owners().get(name, {})
            for index, earliest in owned.items():
                if index not in planned[name]:
                    planned[name].add(index)
                    push(max(now, earliest - drift[name]), name, name, index)

    for name in names:
        plan(name, 0.0)
    while queue:
        when, _rank, _seq, name, item = queue[0]
        node = nodes[name]
        if when > limit or max(n.tree.height[n.tree.best]
                               for n in nodes.values()) >= slots:
            break
        heapq.heappop(queue)
        second = int(when + drift[name])    # the node's clock reads second + 1
        if isinstance(item, int):   # a create
            planned[name].discard(item)
            view = node.best_view
            earliest = view.owners().get(name, {}).get(item)
            if earliest is None:
                continue
            if earliest > second + 1 + leniency:
                # its own clock would reject the block: wait until it admits it
                planned[name].add(item)
                push(max(when, earliest - leniency - drift[name]), name, name, item)
                continue
            block = Block(index=item, prev_digest=view.last_block.digest,
                          timestamp=max(second, earliest), creator=name).signed_by()
            events.append({"event": "send", "index": item, "node": name,
                           "time": round(when, 6)})
            push(when, name, name, block)
            peers = [peer for peer in names if peer != name]
            for peer, delay in zip(peers, config.delays.sample(rng_delay,
                                                               len(peers))):
                push(when + delay, name, peer, block)
            continue
        if item.prev_digest not in node.accepted:
            held[name].setdefault(item.prev_digest, []).append(item)
            continue
        ready = [item]
        while ready:
            block = ready.pop(0)
            old = node.tree
            ok, reason = node.receive_block(block, second + 1)
            if reason == ACCEPT:
                new = node.tree
                for kind, payload in new.live[block.digest].effects:
                    events.append(dict(payload, event=kind, node=name))
                if new.solidified_prefix != old.solidified_prefix:
                    events.append({"event": "solidification", "node": name,
                                   "height": new.height[new.solidified_prefix]})
                if not new.is_ancestor(old.best, new.best):
                    events.append({"event": "reorg", "time": round(when, 6),
                                   "node": name})
                plan(name, when)
                events.append({"event": "block-accept", "creator": block.creator,
                               "index": block.index, "node": name,
                               "time": round(when, 6)})
                ready += held[name].pop(block.digest, [])
            elif not ok:
                events.append({"event": "block-rejected", "index": block.index,
                               "node": name, "reason": reason})

    ref = nodes[names[0]]
    chain = [ref.tree.blocks[d] for d in ref.tree.path(ref.tree.best)]
    blocks = len(chain) - 1
    metrics = {
        "protocol": "coa",
        "blocks": blocks,
        "mean_interval": sum(b.timestamp - a.timestamp for a, b
                             in zip(chain, chain[1:])) / blocks if blocks else 0.0,
        "reorgs": sum(e["event"] == "reorg" for e in events),
        "fork_blocks": len(ref.accepted) - len(chain),
        "conservation_ok": all(
            n.best_view.ledger.live_total + n.best_view.ledger.destroyed
            == 1 << params.kappa for n in nodes.values()),
        "solidified_height": ref.solidified_height,
    }
    for block in chain[1:]:
        key = "blocks_by_%s" % block.creator
        metrics[key] = metrics.get(key, 0) + 1
    chains = {name: [d.hex()[:16] for d in n.tree.path(n.tree.best)]
              for name, n in nodes.items()}
    return SimTrace([canonical_json(e) for e in events], metrics, chains)


@st.composite
def coa_configs(draw):
    """Small CoA runs across the network shapes whose delivery order rests
    on the queue: zero, fixed, equal-to-G0 and long delays, clock drift up
    to 400 s, leniency 0-120, offline holders and a time limit."""
    kappa = draw(st.integers(3, 6))
    total = 1 << kappa
    holders = draw(st.integers(1, 7))
    cuts = sorted(draw(st.lists(st.integers(1, total - 1), unique=True,
                                min_size=holders - 1, max_size=holders - 1)))
    stake = [["h%d" % i, hi - lo]
             for i, (lo, hi) in enumerate(zip([0] + cuts, cuts + [total]))]
    offline = draw(st.sets(st.sampled_from([name for name, _a in stake]),
                           max_size=holders - 1))
    g0 = draw(st.sampled_from([60, 300]))
    low, high = draw(st.one_of(
        st.just((0.0, 0.0)),
        st.floats(0.0, 2.0 * g0).map(lambda d: (d, d)),
        st.just((float(g0), float(g0))),
        st.tuples(st.floats(0.0, 2.0), st.floats(2.0, 3.0 * g0))))
    duration = {"slots": draw(st.integers(1, 24))}
    if draw(st.booleans()):
        duration["seconds"] = draw(st.integers(1, 30 * g0))
    return config_from_dict({
        "protocol": "coa", "stake": stake,
        "behaviors": {name: {"strategy": "offline"} for name in offline},
        "params": {"kappa": kappa, "g0_seconds": g0,
                   "t0": draw(st.sampled_from([2, 4, 8])),
                   "timestamp_leniency": draw(st.integers(0, 120))},
        "delays": {"min": low, "max": high},
        "clock_drift_max": draw(st.sampled_from([0.0, 2.0, 400.0])
                                | st.floats(0.0, 400.0)),
        "duration": duration, "seed": draw(st.integers(0, 2 ** 16))})


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(coa_configs())
def test_coa_run_equals_the_per_delivery_loop(config):
    assert run_scenario(config).digest() == run_coa_per_delivery(config).digest()


def test_coa_runs_with_blocks_stamped_late_equal_the_per_delivery_loop():
    """Delays from G0 to 4 s over it, with clocks and leniency of a few
    seconds: a block stamped a few seconds late dates the slots after it
    later than their creators planned, to the edge of the creator's clock,
    where the create step's clock test decides whether to send or wait."""
    for seed in range(20):
        config = config_from_dict(base_raw(
            params={"kappa": 4, "g0_seconds": 60, "t0": 4,
                    "timestamp_leniency": seed % 3},
            delays={"min": 60.0, "max": 64.0}, clock_drift_max=3.0,
            duration={"slots": 24}, seed=seed))
        assert run_scenario(config).digest() == \
            run_coa_per_delivery(config).digest(), seed


@pytest.mark.parametrize("name", [n for n, c in SCENARIOS.items()
                                  if c.protocol == "coa"] + ["stormy"])
def test_bundled_coa_runs_equal_the_per_delivery_loop(name):
    config = (stormy_coa_config() if name == "stormy" else
              dataclasses.replace(SCENARIOS[name], seed=5694))
    assert run_scenario(config).digest() == run_coa_per_delivery(config).digest()


def test_a_fan_out_hands_its_flight_back_to_a_create_it_planned(monkeypatch):
    """A block's flight delivers its arrivals in place only while each
    sorts before the queue's head, and each delivery can plan a create.
    With delays just above G0 and no drift, a peer that accepts a block
    can find the next slot newly its own in its new best view (a closed
    group draws a new schedule) and already due: its create sorts before
    the flight's next arrival, so the flight goes back to the queue
    mid-fan-out, and the run still equals the per-delivery loop."""
    planned, handed_back = [], []   # creates queued since the last pop

    def pop(heap):
        planned.clear()
        return heapq.heappop(heap)

    def push(heap, entry):
        if entry[5] is None:
            planned.append(entry)
        elif entry[3].rank != entry[1] and any(heap[0] is e for e in planned):
            handed_back.append(entry)   # a peer's arrival, not the sender's
        heapq.heappush(heap, entry)

    config = config_from_dict(base_raw(
        delays={"min": 300.0, "max": 330.0}, clock_drift_max=0.0,
        duration={"slots": 16}, seed=6))
    monkeypatch.setattr(netsim, "heapq", SimpleNamespace(heappush=push,
                                                         heappop=pop))
    digest = run_scenario(config).digest()
    assert handed_back
    assert digest == run_coa_per_delivery(config).digest()
