"""Deterministic discrete-event network simulator.

One scenario = one single-threaded event loop. All randomness flows from the
scenario seed through labeled substreams, and queue ties at equal timestamps
are broken by (sender rank, sequence number), so a (config, seed) pair fully
determines the trace. A stakeholder's strategy is a bare name that each
engine reads through ``strategy_of``; analysis scenarios run an entry of
``attacks.ANALYSES``.
"""

from __future__ import annotations

import csv
import hashlib
import heapq
import io
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from . import attacks, dense
from .coa import ACCEPT, CoaNode, CoaParams, make_genesis, min_timestamp
from .comb import ParamError
from .ledger import Block, canonical_block_digest
from .rng import make_rng

STRATEGIES = ("honest", "offline", "withhold", "ppcoin-multifork")
IDLE_STRATEGIES = ("offline", "withhold")   # create no blocks
# protocol -> (the duration it runs when a config gives none, other keys its
# engine reads); a given duration needs every key of the default
DURATIONS = {
    "coa": ({"slots": 50}, ("seconds",)),
    "dense_coa": ({"slots": 50}, ()),
    "ppcoin": ({"seconds": 60_000}, ()),
}


class ConfigError(ValueError):
    def __init__(self, fieldname: str, message: str):
        super().__init__("%s: %s" % (fieldname, message))
        self.fieldname = fieldname


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DelayModel:
    min_seconds: float = 0.2
    max_seconds: float = 2.0
    distribution: str = "uniform"

    def __post_init__(self):
        if self.distribution != "uniform":
            raise ConfigError("delays.distribution",
                              "unknown distribution %r" % self.distribution)

    @property
    def mean_seconds(self) -> float:
        return (self.min_seconds + self.max_seconds) / 2.0

    def sample(self, rng) -> float:
        return float(rng.uniform(self.min_seconds, self.max_seconds))


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    protocol: str
    params: dict                       # kappa, w, comb, g0_seconds, c0, c1, t0...
    stake: Tuple[Tuple[str, int], ...]
    duration: dict                     # keys and defaults: DURATIONS[protocol]
    behaviors: dict = field(default_factory=dict)   # stakeholder -> {strategy, params}
    delays: DelayModel = DelayModel()
    clock_drift_max: float = 2.0
    seed: int = 0
    attack: Optional[dict] = None      # analysis scenarios: {kind, params}

    def to_dict(self) -> dict:
        return {
            "name": self.name, "protocol": self.protocol,
            "params": dict(self.params),
            "stake": [[s, int(a)] for s, a in self.stake],
            "behaviors": self.behaviors,
            "delays": {"min": self.delays.min_seconds,
                       "max": self.delays.max_seconds,
                       "distribution": self.delays.distribution},
            "clock_drift_max": self.clock_drift_max,
            "duration": self.duration, "seed": self.seed,
            "attack": self.attack,
        }


def config_from_dict(raw: dict, name: str = "scenario") -> ScenarioConfig:
    """Validate a parsed config; raises ConfigError naming the bad field."""
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config must be an object")
    protocol = raw.get("protocol")
    if protocol not in ENGINES:
        raise ConfigError("protocol", "must be one of %s, got %r"
                          % ("/".join(ENGINES), protocol))
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params", "must be an object")
    kappa = params.get("kappa")
    if not isinstance(kappa, int) or not 1 <= kappa <= 64:
        raise ConfigError("params.kappa", "must be an integer in [1, 64]")
    stake_raw = raw.get("stake")
    if not isinstance(stake_raw, list) or not stake_raw:
        raise ConfigError("stake", "must be a non-empty list of [name, satoshis]")
    stake = []
    for pos, entry in enumerate(stake_raw):
        if (not isinstance(entry, (list, tuple)) or len(entry) != 2
                or not isinstance(entry[0], str)
                or not isinstance(entry[1], int) or entry[1] <= 0):
            raise ConfigError("stake[%d]" % pos,
                              "expected [name, positive satoshi count], got %r"
                              % (entry,))
        stake.append((entry[0], entry[1]))
    total = sum(a for _s, a in stake)
    if total != 1 << kappa:
        raise ConfigError("stake", "allocation sums to %d, must equal 2^kappa = %d"
                          % (total, 1 << kappa))
    behaviors = raw.get("behaviors", {})
    if not isinstance(behaviors, dict):
        raise ConfigError("behaviors", "must map stakeholder to strategy")
    names = {s for s, _a in stake}
    for who, spec in behaviors.items():
        if who not in names:
            raise ConfigError("behaviors.%s" % who, "unknown stakeholder")
        sid = spec.get("strategy") if isinstance(spec, dict) else None
        if sid not in STRATEGIES:
            raise ConfigError("behaviors.%s.strategy" % who,
                              "unknown strategy %r" % sid)
    d = raw.get("delays", {})
    delays = DelayModel(d.get("min", 0.2), d.get("max", 2.0),
                        d.get("distribution", "uniform"))
    if delays.min_seconds < 0 or delays.max_seconds < delays.min_seconds:
        raise ConfigError("delays", "require 0 <= min <= max")
    default, optional = DURATIONS[protocol]
    duration = raw.get("duration", dict(default))
    if not isinstance(duration, dict) or not duration:
        raise ConfigError("duration", "must be an object like %r" % default)
    for key, value in duration.items():
        if key not in default and key not in optional:
            raise ConfigError("duration." + key, "not read by protocol %r"
                              % protocol)
        if type(value) is not int or value < 1:
            raise ConfigError("duration." + key, "must be a positive integer")
    for key in default:
        if key not in duration:
            raise ConfigError("duration." + key, "required by protocol %r"
                              % protocol)
    seed = raw.get("seed", 0)
    if not isinstance(seed, int):
        raise ConfigError("seed", "must be an integer")
    if protocol == "coa":
        try:
            coa_params(params)
        except ParamError as exc:
            raise ConfigError("params." + exc.name, str(exc))
    attack = raw.get("attack")
    if attack is not None:
        analysis_of(attack)
    return ScenarioConfig(
        name=raw.get("name", name), protocol=protocol, params=params,
        stake=tuple(stake), behaviors=behaviors, delays=delays,
        clock_drift_max=float(raw.get("clock_drift_max", 2.0)),
        duration=duration, seed=seed, attack=attack)


def analysis_of(attack) -> tuple:
    """(kind, params, fn) of an ``attack`` block, checked against
    ``attacks.ANALYSES``; raises ConfigError naming the bad field."""
    if not isinstance(attack, dict):
        raise ConfigError("attack", "must be an object with kind and params")
    kind = attack.get("kind")
    if kind not in attacks.ANALYSES:
        raise ConfigError("attack.kind", "unknown analysis kind %r (known: %s)"
                          % (kind, ", ".join(attacks.ANALYSES)))
    params = attack.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("attack.params", "must be an object")
    required, fn = attacks.ANALYSES[kind]
    for key in required:
        if key not in params:
            raise ConfigError("attack.params." + key,
                              "required by analysis %r" % kind)
    return kind, params, fn


def load_config(path: str) -> ScenarioConfig:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("<file>", "not valid JSON: %s" % exc)
    return config_from_dict(raw, name=path)


def strategy_of(config: ScenarioConfig, stakeholder: str) -> str:
    """The stakeholder's strategy name; stakeholders without one are honest."""
    spec = config.behaviors.get(stakeholder)
    return "honest" if spec is None else spec["strategy"]


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

@dataclass
class SimTrace:
    config: ScenarioConfig
    events: List[dict]
    metrics: Dict[str, object]
    final_chains: Dict[str, list] = field(default_factory=dict)

    def digest(self) -> str:
        payload = json.dumps({"events": self.events, "metrics": self.metrics,
                              "chains": self.final_chains},
                             sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()

    def events_jsonl(self) -> str:
        return "\n".join(json.dumps(e, sort_keys=True) for e in self.events) + "\n"

    def metrics_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        keys = sorted(self.metrics)
        writer.writerow(keys)
        writer.writerow([self.metrics[k] for k in keys])
        return buf.getvalue()


# ---------------------------------------------------------------------------
# CoA event loop
# ---------------------------------------------------------------------------

def coa_params(p: dict) -> CoaParams:
    return CoaParams(
        kappa=p["kappa"], w=p.get("w", 1), comb_kind=p.get("comb", "concat"),
        g0=p.get("g0_seconds", 300), c0=p.get("c0", 0), c1=p.get("c1", 0),
        t0=p.get("t0", 8),
        timestamp_leniency=p.get("timestamp_leniency", 120))


def _run_coa(config: ScenarioConfig) -> SimTrace:
    params = coa_params(config.params)
    genesis, ledger0 = make_genesis(params, list(config.stake))
    rng_delay = make_rng(config.seed, "delay")
    events: List[dict] = []
    rank = {name: i for i, (name, _a) in enumerate(config.stake)}

    def observer_for(name):
        def observe(kind, payload):
            if kind in ("confiscation", "blacklist", "solidification",
                        "block-rejected"):
                events.append(dict(payload, event=kind, node=name))
        return observe

    nodes = {}
    drifts = {}
    creates_blocks = {}
    for i, (name, _amount) in enumerate(config.stake):
        nodes[name] = CoaNode(params, genesis, ledger0, node_id=name,
                              observer=observer_for(name))
        drift_rng = make_rng(config.seed, "drift", name)
        drifts[name] = float(drift_rng.uniform(-config.clock_drift_max,
                                               config.clock_drift_max))
        creates_blocks[name] = strategy_of(config, name) not in IDLE_STRATEGIES

    target_blocks = config.duration["slots"]
    time_limit = config.duration.get(
        "seconds", (target_blocks + 2) * params.g0 * 20)
    queue: list = []
    seq = [0]
    scheduled = set()
    reorgs = {name: 0 for name in nodes}
    accepted_total = [0]

    def push(when, sender, kind, payload):
        heapq.heappush(queue, (when, rank.get(sender, -1), seq[0], kind, payload))
        seq[0] += 1

    def schedule_creations(name, now):
        node = nodes[name]
        if not creates_blocks[name]:
            return
        view = node.best_view
        lookahead = view.slot_candidates(10)
        for index, _z, owner, _uid in lookahead:
            if owner != name or (name, index) in scheduled:
                continue
            local_min = min_timestamp(view.last_timestamp, index,
                                      view.last_index, params.g0)
            when = max(now, local_min - drifts[name])
            scheduled.add((name, index))
            push(when, name, "create", {"node": name, "index": index})

    for name in nodes:
        schedule_creations(name, 0.0)

    best_height = 0
    while queue:
        when, _rank, _seq, kind, payload = heapq.heappop(queue)
        if when > time_limit or best_height >= target_blocks:
            break
        if kind == "create":
            name = payload["node"]
            scheduled.discard((name, payload["index"]))
            node = nodes[name]
            view = node.best_view
            index = payload["index"]
            gap = index - view.last_index
            if gap < 1:
                continue
            cands = view.slot_candidates(gap)
            if cands[-1][2] != name:
                continue
            local_now = when + drifts[name]
            ts = max(int(local_now),
                     min_timestamp(view.last_timestamp, index,
                                   view.last_index, params.g0))
            block = Block(index=index, prev_digest=view.last_digest,
                          timestamp=ts, creator=name).signed_by()
            push(when, name, "deliver", {"dst": name, "block": block,
                                         "src": name})
            for other in nodes:
                if other != name:
                    push(when + config.delays.sample(rng_delay), name,
                         "deliver", {"dst": other, "block": block, "src": name})
            events.append({"event": "send", "time": round(when, 6),
                           "node": name, "index": index})
        elif kind == "deliver":
            name = payload["dst"]
            node = nodes[name]
            before = node.best_tip
            ok, reason = node.receive_block(payload["block"],
                                            int(when + drifts[name]) + 1)
            if ok and reason == ACCEPT:
                accepted_total[0] += 1
                after = node.best_tip
                if after != before and not node.tree.is_ancestor(before, after):
                    reorgs[name] += 1
                    events.append({"event": "reorg", "time": round(when, 6),
                                   "node": name})
                events.append({"event": "block-accept", "time": round(when, 6),
                               "node": name, "index": payload["block"].index,
                               "creator": payload["block"].creator})
                best_height = max(best_height,
                                  node.tree.height[node.best_tip])
                schedule_creations(name, when)

    # metrics off an arbitrary (deterministic) reference node
    ref = nodes[config.stake[0][0]]
    chain = [ref.tree.blocks[d] for d in ref.tree.path(ref.best_tip)]
    timestamps = [b.timestamp for b in chain]
    intervals = [b - a for a, b in zip(timestamps, timestamps[1:])]
    total_supply = 1 << config.params["kappa"]
    conservation_ok = all(
        n.best_view.ledger.live_total + n.best_view.ledger.destroyed
        == total_supply for n in nodes.values())
    per_creator: Dict[str, int] = {}
    for b in chain[1:]:
        per_creator[b.creator] = per_creator.get(b.creator, 0) + 1
    metrics = {
        "protocol": "coa",
        "blocks": len(chain) - 1,
        "mean_interval": (sum(intervals) / len(intervals)) if intervals else 0.0,
        "reorgs": sum(reorgs.values()),
        "fork_blocks": len(ref.tree.blocks) - len(chain),
        "conservation_ok": conservation_ok,
        "solidified_height": ref.solidified_height,
    }
    for who, n in sorted(per_creator.items()):
        metrics["blocks_by_%s" % who] = n
    chains = {name: [d.hex()[:16] for d in n.tree.path(n.best_tip)]
              for name, n in nodes.items()}
    return SimTrace(config, events, metrics, chains)


# ---------------------------------------------------------------------------
# PPCoin per-second lottery
# ---------------------------------------------------------------------------

def _run_ppcoin(config: ScenarioConfig) -> SimTrace:
    total = 1 << config.params["kappa"]
    target = config.params.get("target_interval", 600)
    seconds = config.duration["seconds"]
    max_tips = config.params.get("max_tips", 6)
    rng = make_rng(config.seed, "ppcoin-run")
    events: List[dict] = []
    # per-stakeholder solve probability per second per tip, calibrated so the
    # whole network solves at 1/target when everyone works a single tip
    probs = {}
    for name, amount in config.stake:
        probs[name] = (amount / total) / target
    forks_all_tips = {name: strategy_of(config, name) == "ppcoin-multifork"
                      for name, _a in config.stake}

    tips = [0]          # heights of the live tips
    blocks = 0
    fork_blocks = 0
    tip_count_sum = 0
    for t in range(seconds):
        tip_count_sum += len(tips)
        best = max(tips)
        solves = []   # (tip position, stakeholder)
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
                # a second solve at the same height: the network diverges
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
    return SimTrace(config, events[:2000], metrics, {"tips": [max(tips)]})


# ---------------------------------------------------------------------------
# Dense-CoA committee rounds
# ---------------------------------------------------------------------------

def _run_dense(config: ScenarioConfig) -> SimTrace:
    from .ledger import LedgerState
    p = config.params
    kappa, ell = p["kappa"], p.get("ell", 7)
    g0 = p.get("g0_seconds", 300)
    ledger = LedgerState.from_allocation(list(config.stake))
    idle = {name for name, _a in config.stake
            if strategy_of(config, name) in IDLE_STRATEGIES}
    rng = make_rng(config.seed, "dense-run")
    seed_val = int(make_rng(config.seed, "dense-seed").integers(0, 1 << kappa))
    blocks = config.duration["slots"]
    events: List[dict] = []
    now = 0.0
    fallbacks = 0
    intervals = []
    for i in range(1, blocks + 1):
        t = 0
        start = now
        while True:
            members = dense.derive_committee(seed_val, i, t, ledger, ell, kappa)
            withholds = any(owner in idle for owner, _uid in members)
            round_time = config.delays.sample(rng) * 2
            if not withholds:
                committee = dense.CommitteeRound(i, t, members)
                secrets = {}
                for j in range(ell):
                    secret, commitment = dense.round1_commit(rng)
                    committee.add_commit(j, commitment)
                    secrets[j] = secret
                sigs = {j: dense.member_sign(members[j][0], committee)
                        for j in range(ell)}
                agg = dense.round2_sign_and_aggregate(committee, sigs)
                for j in range(ell):
                    committee.add_reveal(j, secrets[j])
                now = start + t * g0 + round_time
                seed_val = dense.next_seed(
                    [committee.reveals[j] for j in range(ell)], kappa)
                events.append({"event": "block-accept", "time": round(now, 3),
                               "index": i, "fallback": t,
                               "aggregate": agg.tag.hex()[:16]})
                intervals.append(now - start)
                break
            t += 1
            fallbacks += 1
            events.append({"event": "fallback-advanced", "index": i, "t": t})
            if t > 10_000:
                raise RuntimeError("no clean committee found")
    metrics = {
        "protocol": "dense_coa",
        "blocks": blocks,
        "fallbacks": fallbacks,
        "mean_interval": sum(intervals) / len(intervals),
    }
    return SimTrace(config, events[:2000], metrics, {})


# ---------------------------------------------------------------------------
# analysis scenarios (attack calculators behind the same trace interface)
# ---------------------------------------------------------------------------

def _run_attack(config: ScenarioConfig) -> SimTrace:
    kind, p, fn = analysis_of(config.attack)
    metrics = dict(fn(p, config.seed), kind=kind)
    events = [{"event": "analysis", "kind": kind, "params": dict(p)}]
    return SimTrace(config, events, metrics, {})


ENGINES = {"coa": _run_coa, "dense_coa": _run_dense, "ppcoin": _run_ppcoin}


def run_scenario(config: ScenarioConfig) -> SimTrace:
    if config.attack is not None:
        return _run_attack(config)
    return ENGINES[config.protocol](config)
