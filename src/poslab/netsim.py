"""Deterministic discrete-event network simulator.

One scenario = one single-threaded event loop. All randomness flows from the
scenario seed through labeled substreams, and queue ties at equal timestamps
are broken by (sender rank, sequence number), so a (config, seed) pair fully
determines the trace. A stakeholder's strategy is a bare name that each
engine reads through ``strategy_of``, one of those its ``ENGINES`` entry
lists; analysis scenarios run an entry of ``attacks.ANALYSES``.
"""

from __future__ import annotations

import csv
import hashlib
import heapq
import io
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from . import attacks, dense
from .coa import (ACCEPT, ChainView, CoaNode, CoaParams, make_genesis,
                  min_timestamp)
from .comb import ParamError
from .ledger import Block, canonical_block_digest
from .rng import make_rng, quiet_rows

LOOKAHEAD = 10      # CoA slots a node looks ahead to schedule its blocks
MAX_EVENTS = 2000   # PPCoin and Dense-CoA traces keep their first events only
QUIET_BATCH = 32    # PPCoin seconds drawn per batch when skipping quiet ones
ENGINE_KEYS = ("name", "protocol", "params", "stake", "behaviors", "delays",
               "clock_drift_max", "duration", "seed")
ANALYSIS_KEYS = ("name", "seed", "attack")


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

    def sample(self, rng) -> float:
        return float(rng.uniform(self.min_seconds, self.max_seconds))


@dataclass(frozen=True)
class ScenarioConfig:
    """An engine run (``protocol`` set) or an analysis run (``attack`` set)."""
    name: str
    protocol: Optional[str] = None
    params: dict = field(default_factory=dict)  # kappa, ENGINES[protocol].params
    stake: Tuple[Tuple[str, int], ...] = ()
    duration: dict = field(default_factory=dict)  # keys: ENGINES[protocol]
    behaviors: dict = field(default_factory=dict)   # stakeholder -> {strategy}
    delays: DelayModel = DelayModel()
    clock_drift_max: float = 2.0
    seed: int = 0
    attack: Optional[dict] = None      # {kind, params}

    def to_dict(self) -> dict:
        if self.attack is not None:
            return {"name": self.name, "seed": self.seed, "attack": self.attack}
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
        }


def _check_keys(obj: dict, allowed, prefix: str = ""):
    """Reject the first key of `obj` that nothing reads."""
    for key in obj:
        if key not in allowed:
            raise ConfigError(prefix + str(key), "unknown key (known: %s)"
                              % ", ".join(allowed))


def config_from_dict(raw: dict, name: str = "scenario") -> ScenarioConfig:
    """Validate a parsed config; raises ConfigError naming the bad field."""
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config must be an object")
    seed = raw.get("seed", 0)
    if type(seed) is not int:
        raise ConfigError("seed", "must be an integer")
    name = raw.get("name", name)
    if not isinstance(name, str):
        raise ConfigError("name", "must be a string")
    if "attack" in raw:
        _check_keys(raw, ANALYSIS_KEYS)
        analysis_of(raw["attack"])
        return ScenarioConfig(name=name, seed=seed, attack=raw["attack"])
    _check_keys(raw, ENGINE_KEYS)
    protocol = raw.get("protocol")
    if not isinstance(protocol, str) or protocol not in ENGINES:
        raise ConfigError("protocol", "must be one of %s, got %r"
                          % ("/".join(ENGINES), protocol))
    engine = ENGINES[protocol]
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params", "must be an object")
    kappa = params.get("kappa")
    if type(kappa) is not int or not 1 <= kappa <= 64:
        raise ConfigError("params.kappa", "must be an integer in [1, 64]")
    _check_keys(params, ("kappa",) + engine.params, "params.")
    for key, value in params.items():
        if key != "comb" and type(value) is not int:
            raise ConfigError("params." + key, "must be an integer")
        if protocol != "coa" and value < 1:
            raise ConfigError("params." + key, "must be positive")
    if protocol == "coa":
        try:
            coa_params(params)
        except ParamError as exc:
            raise ConfigError("params." + exc.name, str(exc))
    stake_raw = raw.get("stake")
    if not isinstance(stake_raw, list) or not stake_raw:
        raise ConfigError("stake", "must be a non-empty list of [name, satoshis]")
    stake = []
    for pos, entry in enumerate(stake_raw):
        if (not isinstance(entry, (list, tuple)) or len(entry) != 2
                or not isinstance(entry[0], str)
                or type(entry[1]) is not int or entry[1] <= 0):
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
        if sid not in engine.strategies:
            raise ConfigError("behaviors.%s.strategy" % who,
                              "protocol %r runs %s, got %r"
                              % (protocol, "/".join(engine.strategies), sid))
        _check_keys(spec, ("strategy",), "behaviors.%s." % who)
    d = raw.get("delays", {})
    if not isinstance(d, dict):
        raise ConfigError("delays", "must be an object")
    _check_keys(d, ("min", "max", "distribution"), "delays.")
    delays = DelayModel(_number(d, "min", 0.2, "delays.min"),
                        _number(d, "max", 2.0, "delays.max"),
                        d.get("distribution", "uniform"))
    if delays.min_seconds < 0 or delays.max_seconds < delays.min_seconds:
        raise ConfigError("delays", "require 0 <= min <= max")
    drift = _number(raw, "clock_drift_max", 2.0, "clock_drift_max")
    if drift < 0:
        raise ConfigError("clock_drift_max", "must not be negative")
    duration = raw.get("duration", dict(engine.duration))
    if not isinstance(duration, dict) or not duration:
        raise ConfigError("duration", "must be an object like %r"
                          % engine.duration)
    _check_keys(duration, tuple(engine.duration) + engine.optional, "duration.")
    for key, value in duration.items():
        if type(value) is not int or value < 1:
            raise ConfigError("duration." + key, "must be a positive integer")
    for key in engine.duration:
        if key not in duration:
            raise ConfigError("duration." + key, "required by protocol %r"
                              % protocol)
    return ScenarioConfig(
        name=name, protocol=protocol, params=params,
        stake=tuple(stake), behaviors=behaviors, delays=delays,
        clock_drift_max=float(drift), duration=duration, seed=seed)


def _number(obj: dict, key: str, default: float, fieldname: str):
    """``obj[key]`` (or the default) if it is a finite number."""
    value = obj.get(key, default)
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ConfigError(fieldname, "must be a finite number, got %r"
                          % (value,))
    return value


_PARAM_CHECKS = {   # attacks.PARAM_TYPES value -> (what it means, test)
    "number": ("a finite number",
               lambda v: type(v) in (int, float) and math.isfinite(v)),
    "count": ("a positive integer", lambda v: type(v) is int and v >= 1),
    "string": ("a string", lambda v: isinstance(v, str)),
    "bool": ("true or false", lambda v: type(v) is bool),
}


def analysis_of(attack) -> tuple:
    """(kind, params, analysis) of an ``attack`` block, checked against
    ``attacks.ANALYSES``; raises ConfigError naming the bad field."""
    if not isinstance(attack, dict):
        raise ConfigError("attack", "must be an object with kind and params")
    _check_keys(attack, ("kind", "params"), "attack.")
    kind = attack.get("kind")
    if not isinstance(kind, str) or kind not in attacks.ANALYSES:
        raise ConfigError("attack.kind", "unknown analysis kind %r (known: %s)"
                          % (kind, ", ".join(attacks.ANALYSES)))
    params = attack.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("attack.params", "must be an object")
    analysis = attacks.ANALYSES[kind]
    for key in analysis.required:
        if key not in params:
            raise ConfigError("attack.params." + key,
                              "required by analysis %r" % kind)
    _check_keys(params, analysis.required + tuple(analysis.defaults),
                "attack.params.")
    for key, value in params.items():
        what, ok = _PARAM_CHECKS[attacks.PARAM_TYPES.get(key, "number")]
        if not ok(value):
            raise ConfigError("attack.params." + key, "must be %s, got %r"
                              % (what, value))
    return kind, params, analysis


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
    events_dropped: int = 0      # events cut by MAX_EVENTS; not in the digest

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
    renamed = {"comb": "comb_kind", "g0_seconds": "g0"}
    return CoaParams(**{renamed.get(k, k): v for k, v in p.items()})


def _run_coa(config: ScenarioConfig) -> SimTrace:
    params = coa_params(config.params)
    genesis, ledger0 = make_genesis(params, list(config.stake))
    rng_delay = make_rng(config.seed, "delay")
    events: List[dict] = []
    rank = {name: i for i, (name, _a) in enumerate(config.stake)}

    def observe(kind, payload):
        events.append(dict(payload, event=kind))

    nodes = {}
    drifts = {}
    creates_blocks = {}
    genesis_view = ChainView(params, genesis, ledger0)
    for i, (name, _amount) in enumerate(config.stake):
        nodes[name] = CoaNode(genesis_view, node_id=name, observer=observe)
        drift_rng = make_rng(config.seed, "drift", name)
        drifts[name] = float(drift_rng.uniform(-config.clock_drift_max,
                                               config.clock_drift_max))
        creates_blocks[name] = strategy_of(config, name) == "honest"
    del genesis_view    # a view holds its children: this name would keep every view

    target_blocks = config.duration["slots"]
    time_limit = config.duration.get(
        "seconds", (target_blocks + 2) * params.g0 * 20)
    queue: list = []
    seq = [0]
    scheduled = set()
    held = {name: {} for name in nodes}   # parent digest -> blocks waiting
    reorgs = 0

    def push(when, sender, kind, payload):
        heapq.heappush(queue, (when, rank.get(sender, -1), seq[0], kind, payload))
        seq[0] += 1

    def schedule_creations(name, now):
        node = nodes[name]
        if not creates_blocks[name]:
            return
        view = node.best_view
        for index, _z, owner, _uid in view.slot_candidates(LOOKAHEAD):
            if owner != name or (name, index) in scheduled:
                continue
            local_min = min_timestamp(view.last_block.timestamp, index,
                                      view.last_block.index, params.g0)
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
            last = view.last_block
            gap = index - last.index
            if gap < 1:
                continue
            cands = view.slot_candidates(gap)
            if cands[-1][2] != name:
                continue
            local_now = when + drifts[name]
            earliest = min_timestamp(last.timestamp, index, last.index, params.g0)
            leniency = params.timestamp_leniency
            if earliest > int(local_now) + 1 + leniency:
                # its own delivery would be future-dated: wait for the clock
                scheduled.add((name, index))
                push(earliest - leniency - drifts[name], name, "create", payload)
                continue
            ts = max(int(local_now), earliest)
            block = Block(index=index, prev_digest=last.digest,
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
            block = payload["block"]
            if block.prev_digest not in node.tree:
                # hold it until the node accepts its parent
                held[name].setdefault(block.prev_digest, []).append(block)
                continue
            ready = [block]
            for block in ready:     # grows by the held children accepted
                before = node.best_tip
                ok, reason = node.receive_block(block,
                                                int(when + drifts[name]) + 1)
                if not (ok and reason == ACCEPT):
                    continue
                # a new best tip is the block just accepted, one above `before`
                if node.best_tip != before and block.prev_digest != before:
                    reorgs += 1
                    events.append({"event": "reorg", "time": round(when, 6),
                                   "node": name})
                events.append({"event": "block-accept", "time": round(when, 6),
                               "node": name, "index": block.index,
                               "creator": block.creator})
                best_height = max(best_height,
                                  node.tree.height[node.best_tip])
                schedule_creations(name, when)
                ready.extend(held[name].pop(block.digest, ()))

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
        "reorgs": reorgs,
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
    t = 0
    while t < seconds:
        best = max(tips)
        trials = [(tip_idx, name) for name, _amount in config.stake
                  for tip_idx in (range(len(tips)) if forks_all_tips[name]
                                  else [tips.index(best)])]
        # the tips, and so the trials, change only in a second with a solve
        quiet = quiet_rows(rng, [probs[name] for _i, name in trials],
                           min(QUIET_BATCH, seconds - t))
        tip_count_sum += quiet * len(tips)
        t += quiet
        if t == seconds:
            break
        tip_count_sum += len(tips)
        solves = [(tip_idx, name) for tip_idx, name in trials
                  if rng.random() < probs[name]]
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
        t += 1
    metrics = {
        "protocol": "ppcoin",
        "blocks": blocks + fork_blocks,
        "canonical_blocks": blocks,
        "fork_blocks": fork_blocks,
        "divergence": tip_count_sum / seconds,
        "mean_interval": seconds / max(1, blocks + fork_blocks),
    }
    return _capped(SimTrace(config, events, metrics, {"tips": [max(tips)]}))


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
            if strategy_of(config, name) != "honest"}
    rng = make_rng(config.seed, "dense-run")
    seed_val = int(make_rng(config.seed, "dense-seed").integers(0, 1 << kappa))
    events: List[dict] = []
    now = 0.0
    fallbacks = 0
    intervals = []
    stall = []
    for i in range(1, config.duration["slots"] + 1):
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
            if t > 10_000:      # no clean committee: the chain stalls
                stall = [{"event": "stall", "index": i, "fallbacks": t}]
                break
        if stall:
            break
    metrics = {
        "protocol": "dense_coa",
        "blocks": len(intervals),
        "fallbacks": fallbacks,
        "mean_interval": sum(intervals) / len(intervals) if intervals else 0.0,
    }
    trace = _capped(SimTrace(config, events, metrics, {}))
    trace.events += stall      # kept past the cut: it says why the run ended
    return trace


def _capped(trace: SimTrace) -> SimTrace:
    """Keep the first MAX_EVENTS events of `trace` and count the rest."""
    trace.events_dropped = max(0, len(trace.events) - MAX_EVENTS)
    del trace.events[MAX_EVENTS:]
    return trace


# ---------------------------------------------------------------------------
# analysis scenarios (attack calculators behind the same trace interface)
# ---------------------------------------------------------------------------

def _run_attack(config: ScenarioConfig) -> SimTrace:
    """Run the analysis; a calculator's rejection of its params is a
    ConfigError, since validation cannot see it without running it."""
    kind, p, analysis = analysis_of(config.attack)
    try:
        metrics = dict(analysis.run(p, config.seed), kind=kind)
    except ParamError as exc:
        raise ConfigError("attack.params." + exc.name, str(exc))
    except (TypeError, ValueError) as exc:
        raise ConfigError("attack.params", str(exc))
    events = [{"event": "analysis", "kind": kind, "params": dict(p)}]
    return SimTrace(config, events, metrics, {})


class Engine(NamedTuple):
    run: Callable[[ScenarioConfig], SimTrace]
    params: tuple       # read besides kappa; integers, except coa's comb
    duration: dict      # run when a config gives none; a given one needs its keys
    strategies: tuple   # the strategies it runs; "honest" is the default
    optional: tuple = ()    # other duration keys it reads


ENGINES = {
    "coa": Engine(_run_coa, ("w", "comb", "g0_seconds", "c0", "c1", "t0",
                             "timestamp_leniency"),
                  {"slots": 50}, ("honest", "offline", "withhold"),
                  ("seconds",)),
    "dense_coa": Engine(_run_dense, ("ell", "g0_seconds"), {"slots": 50},
                        ("honest", "offline", "withhold")),
    "ppcoin": Engine(_run_ppcoin, ("target_interval", "max_tips"),
                     {"seconds": 60_000}, ("honest", "ppcoin-multifork")),
}


def run_scenario(config: ScenarioConfig) -> SimTrace:
    if config.attack is not None:
        return _run_attack(config)
    return ENGINES[config.protocol].run(config)
