"""Deterministic discrete-event network simulator.

One scenario = one single-threaded event loop. All randomness flows from the
scenario seed through labeled substreams, and queue ties at equal timestamps
are broken by (sender rank, sequence number), so a (config, seed) pair fully
determines the trace. A stakeholder's strategy is a bare name that each
engine reads through ``strategy_of``, one of those its ``ENGINES`` entry
lists; analysis scenarios run an entry of ``attacks.ANALYSES``.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import json
import math
import operator
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from . import attacks, dense
from .coa import ACCEPT, ChainView, CoaNode, CoaParams, make_genesis
from .comb import ParamError
from .ledger import Block, BlockTree, LedgerState
# netsim calls no canonical_block_digest, but perfbench's tests assert that
# the tracer's wrapper replaces this binding too: keep it
from .ledger import canonical_block_digest  # noqa: F401
from .rng import make_rng, quiet_rows

MAX_EVENTS = 2000   # PPCoin and Dense-CoA traces keep their first events only
QUIET_BATCH = 32    # PPCoin seconds drawn per batch when skipping quiet ones
DIGEST_CHUNK = 1000  # trace lines joined per hash update and write
ENGINE_KEYS = ("name", "protocol", "params", "stake", "behaviors", "duration",
               "seed")      # plus the keys in its Engine's network


class ConfigError(ValueError):
    def __init__(self, fieldname: str, message: str):
        super().__init__("%s: %s" % (fieldname, message))
        self.fieldname = fieldname


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DelayModel:
    min: float = 0.2      # seconds
    max: float = 2.0
    distribution: str = "uniform"

    def __post_init__(self):
        if self.distribution != "uniform":
            raise ConfigError("delays.distribution",
                              "unknown distribution %r" % self.distribution)

    def sample(self, rng, count: int) -> list:
        """`count` delays drawn in one call: the same floats as `count`
        single draws, leaving `rng` in the same state."""
        return rng.uniform(self.min, self.max, count).tolist()


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
        """The config file form, with only the keys its engine reads."""
        if self.attack is not None:
            return {"name": self.name, "seed": self.seed, "attack": self.attack}
        full = {
            "name": self.name, "protocol": self.protocol,
            "params": dict(self.params),
            "stake": [[s, int(a)] for s, a in self.stake],
            "behaviors": self.behaviors,
            "delays": asdict(self.delays),
            "clock_drift_max": self.clock_drift_max,
            "duration": self.duration, "seed": self.seed,
        }
        keys = ENGINE_KEYS + ENGINES[self.protocol].network
        return {key: value for key, value in full.items() if key in keys}


_KINDS = {   # kind of a config value -> (what it must be, its test)
    "number": ("a finite number",
               lambda v: type(v) in (int, float) and math.isfinite(v)),
    "count": ("a positive integer", lambda v: type(v) is int and v >= 1),
    "integer": ("an integer", lambda v: type(v) is int),
    "string": ("a string", lambda v: isinstance(v, str)),
    "bool": ("true or false", lambda v: type(v) is bool),
    "list": ("a list", lambda v: isinstance(v, list)),
    "object": ("an object", lambda v: isinstance(v, dict)),
}

_TOP = {    # every top-level key of either config shape -> its kind
    "name": "string", "seed": "integer", "attack": "object", "protocol": "string",
    "params": "object", "stake": "list", "behaviors": "object",
    "duration": "object", "delays": "object", "clock_drift_max": "number"}


def _is(kind: str, value) -> bool:
    return _KINDS[kind][1](value)


def _section(obj, kinds: dict, prefix: str = "", required=()) -> dict:
    """`obj` if it is an object with every `required` key, whose keys `kinds`
    maps to the kinds of their values; else a ConfigError naming the field."""
    if not _is("object", obj):
        raise ConfigError(prefix[:-1] or "<root>", "must be an object")
    for key in obj:
        if key not in kinds:
            raise ConfigError(prefix + str(key), "unknown key (known: %s)"
                              % ", ".join(kinds))
    for key, value in obj.items():
        if not _is(kinds[key], value):
            raise ConfigError(prefix + key, "must be %s, got %r"
                              % (_KINDS[kinds[key]][0], value))
    for key in required:
        if key not in obj:
            raise ConfigError(prefix + key, "required")
    return obj


def config_from_dict(raw: dict, name: str = "scenario") -> ScenarioConfig:
    """Validate a parsed config; raises ConfigError naming the bad field."""
    _section(raw, _TOP)
    name, seed = raw.get("name", name), raw.get("seed", 0)
    if "attack" in raw:
        _section(raw, {key: _TOP[key] for key in ("name", "seed", "attack")})
        analysis_of(raw["attack"])
        return ScenarioConfig(name=name, seed=seed, attack=raw["attack"])
    protocol = raw.get("protocol")
    if protocol not in ENGINES:
        raise ConfigError("protocol", "must be one of %s, got %r"
                          % ("/".join(ENGINES), protocol))
    engine = ENGINES[protocol]
    _section(raw, {key: _TOP[key] for key in ENGINE_KEYS + engine.network},
             required=("stake",))
    kinds = {key: kind for key, (kind, _default) in engine.params.items()}
    params = {**engine.defaults, **_section(
        raw.get("params", {}), {"kappa": "count", **kinds}, "params.",
        required=("kappa",))}
    kappa = params["kappa"]
    if kappa > 64:
        raise ConfigError("params.kappa", "must be at most 64, got %d" % kappa)
    if protocol == "coa":
        try:
            CoaParams(**params)
        except ParamError as exc:
            raise ConfigError("params." + exc.name, str(exc))
    for pos, entry in enumerate(raw["stake"]):
        if not (_is("list", entry) and len(entry) == 2
                and _is("string", entry[0]) and _is("count", entry[1])):
            raise ConfigError("stake[%d]" % pos, "expected [name, positive "
                              "satoshi count], got %r" % (entry,))
    stake = tuple(map(tuple, raw["stake"]))
    total = sum(a for _s, a in stake)
    if total != 1 << kappa:
        raise ConfigError("stake", "allocation sums to %d, must equal 2^kappa = %d"
                          % (total, 1 << kappa))
    behaviors = _section(raw.get("behaviors", {}), dict.fromkeys(
        (s for s, _a in stake), "object"), "behaviors.")
    for who, spec in behaviors.items():
        prefix = "behaviors.%s." % who
        _section(spec, {"strategy": "string"}, prefix, required=("strategy",))
        if spec["strategy"] not in engine.strategies:
            raise ConfigError(prefix + "strategy", "protocol %r runs %s, got %r" % (
                protocol, "/".join(engine.strategies), spec["strategy"]))
    d = _section(raw.get("delays", {}), {"min": "number", "max": "number",
                                         "distribution": "string"}, "delays.")
    delays = DelayModel(**d)
    if delays.min < 0 or delays.max < delays.min:
        raise ConfigError("delays", "require 0 <= min <= max")
    drift = raw.get("clock_drift_max", ScenarioConfig.clock_drift_max)
    if drift < 0:
        raise ConfigError("clock_drift_max", "must not be negative")
    duration = raw.get("duration", dict(engine.duration))
    if not duration:
        raise ConfigError("duration", "must name its keys, like %r" % engine.duration)
    _section(duration, dict.fromkeys([*engine.duration, *engine.optional], "count"),
             "duration.", required=tuple(engine.duration))
    return ScenarioConfig(
        name=name, protocol=protocol, params=params,
        stake=stake, behaviors=behaviors, delays=delays,
        clock_drift_max=float(drift), duration=duration, seed=seed)


def analysis_of(attack) -> tuple:
    """(kind, params, analysis) of an ``attack`` block, checked against
    ``attacks.ANALYSES``; raises ConfigError naming the bad field."""
    _section(attack, {"kind": "string", "params": "object"}, "attack.",
             required=("kind",))
    kind = attack["kind"]
    if kind not in attacks.ANALYSES:
        raise ConfigError("attack.kind", "unknown analysis kind %r (known: %s)"
                          % (kind, ", ".join(attacks.ANALYSES)))
    analysis = attacks.ANALYSES[kind]
    params = _section(attack.get("params", {}), {
        key: attacks.PARAM_TYPES.get(key, "number")
        for key in analysis.required + tuple(analysis.defaults)},
        "attack.params.", required=analysis.required)
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

# the trace's canonical JSON: sorted keys, no spaces
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


@dataclass
class SimTrace:
    events: List[str]            # each event's canonical JSON line
    metrics: Dict[str, object]
    final_chains: Dict[str, list] = field(default_factory=dict)
    events_dropped: int = 0      # events cut by MAX_EVENTS; not in the digest

    def digest(self, events_out=None) -> str:
        """SHA-256 of the canonical JSON (sorted keys, no spaces) of the
        chains, events and metrics, hashed DIGEST_CHUNK event lines at a
        time, so the whole trace is never joined. The lines also go to the
        text file `events_out`, if given: the events.jsonl form."""
        h = hashlib.sha256(b'{"chains":%s,"events":[' % canonical_json(
            self.final_chains).encode())
        events, sep = self.events, ""
        for start in range(0, len(events), DIGEST_CHUNK):
            chunk = events[start:start + DIGEST_CHUNK]
            h.update((sep + ",".join(chunk)).encode())
            sep = ","
            if events_out is not None:
                events_out.write("\n".join(chunk) + "\n")
        h.update(b'],"metrics":%s}' % canonical_json(self.metrics).encode())
        return h.hexdigest()


def _line_format(event: str, *keys: str) -> str:
    """An `event`'s canonical line as a %-format over its `keys` in sorted
    order: fill in names as canonical_json encodes them and times as their
    float.__repr__ (how the JSON encoder writes a float)."""
    return "{%s}" % ",".join(
        '"%s":%s' % (key, '"%s"' % event if key == "event" else "%s")
        for key in sorted(keys + ("event",)))


# CoA's three per-node events: (creator, index, node, time), (index, node,
# time) and (height, node)
ACCEPT_LINE = _line_format("block-accept", "creator", "index", "node", "time")
SEND_LINE = _line_format("send", "index", "node", "time")
SOLIDIFICATION_LINE = _line_format("solidification", "height", "node")


# ---------------------------------------------------------------------------
# CoA event loop
# ---------------------------------------------------------------------------

def _time_text(t: float) -> str:
    """``float.__repr__(round(t, 6))``, the text of a CoA event's time,
    without the float round trip. ``round(t, 6)`` and ``"%.6f" % t`` round
    t correctly to the same six places. From 1e-4 up to 1e9 that decimal
    has at most 15 digits, so it is the shortest text of the float nearest
    it, which repr writes without an exponent: the same decimal without
    trailing zeros."""
    if not 1e-4 <= t < 1e9:
        return float.__repr__(round(t, 6))
    text = ("%.6f" % t).rstrip("0")
    return text + "0" if text[-1] == "." else text


_arrival_time = operator.itemgetter(0)  # of a (time, rank, seq, node) arrival


def _run_coa(config: ScenarioConfig) -> SimTrace:
    params = CoaParams(**config.params)
    genesis, ledger0 = make_genesis(params, list(config.stake))
    rng_delay = make_rng(config.seed, "delay")
    events: List[str] = []
    rank = {name: i for i, (name, _a) in enumerate(config.stake)}
    name_json = {name: canonical_json(name) for name, _a in config.stake}

    nodes = {}
    drifts = {}
    creates_blocks = {}
    root = BlockTree(genesis, ChainView(params, genesis, ledger0), params.t1)
    for i, (name, _amount) in enumerate(config.stake):
        nodes[name] = CoaNode(root)
        drift_rng = make_rng(config.seed, "drift", name)
        drifts[name] = float(drift_rng.uniform(-config.clock_drift_max,
                                               config.clock_drift_max))
        creates_blocks[name] = strategy_of(config, name) == "honest"
    del root    # a state holds its successors: this name would keep every state

    target_blocks = config.duration["slots"]
    time_limit = config.duration.get(
        "seconds", (target_blocks + 2) * params.g0_seconds * 20)
    # (time, sender's rank, sequence, node, slot index, None) creates a
    # block, and (time, rank, seq, node, block, arrivals) delivers one. A
    # block in flight is one entry, keyed by its next arrival and advanced
    # in place, so deliveries pop in the (time, rank, seq) order that one
    # entry per delivery would give
    queue: list = []
    seq = itertools.count()
    scheduled = set()
    held = {name: {} for name in nodes}   # parent digest -> blocks waiting
    peers = {name: [other for other in nodes if other != name] for name in nodes}
    reorgs = 0

    def push_create(when, name, index):
        heapq.heappush(queue, (when, rank[name], next(seq), name, index, None))

    def schedule_creations(name, now):
        if not creates_blocks[name]:
            return
        for index, earliest in nodes[name].best_view.creations(name):
            if (name, index) in scheduled:
                continue
            scheduled.add((name, index))
            push_create(max(now, earliest - drifts[name]), name, index)

    for name in nodes:
        schedule_creations(name, 0.0)

    best_height = 0
    while queue:
        when, sender, _seq, name, item, arrivals = queue[0]
        if when > time_limit or best_height >= target_blocks:
            break
        if arrivals is None:
            heapq.heappop(queue)
            scheduled.discard((name, item))
            view = nodes[name].best_view
            earliest = dict(view.creations(name)).get(item)
            if earliest is None:
                continue
            local_now = when + drifts[name]
            leniency = params.timestamp_leniency
            if earliest > int(local_now) + 1 + leniency:
                # its own delivery would be future-dated: wait for the clock
                scheduled.add((name, item))
                push_create(earliest - leniency - drifts[name], name, item)
                continue
            ts = max(int(local_now), earliest)
            block = Block(index=item, prev_digest=view.last_block.digest,
                          timestamp=ts, creator=name).signed_by()
            # the sender's own delivery comes first: a peer's arrival is no
            # earlier, and on a tie its sequence number is higher
            first = next(seq)
            others = peers[name]
            arrivals = iter(sorted(zip(
                [when + delay for delay in config.delays.sample(
                    rng_delay, len(others))],
                itertools.repeat(sender), itertools.islice(seq, len(others)),
                others), key=_arrival_time))
            heapq.heappush(queue, (when, sender, first, name, block, arrivals))
            events.append(SEND_LINE % (item, name_json[name], _time_text(when)))
            continue
        arrival = next(arrivals, None)
        if arrival is None:
            heapq.heappop(queue)
        else:
            heapq.heapreplace(queue, arrival + (item, arrivals))
        node = nodes[name]
        if item.prev_digest not in node.accepted:
            # hold it until the node accepts its parent
            held[name].setdefault(item.prev_digest, []).append(item)
            continue
        stamp = _time_text(when)
        clock = int(when + drifts[name]) + 1
        ready = [item]
        # the run writes every line of a delivery: its rejection, or the
        # block's effects, solidification, reorg and block-accept
        for block in ready:     # grows by the held children accepted
            old = node.tree
            ok, reason = node.receive_block(block, clock)
            if reason != ACCEPT:
                if not ok:
                    events.append(canonical_json({
                        "event": "block-rejected", "index": block.index,
                        "node": name, "reason": reason}))
                continue
            tree = node.tree
            for kind, payload in tree.live[block.digest].effects:
                events.append(canonical_json(dict(payload, event=kind, node=name)))
            if tree.solidified_prefix != old.solidified_prefix:
                events.append(SOLIDIFICATION_LINE % (
                    tree.height[tree.solidified_prefix], name_json[name]))
            # a new best tip is the block just accepted, one above the old
            if tree.best != old.best:
                if block.prev_digest != old.best:
                    reorgs += 1
                    events.append(canonical_json({
                        "event": "reorg", "time": round(when, 6), "node": name}))
                best_height = max(best_height, tree.height[tree.best])
            events.append(ACCEPT_LINE % (name_json[block.creator],
                                         block.index, name_json[name], stamp))
            schedule_creations(name, when)
            ready.extend(held[name].pop(block.digest, ()))

    # metrics off an arbitrary (deterministic) reference node
    ref = nodes[config.stake[0][0]]
    store = ref.tree    # every node's state reads the run's one block store
    chain = [store.blocks[d] for d in store.path(store.best)]
    timestamps = [b.timestamp for b in chain]
    intervals = [b - a for a, b in zip(timestamps, timestamps[1:])]
    total_supply = 1 << config.params["kappa"]
    # nodes on one tip share its view and its path: check each distinct
    # ledger once, and walk each distinct tip once below
    ledgers = {id(n.best_view.ledger): n.best_view.ledger for n in nodes.values()}
    conservation_ok = all(ledger.live_total + ledger.destroyed == total_supply
                          for ledger in ledgers.values())
    per_creator: Dict[str, int] = {}
    for b in chain[1:]:
        per_creator[b.creator] = per_creator.get(b.creator, 0) + 1
    metrics = {
        "protocol": "coa",
        "blocks": len(chain) - 1,
        "mean_interval": (sum(intervals) / len(intervals)) if intervals else 0.0,
        "reorgs": reorgs,
        "fork_blocks": len(ref.accepted) - len(chain),
        "conservation_ok": conservation_ok,
        "solidified_height": ref.solidified_height,
    }
    for who, n in sorted(per_creator.items()):
        metrics["blocks_by_%s" % who] = n
    paths = {tip: [d.hex()[:16] for d in store.path(tip)]
             for tip in {n.tree.best for n in nodes.values()}}
    chains = {name: paths[n.tree.best] for name, n in nodes.items()}
    return SimTrace(events, metrics, chains)


# ---------------------------------------------------------------------------
# PPCoin per-second lottery
# ---------------------------------------------------------------------------

def _run_ppcoin(config: ScenarioConfig) -> SimTrace:
    total = 1 << config.params["kappa"]
    target = config.params["target_interval"]
    seconds = config.duration["seconds"]
    max_tips = config.params["max_tips"]
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
    return _capped(events, metrics, {"tips": [max(tips)]})


# ---------------------------------------------------------------------------
# Dense-CoA committee rounds
# ---------------------------------------------------------------------------

def _run_dense(config: ScenarioConfig) -> SimTrace:
    p = config.params
    kappa, ell, g0 = p["kappa"], p["ell"], p["g0_seconds"]
    ledger = LedgerState.from_allocation(list(config.stake))
    idle = {name for name, _a in config.stake
            if strategy_of(config, name) != "honest"}
    rng = make_rng(config.seed, "dense-run")
    seed_val = int(make_rng(config.seed, "dense-seed").integers(0, 1 << kappa))
    events: List[dict] = []
    now = 0.0
    fallbacks = 0
    intervals = []
    # with no honest holder no committee is clean: the chain stalls at once
    stall = [] if any(name not in idle for name, _a in config.stake) else [
        {"event": "stall", "index": 1, "fallbacks": 0}]
    for i in range(1, config.duration["slots"] + 1):
        if stall:
            break
        t = 0
        start = now
        while True:
            members = dense.derive_committee(seed_val, i, t, ledger, ell, kappa)
            withholds = any(owner in idle for owner, _uid in members)
            round_time = config.delays.sample(rng, 1)[0] * 2
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
    metrics = {
        "protocol": "dense_coa",
        "blocks": len(intervals),
        "fallbacks": fallbacks,
        "mean_interval": sum(intervals) / len(intervals) if intervals else 0.0,
    }
    trace = _capped(events, metrics, {})
    # kept past the cut: it says why the run ended
    trace.events += map(canonical_json, stall)
    return trace


def _capped(events: List[dict], metrics: dict, chains: dict) -> SimTrace:
    """The trace of the first MAX_EVENTS `events`, encoded, counting the
    rest as dropped."""
    return SimTrace([canonical_json(e) for e in events[:MAX_EVENTS]], metrics,
                    chains, max(0, len(events) - MAX_EVENTS))


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
    events = [canonical_json({"event": "analysis", "kind": kind, "params": p})]
    return SimTrace(events, metrics, {})


class Engine(NamedTuple):
    run: Callable[[ScenarioConfig], SimTrace]
    params: dict        # each param it reads besides kappa -> (kind, default)
    duration: dict      # run when a config gives none; a given one needs its keys
    strategies: tuple   # the strategies it runs; "honest" is the default
    optional: tuple = ()    # other duration keys it reads
    network: tuple = ()     # which of delays and clock_drift_max it reads

    @property
    def defaults(self) -> dict:
        return {key: default for key, (_kind, default) in self.params.items()}


ENGINES = {
    "coa": Engine(_run_coa, {"w": ("count", 1), "comb": ("string", "concat"),
                             "g0_seconds": ("count", 300), "c0": ("integer", 0),
                             "c1": ("integer", 0), "t0": ("integer", 8),
                             "timestamp_leniency": ("integer", 120)},
                  {"slots": 50}, ("honest", "offline"),
                  ("seconds",), ("delays", "clock_drift_max")),
    "dense_coa": Engine(_run_dense, {"ell": ("count", 7),
                                     "g0_seconds": ("count", 300)},
                        {"slots": 50}, ("honest", "offline"),
                        network=("delays",)),
    "ppcoin": Engine(_run_ppcoin, {"target_interval": ("count", 600),
                                   "max_tips": ("count", 6)},
                     {"seconds": 60_000}, ("honest", "ppcoin-multifork")),
}


def run_scenario(config: ScenarioConfig) -> SimTrace:
    if config.attack is not None:
        return _run_attack(config)
    return ENGINES[config.protocol].run(config)
