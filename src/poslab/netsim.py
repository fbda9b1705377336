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
import sys
from collections import Counter
from dataclasses import asdict, dataclass, field
from types import SimpleNamespace
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from . import attacks, dense
from .coa import ACCEPT, ChainView, CoaNode, CoaParams, future_dated, make_genesis
from .ledger import Block, BlockTree, ConfigError, LedgerState
# netsim calls no canonical_block_digest, but perfbench's tests assert that
# the tracer's wrapper replaces this binding too: keep it
from .ledger import canonical_block_digest  # noqa: F401
from .rng import make_rng, quiet_rows

MAX_EVENTS = 2000   # PPCoin and Dense-CoA traces keep their first events only
QUIET_BATCH = 32    # PPCoin seconds drawn per batch when skipping quiet ones
DIGEST_CHUNK = 1000  # trace lines joined per hash update and write
ENGINE_KEYS = ("name", "protocol", "params", "stake", "behaviors", "duration",
               "seed")      # plus the keys in its Engine's network


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
    "number": ("a finite number in float range",   # nan compares false
               lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max),
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


def resolve_params(given, declared: dict, prefix: str) -> dict:
    """The params `given` over the defaults of `declared`, which maps each
    param to (kind, default or REQUIRED); else `_section`'s ConfigError."""
    _section(given, {key: kind for key, (kind, _d) in declared.items()}, prefix,
             [key for key, (_k, default) in declared.items()
              if default is attacks.REQUIRED])
    return {**{key: default for key, (_k, default) in declared.items()
               if default is not attacks.REQUIRED}, **given}


def config_from_dict(raw: dict, name: str = "scenario") -> ScenarioConfig:
    """Validate a parsed config; raises ConfigError naming the bad field."""
    _section(raw, _TOP)
    name, seed = raw.get("name", name), raw.get("seed", 0)
    if "attack" in raw:
        _section(raw, {key: _TOP[key] for key in ("name", "seed", "attack")})
        kind = analysis_of(raw["attack"])
        resolve_params(raw["attack"].get("params", {}),
                       attacks.ANALYSES[kind].params, "attack.params.")
        return ScenarioConfig(name=name, seed=seed, attack=raw["attack"])
    protocol = raw.get("protocol")
    if protocol not in ENGINES:
        raise ConfigError("protocol", "must be one of %s, got %r"
                          % ("/".join(ENGINES), protocol))
    engine = ENGINES[protocol]
    _section(raw, {key: _TOP[key] for key in ENGINE_KEYS + engine.network},
             required=("stake",))
    params = resolve_params(raw.get("params", {}), {
        "kappa": ("count", attacks.REQUIRED), **engine.params}, "params.")
    kappa = params["kappa"]
    if kappa > 64:
        raise ConfigError("params.kappa", "must be at most 64, got %d" % kappa)
    for key in ("g0_seconds", "target_interval"):   # seconds, as u64 times
        if params.get(key, 0) >= 1 << 64:
            raise ConfigError("params." + key, "must be below 2^64")
    if protocol == "coa":
        try:
            CoaParams(**params)
        except ConfigError as exc:
            raise ConfigError("params." + exc.fieldname, exc.message)
    names = set()
    for pos, entry in enumerate(raw["stake"]):
        if not (_is("list", entry) and len(entry) == 2
                and _is("string", entry[0]) and _is("count", entry[1])):
            raise ConfigError("stake[%d]" % pos, "expected [name, positive "
                              "satoshi count], got %r" % (entry,))
        if entry[0] in names:
            raise ConfigError("stake[%d]" % pos, "duplicate stakeholder name %r"
                              % entry[0])
        names.add(entry[0])
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
    if protocol == "coa":
        # no block's timestamp passes their sum, and a block holds it as a u64
        g0 = params["g0_seconds"]
        limit = ("duration.seconds" if "seconds" in duration else "duration.slots"
                 if duration["slots"] + 2 > 20 * g0 else "params.g0_seconds")
        terms = {limit: _coa_time_limit(duration, g0),
                 "clock_drift_max": math.ceil(drift),
                 "params.timestamp_leniency": params["timestamp_leniency"]}
        if sum(terms.values()) + 1 >= 1 << 64:
            raise ConfigError(max(terms, key=terms.get), "the time limit + "
                              "clock_drift_max + timestamp_leniency + 1 must "
                              "be below 2^64")
    return ScenarioConfig(
        name=name, protocol=protocol, params=params,
        stake=stake, behaviors=behaviors, delays=delays,
        clock_drift_max=float(drift), duration=duration, seed=seed)


def analysis_of(attack) -> str:
    """The kind of an ``attack`` block, an ``attacks.ANALYSES`` entry;
    raises ConfigError naming the bad field."""
    _section(attack, {"kind": "string", "params": "object"}, "attack.",
             required=("kind",))
    kind = attack["kind"]
    if kind not in attacks.ANALYSES:
        raise ConfigError("attack.kind", "unknown analysis kind %r (known: %s)"
                          % (kind, ", ".join(attacks.ANALYSES)))
    return kind


def run_analysis(kind: str, given: dict, seed: int, prefix: str) -> dict:
    """The metrics of ``attacks.ANALYSES[kind]`` on the params `given`, over
    its defaults. A bad param is a ConfigError naming `<prefix><param>`, or
    the params if only the calculator finds it by running or it yields a
    metric that is not finite."""
    analysis = attacks.ANALYSES[kind]
    params = resolve_params(given, analysis.params, prefix)
    try:
        metrics = analysis.fn(params, seed)
    except ConfigError as exc:
        raise ConfigError(prefix + exc.fieldname, exc.message)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ConfigError(prefix[:-1], str(exc))
    for key, value in metrics.items():     # metrics.json is JSON: no inf, no nan
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(prefix[:-1], "metric %s is %r" % (key, value))
    return metrics


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
# time) and (height, node). A block-accept line is ACCEPT_HEAD (filled in
# once per block), the node's name, ACCEPT_AT, the time and ACCEPT_END
ACCEPT_LINE = _line_format("block-accept", "creator", "index", "node", "time")
ACCEPT_HEAD, ACCEPT_AT, ACCEPT_END = ACCEPT_LINE.rsplit("%s", 2)
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


def _coa_time_limit(duration: dict, g0_seconds: int) -> int:
    """A CoA run's last second: duration.seconds, else 20 slot times for
    each slot and two more."""
    return duration.get("seconds", (duration["slots"] + 2) * g0_seconds * 20)


def _run_coa(config: ScenarioConfig) -> SimTrace:
    params = CoaParams(**config.params)
    genesis, ledger0 = make_genesis(params, list(config.stake))
    rng_delay = make_rng(config.seed, "delay")
    events: List[str] = []
    root = BlockTree(genesis, ChainView(params, genesis, ledger0), params.t1)
    # one record per node, bound once: rank (its place in the stake breaks
    # ties of its sends), clock drift, name JSON, middle of its accept lines,
    # held blocks (parent digest -> [(block, accept head)]), planned slots
    peers = []
    for rank, (name, _amount) in enumerate(config.stake):
        drift_rng = make_rng(config.seed, "drift", name)
        name_json = canonical_json(name)
        peers.append(SimpleNamespace(
            name=name, rank=rank, node=CoaNode(root), drift=float(
                drift_rng.uniform(-config.clock_drift_max, config.clock_drift_max)),
            name_json=name_json, accept_at=name_json + ACCEPT_AT, held={},
            planned=set(), creates=strategy_of(config, name) == "honest"))
    del root    # a state holds its successors: this name would keep every state

    target_blocks = config.duration["slots"]
    time_limit = _coa_time_limit(config.duration, params.g0_seconds)
    # (time, sender's rank, sequence, peer, slot index, None) creates a
    # block, and (time, rank, seq, peer, block, (accept head, arrivals))
    # delivers one. A block in flight is one entry keyed by its next
    # arrival; popped, it delivers arrivals until the next one sorts after
    # queue[0], so deliveries run in the (time, rank, seq) order that one
    # entry per delivery would give
    queue: list = []
    seq = itertools.count()
    reorgs = 0

    def plan(peer, slots, now):
        """Queue a create for each {index: earliest} of `slots` not queued."""
        for index, earliest in slots.items():
            if index not in peer.planned:
                peer.planned.add(index)
                heapq.heappush(queue, (max(now, earliest - peer.drift),
                                       peer.rank, next(seq), peer, index, None))

    for peer in peers:
        if peer.creates:
            plan(peer, peer.node.best_view.owners().get(peer.name, {}), 0.0)

    best_height = 0
    while queue:
        when, sender, _seq, peer, item, flight = queue[0]
        if when > time_limit or best_height >= target_blocks:
            break
        if flight is None:
            heapq.heappop(queue)
            clock = int(when + peer.drift) + 1   # node clock: its second, plus one
            peer.planned.discard(item)
            view = peer.node.best_view
            earliest = view.owners().get(peer.name, {}).get(item)
            if earliest is None:
                continue
            if future_dated(params.timestamp_leniency, earliest, clock):
                # its own delivery would be future-dated: wait for the clock
                plan(peer, {item: earliest - params.timestamp_leniency}, when)
                continue
            ts = max(clock - 1, earliest)
            block = Block(index=item, prev_digest=view.last_block.digest,
                          timestamp=ts, creator=peer.name).signed_by()
            # the sender's own delivery comes first: a peer's arrival is no
            # earlier, and on a tie its sequence number is higher
            first = next(seq)
            others = peers[:sender] + peers[sender + 1:]
            arrivals = iter(sorted(zip(
                [when + delay for delay in config.delays.sample(
                    rng_delay, len(others))],
                itertools.repeat(sender), itertools.islice(seq, len(others)),
                others), key=operator.itemgetter(0)))    # by time alone
            heapq.heappush(queue, (when, sender, first, peer, block, (
                ACCEPT_HEAD % (peer.name_json, item), arrivals)))
            events.append(SEND_LINE % (item, peer.name_json, _time_text(when)))
            continue
        # one step per fan-out: deliver arrivals while each sorts before
        # queue[0] (a delivery can plan a create) and the run goes on
        head, arrivals = flight
        for arrival in itertools.chain([heapq.heappop(queue)[:4]], arrivals):
            when, _rank, _seq, peer = arrival
            if (queue and queue[0] < arrival or when > time_limit
                    or best_height >= target_blocks):
                heapq.heappush(queue, arrival + (item, flight))
                break
            node, held = peer.node, peer.held
            clock = int(when + peer.drift) + 1
            stamp = _time_text(when)
            block, block_head, ready = item, head, None  # ready: held children
            # the run writes every line of a delivery but an orphan's: its
            # rejection, or the block's effects, solidification, reorg and
            # block-accept, which the node's new state records
            while True:
                ok, reason = node.receive_block(block, clock)
                if reason == ACCEPT:
                    mark, solidified, reorg, moved = node.tree.step
                    if mark.height > best_height:
                        best_height = mark.height
                    for kind, payload in mark.effects:
                        events.append(canonical_json(dict(payload, event=kind,
                                                          node=peer.name)))
                    if solidified:
                        events.append(SOLIDIFICATION_LINE % (solidified,
                                                             peer.name_json))
                    if reorg:
                        reorgs += 1
                        events.append(canonical_json({
                            "event": "reorg", "time": round(when, 6),
                            "node": peer.name}))
                    # re-plan only on a best-tip move: a plan is a function of
                    # the best view, whose slots for this node were all planned
                    # when it became best; one whose create has fired since was
                    # signed on it, and its own delivery came first and moved it
                    slots = moved and peer.creates and mark.owners().get(peer.name)
                    if slots:
                        plan(peer, slots, when)
                    events.append(block_head + peer.accept_at + stamp + ACCEPT_END)
                    if block.digest in held:
                        ready = (ready or []) + held.pop(block.digest)
                elif reason == "orphan":
                    # hold it until the node accepts its parent (a held child
                    # is released once it has, so only `item` gets here)
                    held.setdefault(block.prev_digest, []).append((block, block_head))
                elif not ok:
                    events.append(canonical_json({
                        "event": "block-rejected", "index": block.index,
                        "node": peer.name, "reason": reason}))
                if not ready:
                    break
                block, block_head = ready.pop(0)

    # metrics off an arbitrary (deterministic) reference node
    ref = peers[0].node
    store = ref.tree    # every node's state reads the run's one block store
    chain = [store.blocks[d] for d in store.path(store.best)]
    total_supply = 1 << config.params["kappa"]
    # nodes on one tip share its view and its path: check each distinct
    # ledger once, and walk each distinct tip once below
    ledgers = {id(p.node.best_view.ledger): p.node.best_view.ledger for p in peers}
    conservation_ok = all(ledger.live_total + ledger.destroyed == total_supply
                          for ledger in ledgers.values())
    blocks = len(chain) - 1     # the mean interval telescopes: timestamps are ints
    metrics = {
        "protocol": "coa",
        "blocks": blocks,
        "mean_interval": ((chain[-1].timestamp - chain[0].timestamp) / blocks
                          if blocks else 0.0),
        "reorgs": reorgs,
        "fork_blocks": len(ref.accepted) - len(chain),
        "conservation_ok": conservation_ok,
        "solidified_height": ref.solidified_height,
    }
    for who, n in sorted(Counter(b.creator for b in chain[1:]).items()):
        metrics["blocks_by_%s" % who] = n
    paths = {tip: [d.hex()[:16] for d in store.path(tip)]
             for tip in {p.node.tree.best for p in peers}}
    chains = {p.name: paths[p.node.tree.best] for p in peers}
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
    seed_val = int(make_rng(config.seed, "dense-seed").integers(
        0, 1 << kappa, dtype="uint64"))
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
                agg, seed_val = dense.run_round(i, t, members, rng, kappa)
                now = start + t * g0 + round_time
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
    kind = analysis_of(config.attack)
    metrics = dict(run_analysis(kind, config.attack.get("params", {}),
                                config.seed, "attack.params."), kind=kind)
    events = [canonical_json({"event": "analysis", "kind": kind,
                              "params": config.attack.get("params", {})})]
    return SimTrace(events, metrics, {})


class Engine(NamedTuple):
    run: Callable[[ScenarioConfig], SimTrace]
    params: dict        # each param it reads besides kappa -> (kind, default)
    duration: dict      # run when a config gives none; a given one needs its keys
    strategies: tuple   # the strategies it runs; "honest" is the default
    optional: tuple = ()    # other duration keys it reads
    network: tuple = ()     # which of delays and clock_drift_max it reads


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
