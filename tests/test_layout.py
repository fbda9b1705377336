"""Every top-level definition and class member in ``src/poslab`` is used by
the package, and every defaulted parameter is set by some call, or is listed
below with the reason it stays; every name a config may hold is
documented."""

import ast
import dataclasses
import json
import pathlib

from poslab import attacks, netsim

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "poslab"
TESTS = SRC.parent.parent / "tests"
FORMATS = SRC.parent.parent / "docs" / "formats.md"

# (module, name) -> why a definition with no reference elsewhere in src/ stays
UNREFERENCED = {
    ("attacks", "measure_delta"):
        "the paper's Delta (worst head start) of an observed chain, claim 1's input",
    ("attacks", "takeover_tail_montecarlo"):
        "Monte-Carlo check of the takeover tail bound (acceptance criterion 3)",
    ("attacks", "timeweight_win_probability"):
        "closed form the timeweight simulation is checked against",
    ("coa", "view_from_path"):
        "recompute-from-genesis oracle for the incremental chain views",
    ("comb", "coalition_bias"):
        "exact output bias of a coalition (acceptance criterion 8)",
    ("comb", "kz_width"):
        "the extractor's group width formula, 3*(c/eps)^(1/alpha)",
    ("dense", "assemble_dense_block"):
        "Dense-CoA block assembly; the engine does not build real blocks yet",
    ("dense", "validate_dense_block"):
        "Dense-CoA block rules, incl. the fallback timestamp rule; not yet in the engine",
    ("dense", "committee_participation_probability"):
        "the paper's closed form 1-(1-f)^ell",
    ("dense", "expected_completion_time"):
        "the paper's closed form G0/(1-f)^ell for a withholding stakeholder",
    ("dense", "grinding_log2_cost"):
        "the paper's closed form ell*log2(1/f) for seed grinding",
    ("issuance", "maturity_spendable"):
        "the PoW coinbase maturity rule of the issuance model",
    ("ledger", "canonical_block_digest"):
        "module-level name of Block.digest that perfbench's tracer wraps",
    ("ppcoin", "calibrate_d0"):
        "stake-kernel target calibration of the PPCoin reference model",
    ("ppcoin", "kernel_eligibility"):
        "the stake-kernel inequality of the PPCoin reference model",
    ("ppcoin", "predictability_horizon"):
        "the attacker's foresight window under the stake modifier",
    ("ppcoin", "recompute_modifier"):
        "the stake-modifier recompute of the PPCoin reference model",
    ("ppcoin", "simulate_retarget"):
        "closed-loop difficulty retarget of the PPCoin reference model",
}


# (module, "Class.member") -> why a member no src/ code reads stays
UNREAD_MEMBERS = {
    ("coa", "CoaNode.views"):
        "the node's views by block, its tree's live marks, that perfbench's "
        "tracer counts and the tests read",
    ("ledger", "BlockTree.best_tip"):
        "the fork-choice query that perfbench's tracer wraps and the tests call",
    ("ledger", "BlockTree.is_ancestor"):
        "ancestry query that perfbench's tracer wraps and the tests call",
    ("netsim", "ConfigError.fieldname"):
        "the bad field's name, for callers and tests to read off the error",
}


_STAKE_KERNEL = ("stake-kernel model that ROADMAP item 3 routes the PPCoin "
                 "engine through")

# (module, "function.parameter") -> why a default no call overrides stays
UNSET_DEFAULTS = {
    ("ppcoin", "calibrate_d0.version"): _STAKE_KERNEL,
    ("ppcoin", "calibrate_d0.cap_seconds"): _STAKE_KERNEL,
    ("ppcoin", "retarget_d0.target"): _STAKE_KERNEL,
    ("ppcoin", "simulate_retarget.window"): _STAKE_KERNEL,
}


def _defined_names(stmt) -> list:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _used_names(stmt) -> set:
    used = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def unreferenced_definitions() -> set:
    """(module, name) of each top-level definition that no other top-level
    statement in src/poslab reads (imports do not count as a read)."""
    statements = [(path.stem, stmt) for path in sorted(SRC.glob("*.py"))
                  for stmt in ast.parse(path.read_text()).body]
    used = [_used_names(stmt) for _module, stmt in statements]
    out = set()
    for i, (module, stmt) in enumerate(statements):
        for name in _defined_names(stmt):
            if not any(name in names for j, names in enumerate(used) if j != i):
                out.add((module, name))
    return out


def test_every_definition_is_used_or_listed():
    found = unreferenced_definitions()
    assert sorted(found - set(UNREFERENCED)) == [], "unused: add a caller, " \
        "delete it, or list it in UNREFERENCED with a reason"
    assert sorted(set(UNREFERENCED) - found) == [], "stale UNREFERENCED entry"


def _members(cls) -> list:
    """The annotated fields (of a dataclass or NamedTuple), methods,
    properties and ``self.<name> = ...`` attributes of a class, bar
    dunders."""
    names = [stmt.name for stmt in cls.body
             if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))]
    names += [stmt.target.id for stmt in cls.body
              if isinstance(stmt, ast.AnnAssign)
              and isinstance(stmt.target, ast.Name)]
    names += [node.attr for stmt in cls.body for node in ast.walk(stmt)
              if isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Name) and node.value.id == "self"]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def unread_members() -> set:
    """(module, "Class.member") of each class member that no code in
    src/poslab reads by attribute name."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    return {(module, "%s.%s" % (stmt.name, member))
            for module, tree in trees.items() for stmt in tree.body
            if isinstance(stmt, ast.ClassDef)
            for member in _members(stmt) if member not in read}


def test_every_class_member_is_read_or_listed():
    found = unread_members()
    assert sorted(found - set(UNREAD_MEMBERS)) == [], "unread: add a " \
        "reader, delete it, or list it in UNREAD_MEMBERS with a reason"
    assert sorted(set(UNREAD_MEMBERS) - found) == [], "stale UNREAD_MEMBERS entry"


def _call_name(call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def _sets(call, position, name) -> bool:
    """Whether `call` may pass the parameter `name` (at `position` among
    the positional parameters, None if keyword-only)."""
    return any(k.arg in (name, None) for k in call.keywords) \
        or any(isinstance(a, ast.Starred) for a in call.args) \
        or (position is not None and len(call.args) > position)


def unset_defaults() -> set:
    """(module, "function.parameter") of each defaulted parameter of a
    function in src/poslab that no call in src/poslab or tests/ passes.
    Calls match by name; ``Class(...)`` calls ``__init__``."""
    trees = {path: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))}
    classes = {node.name for path, tree in trees.items() if path.parent == SRC
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = _call_name(node)
                calls.setdefault("__init__" if name in classes else name,
                                 []).append(node)
    out = set()
    for path, tree in trees.items():
        if path.parent != SRC:
            continue
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            if positional and positional[0].arg in ("self", "cls"):
                positional = positional[1:]
            first = len(positional) - len(args.defaults)
            defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
            defaulted += [(None, a.arg) for a, d in
                          zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            for position, name in defaulted:
                if not any(_sets(call, position, name)
                           for call in calls.get(fn.name, ())):
                    out.add((path.stem, "%s.%s" % (fn.name, name)))
    return out


def test_every_defaulted_parameter_is_set_or_listed():
    found = unset_defaults()
    assert sorted(found - set(UNSET_DEFAULTS)) == [], "never set: pass it " \
        "somewhere, make it a constant, or list it in UNSET_DEFAULTS with a reason"
    assert sorted(set(UNSET_DEFAULTS) - found) == [], "stale UNSET_DEFAULTS entry"


def config_names() -> set:
    """Each protocol, param, duration key and strategy of ``netsim.ENGINES``,
    each kind and param of ``attacks.ANALYSES`` and each ``netsim._KINDS``."""
    names = set(netsim._KINDS)
    for protocol, engine in netsim.ENGINES.items():
        names |= {protocol, *engine.params, *engine.duration, *engine.optional,
                  *engine.strategies}
    for kind, analysis in attacks.ANALYSES.items():
        names |= {kind, *analysis.required, *analysis.defaults}
    return names


def test_config_docs_name_every_registered_name():
    text = FORMATS.read_text()
    missing = sorted(n for n in config_names() if "`%s`" % n not in text)
    assert missing == [], "document these in docs/formats.md"


def written_event_names() -> set:
    """Each event name the code writes: the ``"event"`` values of netsim's
    dict literals, the names netsim passes to ``_line_format``, and the
    effect kinds ``coa._validate`` appends."""
    netsim_tree = ast.parse((SRC / "netsim.py").read_text())
    coa_tree = ast.parse((SRC / "coa.py").read_text())
    validate, = [node for node in coa_tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_validate"]
    names = set()
    for node in ast.walk(netsim_tree):
        if isinstance(node, ast.Dict):
            names |= {value.value for key, value in zip(node.keys, node.values)
                      if isinstance(key, ast.Constant) and key.value == "event"}
        elif isinstance(node, ast.Call) and _call_name(node) == "_line_format":
            names.add(node.args[0].value)
    for node in ast.walk(validate):
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "effects.append":
            names.add(node.args[0].elts[0].value)
    return names


def test_events_docs_name_every_written_event():
    """docs/formats.md's ``events.jsonl`` entry lists every event name the
    code writes."""
    text = FORMATS.read_text()
    entry = text[text.index("- `events.jsonl`"):]
    listed = entry[entry.index("(") + 1:entry.index(")")]
    names = written_event_names()
    assert {"send", "block-rejected", "blacklist", "solidification",
            "stall"} <= names
    missing = sorted(n for n in names if "`%s`" % n not in listed)
    assert missing == [], "list these in docs/formats.md's events.jsonl entry"


def test_config_docs_state_each_engine_param_kind_and_default():
    """Each protocol's row of the params table states every param of its
    ``ENGINES`` entry as `name`: `kind` (default)."""
    rows = FORMATS.read_text().splitlines()
    wrong = {}
    for protocol, engine in netsim.ENGINES.items():
        stated = ["`%s`: `%s` (%s)" % (
            key, kind, "`%s`" % default if isinstance(default, str) else default)
            for key, (kind, default) in engine.params.items()]
        if not any(row.startswith("| `%s` |" % protocol)
                   and all(item in row for item in stated) for row in rows):
            wrong[protocol] = stated
    assert wrong == {}, "state these in docs/formats.md's params table"


def test_config_docs_state_the_network_defaults():
    """The `delays` and `clock_drift_max` rows of the Fields table state the
    kind ``netsim._TOP`` gives each and the default the code declares:
    ``DelayModel``'s fields and ``ScenarioConfig.clock_drift_max``."""
    rows = FORMATS.read_text().splitlines()
    stated = [
        "| `delays` | `%s` | `%s` |" % (netsim._TOP["delays"], json.dumps(
            dataclasses.asdict(netsim.DelayModel()))),
        "| `clock_drift_max` | `%s` | %r |" % (
            netsim._TOP["clock_drift_max"], netsim.ScenarioConfig.clock_drift_max),
    ]
    assert [row for row in stated if row not in rows] == [], \
        "state these in docs/formats.md's Fields table"
