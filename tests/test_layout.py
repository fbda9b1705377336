"""Every top-level definition and class member in ``src/poslab`` is used by
the package, and every default (of a parameter, or of a dataclass or
NamedTuple field) is set by some call, or is listed below with the reason
it stays; every name a config may hold is documented."""

import ast
import dataclasses
import json
import pathlib

from poslab import attacks, netsim, scenarios

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
}


_STAKE_KERNEL = ("stake-kernel model that ROADMAP item 9 routes the PPCoin "
                 "engine through")

# (module, "function.parameter" or "Class.field") -> why a default no call
# overrides stays
UNSET_DEFAULTS = {
    ("dense", "CommitteeRound.commitments"):
        "round 1 state that add_commit fills in place, not an input",
    ("dense", "CommitteeRound.reveals"):
        "round 2 state that add_reveal fills in place, not an input",
    ("ppcoin", "calibrate_d0.version"): _STAKE_KERNEL,
    ("ppcoin", "solve_probability.version"): _STAKE_KERNEL,
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


# receivers of attribute reads in src/poslab that are never a poslab object,
# though what they read may share a poslab member's name -> what they are
FOREIGN_RECEIVERS = {
    "args": "cli's argparse namespace (args.config, args.seed, args.out)",
}


def unread_members() -> set:
    """(module, "Class.member") of each class member that no code in
    src/poslab reads. A read through ``self`` counts for the class it is
    written in only; a read through an imported module (``math.comb``,
    ``os.path``) or a FOREIGN_RECEIVERS name counts for none; any other
    read counts for every member of its name."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    read, read_by = set(), {}   # by any receiver; by self, per class
    for tree in trees.values():
        foreign = set(FOREIGN_RECEIVERS)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                foreign |= {(a.asname or a.name).split(".")[0] for a in node.names}
        for stmt in tree.body:
            cls = stmt.name if isinstance(stmt, ast.ClassDef) else None
            for node in ast.walk(stmt):
                if not (isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Load)):
                    continue
                receiver = getattr(node.value, "id", None)
                if receiver == "self" and cls is not None:
                    read_by.setdefault(cls, set()).add(node.attr)
                elif receiver not in foreign:
                    read.add(node.attr)
    return {(module, "%s.%s" % (stmt.name, member))
            for module, tree in trees.items() for stmt in tree.body
            if isinstance(stmt, ast.ClassDef) for member in _members(stmt)
            if member not in read | read_by.get(stmt.name, set())}


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


def _is_record(cls) -> bool:
    """Whether a class is a dataclass or a NamedTuple: its annotated fields
    are its constructor's parameters, in order."""
    return any(ast.unparse(d).startswith(("dataclass", "dataclasses.dataclass"))
               for d in cls.decorator_list) \
        or any(ast.unparse(b) == "NamedTuple" for b in cls.bases)


def _settables(module, tree) -> list:
    """(module, label, name, setters, is_field) of each defaulted parameter
    of a function, and each defaulted field of a dataclass or NamedTuple,
    in `tree`. `setters` are the (callee name, position) a call may set it
    through: the function (``__init__`` for ``Class(...)``) at the
    parameter's position among the positional ones (None if keyword-only);
    or the class at the field's position, and ``replace``/``_replace`` by
    keyword."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and _is_record(node):
            fields = [stmt for stmt in node.body if isinstance(stmt, ast.AnnAssign)]
            out += [(module, "%s.%s" % (node.name, stmt.target.id), stmt.target.id,
                     [(node.name, i), ("replace", None), ("_replace", None)], True)
                    for i, stmt in enumerate(fields) if stmt.value is not None]
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        if positional and positional[0].arg in ("self", "cls"):
            positional = positional[1:]
        first = len(positional) - len(args.defaults)
        defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
        defaulted += [(None, a.arg) for a, d in
                      zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        out += [(module, "%s.%s" % (node.name, name), name, [(node.name, i)],
                 False) for i, name in defaulted]
    return out


def _keys(expr, fn, calls, seen=frozenset()):
    """The keys the mapping `expr`, passed as ``**expr`` in function `fn`,
    may hold, or None if they are not known: a dict display, a ``dict(...)``
    call, `fn`'s own ``**`` parameter (the keywords `fn`'s callers pass) or
    a local built from these (assignments and ``.update`` calls; `seen`
    holds the locals being resolved)."""
    if isinstance(expr, ast.Dict):
        parts = [v if k is None else k if isinstance(k, ast.Constant) else None
                 for k, v in zip(expr.keys, expr.values)]
    elif isinstance(expr, ast.Call) and _call_name(expr) == "dict":
        parts = expr.args + [k.value if k.arg is None else ast.Constant(k.arg)
                             for k in expr.keywords]
    elif isinstance(expr, ast.Constant):
        return {expr.value}
    elif isinstance(expr, ast.Name) and fn is not None:
        if fn.args.kwarg is not None and expr.id == fn.args.kwarg.arg:
            parts = [k.value if k.arg is None else ast.Constant(k.arg)
                     for call, _caller in calls.get(fn, calls.get(fn.name, ()))
                     for k in call.keywords]
            fn = None   # a `**` the callers pass is theirs, not fn's
        elif (fn, expr.id) in seen:
            return set()    # it adds no key its other parts do not
        else:
            seen |= {(fn, expr.id)}
            parts = [node.value for node in ast.walk(fn)
                     if isinstance(node, ast.Assign) and expr.id in
                     [t.id for t in node.targets if isinstance(t, ast.Name)]]
            parts += [node.args[0] for node in ast.walk(fn)
                      if isinstance(node, ast.Call) and node.args
                      and ast.unparse(node.func) == expr.id + ".update"]
            if not parts:
                return None
    else:
        return None
    keys = set()
    for part in parts:
        more = _keys(part, fn, calls, seen)
        if more is None:
            return None
        keys |= more
    return keys


def _sets(call, fn, position, name, calls, passes_unset) -> bool:
    """Whether `call`, in function `fn`, may set the parameter `name` (at
    `position` among the positional ones, None if keyword-only) to a value
    of its own: passing an unset value on (``passes_unset``) is no set."""
    given = [k.value for k in call.keywords if k.arg == name]
    if position is not None and len(call.args) > position:
        given.append(call.args[position])
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None and name in (_keys(k.value, fn, calls) or {name})
            for k in call.keywords):
        return True
    return any(not passes_unset(value, fn) for value in given)


def unset_defaults() -> set:
    """(module, label) of each default in src/poslab that no call in
    src/poslab or tests/ sets: a defaulted parameter of a function
    ("function.parameter") and a defaulted field of a dataclass or
    NamedTuple ("Class.field"). Calls match by name; ``Class(...)`` calls
    ``__init__`` too; a bare-name call in a test file to a name that file
    defines at top level calls only that definition (keyed by its node,
    not its name). A call sets nothing by passing on an unset value: its
    function's own unset parameter, or a read of a field that is unset in
    every class that has it."""
    trees = {path: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))}
    classes = {node.name for path, tree in trees.items() if path.parent == SRC
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    # callee name, or a test file's own top-level definition ->
    # [(call, enclosing function)]
    calls, module_of = {}, {}

    def collect(node, fn, module, local):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                module_of[child] = module
                collect(child, child, module, local)
                continue
            if isinstance(child, ast.Call):
                name = _call_name(child)
                callees = ({local[name]} if isinstance(child.func, ast.Name)
                           and name in local else
                           {name, "__init__" if name in classes else name})
                for callee in callees:
                    calls.setdefault(callee, []).append((child, fn))
            collect(child, fn, module, local)

    for path, tree in trees.items():
        local = {} if path.parent == SRC else {   # name -> its definition
            name: stmt for stmt in tree.body for name in _defined_names(stmt)}
        collect(tree, None, path.stem, local)
    settables = [item for path, tree in trees.items() if path.parent == SRC
                 for item in _settables(path.stem, tree)]
    unset = set()
    while True:
        fields = {}     # field name -> whether it is unset in every class
        for module, label, name, _setters, is_field in settables:
            if is_field:
                fields[name] = fields.get(name, True) and (module, label) in unset

        def passes_unset(value, fn):
            if isinstance(value, ast.Attribute):
                return fields.get(value.attr, False)
            return isinstance(value, ast.Name) and fn is not None and (
                module_of[fn], "%s.%s" % (fn.name, value.id)) in unset

        found = {(module, label) for module, label, name, setters, _f in settables
                 if not any(_sets(call, fn, position, name, calls, passes_unset)
                            for callee, position in setters
                            for call, fn in calls.get(callee, ()))}
        if found == unset:
            return found
        unset = found


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
        names |= {kind, *analysis.params}
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


def _stated(default) -> str:
    if default is attacks.REQUIRED:
        return "required"
    return "`%s`" % default if isinstance(default, str) else json.dumps(default)


def test_config_docs_state_each_param_kind_and_default():
    """Each protocol's row of the engine params table, and each analysis
    kind's row of the analysis params table, states every param it declares
    (``ENGINES[protocol].params``, ``ANALYSES[kind].params``) as
    `name`: `kind` (default), or `name`: `kind` (required)."""
    rows = FORMATS.read_text().splitlines()
    wrong = {}
    for name, params in [*((p, e.params) for p, e in netsim.ENGINES.items()),
                         *((k, a.params) for k, a in attacks.ANALYSES.items())]:
        stated = ["`%s`: `%s` (%s)" % (key, kind, _stated(default))
                  for key, (kind, default) in params.items()]
        if not any(row.startswith("| `%s` |" % name)
                   and all(item in row for item in stated) for row in rows):
            wrong[name] = stated
    assert wrong == {}, "state these in docs/formats.md's params tables"


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


def test_reproduction_docs_name_each_scenario():
    """docs/formats.md's Reproduction outputs table has one row per
    reproduction id, naming the bundled scenario it checks."""
    rows = FORMATS.read_text().splitlines()
    stated = ["| `%s` | `%s` |" % (repro_id, repro.scenario)
              for repro_id, repro in scenarios.REPRODUCTIONS.items()]
    assert [row for row in stated if row not in rows] == [], \
        "state these in docs/formats.md's Reproduction outputs table"
