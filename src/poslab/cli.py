"""Command-line front end.

Subcommands: run, reproduce, list-scenarios, validate-config.
Exit codes: 0 ok, 1 reproduction failure, 2 config error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import marshal
import os
import resource
import sys
import tempfile
import time
from typing import Optional

from . import __version__
from .netsim import (MAX_EVENTS, ConfigError, ScenarioConfig, canonical_json,
                     load_config, run_scenario)
from .scenarios import REPRODUCTIONS, SCENARIOS, run_reproduction

EXIT_OK = 0
EXIT_REPRO_FAILURE = 1
EXIT_CONFIG_ERROR = 2


@contextlib.contextmanager
def _atomic_open(path: str, mode: str = "w"):
    """A file (text unless `mode` says "wb") that replaces `path` only once
    the block completes."""
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write(path: str, text: str):
    with _atomic_open(path) as fh:
        fh.write(text)


def _json_text(obj) -> str:
    """The metrics and manifest form: sorted keys, two-space indent."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _make_out_dir(path: str) -> str:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError("--out", "cannot create directory %r: %s"
                          % (path, exc.strerror))
    return path


def _resolve_config(spec: str, seed_override: Optional[int]) -> ScenarioConfig:
    if os.path.exists(spec):
        try:
            config = load_config(spec)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError("--config", "cannot read %r: %s" % (spec, exc))
    elif spec in SCENARIOS:
        config = SCENARIOS[spec]
    else:
        raise ConfigError("--config", "no such file or bundled scenario: %r" % spec)
    if seed_override is not None:
        config = dataclasses.replace(config, seed=seed_override)
    return config


def _peak_rss_mb(who) -> float:
    """The peak RSS so far, in MB (Linux reports KiB), of this process
    (RUSAGE_SELF) or of its largest waited-for child (RUSAGE_CHILDREN)."""
    return round(resource.getrusage(who).ru_maxrss / 1024, 1)


def _timed_reproduction(repro_id: str, seed: int) -> tuple:
    """(result, wall seconds, peak RSS in MB) of one reproduction, measured
    in the process that runs it, right after it."""
    start = time.perf_counter()
    result = run_reproduction(repro_id, seed)
    return (result, time.perf_counter() - start,
            _peak_rss_mb(resource.RUSAGE_SELF))


def cmd_run(args) -> int:
    config = _resolve_config(args.config, args.seed)
    out_dir = _make_out_dir(args.out or ".")
    # numpy loads numpy.random on first use, so a process's first run would
    # time it; load it before the timer, not on import, which stays cheap
    import numpy.random  # noqa: F401
    start = time.perf_counter()
    if args.profile:
        import cProfile     # only here, so importing the CLI stays as cheap
        profiler = cProfile.Profile()
        trace = profiler.runcall(run_scenario, config)
    else:
        trace = run_scenario(config)
    ran = time.perf_counter()
    artifacts = []

    events_path = os.path.join(out_dir, "events.jsonl")
    with _atomic_open(events_path) as fh:
        digest = trace.digest(events_out=fh)
    artifacts.append(events_path)

    metrics_path = os.path.join(out_dir, "metrics." + args.format)
    keys = sorted(trace.metrics)
    _atomic_write(metrics_path, _json_text(trace.metrics) if args.format == "json"
                  else _csv_text(keys, [[trace.metrics[k] for k in keys]]))
    artifacts.append(metrics_path)

    if args.profile:
        profile_path = os.path.join(out_dir, "profile.pstats")
        profiler.create_stats()
        with _atomic_open(profile_path, "wb") as fh:
            marshal.dump(profiler.stats, fh)    # what Profile.dump_stats writes
        artifacts.append(profile_path)
    written = time.perf_counter()

    resolved = config.to_dict()
    manifest = {
        "command": "run",
        "config": args.config,
        "scenario": config.name,
        "seed": config.seed,
        "out": out_dir,
        "artifacts": [os.path.basename(a) for a in artifacts],
        "trace_digest": digest,
        "poslab_version": __version__,
        "resolved_config": resolved,
        "config_sha256": hashlib.sha256(
            canonical_json(resolved).encode()).hexdigest(),
        "events": len(trace.events),
        "events_dropped": trace.events_dropped,
        "run_seconds": round(ran - start, 6),
        "write_seconds": round(written - ran, 6),
        "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_SELF),
    }
    manifest_path = os.path.join(out_dir, "manifest.json")
    _atomic_write(manifest_path, _json_text(manifest))
    print("scenario %s: digest %s" % (config.name, digest))
    for key in keys:
        print("  %s = %s" % (key, trace.metrics[key]))
    if trace.events_dropped:
        print("  (%d events dropped: the trace keeps its first %d)"
              % (trace.events_dropped, MAX_EVENTS))
    return EXIT_OK


def cmd_reproduce(args) -> int:
    ids = list(REPRODUCTIONS) if args.id == "all" else [args.id]
    for repro_id in ids:
        if repro_id not in REPRODUCTIONS:
            raise ConfigError("id", "unknown reproduction id %r; known: %s"
                              % (repro_id, ", ".join(REPRODUCTIONS)))
    if args.jobs < 1:
        raise ConfigError("--jobs", "must be at least 1, got %d" % args.jobs)
    if args.out:
        _make_out_dir(args.out)
    seed = args.seed if args.seed is not None else 0
    # a fork-started pool starts all its workers at the first submit
    workers = min(args.jobs, len(ids))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            timed = list(pool.map(_timed_reproduction, ids, [seed] * len(ids)))
    else:
        timed = [_timed_reproduction(i, seed) for i in ids]
    results = [r for r, _s, _m in timed]

    rows = [r.row() for r in results]
    header = ["id", "expected", "computed", "tolerance", "verdict"]
    if args.format == "json":
        payload = [dict(zip(header, row)) for row in rows]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = _csv_text(header, rows)
    if args.out:
        table = "reproduce." + args.format
        _atomic_write(os.path.join(args.out, table), text)
        peak = _peak_rss_mb(resource.RUSAGE_SELF)
        if workers > 1:
            peak = max(peak, _peak_rss_mb(resource.RUSAGE_CHILDREN))
        manifest = {
            "command": "reproduce",
            "id": args.id,
            "seed": seed,
            "jobs": args.jobs,
            "artifacts": [table],
            "poslab_version": __version__,
            "seconds": {i: round(s, 6) for i, (_r, s, _m) in zip(ids, timed)},
            "peak_rss_mb": peak,
            "peak_rss_mb_by_id": {i: m for i, (_r, _s, m) in zip(ids, timed)},
        }
        _atomic_write(os.path.join(args.out, "manifest.json"), _json_text(manifest))
    print(text, end="")
    if all(r.passed for r in results):
        return EXIT_OK
    return EXIT_REPRO_FAILURE


def cmd_list_scenarios(args) -> int:
    for name, config in SCENARIOS.items():
        kind = config.attack["kind"] if config.attack else config.protocol
        print("%-28s %s" % (name, kind))
    print()
    print("reproduction ids: " + ", ".join(REPRODUCTIONS))
    return EXIT_OK


def cmd_validate_config(args) -> int:
    config = _resolve_config(args.config, args.seed)
    kind = ("analysis %s" % config.attack["kind"] if config.attack is not None
            else "protocol %s" % config.protocol)
    print("ok: scenario %r, %s, seed %d" % (config.name, kind, config.seed))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poslab",
        description="Proof-of-stake protocol simulator and attack calculator.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario rng seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p_run = sub.add_parser("run", help="execute a scenario config")
    p_run.add_argument("--config", required=True,
                       help="config file path or bundled scenario name")
    p_run.add_argument("--profile", action="store_true",
                       help="run the simulation under cProfile and write "
                       "profile.pstats next to the trace")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_rep = sub.add_parser("reproduce", help="re-derive a quantitative result")
    p_rep.add_argument("id", help="reproduction id, or 'all'")
    p_rep.add_argument("--jobs", type=int, default=1,
                       help="parallel worker processes (fork-rate also "
                       "uses every free core in its own process)")
    common(p_rep)
    p_rep.set_defaults(func=cmd_reproduce)

    p_ls = sub.add_parser("list-scenarios", help="list bundled scenarios")
    p_ls.set_defaults(func=cmd_list_scenarios)

    p_val = sub.add_parser("validate-config", help="check a config file")
    p_val.add_argument("--config", required=True)
    p_val.add_argument("--seed", type=int, default=None)
    p_val.set_defaults(func=cmd_validate_config)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
