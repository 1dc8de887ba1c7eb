"""Command-line interface.

Subcommands::

    generate  run the direct process over a family grid and persist records
    observe   measure a dumped graph file
    couple    collapse one tree per replicate under every family and persist records
    verify    execute a named verification suite

Both ``generate`` and ``couple`` build each replicate's graph once, at the
largest horizon, and measure every horizon on a prefix of it.  Flags
mirror config-file keys (flat ``key=value`` lines, ``#`` comments): a
config file sets its subcommand's defaults, so argparse types every
value and flags override the file.  Exit status: 0 on success, 1 when a
verify criterion fails or a generate/couple record holds an error, 2 on
usage errors (including specs that fail validation).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from . import experiments, verify
from .graphs import load_graph
from .edgestep import make_family

USAGE_ERROR = 2


class UsageError(Exception):
    pass


def _read_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path) as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, value = line.partition("=")
            if not eq:
                raise UsageError(f"config {path}:{ln}: expected key=value, got {line!r}")
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _parse_int(key: str, token: str) -> int:
    """An integer, also in integral scientific notation (``1e4``)."""
    try:
        return int(token)
    except ValueError:
        pass
    try:
        if (value := float(token)).is_integer():  # not for fractions, nan or inf
            return int(value)
    except ValueError:
        pass
    raise UsageError(f"{key}: {token!r} is not an integer")


def _parse_int_list(key: str, text: str) -> list[int]:
    return [_parse_int(key, token) for token in text.replace(",", " ").split()]


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser, and each subcommand's own parser, whose defaults a
    config file sets."""
    parser = argparse.ArgumentParser(prog="edgepa", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt="csv", families=True):
        p.add_argument("--config", help="flat key=value config file; flags override it")
        if families:
            p.add_argument(
                "--family",
                action="append",
                help="family descriptor, e.g. const:0.5, rv:0.5, log:1, osc:base=30; "
                "repeat for a grid",
            )
            p.add_argument("--t", help="comma-separated horizons, e.g. 1000,10000")
            p.add_argument("--reps", type=int, default=1, help="replicates, one trajectory each (default 1)")
            p.add_argument("--seed", type=int, help="run seed (required: no silent nondeterminism)")
            p.add_argument("--jobs", type=int, default=1, help="parallel workers (default 1)")
            p.add_argument("--no-diameter", action="store_true", help="skip diameter measurement")
            p.add_argument("--no-clique", action="store_true", help="skip clique measurement")
            p.add_argument("--no-paths", action="store_true", help="skip chain/path measurement")
            p.add_argument("--clique-exact", action="store_true", help="also run exact clique search")
        p.add_argument("--out", help="output file path")
        p.add_argument("--format", choices=experiments.FORMATS, default=fmt,
                       help=f"record format (default {fmt})")

    p_gen = sub.add_parser("generate", help="run the direct process and measure")
    common(p_gen)
    p_gen.add_argument("--dump-graphs", metavar="DIR", help="also dump each generated graph")

    p_obs = sub.add_parser("observe", help="measure a dumped graph file")
    common(p_obs, fmt="json", families=False)
    p_obs.add_argument("graph", help="path to a graph dump")

    p_cpl = sub.add_parser("couple", help="collapse shared trees under two or more families")
    common(p_cpl)

    p_ver = sub.add_parser("verify", help="run a named verification suite")
    p_ver.add_argument("--config", help="flat key=value config file; flags override it")
    p_ver.add_argument(
        "--suite",
        help=f"one of: {', '.join(sorted(verify.SUITES))}",
    )
    p_ver.add_argument("--seed", type=int, default=verify.DEFAULT_SEED,
                       help=f"suite seed (default {verify.DEFAULT_SEED})")
    p_ver.add_argument("--json", action="store_true", help="print the results as one JSON array")
    return parser, {"generate": p_gen, "observe": p_obs, "couple": p_cpl, "verify": p_ver}


_CONFIG_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
                 "0": False, "false": False, "no": False, "off": False}


def _out_path(args: argparse.Namespace) -> str | None:
    """``out``, checked before anything is measured: a directory is no file."""
    if args.out and os.path.isdir(args.out):
        raise UsageError(f"out must be a file path, got the directory {args.out!r}")
    return args.out


def _spec_from_args(args: argparse.Namespace) -> experiments.ExperimentSpec:
    if not args.family:
        raise UsageError("at least one --family is required")
    if not args.t:
        raise UsageError("--t is required")
    if args.seed is None:
        raise UsageError("--seed is required")
    spec = experiments.ExperimentSpec(
        families=args.family,
        horizons=_parse_int_list("t", args.t),
        reps=args.reps,
        seed=args.seed,
        coupled=args.command == "couple",
        diameter=not args.no_diameter,
        clique=not args.no_clique,
        paths=not args.no_paths,
        clique_exact=args.clique_exact,
        out=_out_path(args),
        fmt=args.format,
        jobs=args.jobs,
        dump_dir=getattr(args, "dump_graphs", None),  # couple has no --dump-graphs
    )
    try:
        spec.validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return spec


def _emit(rows: list[dict], spec: experiments.ExperimentSpec) -> int:
    """Persist or print the records; the exit status is 1 if any errored."""
    if spec.out:
        print(f"wrote {len(rows)} records to {spec.out}")
    else:
        json.dump(rows, sys.stdout, indent=1)
        print()
    failed = [r for r in rows if r["error"]]
    for r in failed:
        print(f"error: {r['family']} t={r['t']} rep={r['rep']}: {r['error']}", file=sys.stderr)
    return 1 if failed else 0


def _cmd_run(args) -> int:
    """``generate`` or ``couple``: the spec's ``coupled`` tells them apart,
    and only ``generate`` has ``--dump-graphs``."""
    spec = _spec_from_args(args)
    return _emit(experiments.run(spec), spec)


def _cmd_observe(args) -> int:
    out = _out_path(args)
    if args.format not in experiments.FORMATS:  # a config value, which skips the flag's choices
        raise UsageError(f"format must be csv or json, got {args.format!r}")
    try:
        with open(args.graph) as fh:
            g = load_graph(fh)
        if g.family:
            make_family(g.family)
    except ValueError as exc:  # a malformed dump, or an unknown family in its header
        raise UsageError(f"{args.graph}: {exc}") from None
    ids = experiments.record_ids("observe", g.family or "-", g.t, 0, g.seed)
    record = experiments.record(ids, g, g.family)
    if out:
        experiments.write_records([record], out, args.format)
        print(f"wrote 1 record to {out}")
    else:
        json.dump(record, sys.stdout, indent=1)
        print()
    return 0


def _cmd_verify(args) -> int:
    if not args.suite:
        raise UsageError("--suite is required")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    try:
        verify.suite_criteria(args.suite)
    except ValueError as exc:  # an unknown name; a criterion's own ValueError is a failure
        raise UsageError(str(exc)) from None
    results = verify.run_suite(args.suite, args.seed)
    failed = [r for r in results if not r.passed]
    if args.json:
        json.dump([asdict(r) for r in results], sys.stdout, indent=1)
        print()
    else:
        for res in results:
            print(res.line(), flush=True)
        print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _cmd_run,
        "observe": _cmd_observe,
        "couple": _cmd_run,
        "verify": _cmd_verify,
    }
    try:
        if args.config:
            cfg = _read_config(args.config)
            # command, config and observe's dump path are arguments, but no config sets them
            unknown = sorted(set(cfg) - (set(vars(args)) - {"command", "config", "graph"}))
            if unknown:
                raise UsageError(f"config {args.config}: no {args.command} option named {', '.join(unknown)}")
            for key, raw in cfg.items():
                if isinstance(getattr(args, key), bool):  # a switch, whose default argparse never casts
                    if raw.lower() not in _CONFIG_BOOLS:
                        raise UsageError(f"config {key}={raw!r}: not a valid bool")
                    cfg[key] = _CONFIG_BOOLS[raw.lower()]
            if "family" in cfg:  # --family appends to its default, so given flags replace the file's list
                cfg["family"] = None if args.family else cfg["family"].split()
            # string defaults go through each option's type, as flags do
            commands[args.command].set_defaults(**cfg)
            args = parser.parse_args(argv)
        return handlers[args.command](args)
    except (UsageError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
