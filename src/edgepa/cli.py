"""Command-line interface.

Subcommands::

    generate  run the direct process over a family grid and persist records
    observe   measure a dumped graph file
    couple    collapse one tree per replicate under every family and persist records
    verify    execute a named verification suite

Both ``generate`` and ``couple`` build each replicate's graph once, at the
largest horizon, and measure every horizon on a prefix of it.  Flags
mirror config-file keys (flat ``key=value`` lines, ``#`` comments); flags
override the file.  Exit status: 0 on success, 1 when a verify criterion
fails or a generate/couple record holds an error, 2 on usage errors
(including specs that fail validation).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import experiments, verify
from .graphs import load_graph
from .observables import measure_graph

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


def _parse_int_list(text: str) -> list[int]:
    return [int(x) for x in text.replace(",", " ").split()]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="edgepa", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, families=True):
        p.add_argument("--config", help="flat key=value config file; flags override it")
        if families:
            p.add_argument(
                "--family",
                action="append",
                help="family descriptor, e.g. const:0.5, rv:0.5, log:1, osc:base=30; "
                "repeat for a grid",
            )
            p.add_argument("--t", help="comma-separated horizons, e.g. 1000,10000")
            p.add_argument("--reps", type=int, help="replicates, one trajectory each (default 1)")
            p.add_argument("--seed", type=int, help="run seed (required: no silent nondeterminism)")
            p.add_argument("--jobs", type=int, help="parallel workers (default 1)")
            p.add_argument("--no-diameter", action="store_true", help="skip diameter measurement")
            p.add_argument("--no-clique", action="store_true", help="skip clique measurement")
            p.add_argument("--no-paths", action="store_true", help="skip chain/path measurement")
            p.add_argument("--clique-exact", action="store_true", help="also run exact clique search")
        p.add_argument("--out", help="output file path")
        p.add_argument("--format", choices=("csv", "json"), help="record format (default csv)")

    p_gen = sub.add_parser("generate", help="run the direct process and measure")
    common(p_gen)
    p_gen.add_argument("--dump-graphs", metavar="DIR", help="also dump each generated graph")

    p_obs = sub.add_parser("observe", help="measure a dumped graph file")
    common(p_obs, families=False)
    p_obs.add_argument("graph", help="path to a graph dump")

    p_cpl = sub.add_parser("couple", help="collapse shared trees under two or more families")
    common(p_cpl)

    p_ver = sub.add_parser("verify", help="run a named verification suite")
    p_ver.add_argument("--config", help="flat key=value config file; flags override it")
    p_ver.add_argument(
        "--suite",
        help=f"one of: {', '.join(sorted(verify.SUITES))}",
    )
    p_ver.add_argument("--seed", type=int, help=f"suite seed (default {verify.DEFAULT_SEED})")
    p_ver.add_argument("--json", action="store_true", help="print the results as one JSON array")
    return parser


def _merged(args: argparse.Namespace, key: str, cast, default=None):
    """Flag value if given, else config value, else default."""
    val = getattr(args, key, None)
    if val not in (None, False, []):
        return val
    cfg = getattr(args, "_config", {})
    if key in cfg:
        raw = cfg[key]
        if cast is bool:
            return raw.lower() in ("1", "true", "yes", "on")
        if cast is list:
            return raw.split()
        return cast(raw)
    return default


def _spec_from_args(args: argparse.Namespace, coupled: bool) -> experiments.ExperimentSpec:
    cfg = getattr(args, "_config", {})
    families = args.family or (cfg.get("family", "").split() or None)
    if not families:
        raise UsageError("at least one --family is required")
    horizons_raw = _merged(args, "t", str)
    if not horizons_raw:
        raise UsageError("--t is required")
    seed = _merged(args, "seed", int)
    if seed is None:
        raise UsageError("--seed is required")
    spec = experiments.ExperimentSpec(
        families=list(families),
        horizons=_parse_int_list(str(horizons_raw)),
        reps=_merged(args, "reps", int, 1),
        seed=seed,
        coupled=coupled,
        diameter=not _merged(args, "no_diameter", bool, False),
        clique=not _merged(args, "no_clique", bool, False),
        paths=not _merged(args, "no_paths", bool, False),
        clique_exact=_merged(args, "clique_exact", bool, False),
        out=_merged(args, "out", str),
        fmt=_merged(args, "format", str, "csv"),
        jobs=_merged(args, "jobs", int, 1),
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


def _cmd_generate(args) -> int:
    spec = _spec_from_args(args, coupled=False)
    spec.dump_dir = _merged(args, "dump_graphs", str)
    return _emit(experiments.run(spec), spec)


def _cmd_observe(args) -> int:
    with open(args.graph) as fh:
        g = load_graph(fh)
    report = measure_graph(g)
    overlay = experiments._overlay(g.family, g.t) if g.family else {}
    record = experiments._report_to_record(
        "observe", g.family or "-", g.t, 0, g.seed if g.seed is not None else "", report, overlay
    )
    record["wall_time"] = ""
    out = _merged(args, "out", str)
    fmt = _merged(args, "format", str, "json")
    if out:
        experiments.write_records([record], out, fmt)
        print(f"wrote 1 record to {out}")
    else:
        json.dump(record, sys.stdout, indent=1)
        print()
    return 0


def _cmd_couple(args) -> int:
    spec = _spec_from_args(args, coupled=True)
    return _emit(experiments.run(spec), spec)


def _cmd_verify(args) -> int:
    suite = _merged(args, "suite", str)
    if not suite:
        raise UsageError("--suite is required")
    seed = _merged(args, "seed", int, verify.DEFAULT_SEED)
    try:
        results = verify.run_suite(suite, seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    failed = [r for r in results if not r.passed]
    if _merged(args, "json", bool, False):
        json.dump([asdict(r) for r in results], sys.stdout, indent=1)
        print()
    else:
        for res in results:
            print(res.line(), flush=True)
        print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "observe": _cmd_observe,
        "couple": _cmd_couple,
        "verify": _cmd_verify,
    }
    try:
        args._config = _read_config(args.config) if getattr(args, "config", None) else {}
        return handlers[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
