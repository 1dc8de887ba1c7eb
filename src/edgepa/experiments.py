"""Experiment orchestration: declarative specs, replicated runs, persistence.

A run generates one trajectory per (family, replicate) at the largest
horizon and measures every horizon on a prefix of it; a coupled run grows
one doubly-labeled tree per replicate and collapses it under every family
of the grid.  Each (family, horizon, replicate) gives one flat record of
the toggled observables and the matching theory overlays, written to CSV
(or a JSON mirror).  Replicate ``r`` draws its randomness from the stream
keyed ``(seed, r)``, so records are reproducible one by one and replicates
farmed to a worker pool coincide with serial execution up to row order.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Optional

from . import coupling, observables, rng as _rng, theory
from .edgestep import make_family
from .graphs import dump_graph, evolve

SCHEMA_VERSION = 4

RECORD_FIELDS = [
    "schema",
    "spec_hash",
    "family",
    "t",
    "rep",
    "rep_seed",
    "n_vertices",
    "max_degree",
    "simple_edges",
    "diameter_lower",
    "diameter_upper",
    "diameter_method",
    "clique_greedy",
    "clique_exact",
    "clique_exact_status",
    "clique_nodes",
    "isolated_path_count",
    "isolated_path_max",
    "isolated_paths",
    "max_vertex_path",
    "vertex_path_t0",
    "degree_histogram",
    "expected_vertices",
    "theory_diam_lower",
    "theory_diam_upper_a",
    "theory_diam_upper_b",
    "theory_rv_lower",
    "theory_rv_upper",
    "theory_clique_exponent",
    "theory_clique_upper",
    "error",
    "wall_time",
]


@dataclass
class ExperimentSpec:
    """Declarative description of one experiment.

    ``families`` is the family grid.  ``coupled`` grows one doubly-labeled
    tree per replicate and collapses it under every family, which needs at
    least two; otherwise each family evolves its own trajectory.  A set
    ``dump_dir`` receives each measured graph; like ``out``, it is not part
    of the spec's identity.
    """

    families: list[str]
    horizons: list[int]
    reps: int
    seed: int
    coupled: bool = False
    diameter: bool = True
    clique: bool = True
    paths: bool = True
    clique_exact: bool = False
    refine_budget: int = 256
    out: Optional[str] = None
    fmt: str = "csv"
    jobs: int = 1
    dump_dir: Optional[str] = None

    def validate(self) -> None:
        if not self.families:
            raise ValueError("empty family grid")
        if not self.horizons:
            raise ValueError("at least one horizon is required")
        if any(b <= a for a, b in zip(self.horizons, self.horizons[1:])):
            raise ValueError("horizons must be strictly increasing")
        if self.horizons[0] < 1:
            raise ValueError(f"horizons must be >= 1, got {self.horizons[0]}")
        if self.coupled and len(self.families) < 2:
            raise ValueError("a coupled run needs at least two families")
        for d in self.families:
            f = make_family(d)
            if f.family == "tabulated" and self.horizons[-1] > len(f.params["values"]) + 1:
                raise ValueError(
                    f"{d} covers t in [2, {len(f.params['values']) + 1}], "
                    f"got horizon {self.horizons[-1]}"
                )
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.fmt!r}")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")

    def spec_hash(self) -> str:
        """Digest of the fields that determine the records' measurement columns."""
        identity = {k: v for k, v in asdict(self).items() if k not in _NOT_IDENTITY}
        blob = json.dumps(identity, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


# Where and how records are written, never what they hold.
_NOT_IDENTITY = ("out", "fmt", "jobs", "dump_dir")


def _report_to_record(spec_hash, family, t, rep, rep_seed, report, overlay) -> dict:
    hist = " ".join(f"{d}:{c}" for d, c in sorted(report.degree_histogram.items()))
    if report.isolated_path_lengths is not None:
        iso = " ".join(f"{l}:{c}" for l, c in sorted(report.isolated_path_lengths.items()))
        iso_count = sum(report.isolated_path_lengths.values())
        iso_max = max(report.isolated_path_lengths, default=0)
    else:
        iso, iso_count, iso_max = "", "", ""
    rec = {
        "schema": SCHEMA_VERSION,
        "spec_hash": spec_hash,
        "family": family,
        "t": t,
        "rep": rep,
        "rep_seed": rep_seed,
        "n_vertices": report.n_vertices,
        "max_degree": report.max_degree,
        "simple_edges": report.simple_edge_count,
        "diameter_lower": _blank(report.diameter_lower),
        "diameter_upper": _blank(report.diameter_upper),
        "diameter_method": report.diameter_method,
        "clique_greedy": _blank(report.clique_greedy),
        "clique_exact": _blank(report.clique_exact),
        "clique_exact_status": report.clique_exact_status,
        "clique_nodes": _blank(report.clique_nodes),
        "isolated_path_count": iso_count,
        "isolated_path_max": iso_max,
        "isolated_paths": iso,
        "max_vertex_path": _blank(report.max_vertex_path),
        "vertex_path_t0": _blank(report.vertex_path_t0),
        "degree_histogram": hist,
        "error": "",
    }
    rec.update(overlay)
    return rec


def _blank(x):
    return "" if x is None else x


def _overlay(family_descriptor: str, t: int) -> dict:
    f = make_family(family_descriptor)
    out = dict.fromkeys(RECORD_FIELDS[RECORD_FIELDS.index("expected_vertices") : -2], "")
    if f.family == "tabulated":
        return out
    out["expected_vertices"] = f.partial_sum(t)
    if t >= 16:
        gamma = f.params.get("gamma") if f.family == "rv_power" else None
        bs = theory.diameter_theory(f, t, gamma=gamma)
        out.update(
            theory_diam_lower=round(bs.diameter_lower, 6),
            theory_diam_upper_a=round(bs.diameter_upper_a, 6),
            theory_diam_upper_b="" if bs.diameter_upper_b is None else round(bs.diameter_upper_b, 6),
            theory_rv_lower=_blank(bs.rv_diameter_lower),
            theory_rv_upper=_blank(bs.rv_diameter_upper),
            theory_clique_exponent=_blank(bs.clique_exponent),
            theory_clique_upper=round(bs.clique_upper, 6),
        )
    return out


def _run_task(args: tuple) -> list[dict]:
    """One replicate: its rows for every family and horizon of the task.

    A plain task ``(family, rep)`` evolves one trajectory at the largest
    horizon; a coupled task (``family`` is None) grows one tree there and
    collapses it under every family.  Each horizon is measured on a prefix
    of the graph, and a row's ``wall_time`` is the seconds spent generating
    its graph plus those spent measuring its prefix.  Module-level so a
    process pool can ship it; failures are recorded in the ``error`` field
    of the rows they touch and never abort the run.
    """
    spec_dict, spec_hash, family, rep = args
    rep_seed = _rng.child_seed(spec_dict["seed"], rep)
    horizons = spec_dict["horizons"]
    rows: list[dict] = []
    started = time.perf_counter()
    # a failed generation is kept and re-raised into each row it leaves unmeasured
    try:
        tree = None if family else coupling.grow_tree(horizons[-1], rep_seed)
    except Exception as exc:
        tree = exc
    tree_s = time.perf_counter() - started
    for desc in [family] if family else spec_dict["families"]:
        started = time.perf_counter()
        try:
            if isinstance(tree, Exception):
                raise tree
            f = make_family(desc)
            g = evolve(f, horizons[-1], rep_seed) if tree is None else coupling.collapse(tree, f)
        except Exception as exc:
            g = exc
        generate_s = tree_s + time.perf_counter() - started
        for t in horizons:
            started = time.perf_counter()
            try:
                if isinstance(g, Exception):
                    raise g
                row = _record(spec_dict, spec_hash, desc, rep, rep_seed, g.prefix(t))
            except Exception as exc:  # per-record failures are data, not crashes
                row = {
                    **dict.fromkeys(RECORD_FIELDS, ""),
                    "schema": SCHEMA_VERSION,
                    "spec_hash": spec_hash,
                    "family": desc,
                    "t": t,
                    "rep": rep,
                    "rep_seed": rep_seed,
                    "error": f"{type(exc).__name__}: {exc}",
                }
            row["wall_time"] = round(generate_s + time.perf_counter() - started, 4)
            rows.append(row)
        del g  # before the next family's graph is built
    return rows


def _record(spec_dict, spec_hash, family, rep, rep_seed, g) -> dict:
    """Measure ``g`` (and dump it into a set ``dump_dir``) into one record."""
    if spec_dict["dump_dir"]:
        os.makedirs(spec_dict["dump_dir"], exist_ok=True)
        tag = family.replace(":", "_").replace(",", "_").replace("=", "")
        with open(os.path.join(spec_dict["dump_dir"], f"{tag}_t{g.t}_r{rep}.graph"), "w") as fh:
            dump_graph(g, fh)
    report = observables.measure_graph(
        g,
        diameter=spec_dict["diameter"],
        clique=spec_dict["clique"],
        paths=spec_dict["paths"],
        refine_budget=spec_dict["refine_budget"],
        want_clique_exact=spec_dict["clique_exact"],
    )
    return _report_to_record(spec_hash, family, g.t, rep, rep_seed, report, _overlay(family, g.t))


def run(spec: ExperimentSpec) -> list[dict]:
    """Execute the spec and return (and optionally persist) its records."""
    spec.validate()
    spec_hash = spec.spec_hash()
    spec_dict = asdict(spec)
    families = [None] if spec.coupled else spec.families
    tasks = [(spec_dict, spec_hash, family, rep) for family in families for rep in range(spec.reps)]
    if spec.jobs > 1:
        with ProcessPoolExecutor(max_workers=spec.jobs) as pool:
            chunks = list(pool.map(_run_task, tasks))
    else:
        chunks = [_run_task(t) for t in tasks]
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=lambda r: (str(r["family"]), r["t"], r["rep"]))
    if spec.out:
        write_records(rows, spec.out, spec.fmt)
    return rows


def write_records(rows: list[dict], path: str, fmt: str = "csv") -> None:
    """Persist records atomically (write temp file, then rename into place)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            if fmt == "json":
                json.dump(rows, fh, indent=1)
                fh.write("\n")
            else:
                writer = csv.DictWriter(fh, fieldnames=RECORD_FIELDS)
                writer.writeheader()
                writer.writerows(rows)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_records(path: str) -> list[dict]:
    """Read a CSV record file back as dicts (strings, as written)."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))
