"""Experiment orchestration: declarative specs, replicated runs, persistence.

A run generates one graph per (family, horizon, replicate), measures the
toggled observables, appends the matching theory overlays, and writes one
flat record per graph to CSV (or a JSON mirror).  Replicate ``r`` draws
its randomness from the stream keyed ``(seed, r)``, so records are
reproducible one by one and replicates farmed to a worker pool coincide
with serial execution up to row order.
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

SCHEMA_VERSION = 3

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
    "theory_diam_upper_c",
    "theory_rv_lower",
    "theory_rv_upper",
    "theory_clique_lower",
    "theory_clique_upper",
    "error",
    "wall_time",
]


@dataclass
class ExperimentSpec:
    """Declarative description of one experiment.

    ``families`` is the family grid (a single entry for plain runs);
    ``family2`` switches to coupled mode, where every replicate grows one
    doubly-labeled tree and collapses it under both families.  Plain runs
    dump each measured graph into ``dump_dir``, which, like ``out``, is not
    part of the spec's identity.
    """

    families: list[str]
    horizons: list[int]
    reps: int
    seed: int
    family2: Optional[str] = None
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
        for d in self.families + ([self.family2] if self.family2 is not None else []):
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
        identity = {
            "families": self.families,
            "family2": self.family2,
            "horizons": self.horizons,
            "reps": self.reps,
            "seed": self.seed,
            "diameter": self.diameter,
            "clique": self.clique,
            "paths": self.paths,
            "clique_exact": self.clique_exact,
            "refine_budget": self.refine_budget,
        }
        blob = json.dumps(identity, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


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
    gamma = f.params.get("gamma") if f.family == "rv_power" else None
    out = {
        "expected_vertices": f.partial_sum(t) if f.family != "tabulated" else "",
        "theory_diam_lower": "",
        "theory_diam_upper_a": "",
        "theory_diam_upper_b": "",
        "theory_diam_upper_c": "",
        "theory_rv_lower": "",
        "theory_rv_upper": "",
        "theory_clique_lower": "",
        "theory_clique_upper": "",
    }
    if t >= 16 and f.family != "tabulated":
        bs = theory.diameter_theory(f, t, gamma=gamma)
        out.update(
            theory_diam_lower=round(bs.diameter_lower, 6),
            theory_diam_upper_a=round(bs.diameter_upper_a, 6),
            theory_diam_upper_b="" if bs.diameter_upper_b is None else round(bs.diameter_upper_b, 6),
            theory_diam_upper_c="" if bs.diameter_upper_c is None else round(bs.diameter_upper_c, 6),
            theory_rv_lower="" if bs.rv_diameter_lower is None else bs.rv_diameter_lower,
            theory_rv_upper="" if bs.rv_diameter_upper is None else bs.rv_diameter_upper,
            theory_clique_lower="" if bs.clique_lower is None else round(bs.clique_lower, 6),
            theory_clique_upper=round(bs.clique_upper, 6),
        )
    return out


def _measure_kwargs(spec_dict: dict) -> dict:
    return dict(
        diameter=spec_dict["diameter"],
        clique=spec_dict["clique"],
        paths=spec_dict["paths"],
        refine_budget=spec_dict["refine_budget"],
        want_clique_exact=spec_dict["clique_exact"],
    )


def _run_task(args: tuple) -> list[dict]:
    """One (family, horizon, replicate) unit; returns its record rows.

    Module-level so a process pool can ship it; failures are recorded in
    the row's ``error`` field and never abort the run.
    """
    spec_dict, spec_hash, family, t, rep = args
    rep_seed = _rng.child_seed(spec_dict["seed"], rep)
    rows: list[dict] = []
    started = time.perf_counter()
    try:
        if spec_dict["family2"] is None:
            g = evolve(make_family(family), t, rep_seed)
            if spec_dict["dump_dir"]:
                os.makedirs(spec_dict["dump_dir"], exist_ok=True)
                tag = family.replace(":", "_").replace(",", "_").replace("=", "")
                with open(os.path.join(spec_dict["dump_dir"], f"{tag}_t{t}_r{rep}.graph"), "w") as fh:
                    dump_graph(g, fh)
            report = observables.measure_graph(g, **_measure_kwargs(spec_dict))
            rows.append(
                _report_to_record(spec_hash, family, t, rep, rep_seed, report, _overlay(family, t))
            )
        else:
            tree = coupling.grow_tree(t, rep_seed)
            for desc in (family, spec_dict["family2"]):
                g = coupling.collapse(tree, make_family(desc))
                report = observables.measure_graph(g, **_measure_kwargs(spec_dict))
                rows.append(
                    _report_to_record(spec_hash, desc, t, rep, rep_seed, report, _overlay(desc, t))
                )
    except Exception as exc:  # per-replicate failures are data, not crashes
        rows.append(
            {
                **{k: "" for k in RECORD_FIELDS},
                "schema": SCHEMA_VERSION,
                "spec_hash": spec_hash,
                "family": family,
                "t": t,
                "rep": rep,
                "rep_seed": rep_seed,
                "error": f"{type(exc).__name__}: {exc}",
            }
        )
    wall = round(time.perf_counter() - started, 4)
    for row in rows:
        row["wall_time"] = wall
    return rows


def run(spec: ExperimentSpec) -> list[dict]:
    """Execute the spec and return (and optionally persist) its records."""
    spec.validate()
    spec_hash = spec.spec_hash()
    spec_dict = asdict(spec)
    tasks = [
        (spec_dict, spec_hash, family, t, rep)
        for family in spec.families
        for t in spec.horizons
        for rep in range(spec.reps)
    ]
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
