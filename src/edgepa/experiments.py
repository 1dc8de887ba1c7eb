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
import functools
import hashlib
import json
import os
import tempfile
import time
from dataclasses import asdict, dataclass, fields
from types import MappingProxyType
from typing import Mapping, Optional

from . import coupling, observables, rng as _rng, theory
from .edgestep import make_family
from .graphs import MultiGraph, dump_graph, evolve

SCHEMA_VERSION = 4
FORMATS = ("csv", "json")

ID_FIELDS = ["schema", "spec_hash", "family", "t", "rep", "rep_seed"]
# the overlay columns are the theory bound set's fields, in order
OVERLAY_FIELDS = [f.name for f in fields(theory.BoundSet)]
# the measurement columns are the report's fields, in order
RECORD_FIELDS = [
    *ID_FIELDS,
    *(f.name for f in fields(observables.ObservableReport)),
    *OVERLAY_FIELDS,
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
    refine_budget: int = observables.REFINE_BUDGET
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
        if self.clique_exact and not self.clique:
            raise ValueError("clique_exact needs clique")
        if self.coupled and len(self.families) < 2:
            raise ValueError("a coupled run needs at least two families")
        funcs = [make_family(d) for d in self.families]
        for i, f in enumerate(funcs):
            if f in funcs[:i]:  # equal functions have equal names
                raise ValueError(f"family {self.families[i]!r} names {f.name} a second time")
            if self.horizons[-1] >= 2:
                f.eval(self.horizons[-1])  # raises past the family's domain
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.fmt not in FORMATS:
            raise ValueError(f"format must be csv or json, got {self.fmt!r}")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")

    def spec_hash(self) -> str:
        """Digest of the fields that determine the records' measurement
        columns, and of the bit generator that draws them."""
        identity = {k: v for k, v in asdict(self).items() if k not in _NOT_IDENTITY}
        identity["bit_generator"] = _rng.BIT_GENERATOR
        blob = json.dumps(identity, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


# Where and how records are written, never what they hold.
_NOT_IDENTITY = ("out", "fmt", "jobs", "dump_dir")


def record_ids(spec_hash: str, family: str, t: int, rep: int, rep_seed) -> dict:
    """The id columns of a record."""
    return dict(zip(ID_FIELDS, (SCHEMA_VERSION, spec_hash, family, t, rep, rep_seed)))


def record(ids: dict, g: MultiGraph, family: str, **toggles) -> dict:
    """Measure ``g`` (``toggles`` as for :func:`observables.measure_graph`)
    into its row under ``ids``, with the overlay of ``family`` at ``g.t``
    (blank for an empty ``family``)."""
    report = observables.measure_graph(g, **toggles)
    cells = {f.name: getattr(report, f.name) for f in fields(report)}
    return _row({**ids, **cells, **(_overlay(family, g.t) if family else {})})


def _row(cells: dict) -> dict:
    """``cells`` in ``RECORD_FIELDS`` order: a missing or ``None`` column is
    blank, and a histogram is written as sorted ``key:count`` pairs."""
    row = dict.fromkeys(RECORD_FIELDS, "")
    for key, value in cells.items():
        if isinstance(value, dict):
            value = " ".join(f"{k}:{c}" for k, c in sorted(value.items()))
        row[key] = "" if value is None else value
    return row


@functools.cache
def _overlay(family_descriptor: str, t: int) -> Mapping:
    """The theory columns of a family at ``t`` (see :class:`theory.BoundSet`).
    They depend on nothing else, so each ``(family, t)`` is computed once per
    process and shared read-only by every replicate.  The cache is unbounded
    because a coupled task walks the whole grid before the next replicate
    starts, so any bound smaller than the grid would miss every time."""
    return MappingProxyType(asdict(theory.diameter_theory(make_family(family_descriptor), t)))


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
    toggles = {k: spec_dict[k] for k in ("diameter", "clique", "paths", "refine_budget")}
    toggles["want_clique_exact"] = spec_dict["clique_exact"]
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
        f = make_family(desc)  # parsed once already, by the spec's validate
        try:
            if isinstance(tree, Exception):
                raise tree
            g = evolve(f, horizons[-1], rep_seed) if tree is None else coupling.collapse(tree, f)
        except Exception as exc:
            g = exc
        generate_s = tree_s + time.perf_counter() - started
        for t in horizons:
            started = time.perf_counter()
            ids = record_ids(spec_hash, f.name, t, rep, rep_seed)
            try:
                if isinstance(g, Exception):
                    raise g
                if spec_dict["dump_dir"]:
                    _dump(spec_dict["dump_dir"], g.prefix(t), desc, rep)
                row = record(ids, g.prefix(t), desc, **toggles)
            except Exception as exc:  # per-record failures are data, not crashes
                row = _row({**ids, "error": f"{type(exc).__name__}: {exc}"})
            row["wall_time"] = round(generate_s + time.perf_counter() - started, 4)
            rows.append(row)
        del g  # before the next family's graph is built
    return rows


def _dump(directory: str, g: MultiGraph, family: str, rep: int) -> None:
    os.makedirs(directory, exist_ok=True)
    tag = family.replace(":", "_").replace(",", "_").replace("=", "")
    with open(os.path.join(directory, f"{tag}_t{g.t}_r{rep}.graph"), "w") as fh:
        dump_graph(g, fh)


def run(spec: ExperimentSpec) -> list[dict]:
    """Execute the spec and return (and optionally persist) its records."""
    spec.validate()
    spec_hash = spec.spec_hash()
    spec_dict = asdict(spec)
    families = [None] if spec.coupled else spec.families
    tasks = [(spec_dict, spec_hash, family, rep) for family in families for rep in range(spec.reps)]
    if spec.jobs > 1:
        # imported here: it is most of this module's import time
        from concurrent.futures import ProcessPoolExecutor

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
    """Persist records atomically (write temp file, then rename into place)
    as ``fmt``, one of ``FORMATS``."""
    if fmt not in FORMATS:
        raise ValueError(f"format must be csv or json, got {fmt!r}")
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
