"""Benchmark of edgepa's record path and generator.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload generate-1e6 --seed 1 --seconds 30 --trace 0

Workloads (see README.md for why each exists):

* ``generate-1e6``: one round calls ``experiments.run`` in direct mode
  once per family of ``FAMILIES``, one replicate at t = 1e6, every
  measurement on (exact clique included), records written to CSV.  A unit
  is one record.
* ``grow-1e7``: one round is ``evolve(const:0.5, 1e7)``, ``grow_tree(1e7)``,
  ``collapse`` under ``const:0.3`` and ``const:0.7``, then
  ``evolve_batch(const:0.5, t=2000, reps=1e4)``.  A unit is one call.

A run sets up, then repeats whole rounds until ``--seconds`` of wall time
have passed (at least ``MIN_ROUNDS``), and checks every output outside the
timed calls.  Times are CPU seconds of the process, scaled by the
machine's speed as a fixed numpy kernel timed before every unit measures
it (see README.md).
Round ``k`` draws its inputs from the seed ``(--seed, k)``.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, the end-to-end metrics with ``--trace 0`` and
the per-layer ones with ``--trace 1``.  The line before it is a run report
with the environment stamp and any failed check.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import checks
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("generate-1e6", "grow-1e7")
FAMILIES = ("const:0.5", "log:1", "rv:0.5", "ba")
GENERATE_T = {"generate-1e6": 10**6}
GROW_T = 10**7
BATCH_T, BATCH_REPS = 2000, 10**4
# A record's cost has a heavy tail over inputs (a const:0.5 record at 1e6
# takes 5 s for most seeds, 14 to 19 s for a few), so a run measures at
# least three rounds and reports medians, which a single slow round does
# not move.
MIN_ROUNDS = 3
# CPU seconds of ``reference()`` on the machine of README.md's figures.
REFERENCE_S = 0.25
# A round's time moves about half as far as the kernel's when the machine
# changes speed (log-log slopes 0.61 and 0.54 over 41 rounds, README.md),
# so times are scaled by the square root of the kernel's ratio.
SPEED_EXPONENT = 0.5
# Vertex counts must lie within this many standard deviations of F(t).
SIGMA_BAND = 6.0


def import_edgepa():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "edgepa" / "__init__.py").is_file():
        sys.exit(f"no edgepa sources under {src}; run from the root of a source checkout")
    sys.path.insert(0, str(src))
    import edgepa

    return edgepa


def set_up(workload: str):
    """Imports and input specs: everything a run does before its first timed call."""
    import_edgepa()
    from edgepa import experiments, make_family

    if workload in GENERATE_T:
        specs = []
        for family in FAMILIES:
            tag = family.replace(":", "_")
            spec = experiments.ExperimentSpec(
                families=[family],
                horizons=[GENERATE_T[workload]],
                reps=1,
                seed=0,
                clique_exact=True,
                out=str(OUT_DIR / workload / f"{tag}.csv"),
            )
            spec.validate()
            specs.append(spec)
        return specs
    return {d: make_family(d) for d in ("const:0.5", "const:0.3", "const:0.7", "ba")}


def round_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, k]).generate_state(1, np.uint64)[0])


class Tally:
    """Operations attempted and failed.

    An operation fails when the program reports an error for it or when a
    check of its output finds a problem; only the latter makes the run
    incorrect.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str], error: str = "") -> None:
        self.attempted += 1
        if error or problems:
            self.failed += 1
        if error:
            self.errors.append(f"{what}: {error}")
        self.problems += [f"{what}: {p}" for p in problems]


def clocks() -> tuple[float, float]:
    """(CPU seconds of this process, wall seconds)."""
    return time.process_time(), time.perf_counter()


@functools.cache
def reference_inputs() -> tuple[np.ndarray, ...]:
    """The fixed input of ``reference()``, built once (25 MB)."""
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 1 << 40, 1 << 17)
    table = rng.integers(0, 1 << 30, 1 << 22, dtype=np.int32)
    idx = rng.integers(0, 1 << 22, 1 << 20, dtype=np.int32)
    return keys, table, idx, np.empty_like(idx)


def reference() -> float:
    """CPU seconds of a fixed numpy kernel: a hashed unique, a sort and
    random gathers from a table larger than the caches, the kinds of work
    on edgepa's record path.  Its input never changes and it calls no
    edgepa code, so its time follows only the speed the machine gives
    this process."""
    keys, table, idx, out = reference_inputs()
    start = time.process_time()
    np.unique(keys)
    np.sort(keys)
    for _ in range(8):
        np.take(table, idx, out=out)
    return time.process_time() - start


# -- generate-* ----------------------------------------------------------------


def generate_round(specs, seed: int, written: list) -> list[tuple[str, float, float, float]]:
    """One ``experiments.run`` call per family; each record's CPU and wall
    seconds and the ``reference()`` seconds timed just before it."""
    from edgepa import experiments

    units = []
    for spec in specs:
        spec = dataclasses.replace(spec, seed=seed)
        ref = reference()
        cpu, wall = clocks()
        rows = experiments.run(spec)
        units.append((spec.families[0], time.process_time() - cpu, time.perf_counter() - wall, ref))
        with open(spec.out, newline="") as fh:
            written.append((rows, list(csv.DictReader(fh))))
    return units


def check_generate(written: list, tally: Tally, checked_graphs: int) -> None:
    """Every record by its identities; the first ``checked_graphs`` families
    also against their regenerated graphs."""
    from edgepa import graphs, make_family

    for i, (rows, recs) in enumerate(written):
        if len(recs) != len(rows):
            tally.problems.append(f"{len(rows)} records returned, {len(recs)} written")
        for row, rec in zip(rows, recs):
            what = f"{rec['family']} t={rec['t']} rep_seed={rec['rep_seed']}"
            if rec["error"]:
                tally.record(what, [], error=rec["error"])
                continue
            problems = checks.check_record(rec)
            if any(str(row[k]) != rec[k] for k in rec):
                problems.append("written record differs from the returned one")
            if not problems and i < checked_graphs:
                f, t, seed = make_family(rec["family"]), int(rec["t"]), int(rec["rep_seed"])
                try:
                    problems = checks.check_regenerated(
                        rec, graphs.evolve(f, t, seed), graphs._evolve_sequential(f, t, seed)
                    )
                except ValueError as exc:
                    problems = [f"regenerated graph: {exc}"]
            tally.record(what, problems)


# -- grow-1e7 ------------------------------------------------------------------


def vertex_band(n: float, p: float, t: int, reps: int = 1) -> list[str]:
    """Mean vertex count against F(t) = 1 + p (t - 1) for a constant ``p``."""
    mean, sd = 1 + p * (t - 1), math.sqrt((t - 1) * p * (1 - p) / reps)
    if abs(n - mean) > SIGMA_BAND * sd:
        return [f"mean vertex count {n} outside {mean} +- {SIGMA_BAND} sd ({sd:.3f})"]
    return []


def validated(g) -> list[str]:
    try:
        g.validate()
    except ValueError as exc:
        return [f"validate: {exc}"]
    return []


def grow_round(fams: dict, seed: int, tally: Tally) -> list[tuple[str, float, float, float]]:
    """The five generator calls, each checked (untimed) as soon as it
    returns; each call's CPU and wall seconds and the ``reference()``
    seconds timed just before it."""
    from edgepa import coupling, graphs

    units = []

    def call(what, fn, *args):
        ref = reference()
        cpu, wall = clocks()
        try:
            return fn(*args)
        except Exception as exc:  # a failed call is counted, the round goes on
            tally.record(what, [], error=repr(exc))
            return None
        finally:
            units.append((what, time.process_time() - cpu, time.perf_counter() - wall, ref))

    g = call("evolve", graphs.evolve, fams["const:0.5"], GROW_T, seed)
    if g is not None:
        tally.record("evolve", validated(g) or vertex_band(g.n_vertices, 0.5, GROW_T))
    del g

    tree = call("grow_tree", coupling.grow_tree, GROW_T, seed)
    if tree is not None:
        problems = []
        try:
            tree.validate()
        except ValueError as exc:
            problems.append(f"validate: {exc}")
        # f == 1 keeps every vertex of the tree; the unwrapped collapse
        # keeps this check out of a traced run's spans
        collapse = getattr(coupling.collapse, "__wrapped__", coupling.collapse)
        g = collapse(tree, fams["ba"])
        problems += validated(g)
        if g.n_vertices != GROW_T:
            problems.append(f"collapse under ba keeps {g.n_vertices} of {GROW_T} vertices")
        del g
        tally.record("grow_tree", problems)
    sizes = {}
    for p in (0.3, 0.7):
        what = f"collapse const:{p}"
        if tree is None:
            tally.record(what, [], error="grow_tree failed, no tree to collapse")
            continue
        g = call(what, coupling.collapse, tree, fams[f"const:{p}"])
        if g is None:
            continue
        survivors = 1 + int(np.count_nonzero(tree.u[2:] <= p))
        problems = validated(g)
        if g.n_vertices != survivors:
            problems.append(f"{g.n_vertices} vertices, {survivors} marks <= {p}")
        sizes[p] = g.n_vertices
        if p == 0.7 and 0.3 in sizes and sizes[0.3] > sizes[0.7]:
            problems.append(f"const:0.3 keeps {sizes[0.3]} vertices, const:0.7 only {sizes[0.7]}")
        tally.record(what, problems)
        del g
    del tree

    batch = call("evolve_batch", graphs.evolve_batch, fams["const:0.5"], BATCH_T, BATCH_REPS, seed)
    if batch is not None:
        n = batch.n_vertices()
        # every slot holds a vertex of its row, so each row's degrees sum to 2t
        in_range = (batch.endpoints >= 1).all(axis=1) & (batch.endpoints.max(axis=1) <= n)
        problems = [] if in_range.all() else [f"{int((~in_range).sum())} rows with degree sum != 2t"]
        tally.record("evolve_batch", problems + vertex_band(float(n.mean()), 0.5, BATCH_T, BATCH_REPS))
    return units


# -- runs ----------------------------------------------------------------------


def scaled(units: list) -> list[tuple[str, float]]:
    """Each unit's CPU seconds at the speed of README.md's machine: times
    ``(REFERENCE_S / mean reference() seconds of its round) ** SPEED_EXPONENT``."""
    factor = (REFERENCE_S / statistics.mean(ref for *_, ref in units)) ** SPEED_EXPONENT
    return [(kind, cpu * factor) for kind, cpu, *_ in units]


def slowest_unit(rounds: list) -> float:
    """Seconds of the slowest kind of unit (family or call): the largest
    of the per-kind medians, so one slow moment does not set it alone."""
    by_kind: dict[str, list[float]] = {}
    for units in rounds:
        for kind, cpu in scaled(units):
            by_kind.setdefault(kind, []).append(cpu)
    return max(statistics.median(v) for v in by_kind.values())


def per_layer(tracer: Tracer, written: list, rounds: int) -> dict:
    """Per-round means of every layer metric."""
    times = tracer.layer_times()
    out = {}
    for metric in (
        "graphs.evolve", "graphs.evolve_batch", "coupling.grow_tree", "coupling.collapse",
        "observables.view", "observables.diameter", "observables.bfs", "observables.clique",
        "observables.paths", "observables.tally", "theory.overlay", "experiments.write",
        "experiments.self",
    ):
        out[f"{metric}_s"] = (times.get(metric, 0.0) / rounds, "s")
    gap = sum(
        int(rec["diameter_upper"]) - int(rec["diameter_lower"])
        for _, recs in written
        for rec in recs
        if not rec["error"]
    )
    out["graphs.steps"] = (tracer.steps / rounds, "count")
    out["observables.bfs_calls"] = (tracer.count("observables.bfs") / rounds, "count")
    out["observables.diameter_gap"] = (gap / rounds, "count")
    out["trace.spans"] = (len(tracer.spans) / rounds, "count")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    inputs = set_up(args.workload)
    setup_s = time.process_time()  # from process start, interpreter included
    import edgepa

    (OUT_DIR / args.workload).mkdir(parents=True, exist_ok=True)
    reference()  # builds its input; the first call also pays for page faults

    tally, written, rounds = Tally(), [], []
    tracer = Tracer()
    with tracer.installed() if args.trace else contextlib.nullcontext():
        start = time.perf_counter()
        while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
            seed = round_seed(args.seed, len(rounds))
            if args.workload in GENERATE_T:
                rounds.append(generate_round(inputs, seed, written))
            else:
                rounds.append(grow_round(inputs, seed, tally))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.workload in GENERATE_T:
        check_generate(written, tally, checked_graphs=len(FAMILIES))

    run_s = statistics.median(sum(cpu for _, cpu in scaled(units)) for units in rounds)
    if args.trace:
        metrics = per_layer(tracer, written, len(rounds))
        metrics["trace.run_s"] = (run_s, "s")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s": (run_s, "s"),
            "slowest_s": (slowest_unit(rounds), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(rounds),
        "unit_cpu_wall_reference_seconds": [
            [(kind, round(cpu, 4), round(wall, 4), round(ref, 4)) for kind, cpu, wall, ref in units]
            for units in rounds
        ],
        "errors": tally.errors,
        "problems": tally.problems,
        "env": {
            "edgepa": edgepa.__version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
        },
    }
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": not tally.problems,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
