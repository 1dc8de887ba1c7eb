"""Peak memory and phase seconds of single records at a large horizon.

Each record runs in a fresh process, so its ``ru_maxrss`` is the peak of
that record alone: ``evolve`` at ``T``, then ``measure_graph`` with
every observable on (exact clique included), for each of ``FAMILIES``
with seed ``SEED``, ``REPS`` times.  Each repetition also runs one
coupled child per checkout: ``grow_tree(T, SEED)``, ``collapse`` under
``ba``, then the graph's and the tree's ``validate``, with ``ru_maxrss``
read after each of the four steps.  Run from the root of a source
checkout:

    python3 scripts/bench_memory.py --before ../edgepa-parent

``--before`` names a second checkout (its ``src`` is imported) whose
records are run the same way, alternating with this checkout's
(``after``), so both sets come from the same machine.  The result is
written to ``BENCH_memory.json`` (or ``--out``): under ``runs``, one
entry per checkout, family and repetition, with ``ru_maxrss`` in MB both
right after ``evolve`` (``generate_maxrss_mb``, the generator alone) and
at the end of the record, and the seconds to generate and to measure;
under ``coupled``, one entry per checkout and repetition with the
``ru_maxrss`` after each coupled step.  Every entry holds the edgepa,
numpy and python versions its process ran on.

Every child runs with glibc's mmap threshold fixed at
``MALLOC_MMAP_THRESHOLD``, recorded in each entry: left adaptive, the
threshold rises with the first large block freed, so one record's peak
would follow the order of its frees as much as its arrays.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FAMILIES = ("const:0.5", "ba", "log:1")
T = 10**7
SEED = 11
REPS = 5
MALLOC_MMAP_THRESHOLD = 131072  # bytes; glibc's starting value

# The set-up and version stamp of every child process.
PRELUDE = """
import json, os, platform, resource, sys, time
import numpy as np
import edgepa
from edgepa import coupling, graphs, make_family, observables

def maxrss_mb():
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)

STAMP = {
    "edgepa": edgepa.__version__, "numpy": np.__version__, "python": platform.python_version(),
    "malloc_mmap_threshold": int(os.environ["MALLOC_MMAP_THRESHOLD_"]),
}
"""

# One record: argv is family, t, seed.
RECORD = PRELUDE + """
family, t, seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
start = time.perf_counter()
g = graphs.evolve(make_family(family), t, seed)
generate_s = time.perf_counter() - start
generate_maxrss = maxrss_mb()
start = time.perf_counter()
report = observables.measure_graph(g, want_clique_exact=True)
measure_s = time.perf_counter() - start
print(json.dumps({
    "family": family, "t": t, "seed": seed,
    "generate_maxrss_mb": generate_maxrss, "ru_maxrss_mb": maxrss_mb(),
    "generate_s": round(generate_s, 3), "measure_s": round(measure_s, 3),
    "n_vertices": report.n_vertices, "diameter": [report.diameter_lower, report.diameter_upper],
    "clique_exact": report.clique_exact, **STAMP,
}))
"""

# One coupled run, the ru_maxrss read after each step: argv is t, seed.
COUPLED = PRELUDE + """
t, seed = int(sys.argv[1]), int(sys.argv[2])
tree = coupling.grow_tree(t, seed)
after = {"grow_tree": maxrss_mb()}
g = coupling.collapse(tree, make_family("ba"))
after["collapse"] = maxrss_mb()
g.validate()
after["graph_validate"] = maxrss_mb()
tree.validate()
after["tree_validate"] = maxrss_mb()
print(json.dumps({"t": t, "seed": seed, "maxrss_mb_after": after, "n_vertices": g.n_vertices, **STAMP}))
"""


def run_child(checkout: Path, code: str, *args) -> dict:
    env = dict(
        os.environ,
        PYTHONPATH=str(checkout / "src"),
        MALLOC_MMAP_THRESHOLD_=str(MALLOC_MMAP_THRESHOLD),
    )
    out = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=Path, help="a second checkout to run against this one")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_memory.json", help="output file")
    args = parser.parse_args(argv)

    checkouts = {"after": ROOT} if args.before is None else {"before": args.before, "after": ROOT}
    runs, coupled = [], []
    for rep in range(REPS):
        # alternate which checkout runs first, so drift favours neither
        order = list(checkouts.items())
        order = order[::-1] if rep % 2 else order
        for family in FAMILIES:
            for label, checkout in order:
                rec = run_child(checkout.resolve(), RECORD, family, T, SEED)
                runs.append({"checkout": label, "rep": rep, **rec})
                print(json.dumps(runs[-1]), flush=True)
        for label, checkout in order:
            rec = run_child(checkout.resolve(), COUPLED, T, SEED)
            coupled.append({"checkout": label, "rep": rep, **rec})
            print(json.dumps(coupled[-1]), flush=True)
    args.out.write_text(json.dumps({"cpus": os.cpu_count(), "runs": runs, "coupled": coupled}, indent=1) + "\n")
    print(f"wrote {len(runs)} records and {len(coupled)} coupled runs to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
