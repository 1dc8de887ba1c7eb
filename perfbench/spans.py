"""Spans around edgepa's public functions, installed from the benchmark.

``Tracer.installed()`` replaces each function in ``TARGETS`` by a wrapper
at every name under which a loaded ``edgepa`` module holds it (so
``experiments.evolve``, bound by ``from .graphs import evolve``, is
wrapped too), and restores the originals on exit.  Each call records a
span: its metric, start and end in CPU seconds of the process, and the
index of the enclosing span.
Spans stay in memory; ``Tracer.layer_times`` reduces them at the end.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

# (module, attribute, metric).  A function that a later change removes is
# skipped; the metric keeps its name and times what still serves its role.
TARGETS = [
    ("experiments", "run", "experiments.self"),
    ("experiments", "write_records", "experiments.write"),
    ("graphs", "evolve", "graphs.evolve"),
    ("graphs", "evolve_batch", "graphs.evolve_batch"),
    ("coupling", "grow_tree", "coupling.grow_tree"),
    ("coupling", "collapse", "coupling.collapse"),
    ("observables", "simple_view", "observables.view"),
    ("observables", "max_degree", "observables.tally"),
    ("observables", "degree_histogram", "observables.tally"),
    ("observables", "diameter_exact", "observables.diameter"),
    ("observables", "diameter_bounds", "observables.diameter"),
    ("observables", "diameter_auto", "observables.diameter"),
    ("observables", "bfs_distances", "observables.bfs"),
    ("observables", "clique_greedy", "observables.clique"),
    ("observables", "clique_exact", "observables.clique"),
    ("observables", "isolated_paths", "observables.paths"),
    ("observables", "isolated_chains", "observables.paths"),
    ("observables", "max_vertex_path", "observables.paths"),
    ("observables", "vertex_path_depths", "observables.paths"),
    ("theory", "diameter_theory", "theory.overlay"),
    ("edgestep", "EdgeStepFunction.partial_sum", "theory.overlay"),
]

# Time metrics reported as self time (span minus its child spans); every
# other time metric is inclusive, so observables.diameter includes
# observables.bfs.
SELF_TIME = {"experiments.self"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []  # metric, start, end, parent
        self.steps = 0  # generator steps: t per evolve, t * reps per evolve_batch
        self._stack: list[int] = []

    def _wrap(self, fn, metric: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append((metric, 0.0, 0.0, parent))
            self._stack.append(index)
            start = time.process_time()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.process_time()
                self._stack.pop()
                self.spans[index] = (metric, start, end, parent)
            if metric == "graphs.evolve":
                self.steps += out.t
            elif metric == "graphs.evolve_batch":
                self.steps += out.t * out.reps
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []  # (owner, name, original)
        try:
            for module_name, attr, metric in TARGETS:
                module = importlib.import_module(f"edgepa.{module_name}")
                owner_name, _, name = attr.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = owner.__dict__.get(name)
                if original is None:
                    continue
                wrapper = self._wrap(original, metric)
                holders = [owner] if owner_name else [
                    m for key, m in sys.modules.items()
                    if (key == "edgepa" or key.startswith("edgepa.")) and vars(m).get(name) is original
                ]
                for holder in holders:
                    saved.append((holder, name, original))
                    setattr(holder, name, wrapper)
            yield self
        finally:
            for holder, name, original in reversed(saved):
                setattr(holder, name, original)

    def layer_times(self) -> dict[str, float]:
        """Seconds per metric: inclusive for outermost spans, self time for SELF_TIME."""
        child_time = [0.0] * len(self.spans)
        for metric, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for i, (metric, start, end, parent) in enumerate(self.spans):
            if metric in SELF_TIME:
                totals[metric] = totals.get(metric, 0.0) + (end - start) - child_time[i]
            elif not self._nested_in_same(i):
                totals[metric] = totals.get(metric, 0.0) + (end - start)
        return totals

    def _nested_in_same(self, i: int) -> bool:
        metric, parent = self.spans[i][0], self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == metric:
                return True
            parent = self.spans[parent][3]
        return False

    def count(self, metric: str) -> int:
        return sum(1 for span in self.spans if span[0] == metric)
