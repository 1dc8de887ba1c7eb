"""Exact small-instance graph laws, used as ground truth for the generator
and for the tree-collapse construction.

Two independent enumerations produce the full distribution over canonical
graphs at a small horizon: :func:`enumerate_direct_law` walks the direct
process step by step, while :func:`enumerate_collapse_law` enumerates
doubly-labeled trees with ghost labels and survival indicators and pushes
each one through the production ``collapse``.  Both accumulate exact
rationals, so agreement of the two laws is checked against a 1e-10 bound
with no numerical slack to hide behind.

Branches with a common endpoint value are grouped: a degree-proportional
draw over ``2(s-1)`` slots is enumerated as one branch per distinct slot
value weighted by its slot count, read off the endpoint array itself.
The regrouped sum is term-for-term the per-slot sum.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coupling import DoublyLabeledTree, collapse
from .edgestep import EdgeStepFunction
from .graphs import evolve_batch

MAX_ENUM_T = 6


@dataclass
class GraphLaw:
    """Map from canonical graph to exact probability."""

    t: int
    probs: dict

    def total(self) -> Fraction:
        return sum(self.probs.values(), Fraction(0))

    def support_size(self) -> int:
        return len(self.probs)


def law_distance(a: GraphLaw, b: GraphLaw) -> float:
    """Total variation distance ``(1/2) sum |a - b|`` over the key union."""
    keys = set(a.probs) | set(b.probs)
    acc = Fraction(0)
    zero = Fraction(0)
    for k in keys:
        acc += abs(a.probs.get(k, zero) - b.probs.get(k, zero))
    return float(acc) / 2.0


def _slot_weights(endpoints: list) -> list[tuple[int, int]]:
    """Distinct endpoint values with their slot counts (degree-proportional)."""
    return sorted(Counter(endpoints).items())


def _coin_weights(f: EdgeStepFunction, s: int) -> tuple[Fraction, Fraction]:
    p = Fraction(f.eval(s))
    return p, 1 - p


def enumerate_direct_law(f: EdgeStepFunction, t: int) -> GraphLaw:
    """Exact law of the directly evolved graph at horizon ``t <= 6``.

    Depth-first over the coin of each step, the target of a vertex-step,
    and the endpoint pair of an edge-step; vertices are labeled by birth
    time, so outcomes accumulate by canonical form.
    """
    if not 1 <= t <= MAX_ENUM_T:
        raise ValueError(f"direct enumeration supports 1 <= t <= {MAX_ENUM_T}, got {t}")
    probs: dict = {}

    def recurse(s: int, endpoints: list, z: list, weight: Fraction) -> None:
        if s > t:
            key = _canon_lists(z, endpoints)
            probs[key] = probs.get(key, Fraction(0)) + weight
            return
        width = 2 * (s - 1)
        p_vertex, p_edge = _coin_weights(f, s)
        if p_vertex:
            for u, cnt in _slot_weights(endpoints):
                recurse(
                    s + 1,
                    endpoints + [u, s],
                    z + [True],
                    weight * p_vertex * Fraction(cnt, width),
                )
        if p_edge:
            for u1, c1 in _slot_weights(endpoints):
                for u2, c2 in _slot_weights(endpoints):
                    recurse(
                        s + 1,
                        endpoints + [u1, u2],
                        z + [False],
                        weight * p_edge * Fraction(c1 * c2, width * width),
                    )

    recurse(2, [1, 1], [], Fraction(1))
    return GraphLaw(t=t, probs=probs)


def _canon_lists(z: list, endpoints: list) -> tuple:
    """Key of a run whose endpoints are named by birth time: the coins of
    steps 2..t and the sorted edge pairs.  Both laws key by it."""
    pairs = sorted(
        (min(endpoints[2 * i], endpoints[2 * i + 1]), max(endpoints[2 * i], endpoints[2 * i + 1]))
        for i in range(len(endpoints) // 2)
    )
    return (tuple(z), tuple(pairs))


def enumerate_collapse_law(f: EdgeStepFunction, t: int) -> GraphLaw:
    """Exact law of the collapsed tree at horizon ``t <= 6``.

    Enumerates every tree attachment vector, every survival pattern, and
    the ghost label of every collapsed vertex, then applies the production
    collapse map.  Ghost labels of surviving vertices never influence the
    result, so they are summed out exactly rather than branched over.
    """
    if not 1 <= t <= MAX_ENUM_T:
        raise ValueError(f"collapse enumeration supports 1 <= t <= {MAX_ENUM_T}, got {t}")
    probs: dict = {}
    p_keep = [None, None] + [_coin_weights(f, j)[0] for j in range(2, t + 1)]

    def finish(w: list, keep: list, ell: list, weight: Fraction) -> None:
        tree = DoublyLabeledTree(
            w=np.array([0, 0] + w, dtype=np.int64),
            ell=np.array([0, 0] + ell, dtype=np.int64),
            u=np.array([0.0, 0.0] + [0.0 if k else 1.0 for k in keep]),
            seed=0,
        )
        g = collapse(tree, f)
        key = _canon_lists(g.step_type[1:].tolist(), g.birth_time[g.endpoints - 1].tolist())
        probs[key] = probs.get(key, Fraction(0)) + weight

    def recurse_labels(w: list, keep: list, j: int, ell: list, weight: Fraction) -> None:
        if j > t:
            finish(w, keep, ell, weight)
            return
        if keep[j - 2]:
            recurse_labels(w, keep, j + 1, ell + [1], weight)
            return
        width = 2 * (j - 1)
        slots = [1, 1]
        for i, wi in enumerate(w):
            slots += [wi, i + 2]
        for u, cnt in _slot_weights(slots[:width]):
            recurse_labels(w, keep, j + 1, ell + [u], weight * Fraction(cnt, width))

    def recurse_keep(w: list, j: int, keep: list, weight: Fraction) -> None:
        if j > t:
            recurse_labels(w, keep, 2, [], weight)
            return
        pk = p_keep[j]
        if pk:
            recurse_keep(w, j + 1, keep + [True], weight * pk)
        if 1 - pk:
            recurse_keep(w, j + 1, keep + [False], weight * (1 - pk))

    def recurse_tree(j: int, w: list, endpoints: list, weight: Fraction) -> None:
        if j > t:
            recurse_keep(w, 2, [], weight)
            return
        width = 2 * (j - 1)
        for u, cnt in _slot_weights(endpoints):
            recurse_tree(j + 1, w + [u], endpoints + [u, j], weight * Fraction(cnt, width))

    recurse_tree(2, [], [1, 1], Fraction(1))
    return GraphLaw(t=t, probs=probs)


def sample_direct_law(f: EdgeStepFunction, t: int, reps: int, seed: int) -> dict:
    """Canonical-graph counts from ``reps`` generated trajectories.

    Vectorized over replicates; keys match the enumeration laws so the
    counts can be tested against exact probabilities outcome by outcome.
    """
    if not 1 <= t <= MAX_ENUM_T:
        raise ValueError(f"sampling by canonical form supports t <= {MAX_ENUM_T}, got {t}")
    batch = evolve_batch(f, t, reps, seed)
    z = batch.z
    endpoints = batch.endpoints.astype(np.int64)

    # birth time of each vertex id, per replicate
    times = np.zeros((reps, t + 2), dtype=np.int64)
    times[:, 1] = 1
    ids = 1 + np.cumsum(z, axis=1)
    for s in range(2, t + 1):
        mask = z[:, s - 2]
        times[mask, ids[mask, s - 2]] = s
    bt = np.take_along_axis(times, endpoints, axis=1)

    pairs = bt.reshape(reps, t, 2)
    lo = pairs.min(axis=2)
    hi = pairs.max(axis=2)
    packed = np.sort(lo * (t + 2) + hi, axis=1)
    rows = np.concatenate([z.astype(np.int64), packed], axis=1)
    # one key per replicate in mixed radix, most significant column first
    # (base 2 per coin, (t + 2)**2 per pair), so keys sort as rows do
    bases = [2] * (t - 1) + [(t + 2) ** 2] * t
    assert math.prod(bases) <= 2**63  # 2**41 at t = MAX_ENUM_T = 6
    key = np.zeros(reps, dtype=np.int64)
    for col, base in zip(rows.T, bases):
        key *= base
        key += col
    _, first, counts = np.unique(key, return_index=True, return_counts=True)

    out: dict = {}
    for row, cnt in zip(rows[first], counts):
        zt = tuple(bool(x) for x in row[: t - 1])
        pk = row[t - 1 :]
        edges = tuple((int(p // (t + 2)), int(p % (t + 2))) for p in pk)
        out[(zt, edges)] = int(cnt)
    return out

