"""Exact small-instance graph laws, used as ground truth for the generator
and for the tree-collapse construction.

Two independent enumerations produce the full distribution over canonical
graphs at a small horizon: :func:`enumerate_direct_law` walks the direct
process step by step, while :func:`enumerate_collapse_law` walks the
doubly-labeled tree vertex by vertex in birth order, as ``grow_tree``
draws it (attachment, then survival, then the ghost of a collapsed
vertex), and pushes each tree through the production ``collapse``.  Both
accumulate exact rationals, so agreement of the two laws is checked
against a 1e-10 bound with no numerical slack to hide behind.

Branches with a common endpoint value are grouped: a degree-proportional
draw over ``2(s-1)`` slots is enumerated as one branch per distinct slot
value weighted by its slot count, read off the endpoint array itself.
The regrouped sum is term-for-term the per-slot sum.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coupling import DoublyLabeledTree, collapse
from .edgestep import EdgeStepFunction
from .graphs import MultiGraph, canonical_key, evolve_batch

MAX_ENUM_T = 6


@dataclass
class GraphLaw:
    """Map from ``canonical_key`` bytes to exact probability."""

    t: int
    probs: dict

    def total(self) -> Fraction:
        return sum(self.probs.values(), Fraction(0))

    def support_size(self) -> int:
        return len(self.probs)


def law_distance(a: GraphLaw, b: GraphLaw) -> float:
    """Total variation distance ``(1/2) sum |a - b|`` over the key union."""
    zero = Fraction(0)
    keys = a.probs.keys() | b.probs.keys()
    return float(sum(abs(a.probs.get(k, zero) - b.probs.get(k, zero)) for k in keys)) / 2.0


def _slot_weights(endpoints: list) -> list[tuple[int, int]]:
    """Distinct endpoint values with their slot counts (degree-proportional)."""
    return sorted(Counter(endpoints).items())


def enumerate_direct_law(f: EdgeStepFunction, t: int) -> GraphLaw:
    """Exact law of the directly evolved graph at horizon ``t <= 6``.

    Depth-first over the coin of each step, the target of a vertex-step,
    and the endpoint pair of an edge-step; each vertex is named by its id,
    as ``evolve`` names it, and outcomes accumulate by ``canonical_key``.
    """
    if not 1 <= t <= MAX_ENUM_T:
        raise ValueError(f"direct enumeration supports 1 <= t <= {MAX_ENUM_T}, got {t}")
    probs: dict = {}

    def recurse(s: int, endpoints: list, z: list, weight: Fraction) -> None:
        if s > t:
            g = MultiGraph(endpoints=np.array(endpoints, dtype=np.int64), step_type=np.array(z))
            key = canonical_key(g)
            probs[key] = probs.get(key, Fraction(0)) + weight
            return
        width = 2 * (s - 1)
        p_vertex = Fraction(f.eval(s))
        p_edge = 1 - p_vertex
        if p_vertex:
            for u, cnt in _slot_weights(endpoints):
                recurse(
                    s + 1,
                    endpoints + [u, z.count(True) + 1],  # the next vertex id
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

    recurse(2, [1, 1], [True], Fraction(1))
    return GraphLaw(t=t, probs=probs)


def enumerate_collapse_law(f: EdgeStepFunction, t: int) -> GraphLaw:
    """Exact law of the collapsed tree at horizon ``t <= 6``.

    One recursion over vertices ``j = 2..t`` in birth order: vertex ``j``
    attaches over the ``2(j-1)`` slots of the pre-step tree, then survives
    with probability ``f(j)`` (mark 0, ghost fixed at 1) or collapses
    (mark 1, ghost drawn over those same slots).  A survivor's ghost never
    influences the result, so it is summed out exactly rather than
    branched over.  Each finished tree goes through the production
    collapse map.
    """
    if not 1 <= t <= MAX_ENUM_T:
        raise ValueError(f"collapse enumeration supports 1 <= t <= {MAX_ENUM_T}, got {t}")
    probs: dict = {}

    # endpoints lists the tree's slots [1, 1, w(2), 2, w(3), 3, ...]
    def recurse(j: int, endpoints: list, ell: list, u: list, weight: Fraction) -> None:
        if j > t:
            tree = DoublyLabeledTree(
                w=np.array([0, 0] + endpoints[2::2], dtype=np.int64),
                ell=np.array([0, 0] + ell, dtype=np.int64),
                u=np.array([0.0, 0.0] + u),
                seed=0,
            )
            key = canonical_key(collapse(tree, f))
            probs[key] = probs.get(key, Fraction(0)) + weight
            return
        width = 2 * (j - 1)
        p_keep = Fraction(f.eval(j))
        slots = _slot_weights(endpoints)
        for w, cw in slots:
            grown, attached = endpoints + [w, j], weight * Fraction(cw, width)
            if p_keep:
                recurse(j + 1, grown, ell + [1], u + [0.0], attached * p_keep)
            if 1 - p_keep:
                collapsed = attached * (1 - p_keep)
                for g, cg in slots:
                    recurse(j + 1, grown, ell + [g], u + [1.0], collapsed * Fraction(cg, width))

    recurse(2, [1, 1], [], [], Fraction(1))
    return GraphLaw(t=t, probs=probs)


def sample_direct_law(f: EdgeStepFunction, t: int, reps: int, seed: int) -> dict:
    """``canonical_key`` counts of ``reps`` replicates of ``evolve_batch``.

    Replicates with equal coins and endpoint ids are one graph, so each
    distinct raw row is keyed once; several rows may share a key.
    """
    if not 1 <= t <= MAX_ENUM_T:
        raise ValueError(f"sampling by canonical form supports t <= {MAX_ENUM_T}, got {t}")
    batch = evolve_batch(f, t, reps, seed)
    # one row of uint8 coins and endpoint ids per replicate (t <= 6)
    raw = np.ascontiguousarray(np.concatenate([batch.z, batch.endpoints], axis=1))
    _, first, counts = np.unique(raw.view(f"V{raw.shape[1]}"), return_index=True, return_counts=True)
    out: Counter = Counter()
    for r, cnt in zip(first.tolist(), counts.tolist()):
        out[canonical_key(batch.extract(r))] += cnt
    return dict(out)
