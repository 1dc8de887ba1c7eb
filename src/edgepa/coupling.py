"""The doubly-labeled random tree and the collapse map.

The tree process is the pure preferential-attachment tree (the ``f == 1``
case) where every vertex ``j >= 2`` additionally carries two labels drawn
at its birth: a ghost target ``ell(j)`` chosen by the same
degree-proportional rule as the real attachment ``w(j)`` (only real edges
count toward degree), and an independent uniform mark ``U_j``.

One grown tree generates the graph of *every* edge-step function:
``collapse(tree, f)`` keeps vertex ``j`` when ``U_j <= f(j)`` and merges
it into the representative of its ghost target otherwise, remapping each
tree edge to the representatives of its endpoints.  The collapsed graph
is distributed exactly as the directly evolved graph at the same horizon
(the oracle module verifies this law equality exhaustively on small
instances), and running several functions against one tree yields the
grand coupling used by the monotonicity and total-variation experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .edgestep import EdgeStepFunction
from .graphs import (
    MultiGraph,
    _draw_slots,
    _finish,
    _id_dtype,
    canonical_key,
    keep_where,
    resolve_backward_links,
)


@dataclass
class DoublyLabeledTree:
    """Attachment targets, ghost targets, and uniform marks, indexed by birth ``j``.

    ``w[j]`` and ``ell[j]`` are defined for ``j >= 2`` and always point to
    strictly older vertices; slot 0 and the root entries are zero.  Both
    are of ``_id_dtype(t)`` (int32 while ``2t < 2**31``); ``u`` is float64.
    Immutable after growth; collapsing is read-only, so one tree may serve
    many edge-step functions concurrently.
    """

    w: np.ndarray
    ell: np.ndarray
    u: np.ndarray
    seed: int

    @property
    def t(self) -> int:
        return len(self.w) - 1

    def validate(self) -> None:
        t = self.t
        js = np.arange(2, t + 1, dtype=self.w.dtype)
        if t >= 2 and (np.any(self.w[2:] < 1) or np.any(self.w[2:] >= js)):
            raise ValueError("attachment targets must be strictly older vertices")
        if t >= 2 and (np.any(self.ell[2:] < 1) or np.any(self.ell[2:] >= js)):
            raise ValueError("ghost targets must be strictly older vertices")
        if np.any((self.u < 0) | (self.u > 1)):
            raise ValueError("uniform marks must lie in [0, 1]")


def grow_tree(t: int, seed: int) -> DoublyLabeledTree:
    """Grow the tree to size ``t``; deterministic given ``(t, seed)``.

    Per step the draws are: one slot for the real edge, one independent
    slot for the ghost label (both uniform over the 2(j-1) endpoint slots
    of the pre-step tree), plus one uniform mark per vertex from its own
    stream, so mark ``j`` is the ``j``-th entry of that stream.
    """
    if t < 1:
        raise ValueError(f"tree size must be >= 1, got {t}")
    u = np.zeros(t + 1)
    _rng.stream(seed, _rng.TREE_ULABELS).random(out=u[1:])
    w_slot, l_slot = _draw_slots(_rng.stream(seed, _rng.TREE_SLOTS), t)

    # Every step is a vertex-step, so odd slot 2j-1 holds j and even slot
    # 2j-2 holds w(j) (slot 0 holds the root).  A slot's value is thus a
    # terminal or the attachment of an older vertex: links over vertices.
    odd = (w_slot & 1) == 1
    w_slot >>= 1
    w_slot += 1  # the vertex whose edge holds the slot
    ptr = np.arange(t + 1, dtype=w_slot.dtype)
    keep_where(ptr[2:], odd, w_slot)
    val = np.ones(t + 1, dtype=w_slot.dtype)  # vertex 1 stands for slot 0
    np.multiply(w_slot, odd, out=val[2:])  # zero at the links: each takes its root's value
    del w_slot, odd
    w = resolve_backward_links(ptr, val)  # w[j] = w(j) for j >= 2, w[1] = 1
    del ptr, val

    # ghost slot k lies on the edge of vertex (k >> 1) + 1: it holds that
    # vertex if k is odd, its attachment (the root's 1 for k = 0) if even
    even = (l_slot & 1) == 0
    l_slot >>= 1
    l_slot += 1
    ell = np.zeros(t + 1, dtype=w.dtype)
    ell[2:] = w[l_slot]
    keep_where(ell[2:], even, l_slot)
    w[:2] = 0
    return DoublyLabeledTree(w=w, ell=ell, u=u, seed=seed)


def collapse(tree: DoublyLabeledTree, f: EdgeStepFunction) -> MultiGraph:
    """Apply ``f`` to the tree and return the resulting multigraph.

    Vertex ``j`` survives iff ``U_j <= f(j)`` (the root always survives);
    a collapsed vertex is merged into the surviving representative reached
    by following ghost targets through collapsed vertices.  Ghost chains
    strictly decrease the birth index, so :func:`resolve_backward_links`
    maps every vertex to its representative's survivor rank in one pass
    -- the same answer a path-compressed union-find keyed by birth index
    would give.  Each tree edge ``{w(j), j}`` is remapped to the
    representatives of its endpoints; birth times and step types carry
    over so every observable applies to the result.
    """
    t = tree.t
    keep = np.ones(t + 1, dtype=bool)
    for lo, fs in f.eval_chunks(2, t):
        np.less_equal(tree.u[lo + 2 : lo + 2 + len(fs)], fs, out=keep[lo + 2 : lo + 2 + len(fs)])
    dtype = _id_dtype(t)
    rep = np.arange(t + 1, dtype=dtype)
    keep_where(rep, keep, tree.ell)
    rank = np.cumsum(keep, dtype=dtype)
    rank -= 1
    rank *= keep  # zero at the links, so each takes its representative's rank
    rr = resolve_backward_links(rep, rank)
    del rep, rank

    endpoints = np.empty(2 * t, dtype=dtype)
    endpoints[:2] = 1
    endpoints[2::2] = rr[tree.w[2:]]
    endpoints[3::2] = rr[2:]
    return _finish(tree.seed, f.name, keep[2:], endpoints)


def tv_upper_bound(f: EdgeStepFunction, h: EdgeStepFunction, horizon: int) -> float:
    """Truncated L1 distance ``sum_{s=2..horizon} |f(s) - h(s)|``.

    This bounds the total variation distance between the two graph laws;
    :func:`empirical_disagreement` measures the coupled counterpart.
    """
    if horizon < 2:
        raise ValueError(f"horizon must be >= 2, got {horizon}")
    s = np.arange(2, horizon + 1, dtype=np.int64)
    return float(np.sum(np.abs(f.eval_array(s) - h.eval_array(s))))


def empirical_disagreement(
    f: EdgeStepFunction,
    h: EdgeStepFunction,
    t: int,
    reps: int,
    seed: int,
) -> float:
    """Fraction of coupled replicates whose two collapsed graphs differ.

    Graphs are compared by canonical form (surviving birth times plus the
    remapped edge multiset).  Comparing at the single horizon ``t`` can
    only miss differences that appear later in the trajectories.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    differ = 0
    for r in range(reps):
        tree = grow_tree(t, _rng.child_seed(seed, r))
        if canonical_key(collapse(tree, f)) != canonical_key(collapse(tree, h)):
            differ += 1
    return differ / reps

