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

from . import edgestep as _es
from . import rng as _rng
from .edgestep import EdgeStepFunction
from .graphs import (
    MultiGraph,
    _BlockResolver,
    _id_dtype,
    _slots,
    canonical_key,
    keep_where,
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
        """Raise ValueError on a target that is not an older vertex, or on a
        mark outside [0, 1] (NaN included, which ``collapse`` would drop
        under every f).  Checked in that order, ``STEP_CHUNK`` targets at a
        time; the marks by their minimum and maximum, which are NaN if any
        mark is."""
        if not _points_back(self.w):
            raise ValueError("attachment targets must be strictly older vertices")
        if not _points_back(self.ell):
            raise ValueError("ghost targets must be strictly older vertices")
        if not (self.u.min() >= 0 and self.u.max() <= 1):
            raise ValueError("uniform marks must lie in [0, 1]")


def _points_back(a: np.ndarray) -> bool:
    """Whether ``1 <= a[j] < j`` for every ``j >= 2``: each vertex names an
    older one.  Read ``STEP_CHUNK`` entries at a time."""
    chunk = _es.STEP_CHUNK
    for j in range(2, len(a), chunk):
        block = a[j : j + chunk]
        if block.min() < 1 or np.any(block >= np.arange(j, j + len(block))):
            return False
    return True


def grow_tree(t: int, seed: int) -> DoublyLabeledTree:
    """Grow the tree to size ``t``; deterministic given ``(t, seed)``.

    Per step the draws are: one slot for the real edge, one independent
    slot for the ghost label (both uniform over the 2(j-1) endpoint slots
    of the pre-step tree), plus one uniform mark per vertex from its own
    stream, so mark ``j`` is the ``j``-th entry of that stream.  The slots
    are drawn, linked and resolved ``STEP_CHUNK`` vertices at a time, in
    one pass.
    """
    if t < 1:
        raise ValueError(f"tree size must be >= 1, got {t}")
    u = np.zeros(t + 1)
    _rng.stream(seed, _rng.TREE_ULABELS).random(out=u[1:])
    draws = _rng.stream(seed, _rng.TREE_SLOTS)
    dtype = _id_dtype(t)
    w = np.zeros(t + 1, dtype=dtype)  # zeros, as the kernel reads them
    w[:2] = 1  # vertex 1 stands for slot 0
    ell = np.zeros(t + 1, dtype=dtype)
    chunk = _es.STEP_CHUNK
    kernel = _BlockResolver(min(chunk, t), dtype, dtype)
    for lo in range(0, t - 1, chunk):
        k, j = min(chunk, t - 1 - lo), lo + 2  # vertices in the block, its first
        slot = _slots(draws, lo, k, dtype)  # the real and the ghost slot
        # Every step is a vertex-step, so odd slot 2v-1 holds v and even
        # slot 2v-2 holds w(v) (slot 0 holds the root).  A slot's value is
        # thus a terminal or the attachment of an older vertex: links over
        # vertices.
        odd = (slot & 1).astype(bool)
        slot >>= 1
        slot += 1  # v, the vertex whose edge holds the slot
        link = np.arange(j, j + k, dtype=dtype)
        keep_where(link, odd[:, 0], slot[:, 0])
        # zero at the links: each takes its root's value
        kernel.resolve(w, j, link, slot[:, 0] * odd[:, 0])
        # the ghost holds v if its slot is odd, else w(v), resolved: v < j + k
        ghost = ell[j : j + k]
        w.take(slot[:, 1], out=ghost, mode="wrap")
        keep_where(ghost, ~odd[:, 1], slot[:, 1])
    w[:2] = 0
    return DoublyLabeledTree(w=w, ell=ell, u=u, seed=seed)


def collapse(tree: DoublyLabeledTree, f: EdgeStepFunction) -> MultiGraph:
    """Apply ``f`` to the tree and return the resulting multigraph.

    Vertex ``j`` survives iff ``U_j <= f(j)`` (the root always survives);
    a collapsed vertex is merged into the surviving representative reached
    by following ghost targets through collapsed vertices.  Ghost chains
    strictly decrease the birth index, so the kernel of
    :func:`resolve_backward_links` maps every vertex to its
    representative's survivor rank in index order -- the same answer a
    path-compressed union-find keyed by birth index would give.  Each tree
    edge ``{w(j), j}`` is remapped to the representatives of its
    endpoints, both resolved since ``w(j) < j``; step types carry over,
    so the births follow and every observable applies to the result.  The
    marks are compared, linked, resolved and remapped ``STEP_CHUNK``
    vertices at a time, in one pass.
    """
    t = tree.t
    dtype = _id_dtype(t)
    keep = np.ones(t + 1, dtype=bool)
    rr = np.zeros(t + 1, dtype=dtype)  # zeros, as the kernel reads them
    rr[1] = 1  # the root's rank
    endpoints = np.empty((t, 2), dtype=dtype)  # row j - 1 is the edge of vertex j
    endpoints[0] = 1
    kernel = _BlockResolver(min(_es.STEP_CHUNK, t), dtype, dtype)
    kept = 1  # the newest survivor's rank
    for lo, fs in f.eval_chunks(2, t):
        k, j = len(fs), lo + 2  # vertices in the block, its first
        kb = keep[j : j + k]
        np.less_equal(tree.u[j : j + k], fs, out=kb)
        del fs  # spent, and freed before the kernel's peak
        link = np.arange(j, j + k, dtype=dtype)
        keep_where(link, kb, tree.ell[j : j + k])
        rank = np.cumsum(kb, dtype=dtype)
        rank += kept
        kept = int(rank[-1])
        rank *= kb  # zero at the links, so each takes its representative's rank
        kernel.resolve(rr, j, link, rank)
        endpoints[j - 1 : j - 1 + k, 0] = rr.take(tree.w[j : j + k], mode="wrap")
        endpoints[j - 1 : j - 1 + k, 1] = rr[j : j + k]
    return MultiGraph(endpoints=endpoints.reshape(-1), step_type=keep[1:], family=f.name, seed=tree.seed)


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

