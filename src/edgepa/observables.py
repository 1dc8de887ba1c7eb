"""Graph measurements: degrees, diameter, cliques, isolated chains, vertex paths.

Distance and clique observables are computed on the simple view (loops
dropped, parallel edges deduplicated) since multiplicities change neither
distances nor cliques; chain observables need the growth history and run
on the multigraph itself.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graphs import MultiGraph


@dataclass
class SimpleView:
    """Deduplicated undirected adjacency in CSR form, vertices 0-based."""

    n: int
    edges: np.ndarray    # (m, 2) unique pairs, edges[:, 0] < edges[:, 1]
    indptr: np.ndarray
    indices: np.ndarray  # sorted within each row

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)


def simple_view(g: MultiGraph) -> SimpleView:
    """Drop loops, deduplicate parallel edges, keep the vertex set unchanged.

    Each non-loop edge gives the arc keys ``a * n + b`` and ``b * n + a``;
    one sort of them, with repeats dropped, lists the CSR rows in order
    (numpy's ``np.unique`` hashes, which is far slower here).
    """
    n = g.n_vertices
    pairs = g.endpoints.reshape(-1, 2) - 1
    a, b = pairs[:, 0], pairs[:, 1]
    off_loop = a != b
    a, b = a[off_loop], b[off_loop]
    arcs = np.sort(np.concatenate([a * n + b, b * n + a]))
    arcs = arcs[np.diff(arcs, prepend=-1) != 0]
    src, dst = np.divmod(arcs, n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    forward = src < dst
    edges = np.column_stack([src[forward], dst[forward]])
    return SimpleView(n=n, edges=edges, indptr=indptr, indices=dst)


# -- tallies -----------------------------------------------------------------


def max_degree(g: MultiGraph) -> int:
    return int(g.degrees().max())


def degree_histogram(g: MultiGraph) -> dict[int, int]:
    counts = np.bincount(g.degrees())
    present = np.flatnonzero(counts)
    return dict(zip(present.tolist(), counts[present].tolist()))


# -- breadth-first distances ---------------------------------------------------


def bfs_distances(view: SimpleView, src: int) -> np.ndarray:
    """Unweighted distances from ``src``; unreachable vertices get -1."""
    dist = np.full(view.n, -1, dtype=np.int64)
    dist[src] = 0
    frontier = np.array([src], dtype=np.int64)
    # owner[v] is the last position of v in the current level's reach list;
    # keeping only that position dedupes the frontier without sorting
    owner = np.empty(view.n, dtype=np.int64)
    d = 0
    indptr, indices = view.indptr, view.indices
    while frontier.size:
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        shift = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        nbrs = indices[shift + np.arange(total)]
        nbrs = nbrs[dist[nbrs] < 0]
        if nbrs.size == 0:
            break
        d += 1
        dist[nbrs] = d
        slots = np.arange(nbrs.size)
        owner[nbrs] = slots
        frontier = nbrs[owner[nbrs] == slots]
    return dist


def diameter_bounds(view: SimpleView, refine_budget: int = 256) -> tuple[int, int]:
    """Certified diameter bracket ``(lb, ub)``, with ``lb == ub`` unless the
    budget of fringe searches ran out.

    A double sweep from the highest-degree vertex ``r`` gives the lower
    bound ``lb``, the largest eccentricity seen; on a tree it is exact.
    Otherwise the breadth-first levels of ``r`` are searched from the
    outermost inward (iFUB: Crescenzi, Grossi, Habib, Lanzi & Marino, TCS
    2013).  Once every vertex above level ``i`` has eccentricity at most
    ``lb``, a longer path would have both ends within ``i`` of ``r``, so
    ``D <= max(lb, 2 i)``.  A vertex ``w`` is searched only when its upper
    bound ``min_v ecc(v) + d(v, w)`` over the searched ``v`` exceeds ``lb``
    (Takes & Kosters, 2011).  When ``refine_budget`` searches have run and
    another is needed at level ``i``, the bracket is ``(lb, max(lb, 2 i))``.
    Raises on disconnected input, which generated graphs never are.
    """
    n = view.n
    if n == 1:
        return (0, 0)
    lb = 0
    ecc_ub = np.full(n, 2 * n, dtype=np.int64)

    def probe(v: int) -> tuple[int, np.ndarray]:
        nonlocal lb
        dist = bfs_distances(view, v)
        if dist.min() < 0:
            raise ValueError("graph is disconnected")
        ecc = int(dist.max())
        lb = max(lb, ecc)
        np.minimum(ecc_ub, dist + ecc, out=ecc_ub)
        return ecc, dist

    root_ecc, levels = probe(int(np.argmax(view.degrees())))
    probe(int(np.argmax(levels)))
    if view.n_edges == n - 1:
        # connected with n - 1 edges is a tree: the far end of any search
        # is a diametral endpoint, so its eccentricity is the diameter
        return (lb, lb)

    used = 0
    for i in range(root_ecc, 0, -1):
        if lb >= 2 * i:
            break
        fringe = np.flatnonzero(levels == i)
        fringe = fringe[ecc_ub[fringe] > lb]
        for w in fringe[np.argsort(-ecc_ub[fringe], kind="stable")]:
            if lb >= 2 * i:
                return (lb, lb)
            if ecc_ub[w] <= lb:
                continue
            if used >= refine_budget:
                return (lb, max(lb, 2 * i))
            probe(int(w))
            used += 1
    return (lb, lb)


# -- cliques -------------------------------------------------------------------


def _bitset_adjacency(view: SimpleView, k: int) -> list[int]:
    """Adjacency bitmasks of the subgraph induced on vertices ``0 .. k-1``."""
    src = np.repeat(np.arange(k), np.diff(view.indptr[: k + 1]))
    dst = view.indices[: view.indptr[k]]
    inside = dst < k
    bits = np.zeros((k, k), dtype=bool)
    bits[src[inside], dst[inside]] = True
    rows = np.packbits(bits, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


class _SearchBudget(Exception):
    pass


def _max_clique_masks(masks: list[int], node_budget: int) -> int:
    """Branch-and-bound maximum clique with pivoting on bitmask adjacency."""
    n = len(masks)
    if n == 0:
        return 0
    best = 1
    nodes = 0

    def expand(size: int, cand: int) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > node_budget:
            raise _SearchBudget
        if cand == 0:
            best = max(best, size)
            return
        if size + cand.bit_count() <= best:
            return
        # pivot on the candidate covering most of the candidate set
        pivot, cover = -1, -1
        probe = cand
        while probe:
            v = (probe & -probe).bit_length() - 1
            c = (cand & masks[v]).bit_count()
            if c > cover:
                pivot, cover = v, c
            probe &= probe - 1
        ext = cand & ~masks[pivot]
        while ext:
            v = (ext & -ext).bit_length() - 1
            bit = 1 << v
            expand(size + 1, cand & masks[v])
            cand &= ~bit
            ext &= ~bit
            if size + cand.bit_count() <= best:
                return

    expand(0, (1 << n) - 1)
    return best


def clique_exact(
    view: SimpleView,
    cap: int = 500,
    node_budget: int = 500_000,
) -> tuple[Optional[int], str]:
    """Maximum clique size with an explicit status.

    Returns ``(omega, "exact")`` when the whole graph was searched,
    ``(size, "lower_bound")`` when the graph exceeded ``cap`` vertices and
    the search ran on the ``cap`` oldest vertices only (early vertices are
    where large cliques live), or ``(None, "unavailable")`` when the node
    budget was exhausted.
    """
    restricted = view.n > cap
    masks = _bitset_adjacency(view, min(view.n, cap))
    try:
        size = _max_clique_masks(masks, node_budget)
    except _SearchBudget:
        return (None, "unavailable")
    return (size, "lower_bound" if restricted else "exact")


def clique_greedy(g: MultiGraph, view: Optional[SimpleView] = None) -> int:
    """Larger of two verified greedy cliques (birth order / degree order).

    Each pass walks the candidate order and keeps a vertex iff it is
    adjacent to every vertex kept so far; the returned set is re-checked
    pairwise before reporting.
    """
    if view is None:
        view = simple_view(g)
    n = view.n
    if n == 1:
        return 1

    def greedy(order: np.ndarray) -> list[int]:
        # the first vertex in order always joins; after it only its
        # neighbours can, so walk those in order, keeping each one that is
        # adjacent to every member so far
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        members = [int(order[0])]
        alive = view.neighbors(members[0])
        alive = alive[np.argsort(rank[alive], kind="stable")]
        adjacent = np.zeros(n, dtype=bool)
        while alive.size:
            v = int(alive[0])
            members.append(v)
            adjacent[view.neighbors(v)] = True
            alive = alive[adjacent[alive]]
            adjacent[view.neighbors(v)] = False
        return members

    by_birth = np.arange(n)
    by_degree = np.argsort(-g.degrees(), kind="stable")
    best: list[int] = []
    for order in (by_birth, by_degree):
        members = greedy(order)
        if len(members) > len(best):
            best = members
    nbr_sets = {v: set(view.neighbors(v).tolist()) for v in best}
    for i, v in enumerate(best):
        for u in best[i + 1 :]:
            if u not in nbr_sets[v]:
                raise AssertionError("greedy clique failed pairwise adjacency check")
    return len(best)


# -- isolated chains -----------------------------------------------------------


def isolated_chains(g: MultiGraph) -> list[list[int]]:
    """All maximal isolated chains, each as vertex ids oldest first.

    A chain is a run of vertex-born vertices in increasing birth order,
    each first-connected to its predecessor, with interior degrees exactly
    2 and tip degree 1; the walk from each degree-1 tip climbs parents
    until the predicate first fails, so every chain is reported at its
    maximal valid length.  The root never qualifies (it was not born by a
    step coin), while every other vertex is vertex-born by construction.
    """
    deg = g.degrees()
    chains: list[list[int]] = []
    for tip in np.flatnonzero(deg == 1) + 1:
        chain = [int(tip)]
        cur = int(tip)
        while True:
            p = int(g.parent[cur - 1])
            if p <= 1 or deg[p - 1] != 2:
                break
            chain.append(p)
            cur = p
        chain.reverse()
        chains.append(chain)
    return chains


def _chain_links(g: MultiGraph) -> tuple[np.ndarray, np.ndarray]:
    """Degrees and chain links by vertex id: the parent when it is not the
    root and has degree 2 (the climb of :func:`isolated_chains`), else 0."""
    deg = np.concatenate([[0], g.degrees()])
    par = np.concatenate([[0], g.parent]).astype(np.int64)
    return deg, np.where((par > 1) & (deg[par] == 2), par, 0)


def isolated_paths(g: MultiGraph) -> Counter:
    """Multiset of maximal isolated-chain lengths (vertex counts).

    The lengths of :func:`isolated_chains` by pointer jumping over the
    chain links: a tip's chain length is the number of vertices on its
    link path.
    """
    deg, ptr = _chain_links(g)
    length = np.ones(len(ptr), dtype=np.int64)
    length[0] = 0  # entry 0 is the null link
    while ptr.any():
        length = length + length[ptr]
        ptr = ptr[ptr]
    counts = np.bincount(length[deg == 1])
    present = np.flatnonzero(counts)
    return Counter(dict(zip(present.tolist(), counts[present].tolist())))


def count_isolated_in_window(g: MultiGraph, l: int, xi: float) -> int:
    """Chains containing an exact-length-``l`` tail born at or after ``xi * t``.

    Counts, per maximal chain, the single size-``l`` sub-chain ending at
    the degree-1 tip, provided all ``l`` of its vertices were born in the
    window; only tails qualify because interior vertices have degree 2.
    Pointer jumping finds the tail's oldest vertex ``l - 1`` chain links
    above the tip (null if the chain is shorter); its birth decides.
    """
    if l < 1:
        raise ValueError(f"need l >= 1, got {l}")
    deg, ptr = _chain_links(g)
    head = np.flatnonzero(deg == 1)
    steps = l - 1
    while steps and head.any():
        if steps & 1:
            head = ptr[head]
        ptr = ptr[ptr]
        steps >>= 1
    born = np.concatenate([[0], g.birth_time])
    return int(np.count_nonzero((head > 0) & (born[head] >= xi * g.t)))


# -- vertex paths ---------------------------------------------------------------


def vertex_path_depths(g: MultiGraph, t0: int) -> np.ndarray:
    """Length of the first-connection chain ending at each vertex.

    A vertex qualifies when it was vertex-born at time >= ``t0``; its
    depth is 1 plus the parent's depth when the parent qualifies too.
    Indexed by vertex id (entry 0 unused).
    """
    n = g.n_vertices
    qual = np.zeros(n + 1, dtype=bool)
    qual[2:] = g.birth_time[1:] >= t0
    par = np.concatenate([[0], g.parent]).astype(np.int64)
    par[par < 0] = 0
    depth = qual.astype(np.int64)
    ptr = np.where(qual & qual[par], par, 0)
    while ptr.any():
        depth = depth + depth[ptr]
        ptr = ptr[ptr]
    return depth


def max_vertex_path(g: MultiGraph, t0: int) -> int:
    """Maximal first-connection chain length among vertices born at >= ``t0``."""
    if g.n_vertices == 1:
        return 0
    return int(vertex_path_depths(g, t0).max())


def count_vertex_paths(g: MultiGraph, t0: int, k: int) -> int:
    """Number of chains of length exactly ``k`` (one per vertex of depth >= k)."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if g.n_vertices == 1:
        return 0
    return int(np.count_nonzero(vertex_path_depths(g, t0) >= k))


# -- report ---------------------------------------------------------------------


@dataclass
class ObservableReport:
    """Measurements of one graph, flat enough to serialize as a single row."""

    n_vertices: int
    max_degree: int
    degree_histogram: dict[int, int]
    simple_edge_count: int
    diameter_lower: Optional[int] = None
    diameter_upper: Optional[int] = None
    diameter_method: str = "off"
    clique_greedy: Optional[int] = None
    clique_exact: Optional[int] = None
    clique_exact_status: str = "off"
    isolated_path_lengths: Optional[Counter] = None
    max_vertex_path: Optional[int] = None
    vertex_path_t0: Optional[int] = None

    def check(self) -> None:
        if sum(self.degree_histogram.values()) != self.n_vertices:
            raise ValueError("degree histogram must count every vertex")
        if self.diameter_lower is not None and self.diameter_lower > self.diameter_upper:
            raise ValueError("diameter lower bound exceeds upper bound")
        if (
            self.clique_greedy is not None
            and self.clique_exact is not None
            and self.clique_exact_status == "exact"
            and self.clique_greedy > self.clique_exact
        ):
            raise ValueError("greedy clique cannot exceed the exact clique number")


def measure_graph(
    g: MultiGraph,
    *,
    diameter: bool = True,
    clique: bool = True,
    paths: bool = True,
    refine_budget: int = 256,
    want_clique_exact: bool = False,
    clique_exact_cap: int = 500,
    vertex_path_t0: Optional[int] = None,
) -> ObservableReport:
    """Measure the toggled observables of one graph into a report."""
    view = simple_view(g)
    report = ObservableReport(
        n_vertices=g.n_vertices,
        max_degree=max_degree(g),
        degree_histogram=degree_histogram(g),
        simple_edge_count=view.n_edges,
    )
    if diameter:
        lo, hi = diameter_bounds(view, refine_budget=refine_budget)
        report.diameter_lower, report.diameter_upper = lo, hi
        report.diameter_method = "exact" if lo == hi else "bounds"
    if clique:
        report.clique_greedy = clique_greedy(g, view)
        if want_clique_exact:
            report.clique_exact, report.clique_exact_status = clique_exact(
                view, cap=clique_exact_cap
            )
    if paths:
        report.isolated_path_lengths = isolated_paths(g)
        t0 = vertex_path_t0 if vertex_path_t0 is not None else _default_t0(g.t)
        report.max_vertex_path = max_vertex_path(g, t0)
        report.vertex_path_t0 = t0
    report.check()
    return report


def _default_t0(t: int) -> int:
    """Fractional-power time indices round up and never below 2."""
    return max(2, math.ceil(t ** (1.0 / 13.0)))
