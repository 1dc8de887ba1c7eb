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
    """Drop loops, deduplicate parallel edges, keep the vertex set unchanged."""
    pairs = g.endpoints.reshape(-1, 2) - 1
    a, b = pairs[:, 0], pairs[:, 1]
    off_loop = a != b
    return _view_from_pairs(g.n_vertices, a[off_loop], b[off_loop])


def _view_from_pairs(n: int, a: np.ndarray, b: np.ndarray) -> SimpleView:
    """Simple view on vertices ``0 .. n-1`` with the edges ``a[i] -- b[i]``,
    ``a != b``, repeats dropped.

    Each edge gives the arc keys ``a * n + b`` and ``b * n + a``; one sort
    of them, with repeats dropped, lists the CSR rows in order (numpy's
    ``np.unique`` hashes, which is far slower here).
    """
    arcs = np.sort(np.concatenate([a * n + b, b * n + a]))
    arcs = arcs[np.diff(arcs, prepend=-1) != 0]
    src, dst = np.divmod(arcs, n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    forward = src < dst
    edges = np.column_stack([src[forward], dst[forward]])
    return SimpleView(n=n, edges=edges, indptr=indptr, indices=dst)


# -- tallies -----------------------------------------------------------------


def max_degree(degrees: np.ndarray) -> int:
    return int(degrees.max())


def degree_histogram(degrees: np.ndarray) -> dict[int, int]:
    counts = np.bincount(degrees)
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


def _greedy_clique(view: SimpleView, degrees: np.ndarray) -> list[int]:
    """Larger of two verified greedy cliques (birth order / degree order).

    A pass keeps each vertex of its order that is adjacent to every vertex
    kept so far.  Its first vertex always joins and after it only that
    vertex's neighbours can, so a pass walks just those: vertex 0's row as
    stored, or the row of the first vertex of largest ``degrees`` by stable
    descending degree.  The result is re-checked pairwise.
    """
    if view.n == 1:
        return [0]
    adjacent = np.zeros(view.n, dtype=bool)

    def greedy(members: list[int], alive: np.ndarray) -> list[int]:
        while alive.size:
            members.append(int(alive[0]))
            adjacent[view.neighbors(members[-1])] = True
            alive = alive[adjacent[alive]]
            adjacent[view.neighbors(members[-1])] = False
        return members

    hub = int(np.argmax(degrees))
    around = view.neighbors(hub)
    by_birth = greedy([0], view.neighbors(0))
    by_degree = greedy([hub], around[np.argsort(-degrees[around], kind="stable")])
    best = by_degree if len(by_degree) > len(by_birth) else by_birth
    members = np.sort(best)
    for v in best[:-1]:
        # bisect the sorted row for every member; a position past the end
        # wraps to entry 0, which is smaller than that member
        row = view.neighbors(v)
        found = row[np.searchsorted(row, members) % row.size] == members
        if np.count_nonzero(found) < len(best) - 1:
            raise AssertionError("greedy clique failed pairwise adjacency check")
    return best


def clique_greedy(view: SimpleView, degrees: np.ndarray) -> int:
    """Size of the larger of two verified greedy cliques, the by-degree
    pass ordered by ``degrees`` (the multigraph's, see :func:`measure_graph`)."""
    return len(_greedy_clique(view, degrees))


def _core(view: SimpleView, q: int) -> SimpleView:
    """The ``q``-core: what is left after repeatedly dropping every vertex
    with fewer than ``q`` surviving neighbours.

    Each round relabels the survivors compactly and keeps only the edges
    between them, so the edge list shrinks as the peel goes on.  The core
    comes back labelled by descending degree (ties in the old order),
    which keeps the colour bounds of the clique search tight.
    """
    a, b = view.edges[:, 0], view.edges[:, 1]
    deg = view.degrees()
    while not (keep := deg >= q).all():
        label = np.cumsum(keep) - 1
        inside = keep[a] & keep[b]
        a, b = label[a[inside]], label[b[inside]]
        k = label[-1] + 1
        deg = np.bincount(a, minlength=k) + np.bincount(b, minlength=k)
    rank = np.empty(deg.size, dtype=np.int64)
    rank[np.argsort(-deg, kind="stable")] = np.arange(deg.size)
    return _view_from_pairs(deg.size, rank[a], rank[b])


# CSR rows packed into bitmasks at a time
_MASK_ROWS = 256


def _bitset_adjacency(view: SimpleView) -> list[int]:
    """Adjacency bitmasks of every vertex, built ``_MASK_ROWS`` CSR rows at
    a time so that no temporary grows as ``n * n``."""
    n, indptr = view.n, view.indptr
    masks: list[int] = []
    for lo in range(0, n, _MASK_ROWS):
        hi = min(lo + _MASK_ROWS, n)
        bits = np.zeros((hi - lo, n), dtype=bool)
        rows = np.repeat(np.arange(hi - lo), np.diff(indptr[lo : hi + 1]))
        bits[rows, view.indices[indptr[lo] : indptr[hi]]] = True
        packed = np.packbits(bits, axis=1, bitorder="little")
        masks += [int.from_bytes(row.tobytes(), "little") for row in packed]
    return masks


class _SearchBudget(Exception):
    pass


# A core of k vertices takes k bitmasks of k bits; above this size (32 MB)
# it is not searched.
_MAX_CORE = 1 << 14


def clique_exact(view: SimpleView, node_budget: int = 500_000) -> tuple[int, str, int]:
    """Maximum clique size of the whole graph, its status and the number
    of search nodes.

    Returns ``(omega, "exact", nodes)``, or ``(size, "lower_bound",
    nodes)`` with the largest clique found when the search needed more
    than ``node_budget`` nodes or the core has more than ``_MAX_CORE``
    vertices (left unsearched).  A verified greedy clique of size ``q`` is
    the first bound.  Each member of a larger clique has ``q`` neighbours
    inside it, so only the ``q``-core is searched (Eppstein, Löffler &
    Strash, ISAAC 2010).  Each search node colours its candidates greedily
    (Tomita & Seki, DMTCS 2003): a colour class is independent, so a
    clique takes at most one vertex of each, and the candidates are
    branched on from the highest colour down until ``size + colour <=
    best``.
    """
    best = len(_greedy_clique(view, view.degrees()))
    core = _core(view, best)
    if core.n <= best:
        return (best, "exact", 0)
    if core.n > _MAX_CORE:
        return (best, "lower_bound", 0)
    masks = _bitset_adjacency(core)
    nodes = 0

    def expand(size: int, cand: int) -> None:
        nonlocal best, nodes
        if nodes == node_budget:
            raise _SearchBudget
        nodes += 1
        coloured = []  # (colour, vertex), colours ascending
        uncoloured, c = cand, 0
        while uncoloured:
            c += 1
            avail = uncoloured
            while avail:
                low = avail & -avail
                coloured.append((c, low.bit_length() - 1))
                avail &= ~(masks[coloured[-1][1]] | low)
                uncoloured ^= low
        for c, v in reversed(coloured):
            if size + c <= best:
                return
            cand ^= 1 << v
            sub = cand & masks[v]
            if sub:
                expand(size + 1, sub)
            else:
                best = max(best, size + 1)

    try:
        expand(0, (1 << core.n) - 1)
    except _SearchBudget:
        return (best, "lower_bound", nodes)
    return (best, "exact", nodes)


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
    """Measurements of one graph, flat enough to serialize as a single row.

    With the exact clique on, ``clique_exact`` is the clique number of the
    whole graph when ``clique_exact_status`` is ``"exact"``, or the largest
    clique found when it is ``"lower_bound"``, and ``clique_nodes`` is the
    number of search nodes it took; otherwise they stay ``None`` with
    status ``"off"``.
    """

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
    clique_nodes: Optional[int] = None
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
    vertex_path_t0: Optional[int] = None,
) -> ObservableReport:
    """Measure the toggled observables of one graph into a report."""
    view = simple_view(g)
    degrees = g.degrees()
    report = ObservableReport(
        n_vertices=g.n_vertices,
        max_degree=max_degree(degrees),
        degree_histogram=degree_histogram(degrees),
        simple_edge_count=view.n_edges,
    )
    if diameter:
        lo, hi = diameter_bounds(view, refine_budget=refine_budget)
        report.diameter_lower, report.diameter_upper = lo, hi
        report.diameter_method = "exact" if lo == hi else "bounds"
    if clique:
        report.clique_greedy = clique_greedy(view, degrees)
        if want_clique_exact:
            exact = clique_exact(view)
            report.clique_exact, report.clique_exact_status, report.clique_nodes = exact
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
