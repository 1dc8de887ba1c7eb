"""Graph measurements: degrees, diameter, cliques, isolated chains, vertex paths.

Distance and clique observables are computed on the simple view (loops
dropped, parallel edges deduplicated) since multiplicities change neither
distances nor cliques; chain observables need the growth history and run
on the multigraph itself.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import edgestep as _es
from .graphs import MultiGraph, _id_dtype, keep_where, resolve_backward_links
from .theory import t13


@dataclass
class SimpleView:
    """Deduplicated undirected adjacency in CSR form, vertices 0-based;
    each edge is stored as its two arcs.  ``indptr`` is int64 and
    ``indices`` int32 (int64 only for more than ``2**31`` vertices)."""

    n: int
    indptr: np.ndarray
    indices: np.ndarray  # sorted within each row

    @property
    def n_edges(self) -> int:
        return int(self.indptr[-1]) // 2

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @cached_property
    def tree_parents(self) -> Optional[np.ndarray]:
        """Parent links if the view is a tree in heap order, else ``None``;
        found once per view.

        With ``n - 1`` edges and a smaller neighbour at every vertex but 0,
        each vertex's links to smaller ones reach 0, so the view is
        connected, hence a tree.  Each vertex then has exactly one smaller
        neighbour, the first of its sorted row: its parent.
        """
        n = self.n
        if n < 2 or self.n_edges != n - 1 or not self.degrees().all():
            return None
        parent = self.indices[self.indptr[:-1]]  # first of each row
        parent[0] = 0
        if (parent[1:] >= np.arange(1, n, dtype=parent.dtype)).any():
            return None
        return parent

    @cached_property
    def leaves(self) -> tuple[np.ndarray, np.ndarray]:
        """The degree-1 vertices and their single neighbours, in the ids' type."""
        leaf = np.flatnonzero(self.degrees() == 1).astype(self.indices.dtype)
        return leaf, self.indices[self.indptr[leaf]]


def simple_view(g: MultiGraph) -> SimpleView:
    """Drop loops, deduplicate parallel edges, keep the vertex set unchanged."""
    a, b = g.endpoints[0::2], g.endpoints[1::2]
    off_loop = a != b
    return _view_from_pairs(g.n_vertices, a[off_loop] - 1, b[off_loop] - 1)


def _view_from_pairs(n: int, a: np.ndarray, b: np.ndarray) -> SimpleView:
    """Simple view on vertices ``0 .. n-1`` with the edges ``a[i] -- b[i]``,
    ``a != b``, repeats dropped.

    Each edge gives the int64 arc keys ``(a << s) | b`` and ``(b << s) |
    a``, with ``s = max(1, (n - 1).bit_length())`` bits for the column
    (widened before the shift: int32 ids shifted in int32 overflow once
    the keys pass ``2**31``).  One in-place sort of them, with repeats
    dropped, lists the CSR rows in order (numpy's ``np.unique`` hashes,
    which is far slower here).  The rows are counted from the keys' high
    fields one piece of ``STEP_CHUNK`` sorted keys at a time: a piece
    spans a short run of rows, and no row array as long as the keys is
    made.  The columns are the low fields.  ``a`` and ``b`` are released
    once the keys are built, so a caller that passes temporaries does not
    hold them through the sort.
    """
    s = max(1, (n - 1).bit_length())
    m = len(a)
    keys = np.empty(2 * m, dtype=np.int64)
    np.left_shift(a, s, out=keys[:m], dtype=np.int64)
    keys[:m] |= b
    np.left_shift(b, s, out=keys[m:], dtype=np.int64)
    keys[m:] |= a
    del a, b
    keys.sort()
    if keys.size:
        first = np.empty(keys.size, dtype=bool)
        first[0] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        keys = keys[first]
        del first
    indptr = np.zeros(n + 1, dtype=np.int64)
    piece = _es.STEP_CHUNK
    for lo in range(0, keys.size, piece):
        rows = keys[lo : lo + piece] >> s
        top = int(rows[0])
        rows -= top
        counts = np.bincount(rows)
        indptr[top + 1 : top + 1 + counts.size] += counts
    np.cumsum(indptr, out=indptr)
    indices = np.empty(keys.size, dtype=np.int32 if n <= 2**31 else np.int64)
    np.bitwise_and(keys, (1 << s) - 1, out=indices)
    return SimpleView(n=n, indptr=indptr, indices=indices)


# -- tallies -----------------------------------------------------------------


def degree_histogram(degrees: np.ndarray) -> dict[int, int]:
    counts = np.bincount(degrees)
    present = np.flatnonzero(counts)
    return dict(zip(present.tolist(), counts[present].tolist()))


# -- breadth-first distances ---------------------------------------------------


def bfs_distances(view: SimpleView, src: int) -> np.ndarray:
    """Unweighted distances from ``src``, int32 while ``2n < 2**31``
    (``graphs._id_dtype``); unreachable vertices get -1.

    Only ``src`` and the vertices of degree >= 2 are searched.  A leaf
    (:attr:`SimpleView.leaves`) lies inside no shortest path: it holds
    ``n``, which no level takes, until the search ends, then its
    neighbour's distance + 1 where that neighbour was reached.

    Direction-optimizing (Beamer, Asanović & Patterson, SC 2012).  The
    search keeps two arc counts: the current level's, and ``left``, those
    of the searched vertices not reached yet.  A level whose arcs are at
    most a quarter of ``left`` is expanded top-down: every arc of the level
    is gathered.  A wider one, such as the neighbours of a hub, is run
    bottom-up by :func:`_bottom_up_level`: each unvisited vertex of degree
    >= 2 joins the next level if a neighbour lies on this one, and its
    first neighbour is probed before any whole row is gathered.
    """
    n, indptr, indices = view.n, view.indptr, view.indices
    leaf, stem = view.leaves
    left = len(indices) - leaf.size + int(indptr[src + 1] - indptr[src] == 1)
    dist = np.full(n, -1, dtype=_id_dtype(n))
    dist[leaf] = n
    dist[src] = 0
    frontier = np.array([src], dtype=np.int64)
    owner = np.empty(n, dtype=_id_dtype(view.n_edges))  # scratch space of the top-down levels
    d = 0
    todo = None  # unvisited vertices of degree >= 2, kept from the last bottom-up level
    while frontier.size:
        total = int((indptr[frontier + 1] - indptr[frontier]).sum())  # the level's arcs
        if total == 0:
            break
        left -= total
        if 4 * total > left:
            if todo is None:
                todo = np.flatnonzero((dist < 0) & (indptr[1:] > indptr[:-1]))
            else:
                todo = todo[dist[todo] < 0]
            frontier = _bottom_up_level(indptr, indices, dist, todo, d)
        else:
            frontier = _top_down_level(indptr, indices, dist, owner, frontier, total)
        d += 1
        dist[frontier] = d
    near = dist[stem]
    dist[leaf] = np.where((near >= 0) & (near < n), near + 1, -1)
    dist[src] = 0
    return dist


def _top_down_level(
    indptr: np.ndarray, indices: np.ndarray, dist: np.ndarray, owner: np.ndarray,
    frontier: np.ndarray, total: int,
) -> np.ndarray:
    """The unvisited neighbours of ``frontier`` (each vertex of degree >=
    1, ``total`` arcs in all), each once.

    ``owner[v]`` is set to the last position of ``v`` among the gathered
    neighbours; keeping only that position dedupes them without sorting.
    """
    starts = indptr[frontier]
    nbrs = _row_arcs(indices, starts, indptr[frontier + 1] - starts, total)
    nbrs = nbrs[dist[nbrs] < 0]
    slots = np.arange(nbrs.size)
    owner[nbrs] = slots
    return nbrs[owner[nbrs] == slots]


def _bottom_up_level(
    indptr: np.ndarray, indices: np.ndarray, dist: np.ndarray, todo: np.ndarray, d: int
) -> np.ndarray:
    """The vertices of ``todo`` (unvisited, each of degree >= 2) with a
    neighbour on level ``d``.

    numpy cannot stop a row scan at its first hit, so each vertex's first
    neighbour (its oldest, often a hub) is probed alone, and only the
    vertices that probe misses have the rest of their rows gathered.
    Rows must have at least 2 entries, so that a row is left after the
    probe: ``reduceat`` over an empty row returns the next row's entry.
    """
    hit = dist[indices[indptr[todo]].astype(np.int64)] == d  # int64 ids index 8-29 % faster
    found = todo[hit]
    rest = todo[~hit]
    if rest.size:
        starts = indptr[rest] + 1
        counts = indptr[rest + 1] - starts
        near = dist[_row_arcs(indices, starts, counts, int(counts.sum()))] == d
        offsets = np.cumsum(counts) - counts
        found = np.concatenate([found, rest[np.logical_or.reduceat(near, offsets)]])
    return found


def _row_arcs(
    indices: np.ndarray, starts: np.ndarray, counts: np.ndarray, total: int
) -> np.ndarray:
    """``indices[starts[i] : starts[i] + counts[i]]`` for every ``i`` in
    turn, ``total`` entries in all, every count >= 1.

    The positions are one running sum of steps: 1 within a row, a jump to
    the next row's start between rows.  The ids are read into that same
    array, so they come back as int64: numpy 2.4.6 indexes with an int32
    array 8-29 % slower than with an int64 one (1e7 gathers from 5e6
    entries).
    """
    pos = np.ones(total, dtype=np.int64)
    pos[0] = starts[0]
    pos[np.cumsum(counts[:-1])] = starts[1:] - (starts[:-1] + counts[:-1]) + 1
    np.cumsum(pos, out=pos)
    pos[:] = indices[pos]
    return pos


def _tree_diameter(parent: np.ndarray) -> int:
    """Diameter of the tree with backward parent links ``parent``
    (``parent[0] == 0``), by two walks of :func:`resolve_backward_links`.

    The first sums weights of one, giving ``1 + depth``; the deepest
    vertex ``u`` is a diametral endpoint.  The second gives every
    vertex's distance from ``u``: with ``u = path[0], ..., path[L] = 0``
    the path to the root, weights of 1 off the path, -1 on it and ``L``
    at the root sum to ``k`` from ``path[k]``, and each further vertex
    adds 1, up to its nearest ancestor on the path.
    """
    depth = resolve_backward_links(parent, parent.dtype.type(1))
    path = [int(np.argmax(depth))]
    while path[-1]:
        path.append(int(parent[path[-1]]))
    w = depth  # reused, so that no third array as long as the tree is made
    w[:] = 1
    w[path] = -1
    w[0] = len(path) - 1
    return int(resolve_backward_links(parent, w).max())


#: Fringe searches that :func:`diameter_bounds` runs before it settles for
#: a bracket.
REFINE_BUDGET = 256


def diameter_bounds(view: SimpleView, refine_budget: int = REFINE_BUDGET) -> tuple[int, int]:
    """Certified diameter bracket ``(lb, ub)``, with ``lb == ub`` unless the
    budget of fringe searches ran out.

    A tree in heap order (:attr:`SimpleView.tree_parents`) is measured
    exactly from its parent links, with no search.  Otherwise a double
    sweep from the highest-degree vertex ``r`` gives the lower bound
    ``lb``, the largest eccentricity seen; on a tree it is exact.
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
    if (parent := view.tree_parents) is not None:
        d = _tree_diameter(parent)
        return (d, d)
    lb = 0
    ecc_ub = np.full(n, 2 * n, dtype=_id_dtype(n))  # dist + ecc <= 2(n - 1)

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


def clique_greedy(view: SimpleView, degrees: np.ndarray) -> int:
    """Size of the larger of two verified greedy cliques (birth order /
    degree order, by ``degrees``: the multigraph's, see :func:`measure_graph`).

    A pass keeps each vertex of its order that is adjacent to every vertex
    kept so far.  Its first vertex always joins and after it only that
    vertex's neighbours can, so a pass walks just those: vertex 0's row as
    stored, or the row of the first vertex of largest ``degrees`` by stable
    descending degree.  The result is re-checked pairwise.
    """
    adjacent = np.zeros(view.n, dtype=bool)

    def greedy(members: list[int], alive: np.ndarray) -> list[int]:
        while alive.size:
            # dropped before the filter, so a row listing its own vertex cannot keep it
            v, alive = int(alive[0]), alive[1:]
            members.append(v)
            adjacent[view.neighbors(v)] = True
            alive = alive[adjacent[alive]]
            adjacent[view.neighbors(v)] = False
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
    return len(best)


def _core(view: SimpleView, q: int) -> SimpleView:
    """The ``q``-core: what is left after repeatedly dropping every vertex
    with fewer than ``q`` surviving neighbours.

    Only a vertex of degree ``>= q`` can survive, so the peel starts from
    the CSR rows of those vertices alone (:func:`_row_arcs`), keeping
    their forward arcs ``a < b`` that end at another such vertex, one per
    edge.  Each round relabels the survivors compactly and keeps only the
    edges between them, so the edge list shrinks as the peel goes on.  The
    core comes back labelled by descending degree (ties in the old order),
    which keeps the colour bounds of the clique search tight.
    """
    deg = view.degrees()
    keep = deg >= q
    hubs = np.flatnonzero(keep)
    counts = deg[hubs]
    a = np.repeat(hubs.astype(view.indices.dtype), counts)
    if a.size:
        b = _row_arcs(view.indices, view.indptr[hubs], counts, a.size)
        inside = (a < b) & keep[b]
        a, b = a[inside], b[inside]
    else:
        b = a
    while True:
        label = np.cumsum(keep, dtype=a.dtype) - 1
        a, b = label[a], label[b]
        k = label[-1] + 1
        deg = np.bincount(a, minlength=k) + np.bincount(b, minlength=k)
        if (keep := deg >= q).all():
            break
        inside = keep[a] & keep[b]
        a, b = a[inside], b[inside]
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
_NODE_BUDGET = 500_000


def clique_exact(view: SimpleView) -> tuple[int, str, int]:
    """Maximum clique size of the whole graph, its status and the number
    of search nodes.

    Returns ``(omega, "exact", nodes)``, or ``(size, "lower_bound",
    nodes)`` with the largest clique found when the search needed more
    than ``_NODE_BUDGET`` nodes or the core has more than ``_MAX_CORE``
    vertices (left unsearched).  A verified greedy clique of size ``q`` is
    the first bound.  Each member of a larger clique has ``q`` neighbours
    inside it, so only the ``q``-core is searched (Eppstein, Löffler &
    Strash, ISAAC 2010).  Each search node colours its candidates greedily
    (Tomita & Seki, DMTCS 2003): a colour class is independent, so a
    clique takes at most one vertex of each, and the candidates are
    branched on from the highest colour down until ``size + colour <=
    best``.  A tree in heap order (:attr:`SimpleView.tree_parents`) has
    ``omega = 2`` and is not searched.
    """
    if view.tree_parents is not None:
        return (2, "exact", 0)
    best = clique_greedy(view, view.degrees())
    core = _core(view, best)
    if core.n <= best:
        return (best, "exact", 0)
    if core.n > _MAX_CORE:
        return (best, "lower_bound", 0)
    masks = _bitset_adjacency(core)
    nodes = 0

    def expand(size: int, cand: int) -> None:
        nonlocal best, nodes
        if nodes == _NODE_BUDGET:
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


# -- isolated chains and vertex paths -------------------------------------------


def _run_lengths(parent: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Vertices on the run of links ``v -> parent[v]`` climbed from each
    ``v`` while ``keep`` holds, ``v`` included, by one walk of
    :func:`resolve_backward_links` (0-based ids)."""
    ptr = np.arange(len(parent), dtype=parent.dtype)
    keep_where(ptr, ~keep, parent)
    return resolve_backward_links(ptr, parent.dtype.type(1))


def isolated_paths(g: MultiGraph, degrees: np.ndarray) -> Counter:
    """Multiset of maximal isolated-chain lengths (vertex counts).

    A chain is a run of vertex-born vertices in increasing birth order,
    each first-connected to its predecessor, with interior degrees exactly
    2 and tip degree 1: the climb from each degree-1 tip follows parents
    until the next one is the root (not born by a step coin) or has a
    degree other than 2.  ``degrees`` are the multigraph's,
    ``g.degrees()``.
    """
    par = g.parent - 1  # the root's reads -1 and is never followed
    runs = _run_lengths(par, (par > 0) & (degrees == 2)[par])
    counts = np.bincount(runs[degrees == 1])
    present = np.flatnonzero(counts)
    return Counter(dict(zip(present.tolist(), counts[present].tolist())))


def count_isolated_in_window(g: MultiGraph, l: int, xi: float) -> int:
    """Chains containing an exact-length-``l`` tail born at or after ``xi * t``.

    Counts, per maximal chain, the single size-``l`` sub-chain ending at
    the degree-1 tip, provided all ``l`` of its vertices were born in the
    window; only tails qualify because interior vertices have degree 2.
    Births increase up the ids and down a chain, so that holds exactly
    when the tip is born in the window and its chain, climbed only through
    vertices born in the window, has at least ``l`` of them.
    """
    if l < 1:
        raise ValueError(f"need l >= 1, got {l}")
    degrees = g.degrees()
    lo = int(np.searchsorted(g.birth_time, xi * g.t))  # the first born in the window
    par = g.parent - 1
    runs = _run_lengths(par, (par >= max(lo, 1)) & (degrees == 2)[par])
    return int(np.count_nonzero(runs[lo:][degrees[lo:] == 1] >= l))


def vertex_path_depths(g: MultiGraph, t0: int) -> np.ndarray:
    """Length of the first-connection chain ending at each vertex.

    A vertex qualifies when it was vertex-born at time >= ``t0``; its
    depth is 1 plus the parent's depth when the parent qualifies too, and
    0 when it does not qualify.  Births increase with the ids, so the
    qualifying vertices are a suffix.  Indexed by vertex id - 1.
    """
    lo = max(1, int(np.searchsorted(g.birth_time, t0)))  # the root was not born by a coin
    par = g.parent - 1
    depth = _run_lengths(par, par >= lo)
    depth[:lo] = 0
    return depth


# -- report ---------------------------------------------------------------------


@dataclass(kw_only=True)
class ObservableReport:
    """Measurements of one graph.  Its fields, in order, are the record's
    measurement columns (see ``experiments.RECORD_FIELDS``); ``None`` is
    an observable that was not measured.

    With the exact clique on, ``clique_exact`` is the clique number of the
    whole graph when ``clique_exact_status`` is ``"exact"``, or the largest
    clique found when it is ``"lower_bound"``, and ``clique_nodes`` is the
    number of search nodes it took; otherwise they stay ``None`` with
    status ``"off"``.  ``isolated_paths`` counts the isolated chains by
    length, and ``isolated_path_count`` / ``isolated_path_max`` are its
    total and its longest length.
    """

    n_vertices: int
    max_degree: int
    simple_edges: int
    diameter_lower: Optional[int] = None
    diameter_upper: Optional[int] = None
    diameter_method: str = "off"
    clique_greedy: Optional[int] = None
    clique_exact: Optional[int] = None
    clique_exact_status: str = "off"
    clique_nodes: Optional[int] = None
    isolated_path_count: Optional[int] = None
    isolated_path_max: Optional[int] = None
    isolated_paths: Optional[Counter] = None
    max_vertex_path: Optional[int] = None
    vertex_path_t0: Optional[int] = None
    degree_histogram: dict[int, int]

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
    refine_budget: int = REFINE_BUDGET,
    want_clique_exact: bool = False,
) -> ObservableReport:
    """Measure the toggled observables of one graph into a report."""
    view = simple_view(g)
    lo = hi = None
    if diameter:
        lo, hi = diameter_bounds(view, refine_budget=refine_budget)
    degrees = g.degrees()  # made after the diameter search, whose peak it would raise
    report = ObservableReport(
        n_vertices=g.n_vertices,
        max_degree=int(degrees.max()),
        degree_histogram=degree_histogram(degrees),
        simple_edges=view.n_edges,
        diameter_lower=lo,
        diameter_upper=hi,
        diameter_method="off" if lo is None else "exact" if lo == hi else "bounds",
    )
    if clique:
        report.clique_greedy = clique_greedy(view, degrees)
        if want_clique_exact:
            exact = clique_exact(view)
            report.clique_exact, report.clique_exact_status, report.clique_nodes = exact
    del view  # the chain walks read only the multigraph
    if paths:
        chains = report.isolated_paths = isolated_paths(g, degrees)
        report.isolated_path_count = sum(chains.values())
        report.isolated_path_max = max(chains, default=0)
        report.vertex_path_t0 = t13(g.t)
        report.max_vertex_path = int(vertex_path_depths(g, report.vertex_path_t0).max())
    report.check()
    return report

