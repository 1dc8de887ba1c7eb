"""Reference code that lives beside the tests.

The tests compare the package against ``isolated_chains``, which walks
each chain in Python, and against ``plain_bfs`` and
``all_pairs_diameter``, which measure distances by a FIFO queue over
Python lists, with no code shared with ``observables.bfs_distances``.
The one-step process (``new_initial``, ``sample_preferential``,
``evolve_step``) states the generator's definition one draw at a time;
only its own tests use it, and ``new_initial`` also serves as a
one-vertex graph.  ``dumps_graph`` and ``dump_law`` render a graph and a
law as text, and ``decode_key`` reads a law's key back as coins and edge
pairs.  None of them is on a measurement path.
"""

from __future__ import annotations

import io

import numpy as np

from edgepa.graphs import MultiGraph, dump_graph
from edgepa.observables import SimpleView
from edgepa.oracle import GraphLaw

VERTEX = "vertex"
EDGE = "edge"


def new_initial() -> MultiGraph:
    """The starting graph: one vertex, one loop, time 1."""
    return MultiGraph(
        endpoints=np.array([1, 1], dtype=np.int64),
        step_type=np.array([True]),
    )


def sample_preferential(g: MultiGraph, gen: np.random.Generator) -> int:
    """Draw a vertex with probability degree/2t via a uniform endpoint slot."""
    return int(g.endpoints[gen.integers(0, len(g.endpoints))])


def evolve_step(g: MultiGraph, coin: str, gen: np.random.Generator) -> MultiGraph:
    """Apply one vertex- or edge-step to ``g`` and return the grown graph.

    Both edge-step endpoints are drawn on the pre-step graph, so each sees
    the same degree normalization.  The step keeps its own birth and
    parent lists, ``g``'s with a vertex-step's new vertex appended, and
    checks the grown graph's derived ones against them.
    """
    births, parents = g.birth_time.tolist(), g.parent.tolist()
    if coin == VERTEX:
        u = sample_preferential(g, gen)
        births.append(g.t + 1)
        parents.append(u)
        new = [u, g.n_vertices + 1]
    elif coin == EDGE:
        new = [sample_preferential(g, gen), sample_preferential(g, gen)]
    else:
        raise ValueError(f"coin must be {VERTEX!r} or {EDGE!r}, got {coin!r}")
    grown = MultiGraph(
        endpoints=np.append(g.endpoints, new),
        step_type=np.append(g.step_type, coin == VERTEX),
        family=g.family,
        seed=g.seed,
    )
    assert grown.birth_time.tolist() == births and grown.parent.tolist() == parents
    return grown


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


def plain_bfs(view: SimpleView, src: int, rows: list[list[int]] | None = None) -> list[int]:
    """Distances from ``src`` by a FIFO queue; -1 where unreachable.
    ``rows``, the view's adjacency as lists, may be passed to skip building it."""
    if rows is None:
        rows = [view.neighbors(v).tolist() for v in range(view.n)]
    dist = [-1] * view.n
    dist[src] = 0
    queue = [src]
    for u in queue:
        for v in rows[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def all_pairs_diameter(view: SimpleView) -> int:
    """All-pairs oracle: a plain breadth-first search from every vertex.

    Quadratic, so for small graphs only.  Raises on disconnected input.
    """
    rows = [view.neighbors(v).tolist() for v in range(view.n)]
    best = 0
    for src in range(view.n):
        dist = plain_bfs(view, src, rows)
        if min(dist) < 0:
            raise ValueError("graph is disconnected")
        best = max(best, max(dist))
    return best


def dumps_graph(g: MultiGraph) -> str:
    buf = io.StringIO()
    dump_graph(g, buf)
    return buf.getvalue()


def decode_key(key: bytes) -> tuple:
    """``(z, pairs)`` of a ``canonical_key``: the coins of steps 2..t and the
    sorted (older, younger) birth-time pairs."""
    t = int.from_bytes(key[:8], "little")
    z = tuple(bool(b) for b in key[9 : 8 + t])
    packed = np.frombuffer(key[8 + t :], dtype=np.int64).tolist()
    return z, tuple(divmod(p, t + 2) for p in packed)


def dump_law(law: GraphLaw, fh) -> None:
    """Write ``probability <tab> canonical-edge-list`` lines, sorted by
    decoded key."""
    for key in sorted(law.probs, key=decode_key):
        z, edges = decode_key(key)
        zs = "".join("1" if b else "0" for b in z)
        es = " ".join(f"({a},{b})" for a, b in edges)
        fh.write(f"{float(law.probs[key])!r}\tz={zs} {es}\n")
