"""Output checks that do not trust the code they check.

Record checks read a record as written to disk (every field a string)
and test identities any correct record satisfies.  Graph checks take a
regenerated graph and compare it with the package's sequential reference
generator and with a plain breadth-first search written here, on an
adjacency built here from the endpoint array.  Every check returns a
list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import numpy as np

# Up to this many vertices the diameter is checked exactly by a search
# from every vertex; above it, trees are checked exactly by a double sweep
# and other graphs by the eccentricity bracket ecc(v) <= D <= 2 ecc(v).
ALL_PAIRS_MAX = 2500


def parse_histogram(text: str) -> dict[int, int]:
    """``"1:40 2:17"`` -> ``{1: 40, 2: 17}``."""
    out: dict[int, int] = {}
    for item in text.split():
        d, _, c = item.partition(":")
        out[int(d)] = int(c)
    return out


def check_record(rec: dict) -> list[str]:
    """Identities that hold for every correct ``generate`` record."""
    if rec["error"]:
        return [f"record error: {rec['error']}"]
    problems = []
    t, n = int(rec["t"]), int(rec["n_vertices"])
    hist = parse_histogram(rec["degree_histogram"])
    if sum(hist.values()) != n:
        problems.append(f"histogram counts {sum(hist.values())} vertices, record has {n}")
    if sum(d * c for d, c in hist.items()) != 2 * t:
        problems.append(f"degree sum {sum(d * c for d, c in hist.items())} != 2t = {2 * t}")
    # one isolated chain ends at each degree-1 tip; the root carries a loop
    if int(rec["isolated_path_count"]) != hist.get(1, 0):
        problems.append(
            f"isolated_path_count {rec['isolated_path_count']} != {hist.get(1, 0)} degree-1 vertices"
        )
    if int(rec["diameter_lower"]) > int(rec["diameter_upper"]):
        problems.append(f"diameter bounds inverted: {rec['diameter_lower']} > {rec['diameter_upper']}")
    k = int(rec["clique_greedy"])
    if k * (k - 1) // 2 > int(rec["simple_edges"]):
        problems.append(f"clique of {k} needs more than {rec['simple_edges']} simple edges")
    if rec["clique_exact_status"] == "exact" and k > int(rec["clique_exact"]):
        problems.append(f"greedy clique {k} exceeds exact clique {rec['clique_exact']}")
    return problems


# -- graphs ------------------------------------------------------------------


def adjacency(endpoints: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR adjacency (0-based) of the distinct non-loop pairs of the multigraph."""
    pairs = np.sort(np.asarray(endpoints, dtype=np.int64).reshape(-1, 2) - 1, axis=1)
    keys = np.sort(pairs[:, 0] * n + pairs[:, 1])
    keys = keys[np.concatenate([[True], np.diff(keys) != 0])]
    a, b = keys // n, keys % n
    a, b = a[a != b], b[a != b]
    src, dst = np.concatenate([a, b]), np.concatenate([b, a])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst[np.argsort(src, kind="stable")]


def bfs(indptr: np.ndarray, nbr: np.ndarray, src: int) -> np.ndarray:
    """Distances from ``src`` by level-synchronous search; -1 if unreachable."""
    dist = np.full(len(indptr) - 1, -1, dtype=np.int64)
    dist[src] = 0
    frontier = np.array([src], dtype=np.int64)
    d = 0
    while frontier.size:
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        offsets = np.repeat(starts - np.cumsum(counts) + counts, counts)
        reach = nbr[offsets + np.arange(offsets.size)]
        reach = reach[dist[reach] < 0]
        d += 1
        dist[reach] = d
        frontier = np.flatnonzero(dist == d)
    return dist


def eccentricity(indptr: np.ndarray, nbr: np.ndarray, v: int) -> tuple[int, int]:
    """``(ecc(v), a vertex at that distance)``; raises if the graph is disconnected."""
    dist = bfs(indptr, nbr, v)
    if dist.min() < 0:
        raise ValueError("graph is disconnected")
    far = int(np.argmax(dist))
    return int(dist[far]), far


def check_diameter(rec: dict, endpoints: np.ndarray, n: int) -> list[str]:
    """The record's diameter bracket against searches on the regenerated graph."""
    lower, upper = int(rec["diameter_lower"]), int(rec["diameter_upper"])
    if n == 1:
        return [] if lower == upper == 0 else [f"one vertex, diameter [{lower}, {upper}]"]
    indptr, nbr = adjacency(endpoints, n)
    if n <= ALL_PAIRS_MAX or len(nbr) == 2 * (n - 1):
        if n <= ALL_PAIRS_MAX:
            how = "all-pairs search"
            diameter = max(eccentricity(indptr, nbr, v)[0] for v in range(n))
        else:  # a tree: the far end of any search is a diametral endpoint
            how = "double sweep on a tree"
            diameter = eccentricity(indptr, nbr, eccentricity(indptr, nbr, 0)[1])[0]
        if not lower <= diameter <= upper:
            return [f"diameter [{lower}, {upper}] excludes {diameter} found by {how}"]
        return []
    # every eccentricity brackets the diameter: ecc(v) <= D <= 2 ecc(v)
    hub = int(np.argmax(np.diff(indptr)))
    e_hub, far = eccentricity(indptr, nbr, hub)
    e_far, far2 = eccentricity(indptr, nbr, far)
    eccs = [e_hub, e_far, eccentricity(indptr, nbr, far2)[0], eccentricity(indptr, nbr, 0)[0]]
    if upper < max(eccs) or lower > 2 * min(eccs):
        return [f"diameter [{lower}, {upper}] outside the bracket [{max(eccs)}, {2 * min(eccs)}]"]
    return []


def check_regenerated(rec: dict, g, reference) -> list[str]:
    """A graph regenerated from ``rec``'s seed against the reference and the record."""
    if not np.array_equal(g.endpoints, reference.endpoints):
        return ["endpoints differ from the sequential reference generator's"]
    n = len(g.birth_time)
    if n != int(rec["n_vertices"]):
        return [f"record has {rec['n_vertices']} vertices, regenerated graph {n}"]
    counts = np.bincount(np.bincount(g.endpoints, minlength=n + 1)[1:])
    hist = {d: int(c) for d, c in enumerate(counts) if c}
    if hist != parse_histogram(rec["degree_histogram"]):
        return ["degree histogram differs from the regenerated graph's"]
    return check_diameter(rec, g.endpoints, n)
