from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgepa import edgestep as es
from edgepa import graphs as gr
from edgepa import observables as ob
from edgepa.verify import (
    _random_view,
    all_pairs_diameter,
    exhaustive_clique_upto,
    floyd_warshall_diameter,
)

from conftest import forced_path, forced_star


def test_simple_view_dedup_and_loops():
    g = gr.new_initial()
    v = ob.simple_view(g)
    assert v.n == 1 and v.n_edges == 0
    tripled = gr.MultiGraph(
        endpoints=np.array([1, 1, 1, 2, 1, 2, 2, 1]),
        step_type=np.array([True, True, False, False]),
        birth_time=np.array([1, 2]),
        parent=np.array([0, 1]),
    )
    v = ob.simple_view(tripled)
    assert v.n_edges == 1 and list(v.edges[0]) == [0, 1]
    assert list(v.neighbors(0)) == [1]


def _reference_view(g):
    """Simple view from Python sets: distinct non-loop pairs, sorted rows."""
    pairs = sorted(
        {(min(a, b) - 1, max(a, b) - 1) for a, b in g.endpoints.reshape(-1, 2).tolist() if a != b}
    )
    rows = [[] for _ in range(g.n_vertices)]
    for a, b in pairs:
        rows[a].append(b)
        rows[b].append(a)
    indptr = np.cumsum([0] + [len(r) for r in rows])
    return pairs, indptr, [v for r in rows for v in sorted(r)]


def test_simple_view_matches_reference():
    # edge-steps bring loops and parallel edges; f == 0 gives only loops
    loops = parallel = 0
    for desc, t, seed in [("const:0.3", 400, 1), ("log:1", 800, 2), ("rv:0.5", 600, 3),
                          ("const:0", 20, 4), ("ba", 50, 5), ("const:0.5", 2, 6)]:
        g = gr.evolve(es.make_family(desc), t, seed)
        view = ob.simple_view(g)
        pairs, indptr, indices = _reference_view(g)
        ends = g.endpoints.reshape(-1, 2)
        loops += int(np.count_nonzero(ends[:, 0] == ends[:, 1]))
        parallel += int(np.count_nonzero(ends[:, 0] != ends[:, 1])) - len(pairs)
        assert view.edges.dtype == view.indptr.dtype == view.indices.dtype == np.int64
        assert view.edges.reshape(-1, 2).tolist() == [list(p) for p in pairs]
        assert view.indptr.tolist() == indptr.tolist()
        assert view.indices.tolist() == indices
    assert loops > 0 and parallel > 0


def _two_edges():
    """Two disjoint edges: a disconnected simple view."""
    return ob.SimpleView(
        n=4,
        edges=np.array([[0, 1], [2, 3]]),
        indptr=np.array([0, 1, 2, 3, 4]),
        indices=np.array([1, 0, 3, 2]),
    )


def _plain_bfs(view, src):
    dist = [-1] * view.n
    dist[src] = 0
    queue = [src]
    for u in queue:
        for v in view.neighbors(u).tolist():
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def test_bfs_distances_match_plain_bfs():
    for desc, t in [("const:0.5", 2000), ("log:1", 3000), ("rv:0.5", 3000), ("ba", 1000)]:
        view = ob.simple_view(gr.evolve(es.make_family(desc), t, 8))
        for src in (0, int(np.argmax(view.degrees())), view.n - 1):
            assert ob.bfs_distances(view, src).tolist() == _plain_bfs(view, src)
    disconnected = _two_edges()
    assert ob.bfs_distances(disconnected, 0).tolist() == [0, 1, -1, -1]


def test_tallies():
    g = gr.new_initial()
    assert g.n_vertices == 1
    assert ob.max_degree(g.degrees()) == 2
    assert ob.degree_histogram(g.degrees()) == {2: 1}
    tree = gr.evolve(es.ba(), 100, seed=1)
    hist = ob.degree_histogram(tree.degrees())
    assert sum(hist.values()) == 100


def test_max_degree_grows_for_decaying_schedules():
    # with a vanishing vertex rate the hub keeps nearly everything:
    # max degree reaches t^0.8 in at least 19 of 20 runs at t = 1e5
    t, hits = 10**5, 0
    for r in range(20):
        g = gr.evolve(es.rv_power(0.5), t, seed=3000 + r)
        hits += ob.max_degree(g.degrees()) >= t**0.8
    assert hits >= 19


def test_diameter_examples():
    assert all_pairs_diameter(ob.simple_view(forced_path(5))) == 4
    assert ob.diameter_bounds(ob.simple_view(forced_path(5))) == (4, 4)
    assert ob.diameter_bounds(ob.simple_view(forced_star(9))) == (2, 2)
    assert ob.diameter_bounds(ob.simple_view(gr.new_initial())) == (0, 0)
    assert all_pairs_diameter(ob.simple_view(gr.new_initial())) == 0


def test_diameter_cross_checks(rng):
    for _ in range(25):
        n = int(rng.integers(2, 120))
        view = _random_view(rng, n, int(rng.integers(0, 2 * n)))
        exact = all_pairs_diameter(view)
        assert exact == floyd_warshall_diameter(view)
        assert ob.diameter_bounds(view) == (exact, exact)
        lo, hi = ob.diameter_bounds(view, refine_budget=0)
        assert lo <= exact <= hi


def test_diameter_on_generated_graphs():
    # graphs with hubs, chains and parallel edges, against the all-pairs oracle
    for desc in ("const:0.5", "log:1", "rv:0.5", "const:0.9", "osc:base=10"):
        for seed in range(2):
            view = ob.simple_view(gr.evolve(es.make_family(desc), 800, seed))
            exact = all_pairs_diameter(view)
            assert ob.diameter_bounds(view) == (exact, exact)


def test_diameter_exact_guards():
    disconnected = _two_edges()
    with pytest.raises(ValueError, match="disconnected"):
        all_pairs_diameter(disconnected)
    with pytest.raises(ValueError, match="disconnected"):
        ob.diameter_bounds(disconnected)


def _k5_multigraph():
    e = [1, 1]
    z = [True]
    for u, v in [(1, 2), (1, 3), (1, 4), (1, 5)]:
        e += [u, v]
        z.append(True)
    for u, v in [(2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)]:
        e += [u, v]
        z.append(False)
    return gr.MultiGraph(
        endpoints=np.array(e),
        step_type=np.array(z),
        birth_time=np.arange(1, 6),
        parent=np.array([0, 1, 1, 1, 1]),
    )


def test_clique_examples():
    k5, path = _k5_multigraph(), forced_path(6)
    assert ob.clique_greedy(ob.simple_view(k5), k5.degrees()) == 5
    assert ob.clique_exact(ob.simple_view(k5)) == (5, "exact", 0)
    assert ob.clique_greedy(ob.simple_view(path), path.degrees()) == 2
    assert ob.clique_exact(ob.simple_view(path)) == (2, "exact", 0)


def test_clique_exact_statuses(monkeypatch):
    # log:1 at t=3000, seed 5: the greedy clique (12) is below omega (13)
    g = gr.evolve(es.make_family("log:1"), 3000, 5)
    view = ob.simple_view(g)
    omega, status, nodes = ob.clique_exact(view)
    greedy = ob.clique_greedy(view, g.degrees())
    assert status == "exact" and nodes > 1 and omega > greedy
    size, status, spent = ob.clique_exact(view, node_budget=1)
    assert status == "lower_bound" and spent == 1
    assert greedy <= size <= omega
    # a core too large for its bitmasks is left unsearched and flagged
    monkeypatch.setattr(ob, "_MAX_CORE", 4)
    assert ob.clique_exact(view) == (greedy, "lower_bound", 0)


def test_clique_cross_check(rng):
    for _ in range(10):
        n = int(rng.integers(5, 45))
        view = _random_view(rng, n, int(rng.integers(n, 3 * n)))
        got, status, _ = ob.clique_exact(view)
        want = exhaustive_clique_upto(view, 6)
        assert status == "exact"
        if want < 6:
            assert got == want
        else:
            assert got >= 6


def _bron_kerbosch(view):
    """Clique number by Bron-Kerbosch with pivoting on Python sets."""
    adj = [set(view.neighbors(v).tolist()) for v in range(view.n)]
    best = 0

    def extend(r, p, x):
        nonlocal best
        if not p and not x:
            best = max(best, r)
            return
        pivot = max(p | x, key=lambda u: len(adj[u] & p))
        for v in list(p - adj[pivot]):
            extend(r + 1, p & adj[v], x & adj[v])
            p.discard(v)
            x.add(v)

    extend(0, set(range(view.n)), set())
    return best


def test_clique_exact_matches_bron_kerbosch_on_generated_graphs():
    # whole graphs far beyond the reach of exhaustive_clique_upto(6)
    searched = 0
    for desc, t in [("log:1", 3000), ("rv:0.5", 2000), ("rv:0.5", 20000), ("const:0.3", 2000),
                    ("const:0.05", 2000), ("const:0.5", 10000), ("ba", 2000)]:
        for seed in range(3):
            view = ob.simple_view(gr.evolve(es.make_family(desc), t, seed))
            omega, status, nodes = ob.clique_exact(view)
            assert (omega, status) == (_bron_kerbosch(view), "exact")
            searched += nodes > 0
    assert searched >= 10


def _view_from_pair_set(n, pairs):
    """Simple view built from Python lists: sorted rows of the given pairs."""
    rows = [[] for _ in range(n)]
    for a, b in pairs:
        rows[a].append(b)
        rows[b].append(a)
    return ob.SimpleView(
        n=n,
        edges=np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2),
        indptr=np.cumsum([0] + [len(r) for r in rows]).astype(np.int64),
        indices=np.array([v for r in rows for v in sorted(r)], dtype=np.int64),
    )


def _clique_number_all_subsets(n, pairs):
    """Largest vertex subset whose pairs are all edges, over all 2**n subsets."""
    adj = np.zeros(n, dtype=np.int64)
    for a, b in pairs:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    subsets = np.arange(1 << n, dtype=np.int64)
    size = np.zeros(1 << n, dtype=np.int64)
    for v in range(n):
        size += (subsets >> v) & 1
    low = subsets & -subsets
    rest = subsets ^ low
    low_vertex = np.zeros(1 << n, dtype=np.int64)
    low_vertex[1:] = np.log2(low[1:]).astype(np.int64)
    clique = np.zeros(1 << n, dtype=bool)
    clique[0] = True
    for k in range(1, n + 1):
        at = subsets[size == k]
        clique[at] = clique[rest[at]] & ((adj[low_vertex[at]] & rest[at]) == rest[at])
    return int(size[clique].max())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_clique_exact_matches_all_subsets(data):
    n = data.draw(st.integers(1, 16))
    all_pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    density = data.draw(st.sampled_from([0.2, 0.5, 0.8, 1.0]))
    chosen = data.draw(st.lists(st.booleans(), min_size=len(all_pairs), max_size=len(all_pairs)))
    keep = data.draw(st.lists(st.floats(0, 1), min_size=len(all_pairs), max_size=len(all_pairs)))
    pairs = [p for p, c, u in zip(all_pairs, chosen, keep) if c or u < density]
    view = _view_from_pair_set(n, pairs)
    assert ob.clique_exact(view)[:2] == (_clique_number_all_subsets(n, pairs), "exact")


def _walk_greedy(view, order):
    """Greedy clique by walking every vertex of ``order``."""
    adj = [set(view.neighbors(v).tolist()) for v in range(view.n)]
    members = []
    for v in order.tolist():
        if all(v in adj[u] for u in members):
            members.append(v)
    return members


def test_clique_greedy_and_bitsets_match_references(monkeypatch):
    for desc, t in [("const:0.3", 600), ("log:1", 1500), ("rv:0.5", 2000), ("ba", 300)]:
        for seed in range(3):
            g = gr.evolve(es.make_family(desc), t, seed)
            view = ob.simple_view(g)
            orders = (np.arange(view.n), np.argsort(-g.degrees(), kind="stable"))
            want = max(len(_walk_greedy(view, order)) for order in orders)
            assert ob.clique_greedy(view, g.degrees()) == want
            masks = [0] * view.n
            for a, b in view.edges.tolist():
                masks[a] |= 1 << b
                masks[b] |= 1 << a
            for rows in (1, 7, 256):
                monkeypatch.setattr(ob, "_MASK_ROWS", rows)
                assert ob._bitset_adjacency(view) == masks


def _peel_by_queue(view, q):
    """Vertices of the ``q``-core by removing one low-degree vertex at a time."""
    adj = [set(view.neighbors(v).tolist()) for v in range(view.n)]
    alive = set(range(view.n))
    stack = [v for v in alive if len(adj[v]) < q]
    while stack:
        v = stack.pop()
        if v not in alive:
            continue
        alive.discard(v)
        for u in adj[v]:
            adj[u].discard(v)
            if u in alive and len(adj[u]) < q:
                stack.append(u)
    return alive, {(a, b) for a in alive for b in adj[a] if a < b}


def test_core_matches_queue_peel():
    for desc, t, q in [("const:0.5", 3000, 3), ("log:1", 2000, 6), ("rv:0.5", 2000, 4),
                       ("ba", 500, 2), ("const:0.3", 1000, 30)]:
        view = ob.simple_view(gr.evolve(es.make_family(desc), t, 4))
        core = ob._core(view, q)
        alive, pairs = _peel_by_queue(view, q)
        assert core.n == len(alive) and core.n_edges == len(pairs)
        deg = core.degrees()
        assert (deg >= q).all() and (np.diff(deg) <= 0).all()
        want = sorted(sum(1 for p in pairs if v in p) for v in alive)
        assert sorted(deg.tolist()) == want


def test_clique_greedy_never_beats_exact():
    g = gr.evolve(es.constant(0.3), 600, seed=2)
    view = ob.simple_view(g)
    assert view.n <= 500
    exact, status, _ = ob.clique_exact(view)
    assert status == "exact"
    assert ob.clique_greedy(view, g.degrees()) <= exact


def _recheck_chain(g, chain):
    """Independently verify every defining property of an isolated chain."""
    deg = g.degrees()
    births = [int(g.birth_time[v - 1]) for v in chain]
    assert births == sorted(births) and len(set(births)) == len(births)
    for v in chain:
        assert v != 1 and g.step_type[g.birth_time[v - 1] - 1]
    for prev, nxt in zip(chain, chain[1:]):
        assert g.parent[nxt - 1] == prev
    for v in chain[:-1]:
        assert deg[v - 1] == 2
    assert deg[chain[-1] - 1] == 1


def test_isolated_chain_fixtures():
    assert ob.isolated_paths(forced_path(3)) == Counter({2: 1})
    assert ob.isolated_paths(gr.evolve(es.constant(0.0), 30, seed=1)) == Counter()
    two = gr.MultiGraph(
        endpoints=np.array([1, 1, 1, 2, 2, 3, 3, 4, 1, 5, 5, 6, 6, 7, 7, 8]),
        step_type=np.ones(8, dtype=bool),
        birth_time=np.arange(1, 9),
        parent=np.array([0, 1, 2, 3, 1, 5, 6, 7]),
    )
    assert sorted(len(c) for c in ob.isolated_chains(two)) == [3, 4]
    for chain in ob.isolated_chains(two):
        _recheck_chain(two, chain)


def test_isolated_chains_pass_recheck_on_generated_graphs():
    for seed in range(5):
        g = gr.evolve(es.constant(0.5), 400, seed=seed)
        for chain in ob.isolated_chains(g):
            _recheck_chain(g, chain)


def _adjacency_chain_scan(g):
    """Independent pendant-chain scan using only the simple adjacency."""
    view = ob.simple_view(g)
    deg = g.degrees()
    lengths = []
    for leaf in np.flatnonzero(deg == 1):
        length, prev, cur = 1, -1, int(leaf)
        while True:
            onward = [int(x) for x in view.neighbors(cur) if int(x) != prev]
            if len(onward) != 1 or deg[onward[0]] != 2:
                break
            prev, cur = cur, onward[0]
            length += 1
        lengths.append(length)
    return Counter(lengths)


def test_isolated_paths_match_chain_walk():
    for desc in ("const:0.5", "const:0.9", "log:1", "rv:0.5", "ba", "const:0"):
        for seed in range(4):
            g = gr.evolve(es.make_family(desc), 3000, seed)
            assert ob.isolated_paths(g) == Counter(len(c) for c in ob.isolated_chains(g))


def test_tree_chain_scan_agrees():
    # on pure trees every edge is a first connection, so the parent walk
    # and a direction-blind adjacency scan must find the same chains
    for seed in range(6):
        g = gr.evolve(es.ba(), 300, seed=seed)
        assert ob.isolated_paths(g) == _adjacency_chain_scan(g)


def test_count_isolated_in_window():
    p5 = forced_path(5)
    assert ob.count_isolated_in_window(p5, 2, 0.5) == 1  # tail (4, 5) born at >= 2.5
    assert ob.count_isolated_in_window(p5, 4, 0.2) == 1
    assert ob.count_isolated_in_window(p5, 4, 0.5) == 0  # chain[-4] born at 2 < 2.5
    assert ob.count_isolated_in_window(p5, 5, 0.2) == 0  # no size-5 chain


def test_count_isolated_in_window_matches_chain_walk():
    cases = [(1, 0.0), (1, 0.9), (2, 0.5), (3, 0.3), (4, 0.7), (5, 0.1), (9, 0.0), (40, 0.0)]
    hits = 0
    for desc in ("const:0.5", "const:0.9", "log:1", "rv:0.5", "ba", "const:0"):
        for seed in range(4):
            g = gr.evolve(es.make_family(desc), 3000, seed)
            chains = ob.isolated_chains(g)
            for l, xi in cases:
                want = sum(
                    1 for c in chains if len(c) >= l and g.birth_time[c[-l] - 1] >= xi * g.t
                )
                assert ob.count_isolated_in_window(g, l, xi) == want
                hits += want > 0 and l > 2
    assert hits > 0  # some longer tails were present and counted


def test_vertex_paths():
    p10 = forced_path(10)
    assert ob.max_vertex_path(p10, 2) == 9
    assert ob.max_vertex_path(p10, 11) == 0
    assert ob.max_vertex_path(gr.evolve(es.constant(0.0), 20, seed=1), 2) == 0
    assert ob.count_vertex_paths(p10, 2, 4) == 6  # chains end at v5..v10
    assert ob.count_vertex_paths(p10, 2, 9) == 1


def test_max_vertex_path_monotone_in_t0():
    g = gr.evolve(es.constant(0.6), 500, seed=9)
    values = [ob.max_vertex_path(g, t0) for t0 in (2, 5, 20, 100, 400)]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_measure_graph_report():
    g = gr.evolve(es.constant(0.5), 500, seed=12)
    rep = ob.measure_graph(g, want_clique_exact=True)
    rep.check()
    assert rep.clique_exact_status == "exact" and rep.clique_nodes >= 0
    assert ob.measure_graph(g).clique_nodes is None
    assert sum(rep.degree_histogram.values()) == rep.n_vertices
    assert rep.diameter_method == "exact"
    assert rep.diameter_lower == rep.diameter_upper
    assert rep.clique_greedy <= rep.clique_exact
    k = rep.clique_greedy
    assert k * (k - 1) // 2 <= rep.simple_edge_count

    assert rep.diameter_lower == all_pairs_diameter(ob.simple_view(g))

    # the by-degree greedy pass orders by the multigraph's degrees: on this
    # graph the simple view's degrees would find a clique of 5, not 6
    g = gr.evolve(es.constant(0.5), 400, seed=1)
    assert ob.measure_graph(g, diameter=False, paths=False).clique_greedy == 6

    # seed 13's double sweep leaves a gap (7 against 2 ecc = 8): with no
    # fringe searches allowed the record keeps the bracket and says so
    g = gr.evolve(es.constant(0.5), 500, seed=13)
    assert ob.simple_view(g).n_edges > g.n_vertices - 1
    exact = all_pairs_diameter(ob.simple_view(g))
    bounded = ob.measure_graph(g, refine_budget=0)
    assert bounded.diameter_method == "bounds"
    assert bounded.diameter_lower <= exact <= bounded.diameter_upper
    assert bounded.diameter_lower < bounded.diameter_upper
