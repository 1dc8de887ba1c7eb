import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgepa import coupling
from edgepa import edgestep as es
from edgepa import graphs as gr
from edgepa import observables as ob
from edgepa.verify import (
    _random_view,
    exhaustive_clique_upto,
    floyd_warshall_diameter,
)

from conftest import assert_equal_arrays, forced_path, forced_star
from reference import all_pairs_diameter, isolated_chains, new_initial, plain_bfs


def test_simple_view_dedup_and_loops():
    g = new_initial()
    v = ob.simple_view(g)
    assert v.n == 1 and v.n_edges == 0
    tripled = gr.MultiGraph(
        endpoints=np.array([1, 1, 1, 2, 1, 2, 2, 1]),
        step_type=np.array([True, True, False, False]),
    )
    v = ob.simple_view(tripled)
    assert v.n_edges == 1
    assert list(v.neighbors(0)) == [1] and list(v.neighbors(1)) == [0]


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


def _forward_arcs(view):
    """The arcs ``a -> b`` with ``a < b`` of the rows, one per edge, in row order."""
    a = np.repeat(np.arange(view.n), view.degrees())
    forward = a < view.indices
    return a[forward], view.indices[forward]


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
        assert view.indptr.dtype == np.int64 and view.indices.dtype == np.int32
        assert list(zip(*(arcs.tolist() for arcs in _forward_arcs(view)))) == pairs
        assert view.n_edges == len(pairs)
        assert_equal_arrays(view.indptr, indptr)
        assert_equal_arrays(view.indices, indices)
    assert loops > 0 and parallel > 0


@pytest.mark.parametrize("desc,t", [("ba", 60_000), ("const:0.5", 200_000)])
def test_simple_view_rows_past_the_int32_arc_keys(desc, t):
    # with n > 46341 the column field takes s >= 16 bits and the arc keys
    # (a << s) | b pass 2**31: int32 ids must be widened before the shift
    g = gr.evolve(es.make_family(desc), t, 5)
    assert g.endpoints.dtype == np.int32 and g.n_vertices > 46341
    _, indptr, indices = _reference_view(g)  # Python ints, which cannot wrap
    view = ob.simple_view(g)
    assert_equal_arrays(view.indptr, indptr)
    assert_equal_arrays(view.indices, indices)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 2**16, 2**16 + 1])
def test_view_from_pairs_where_the_column_field_changes_width(n):
    # the column field takes max(1, (n - 1).bit_length()) bits: one more
    # from n = 3, 5 and 2**16 + 1 on; pairs repeat, both ways round
    rng = np.random.default_rng(n)
    a, b = rng.integers(0, n, size=(2, 3 * n + 20))
    a, b = a[a != b], b[a != b]
    a, b = np.concatenate([a, b, a[: a.size // 2]]), np.concatenate([b, a, b[: b.size // 2]])
    rows = [set() for _ in range(n)]
    for x, y in zip(a.tolist(), b.tolist()):
        rows[x].add(y)
        rows[y].add(x)
    view = ob._view_from_pairs(n, a.astype(np.int32), b.astype(np.int32))
    assert view.indptr.dtype == np.int64 and view.indices.dtype == np.int32
    assert_equal_arrays(view.indptr, np.cumsum([0] + [len(r) for r in rows]))
    assert_equal_arrays(view.indices, [v for r in rows for v in sorted(r)])


@pytest.mark.parametrize("piece", [1, 7, 2**20])
def test_view_rows_match_across_piece_seams(piece):
    # the rows are counted STEP_CHUNK sorted arc keys at a time, so a small
    # piece splits rows between pieces; the counts must add up regardless
    for desc in ("const:0.5", "log:1", "ba"):
        g = gr.evolve(es.make_family(desc), 3000, 8)
        want = ob.simple_view(g)  # one piece
        with mock.patch.object(es, "STEP_CHUNK", piece):
            got = ob.simple_view(g)
        assert_equal_arrays(got.indptr, want.indptr)
        assert_equal_arrays(got.indices, want.indices)
        _, indptr, indices = _reference_view(g)
        assert_equal_arrays(got.indptr, indptr)
        assert_equal_arrays(got.indices, indices)


def _stored_bytes(g) -> int:
    """Bytes of what a graph stores; its births and parents are derived
    on first read, so they are not part of any result."""
    return g.endpoints.nbytes + g.step_type.nbytes


# Peak numpy allocations over the bytes of the result, measured at t = 2e5
# (evolve 3.66 over the stored arrays, simple_view 2.96).  The simple_view
# ratio is pinned 25 % higher; the evolve ratio 7 % higher, so that its bound
# in bytes (7.0 MB) stays below the 8.97 MB it allowed while births and
# parents were stored and counted.
EVOLVE_PEAK_RATIO = 3.9
VIEW_PEAK_RATIO = 3.7


def test_evolve_and_simple_view_peak_memory():
    f = es.make_family("const:0.5")
    ob.simple_view(gr.evolve(f, 1000, 0))  # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        g = gr.evolve(f, 200_000, 5)
        evolve_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        view = ob.simple_view(g)
        view_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert evolve_peak <= EVOLVE_PEAK_RATIO * _stored_bytes(g)
    assert view_peak <= VIEW_PEAK_RATIO * (view.indptr.nbytes + view.indices.nbytes)


# Peak numpy allocations over the bytes of the result, measured at t = 2e5
# (grow_tree 2.16, pinned 25 % higher; collapse 3.26 over the stored arrays,
# set by the pointer doubling of its first block, pinned 7 % higher, so that
# its bound in bytes (6.30 MB) stays below the 6.38 MB it allowed while
# births and parents were stored and counted).
TREE_PEAK_RATIO = 2.7
COLLAPSE_PEAK_RATIO = 3.5


def test_grow_tree_and_collapse_peak_memory():
    f = es.constant(0.3)
    coupling.collapse(coupling.grow_tree(1000, 0), f)  # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        tree = coupling.grow_tree(200_000, 5)
        tree_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        g = coupling.collapse(tree, f)
        collapse_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert tree_peak <= TREE_PEAK_RATIO * sum(a.nbytes for a in (tree.w, tree.ell, tree.u))
    assert collapse_peak <= COLLAPSE_PEAK_RATIO * _stored_bytes(g)


# Bytes per block entry that collapse may hold besides its result and its
# rank array rr: the resolver's five arrays (17), f's values and their int64
# steps (16), and the link, rank and gathered-rank blocks (12) make 45; it
# measured 49 under ba at t = 1e6 (3.21 MB over 65536 entries), rounded up to
# 64.  Births and parents made inside collapse would add 8 bytes per vertex,
# 8 MB there, twice the 4.2 MB this allows.
COLLAPSE_SCRATCH_PER_ENTRY = 64


def test_collapse_frees_its_ranks_before_the_births():
    # collapse makes no births: it holds its result, its ranks and a few
    # blocks, and births made inside it would break the bound
    tree = coupling.grow_tree(10**6, 5)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = coupling.collapse(tree, es.ba())
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    rr = (tree.t + 1) * g.endpoints.itemsize
    assert peak < _stored_bytes(g) + rr + COLLAPSE_SCRATCH_PER_ENTRY * es.STEP_CHUNK


# Scratch of a generator: its peak numpy allocations less the bytes of its
# result.  Each block is drawn, linked and resolved in one pass, so the
# scratch does not grow with t; full-array passes grew it by about 12
# bytes per step (evolve) and 8 (grow_tree) between these horizons.
SCRATCH_GROWTH_PER_STEP = 2


def _scratch_bytes(make, parts) -> int:
    tracemalloc.start()
    try:
        made = make()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - sum(a.nbytes for a in parts(made))


def test_generator_scratch_does_not_grow_with_t():
    f = es.make_family("const:0.5")
    gr.evolve(f, 1000, 0), coupling.grow_tree(1000, 0)  # first-call allocations stay out of the count
    generators = {
        "evolve": (lambda t: gr.evolve(f, t, 5), lambda g: (g.endpoints, g.step_type)),
        "grow_tree": (lambda t: coupling.grow_tree(t, 5), lambda tree: (tree.w, tree.ell, tree.u)),
    }
    small, large = 400_000, 1_600_000
    for name, (make, parts) in generators.items():
        growth = _scratch_bytes(lambda: make(large), parts) - _scratch_bytes(lambda: make(small), parts)
        assert growth <= SCRATCH_GROWTH_PER_STEP * (large - small), name


def _validate_scratch_bytes(checked) -> int:
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        checked.validate()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_validate_scratch_does_not_grow_with_t():
    # whole-array checks grew it by 9 bytes per step on the collapsed ba
    # graph and 6 on the tree between these horizons
    coupling.collapse(coupling.grow_tree(1000, 0), es.ba()).validate()  # first-call allocations stay out
    scratch = {}
    for t in (400_000, 1_600_000):
        tree = coupling.grow_tree(t, 5)
        scratch[t] = [_validate_scratch_bytes(x) for x in (coupling.collapse(tree, es.ba()), tree)]
    for name, small, large in zip(("MultiGraph", "DoublyLabeledTree"), scratch[400_000], scratch[1_600_000]):
        assert large - small <= SCRATCH_GROWTH_PER_STEP * 1_200_000, name


def _two_edges():
    """Two disjoint edges: a disconnected simple view."""
    return ob.SimpleView(
        n=4,
        indptr=np.array([0, 1, 2, 3, 4]),
        indices=np.array([1, 0, 3, 2]),
    )


def _with_isolated(view, mid):
    """``view`` relabelled onto ``n + 3`` vertices, leaving ids 0, ``mid + 1``
    and ``n + 2`` isolated."""
    n = view.n
    label = np.arange(n) + 1 + (np.arange(n) >= mid)
    a, b = _forward_arcs(view)
    return ob._view_from_pairs(n + 3, label[a], label[b])


def test_bfs_distances_match_plain_bfs():
    # levels run bottom-up exactly where their arcs exceed a quarter of the
    # arcs of the searched vertices not reached yet; the t = 1e5 hub graphs
    # take that branch on their wide levels, and the isolated vertices must
    # stay out of it
    levels = []
    real = ob._bottom_up_level

    def spy(indptr, indices, dist, todo, d):
        found = real(indptr, indices, dist, todo, d)
        levels.append((d, found.size))
        return found

    def check(view, src):
        want = np.array(plain_bfs(view, src))
        levels.clear()
        dist = ob.bfs_distances(view, src)
        assert_equal_arrays(dist, want, dtype=gr._id_dtype(view.n))
        searched = view.degrees() >= 2  # with src, the vertices searched
        searched[src] = True
        deg = np.where(searched, view.degrees(), 0)
        expect = []
        for d in range(int(want[searched].max()) + 1):
            level = int(deg[want == d].sum())
            left = int(deg[(want > d) | (want < 0)].sum())
            if level and 4 * level > left:
                expect.append(d)
        assert [d for d, _ in levels] == expect
        return sum(k for _, k in levels), int(searched.sum())

    bottom_up = searched = 0
    with mock.patch.object(ob, "_bottom_up_level", spy):
        for desc, t in [("const:0.5", 2000), ("log:1", 3000), ("rv:0.5", 3000), ("ba", 1000),
                        ("const:0.5", 10**5), ("log:1", 10**5)]:
            view = ob.simple_view(gr.evolve(es.make_family(desc), t, 8))
            hub = int(np.argmax(view.degrees()))
            for src in (0, hub, view.n - 1):
                settled, size = check(view, src)
                if t == 10**5:
                    bottom_up += settled
                    searched += size
            if t <= 3000:
                gapped = _with_isolated(view, view.n // 2)
                hub = int(np.argmax(gapped.degrees()))
                for src in (0, 1, hub, view.n // 2 + 1, view.n + 2):
                    check(gapped, src)
        check(_two_edges(), 0)
    # most of both graphs' searched vertices, over six searches
    assert bottom_up > searched / 2
    assert ob.bfs_distances(_two_edges(), 0).tolist() == [0, 1, -1, -1]


def test_leaves_take_their_distance_after_the_search():
    # a leaf is never searched: it reads its neighbour's distance + 1, or
    # -1 when that neighbour was not reached (the other edge of two)
    star, path = ob.simple_view(forced_star(9)), ob.simple_view(forced_path(6))
    cases = [(star, 0), (star, 4), (path, 0), (path, 2), (path, 5), (_two_edges(), 0), (_two_edges(), 3)]
    for view in (_with_isolated(star, 4), _with_isolated(path, 3)):
        cases += [(view, src) for src in range(view.n)]
    for desc in ("const:0.5", "rv:0.5"):
        view = ob.simple_view(gr.evolve(es.make_family(desc), 10**5, 3))
        leaf, stem = view.leaves
        assert view.leaves is view.leaves  # cached on the view
        assert leaf.dtype == stem.dtype == view.indices.dtype
        assert_equal_arrays(leaf, np.flatnonzero(view.degrees() == 1))
        assert_equal_arrays(stem, [int(view.neighbors(v)[0]) for v in leaf])
        cases += [(view, int(leaf[0])), (view, int(leaf[-1])), (view, int(stem[0]))]
    for view, src in cases:
        dist = ob.bfs_distances(view, src)
        assert dist.dtype == gr._id_dtype(view.n) == np.int32
        assert_equal_arrays(dist, plain_bfs(view, src), note=(view.n, src))
    assert ob.bfs_distances(_two_edges(), 3).tolist() == [-1, -1, 1, 0]


# breadth-first searches per diameter_bounds, pinned so that a change to
# the search cannot move observables.bfs_calls unseen
PROBES = [("const:0.5", 1, 2), ("const:0.5", 4, 4), ("log:1", 1, 2), ("log:1", 4, 4),
          ("rv:0.1", 1, 8), ("rv:0.1", 4, 6)]


def test_diameter_probe_counts_are_pinned():
    calls = []
    real = ob.bfs_distances
    for desc, seed, want in PROBES:
        view = ob.simple_view(gr.evolve(es.make_family(desc), 10**5, seed))
        calls.clear()
        with mock.patch.object(ob, "bfs_distances", lambda v, s: calls.append(s) or real(v, s)):
            lo, hi = ob.diameter_bounds(view)
        assert lo == hi and len(calls) == want, (desc, seed)


def test_tallies():
    g = new_initial()
    assert g.n_vertices == 1
    assert int(g.degrees().max()) == 2
    assert ob.degree_histogram(g.degrees()) == {2: 1}
    tree = gr.evolve(es.ba(), 100, seed=1)
    hist = ob.degree_histogram(tree.degrees())
    assert sum(hist.values()) == 100


def test_one_vertex_graphs_need_no_special_case():
    # the root alone, and a run of loops on it
    for g in (new_initial(), gr.evolve(es.constant(0.0), 50, seed=1)):
        view = ob.simple_view(g)
        assert ob.diameter_bounds(view) == (0, 0)
        assert ob.clique_greedy(view, g.degrees()) == 1
        assert int(ob.vertex_path_depths(g, 2).max()) == 0
        assert ob.count_vertex_paths(g, 2, 1) == 0


@pytest.mark.parametrize(
    "cells, message",
    [
        (dict(degree_histogram={2: 2}), "must count every vertex"),
        (dict(diameter_lower=3, diameter_upper=2), "lower bound exceeds upper"),
        (dict(clique_greedy=4, clique_exact=3, clique_exact_status="exact"), "cannot exceed"),
    ],
)
def test_report_check_rejects_inconsistent_cells(cells, message):
    base = dict(n_vertices=1, max_degree=2, simple_edges=0, degree_histogram={2: 1})
    ob.ObservableReport(**base).check()
    # a greedy clique above a mere lower bound is no contradiction
    ob.ObservableReport(**base, clique_greedy=4, clique_exact=3, clique_exact_status="lower_bound").check()
    with pytest.raises(ValueError, match=message):
        ob.ObservableReport(**{**base, **cells}).check()


def test_max_degree_grows_for_decaying_schedules():
    # with a vanishing vertex rate the hub keeps nearly everything:
    # max degree reaches t^0.8 in at least 19 of 20 runs at t = 1e5
    t, hits = 10**5, 0
    for r in range(20):
        g = gr.evolve(es.rv_power(0.5), t, seed=3000 + r)
        hits += int(g.degrees().max()) >= t**0.8
    assert hits >= 19


def test_diameter_examples():
    assert all_pairs_diameter(ob.simple_view(forced_path(5))) == 4
    assert ob.diameter_bounds(ob.simple_view(forced_path(5))) == (4, 4)
    assert ob.diameter_bounds(ob.simple_view(forced_star(9))) == (2, 2)
    assert ob.diameter_bounds(ob.simple_view(new_initial())) == (0, 0)
    assert all_pairs_diameter(ob.simple_view(new_initial())) == 0


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
    # graphs with hubs, chains and parallel edges, and trees, against the
    # all-pairs oracle
    for desc in ("const:0.5", "log:1", "rv:0.5", "const:0.9", "osc:base=10", "ba"):
        for seed in range(2):
            view = ob.simple_view(gr.evolve(es.make_family(desc), 800, seed))
            exact = all_pairs_diameter(view)
            assert ob.diameter_bounds(view) == (exact, exact)
    for seed in range(2):
        tree = coupling.collapse(coupling.grow_tree(800, seed), es.make_family("ba"))
        view = ob.simple_view(tree)
        assert view.tree_parents is not None
        exact = all_pairs_diameter(view)
        assert ob.diameter_bounds(view) == (exact, exact)


@given(
    n=st.integers(2, 300),
    seed=st.integers(0, 2**32 - 1),
    reach=st.integers(1, 300),
)
@settings(max_examples=40, deadline=None)
def test_heap_ordered_trees_are_measured_from_parent_links(n, seed, reach):
    # each vertex links to one of the ``reach`` before it: paths to bushy trees
    rng = np.random.default_rng(seed)
    child = np.arange(1, n)
    parent = np.concatenate([[0], rng.integers(np.maximum(child - reach, 0), child)])
    view = ob._view_from_pairs(n, parent[1:], child)
    assert np.array_equal(view.tree_parents, parent)
    exact = all_pairs_diameter(view)
    assert ob.diameter_bounds(view) == (exact, exact)
    assert ob.clique_exact(view) == (2, "exact", 0)
    # the same tree relabelled at random, measured by the double sweep
    label = rng.permutation(n)
    relabelled = ob._view_from_pairs(n, label[parent[1:]], label[child])
    assert ob.diameter_bounds(relabelled) == (exact, exact)
    with mock.patch.object(ob.SimpleView, "tree_parents", None):
        assert ob.diameter_bounds(relabelled) == (exact, exact)
        assert ob.clique_exact(relabelled) == (2, "exact", 0)


def test_tree_test_rejects_non_trees():
    # n - 1 edges and no isolated vertex, but vertex 2 has two smaller
    # neighbours: a triangle beside an edge
    view = ob._view_from_pairs(5, np.array([0, 0, 1, 3]), np.array([1, 2, 2, 4]))
    assert view.n_edges == view.n - 1 and view.degrees().all()
    assert view.tree_parents is None
    with pytest.raises(ValueError, match="disconnected"):
        ob.diameter_bounds(view)
    # n - 1 edges with vertex 3 isolated; a tree plus one edge
    assert ob._view_from_pairs(4, np.array([0, 0, 1]), np.array([1, 2, 2])).tree_parents is None
    assert ob._view_from_pairs(3, np.array([0, 0, 1]), np.array([1, 2, 2])).tree_parents is None
    # a tree whose vertex 1 has no smaller neighbour (not in heap order)
    relabelled = ob._view_from_pairs(3, np.array([0, 2]), np.array([2, 1]))
    assert relabelled.tree_parents is None
    assert ob.diameter_bounds(relabelled) == (2, 2)
    assert ob.simple_view(new_initial()).tree_parents is None  # one vertex


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
    )


def test_clique_examples():
    k5, path = _k5_multigraph(), forced_path(6)
    assert ob.clique_greedy(ob.simple_view(k5), k5.degrees()) == 5
    assert ob.clique_exact(ob.simple_view(k5)) == (5, "exact", 0)
    assert ob.clique_greedy(ob.simple_view(path), path.degrees()) == 2
    assert ob.clique_exact(ob.simple_view(path)) == (2, "exact", 0)


def test_clique_greedy_returns_on_a_row_that_lists_its_own_vertex():
    # no view that simple_view builds has such a row; vertex 1 is the hub
    # and vertex 0's only neighbour, so both passes take it and must not
    # keep it as a candidate of its own
    view = ob.SimpleView(n=3, indptr=np.array([0, 1, 4, 5]), indices=np.array([1, 0, 1, 2, 1]))
    assert ob.clique_greedy(view, view.degrees()) >= 2


def test_clique_exact_statuses(monkeypatch):
    # log:1 at t=3000, seed 5: the greedy clique (9) is below omega (10)
    g = gr.evolve(es.make_family("log:1"), 3000, 5)
    view = ob.simple_view(g)
    omega, status, nodes = ob.clique_exact(view)
    greedy = ob.clique_greedy(view, g.degrees())
    assert status == "exact" and nodes > 1 and omega > greedy
    monkeypatch.setattr(ob, "_NODE_BUDGET", 1)
    size, status, spent = ob.clique_exact(view)
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
            masks = [sum(1 << b for b in view.neighbors(a).tolist()) for a in range(view.n)]
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
    # ba with q = 1 keeps every vertex; q = 10**6 keeps none; const:0.99
    # is the sparse class whose 2-core is large
    for desc, t, q in [("const:0.5", 3000, 3), ("log:1", 2000, 6), ("rv:0.5", 2000, 4),
                       ("ba", 500, 2), ("const:0.3", 1000, 30), ("ba", 500, 1),
                       ("const:0.5", 3000, 10**6), ("const:0.99", 20_000, 2)]:
        view = ob.simple_view(gr.evolve(es.make_family(desc), t, 4))
        core = ob._core(view, q)
        alive, pairs = _peel_by_queue(view, q)
        assert core.n == len(alive) and core.n_edges == len(pairs)
        if q == 1:
            assert core.n == view.n
        if q == 10**6:
            assert core.n == 0 and core.indptr.tolist() == [0] and core.indices.size == 0
        deg = core.degrees()
        assert (deg >= q).all() and (np.diff(deg) <= 0).all()
        want = sorted(sum(1 for p in pairs if v in p) for v in alive)
        assert sorted(deg.tolist()) == want


# Peak numpy allocations of the peel over the bytes of the view, measured
# at t = 2e5 (1.49) and pinned 25 % higher.
CORE_PEAK_RATIO = 1.86


def test_core_peak_memory():
    f = es.make_family("const:0.5")
    ob._core(ob.simple_view(gr.evolve(f, 1000, 0)), 2)  # first-call allocations stay out of the count
    g = gr.evolve(f, 200_000, 5)
    view = ob.simple_view(g)
    q = ob.clique_greedy(view, g.degrees())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        core = ob._core(view, q)
        core_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert 0 < core.n < view.n
    assert core_peak <= CORE_PEAK_RATIO * (view.indptr.nbytes + view.indices.nbytes)


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
    line = forced_path(3)
    assert ob.isolated_paths(line, line.degrees()) == Counter({2: 1})
    loops = gr.evolve(es.constant(0.0), 30, seed=1)
    assert ob.isolated_paths(loops, loops.degrees()) == Counter()
    two = gr.MultiGraph(
        endpoints=np.array([1, 1, 1, 2, 2, 3, 3, 4, 1, 5, 5, 6, 6, 7, 7, 8]),
        step_type=np.ones(8, dtype=bool),
    )
    assert sorted(len(c) for c in isolated_chains(two)) == [3, 4]
    for chain in isolated_chains(two):
        _recheck_chain(two, chain)


def test_isolated_chains_pass_recheck_on_generated_graphs():
    for seed in range(5):
        g = gr.evolve(es.constant(0.5), 400, seed=seed)
        for chain in isolated_chains(g):
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
            assert ob.isolated_paths(g, g.degrees()) == Counter(len(c) for c in isolated_chains(g))


def test_tree_chain_scan_agrees():
    # on pure trees every edge is a first connection, so the parent walk
    # and a direction-blind adjacency scan must find the same chains
    for seed in range(6):
        g = gr.evolve(es.ba(), 300, seed=seed)
        assert ob.isolated_paths(g, g.degrees()) == _adjacency_chain_scan(g)


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
            chains = isolated_chains(g)
            for l, xi in cases:
                want = sum(
                    1 for c in chains if len(c) >= l and g.birth_time[c[-l] - 1] >= xi * g.t
                )
                assert ob.count_isolated_in_window(g, l, xi) == want
                hits += want > 0 and l > 2
    assert hits > 0  # some longer tails were present and counted


def _climbed_depths(g, t0):
    """Vertex-path depth of every vertex by a direct climb over its parents."""
    depths = []
    for v in range(1, g.n_vertices + 1):
        depth, cur = 0, v
        while cur > 1 and g.birth_time[cur - 1] >= t0:
            depth, cur = depth + 1, int(g.parent[cur - 1])
        depths.append(depth)
    return depths


@pytest.mark.parametrize("block", [1, 3, 7, 64])
def test_chain_walks_match_references_across_block_seams(block):
    # small resolver blocks put seams inside the chains and vertex paths
    families = ("const:0.5", "const:0.9", "log:1", "rv:0.5", "ba", "const:0")
    graphs = [gr.evolve(es.make_family(d), 600, 3) for d in families]
    graphs.append(coupling.collapse(coupling.grow_tree(800, 3), es.constant(0.5)))
    for g in graphs:
        chains = isolated_chains(g)
        with mock.patch.object(es, "STEP_CHUNK", block):
            assert ob.isolated_paths(g, g.degrees()) == Counter(len(c) for c in chains)
            for l, xi in [(1, 0.0), (2, 0.5), (3, 0.3), (4, 0.0)]:
                want = sum(1 for c in chains if len(c) >= l and g.birth_time[c[-l] - 1] >= xi * g.t)
                assert ob.count_isolated_in_window(g, l, xi) == want
            for t0 in (1, 2, g.t // 3):
                depths = _climbed_depths(g, t0)
                assert int(ob.vertex_path_depths(g, t0).max()) == max(depths)
                for k in (1, 3):
                    assert ob.count_vertex_paths(g, t0, k) == sum(d >= k for d in depths)


def test_vertex_paths():
    p10 = forced_path(10)
    assert int(ob.vertex_path_depths(p10, 2).max()) == 9
    assert int(ob.vertex_path_depths(p10, 11).max()) == 0
    assert int(ob.vertex_path_depths(gr.evolve(es.constant(0.0), 20, seed=1), 2).max()) == 0
    assert ob.count_vertex_paths(p10, 2, 4) == 6  # chains end at v5..v10
    assert ob.count_vertex_paths(p10, 2, 9) == 1


def test_max_vertex_path_monotone_in_t0():
    g = gr.evolve(es.constant(0.6), 500, seed=9)
    values = [int(ob.vertex_path_depths(g, t0).max()) for t0 in (2, 5, 20, 100, 400)]
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
    assert k * (k - 1) // 2 <= rep.simple_edges

    assert rep.diameter_lower == all_pairs_diameter(ob.simple_view(g))

    # the by-degree greedy pass orders by the multigraph's degrees: seed 12
    # is the smallest seed (searched upward from 0) whose const:0.5 graph
    # at t=400 gets a larger greedy clique from the multigraph's degrees
    # (4) than from the simple view's (3)
    g = gr.evolve(es.constant(0.5), 400, seed=12)
    view = ob.simple_view(g)
    assert ob.clique_greedy(view, g.degrees()) == 4
    assert ob.clique_greedy(view, view.degrees()) == 3
    assert ob.measure_graph(g, diameter=False, paths=False).clique_greedy == 4

    # seed 5 is the smallest seed (searched upward from 0) whose const:0.5
    # graph at t=500 is not a tree and whose double sweep leaves a gap
    # (7 against 2 ecc = 8): with no fringe searches allowed the record
    # keeps the bracket and says so
    g = gr.evolve(es.constant(0.5), 500, seed=5)
    assert ob.simple_view(g).n_edges > g.n_vertices - 1
    exact = all_pairs_diameter(ob.simple_view(g))
    bounded = ob.measure_graph(g, refine_budget=0)
    assert bounded.diameter_method == "bounds"
    assert bounded.diameter_lower <= exact <= bounded.diameter_upper
    assert bounded.diameter_lower < bounded.diameter_upper


@pytest.mark.parametrize("desc", ["ba", "const:0.5"])
def test_measure_graph_tree_path_changes_no_column(desc):
    g = gr.evolve(es.make_family(desc), 3000, 4)
    report = ob.measure_graph(g, want_clique_exact=True)
    with mock.patch.object(ob.SimpleView, "tree_parents", None):
        assert ob.measure_graph(g, want_clique_exact=True) == report
    if desc == "ba":
        assert report.diameter_method == "exact"
        assert report.clique_exact_status == "exact"
        assert report.clique_exact == 2 and report.clique_nodes == 0
