import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgepa import coupling as cp
from edgepa import edgestep as es
from edgepa import rng as _rng
from edgepa import graphs as gr
from edgepa.graphs import canonical_key
from edgepa.observables import diameter_bounds, simple_view

from conftest import assert_equal_arrays, assert_same_graph


def test_grow_tree_tiny():
    t1 = cp.grow_tree(1, seed=0)
    assert t1.t == 1
    t2 = cp.grow_tree(2, seed=0)
    assert t2.w[2] == 1 and t2.ell[2] == 1  # single candidate
    t2.validate()


def test_grow_tree_third_vertex_label_law():
    # after two steps the degrees are 3:1, so both labels pick the root
    # with probability 3/4, independently of each other
    n = 20000
    w_hits = l_hits = joint = 0
    for r in range(n):
        tree = cp.grow_tree(3, seed=_rng.child_seed(77, r))
        w_hits += tree.w[3] == 1
        l_hits += tree.ell[3] == 1
        joint += (tree.w[3] == 1) and (tree.ell[3] == 1)
    sd = 4 * math.sqrt(n * 0.75 * 0.25)
    assert abs(w_hits - 0.75 * n) <= sd
    assert abs(l_hits - 0.75 * n) <= sd
    sd_joint = 4 * math.sqrt(n * (9 / 16) * (7 / 16))
    assert abs(joint - n * 9 / 16) <= sd_joint


def test_collapse_identity_under_all_ones():
    tree = cp.grow_tree(200, seed=3)
    g = cp.collapse(tree, es.make_family("ba"))
    assert g.n_vertices == 200
    assert np.array_equal(g.endpoints[2::2], tree.w[2:])
    assert np.array_equal(g.endpoints[3::2], np.arange(2, 201))
    g.validate()


def test_collapse_all_zero_yields_loops():
    tree = cp.grow_tree(40, seed=4)
    g = cp.collapse(tree, es.make_family("const:0"))
    assert g.n_vertices == 1
    assert g.t == 40
    assert np.all(g.endpoints == 1)


def test_collapse_hand_trace():
    tree = cp.DoublyLabeledTree(
        w=np.array([0, 0, 1, 2]),
        ell=np.array([0, 0, 1, 1]),
        u=np.array([0.0, 0.0, 0.9, 0.1]),
        seed=0,
    )
    g = cp.collapse(tree, es.make_family("const:0.5"))
    assert list(g.birth_time) == [1, 3]
    # loop(1), v2's edge becomes a second loop on 1, then the edge {1, v3}
    assert list(g.endpoints) == [1, 1, 1, 1, 1, 2]
    assert list(g.step_type) == [True, False, True]


def test_coupled_run_shares_randomness():
    tree = cp.grow_tree(150, seed=9)
    f = es.make_family("const:0.4")
    a, b = [cp.collapse(tree, g) for g in (f, f)]
    assert canonical_key(a) == canonical_key(b)
    tree_graph, loops = [cp.collapse(tree, es.make_family(d)) for d in ("ba", "const:0")]
    assert tree_graph.n_vertices == 150 and loops.n_vertices == 1


def test_monotone_observables_samplewise():
    f, h = es.make_family("const:0.3"), es.make_family("const:0.7")
    for r in range(200):
        tree = cp.grow_tree(500, seed=_rng.child_seed(1000, r))
        gf, gh = [cp.collapse(tree, g) for g in (f, h)]
        assert gf.n_vertices <= gh.n_vertices
        assert gf.degrees().max() >= gh.degrees().max()
        lo_f, hi_f = diameter_bounds(simple_view(gf))
        lo_h, hi_h = diameter_bounds(simple_view(gh))
        assert lo_f == hi_f and lo_h == hi_h
        assert lo_f <= lo_h


def _tree_by_loop(t, seed):
    raw = _rng.stream(seed, _rng.TREE_SLOTS).random((max(t - 1, 0), 2))
    slots, w, ell = [1, 1], [0, 0], [0, 0]
    for j in range(2, t + 1):
        width = 2 * (j - 1)
        a, b = (min(int(x * width), width - 1) for x in raw[j - 2])
        w.append(slots[a])
        ell.append(slots[b])
        slots += [slots[a], j]
    return w, ell


@pytest.mark.parametrize("t", [1, 2, 3, 17, 300])
def test_grow_tree_matches_per_vertex_reference(t):
    for seed in range(3):
        tree = cp.grow_tree(t, seed)
        w, ell = _tree_by_loop(t, seed)
        assert tree.w.dtype == tree.ell.dtype == gr._id_dtype(t)
        assert_equal_arrays(tree.w, w[: t + 1])
        assert_equal_arrays(tree.ell, ell[: t + 1])
        assert np.array_equal(tree.u[1:], _rng.stream(seed, _rng.TREE_ULABELS).random(t))


def _collapse_by_loop(tree, f):
    t = tree.t
    rep, rank, kept = [0, 1], [0, 1], 1
    for j in range(2, t + 1):
        if tree.u[j] <= f.eval(j):
            kept += 1
            rep.append(j)
            rank.append(kept)
        else:
            rep.append(rep[tree.ell[j]])
            rank.append(0)
    ends = [1, 1]
    for j in range(2, t + 1):
        ends += [rank[rep[tree.w[j]]], rank[rep[j]]]
    born = [j for j in range(1, t + 1) if rep[j] == j]
    return ends, born, [0] + [rank[rep[tree.w[j]]] for j in born[1:]]


@pytest.mark.parametrize("fam", ["const:0.3", "const:0.7", "log:1", "ba", "const:0"])
def test_collapse_matches_per_vertex_reference(fam):
    f = es.make_family(fam)
    for t, seed in ((2, 0), (40, 1), (300, 2), (300, 3)):
        tree = cp.grow_tree(t, seed)
        g = cp.collapse(tree, f)
        ends, born, parent = _collapse_by_loop(tree, f)
        assert g.endpoints.dtype == g.birth_time.dtype == g.parent.dtype == gr._id_dtype(t)
        assert_equal_arrays(g.endpoints, ends)
        assert_equal_arrays(g.birth_time, born)
        assert_equal_arrays(g.parent, parent)
        g.validate()


@pytest.mark.parametrize("chunk", [1, 2, 7])
@pytest.mark.parametrize("fam", ["const:0.3", "log:1", "ba", "const:0"])
def test_collapse_matches_per_vertex_reference_at_block_seams(fam, chunk):
    # the ranks are resolved block by block from the bottom, then the edges
    # written over them block by block from the top; the seams must not show
    f = es.make_family(fam)
    with mock.patch.object(es, "STEP_CHUNK", chunk):
        for t in sorted({1, 2, 3, chunk + 1, 2 * chunk + 1}):
            for seed in range(3):
                tree = cp.grow_tree(t, seed)
                ends, _, parent = _collapse_by_loop(tree, f)
                g = cp.collapse(tree, f)
                assert_equal_arrays(g.endpoints, ends)
                assert_equal_arrays(g.parent, parent)


def _with_target(tree, j, target):
    w = tree.w.copy()
    w[j] = target
    return cp.DoublyLabeledTree(w=w, ell=tree.ell, u=tree.u, seed=tree.seed)


@pytest.mark.parametrize("j, target", [(6, 10**6), (5, 8), (5, 5), (3, 0), (10, -1)])
def test_collapse_rejects_an_attachment_that_is_not_older(j, target):
    # a far target was read modulo the ranks' length, a forward one unchecked
    tree, f = cp.grow_tree(10, 1), es.make_family("ba")
    with pytest.raises(ValueError, match=f"attachment at {j} points to {target},"):
        cp.collapse(_with_target(tree, j, target), f)
    # the same tree with its own target collapses as before
    g = cp.collapse(_with_target(tree, j, tree.w[j]), f)
    assert_equal_arrays(g.endpoints, _collapse_by_loop(tree, f)[0])


def test_tv_upper_bound_values():
    f = es.make_family("const:0.3")
    assert cp.tv_upper_bound(f, f, 500) == 0.0
    assert cp.tv_upper_bound(f, es.make_family("const:0.4"), 101) == pytest.approx(10.0)
    bumped = np.full(999, 0.3)
    bumped[8:18] += 0.01  # times 10..19
    assert cp.tv_upper_bound(f, es.EdgeStepFunction("tabulated", {"values": bumped}), 1000) == pytest.approx(0.1)


def test_empirical_disagreement_trivial_cases():
    f = es.make_family("const:0.3")
    assert cp.empirical_disagreement(f, f, 100, reps=50, seed=1) == 0.0
    # functions differing only beyond the horizon never disagree
    base = np.full(499, 0.3)
    late = base.copy()
    late[-100:] = 0.9  # times 401..500
    f_tab, h_tab = (es.EdgeStepFunction("tabulated", {"values": v}) for v in (base, late))
    assert cp.empirical_disagreement(f_tab, h_tab, 400, reps=50, seed=2) == 0.0
    assert cp.empirical_disagreement(f_tab, h_tab, 500, reps=50, seed=3) > 0.5


def test_empirical_disagreement_respects_l1_bound():
    f = es.make_family("const:0.3")
    bumped = np.full(499, 0.3)
    bumped[8:18] += 0.02
    h = es.EdgeStepFunction("tabulated", {"values": bumped})
    reps = 2000
    tv = cp.tv_upper_bound(f, h, 500)
    frac = cp.empirical_disagreement(f, h, 500, reps=reps, seed=4)
    assert frac <= tv + 3 * math.sqrt(tv * (1 - tv) / reps)


@given(
    horizon=st.integers(1, 3000),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    fam=st.sampled_from(["const:0.3", "const:0", "ba", "rv:0.5", "log:1", "osc:base=30"]),
)
@settings(max_examples=80, deadline=None)
def test_collapse_prefix_is_the_shorter_trees_collapse(horizon, data, seed, fam):
    t = data.draw(st.integers(1, horizon), label="t")
    f = es.make_family(fam)
    prefix = cp.collapse(cp.grow_tree(horizon, seed), f).prefix(t)
    prefix.validate()
    assert_same_graph(prefix, cp.collapse(cp.grow_tree(t, seed), f))


def _assert_collapse_unchunked(fam, chunk, t):
    # the marks are compared with f chunk by chunk; the pieces must not show
    f, tree = es.make_family(fam), cp.grow_tree(t, 4)
    with mock.patch.object(es, "STEP_CHUNK", 1 << 20):
        whole = cp.collapse(tree, f)
    with mock.patch.object(es, "STEP_CHUNK", chunk):
        assert_same_graph(cp.collapse(tree, f), whole)


@pytest.mark.parametrize("fam", ["const:0.3", "log:1", "osc:base=10"])
def test_collapse_marks_compared_in_chunks(fam):
    _assert_collapse_unchunked(fam, 7, 300)


@pytest.mark.parametrize("fam", ["const:0.3", "log:1", "osc:base=10"])
def test_collapse_marks_compared_across_the_shipped_seam(fam):
    _assert_collapse_unchunked(fam, es.STEP_CHUNK, es.STEP_CHUNK + 100)


def _assert_same_tree(tree, want):
    for name in ("w", "ell", "u"):
        got, exp = getattr(tree, name), getattr(want, name)
        assert got.dtype == exp.dtype and np.array_equal(got, exp), name


@pytest.mark.parametrize("chunk", [1, 7, 64, 1 << 20])
@pytest.mark.parametrize("t", [1, 2, 3, 300])
def test_grow_tree_slots_drawn_in_chunks(chunk, t):
    # the slots are drawn, linked and resolved chunk by chunk; the seams must not show
    with mock.patch.object(es, "STEP_CHUNK", chunk):
        tree = cp.grow_tree(t, 4)
    _assert_same_tree(tree, cp.grow_tree(t, 4))


def test_grow_tree_slots_drawn_across_the_shipped_seam():
    t = es.STEP_CHUNK + 100
    with mock.patch.object(es, "STEP_CHUNK", 1 << 20):
        whole = cp.grow_tree(t, 4)
    _assert_same_tree(cp.grow_tree(t, 4), whole)


def test_tree_validate_rejects_future_targets():
    bad = cp.DoublyLabeledTree(
        w=np.array([0, 0, 2]), ell=np.array([0, 0, 1]), u=np.zeros(3), seed=0
    )
    with pytest.raises(ValueError):
        bad.validate()


def test_tree_validate_rejects_bad_ghosts_and_marks():
    def tree(ell, u):
        return cp.DoublyLabeledTree(w=np.array([0, 0, 1, 2]), ell=np.array(ell), u=np.array(u), seed=0)

    tree([0, 0, 1, 1], [0.0, 0.5, 1.0, 0.2]).validate()
    with pytest.raises(ValueError, match="ghost targets must be strictly older"):
        tree([0, 0, 1, 3], [0.0, 0.5, 1.0, 0.2]).validate()
    with pytest.raises(ValueError, match="ghost targets must be strictly older"):
        tree([0, 0, 0, 1], [0.0, 0.5, 1.0, 0.2]).validate()
    with pytest.raises(ValueError, match="uniform marks must lie in"):
        tree([0, 0, 1, 1], [0.0, 0.5, 1.5, 0.2]).validate()
    with pytest.raises(ValueError, match="uniform marks must lie in"):
        tree([0, 0, 1, 1], [0.0, 0.5, np.nan, 0.2]).validate()


# DoublyLabeledTree.validate's checks in order, and a fault for each: the
# value it writes at vertex j
_TREE_FAULTS = [
    ("w", lambda j: j, "attachment targets must be strictly older"),
    ("ell", lambda j: 0, "ghost targets must be strictly older"),
    ("u", lambda j: 1.5, "uniform marks must lie in"),
    ("u", lambda j: np.nan, "uniform marks must lie in"),
]


@functools.cache
def _tree_for(chunk):
    """A tree with more than 2 * chunk + 2 vertices."""
    return cp.grow_tree(60 if chunk < 64 else 3 * chunk + 10, 5)


def _faulted_trees(chunk, faults):
    """Copies of ``_tree_for(chunk)`` with the faults placed at vertex
    2 * chunk + 2 (the seam of two blocks, which start at vertex 2), then
    at the last vertex."""
    tree = _tree_for(chunk)
    for j in (2 * chunk + 2, tree.t):
        parts = {name: getattr(tree, name).copy() for name in ("w", "ell", "u")}
        for i in faults:
            name, value, _ = _TREE_FAULTS[i]
            parts[name][j] = value(j)
        yield cp.DoublyLabeledTree(seed=0, **parts)


@pytest.mark.parametrize("chunk", [1, 7, es.STEP_CHUNK])
@pytest.mark.parametrize("fault", range(len(_TREE_FAULTS)))
def test_tree_validate_rejects_each_fault_past_the_first_block(chunk, fault):
    with mock.patch.object(es, "STEP_CHUNK", chunk):
        _tree_for(chunk).validate()
        for tree in _faulted_trees(chunk, [fault]):
            with pytest.raises(ValueError, match=_TREE_FAULTS[fault][2]):
                tree.validate()


@pytest.mark.parametrize("chunk", [1, 7, es.STEP_CHUNK])
def test_tree_validate_reports_the_earlier_of_two_faults(chunk):
    with mock.patch.object(es, "STEP_CHUNK", chunk):
        for later in range(1, len(_TREE_FAULTS)):
            for earlier in range(later):
                for tree in _faulted_trees(chunk, [later, earlier]):
                    with pytest.raises(ValueError, match=_TREE_FAULTS[earlier][2]):
                        tree.validate()


@pytest.mark.parametrize("chunk", [1, 7, es.STEP_CHUNK])
def test_collapse_rejects_an_attachment_fault_past_the_first_block(chunk):
    with mock.patch.object(es, "STEP_CHUNK", chunk):
        for tree in _faulted_trees(chunk, [0]):
            with pytest.raises(ValueError, match="attachment at .* not an older vertex"):
                cp.collapse(tree, es.make_family("const:0.5"))
