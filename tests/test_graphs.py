import functools
import hashlib
import io
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgepa import coupling as cp
from edgepa import edgestep as es
from edgepa import graphs as gr
from edgepa import rng as _rng
from edgepa import observables as ob
from edgepa.observables import bfs_distances, simple_view

from conftest import assert_equal_arrays, assert_same_graph
from reference import EDGE, VERTEX, dumps_graph, evolve_step, new_initial, sample_preferential
from test_edgestep import FAMILIES, case_id


def test_new_initial():
    g = new_initial()
    assert g.t == 1 and g.n_vertices == 1
    assert list(g.endpoints) == [1, 1]
    assert list(g.birth_time) == [1] and list(g.parent) == [0]
    assert g.degrees().sum() == 2
    g.validate()


def test_sample_preferential_single_vertex():
    g = new_initial()
    gen = _rng.stream(0, 99)
    assert all(sample_preferential(g, gen) == 1 for _ in range(20))


def test_sample_preferential_matches_degrees():
    # v2 attached to v1: degrees 3 and 1
    g = evolve_step(new_initial(), VERTEX, _rng.stream(1, 0))
    gen = _rng.stream(2, 0)
    n = 20000
    hits = sum(sample_preferential(g, gen) == 1 for _ in range(n))
    p = 0.75
    assert abs(hits - n * p) <= 4 * math.sqrt(n * p * (1 - p))


def test_sample_preferential_multinomial_on_fixed_graph():
    # a fixed 10-vertex graph: seed 0 is the smallest seed whose
    # const:0.5 run has 10 vertices at t=18 (searched upward from 0)
    g = gr.evolve(es.constant(0.5), 18, seed=0)
    assert g.n_vertices == 10
    gen = _rng.stream(5, 0)
    n = 200000
    counts = np.zeros(g.n_vertices + 1, dtype=np.int64)
    for _ in range(n):
        counts[sample_preferential(g, gen)] += 1
    probs = g.degrees() / (2 * g.t)
    for v in range(1, g.n_vertices + 1):
        p = probs[v - 1]
        assert abs(counts[v] - n * p) <= 4 * math.sqrt(n * p * (1 - p))


def test_evolve_step_examples():
    g1 = new_initial()
    gen = _rng.stream(3, 0)
    gv = evolve_step(g1, VERTEX, gen)
    assert gv.n_vertices == 2 and sorted(gv.degrees()) == [1, 3]
    assert gv.parent[1] == 1 and gv.birth_time[1] == 2
    ge = evolve_step(g1, EDGE, gen)
    assert ge.n_vertices == 1 and list(ge.degrees()) == [4]
    with pytest.raises(ValueError):
        evolve_step(g1, "both", gen)


def test_evolve_step_preserves_handshake():
    g = new_initial()
    gen = _rng.stream(4, 0)
    for k in range(40):
        g = evolve_step(g, VERTEX if k % 3 else EDGE, gen)
        assert g.degrees().sum() == 2 * g.t
    g.validate()


def test_evolve_pure_tree():
    g = gr.evolve(es.ba(), 1000, seed=5)
    assert g.n_vertices == 1000
    assert g.t == 1000
    assert simple_view(g).n_edges == 999
    g.validate()


def test_evolve_no_vertex_steps():
    g = gr.evolve(es.constant(0.0), 50, seed=5)
    assert g.n_vertices == 1
    assert np.all(g.endpoints == 1)


def test_evolve_vertex_count_band():
    t = 10**5
    g = gr.evolve(es.constant(0.5), t, seed=99)
    want = es.constant(0.5).partial_sum(t)
    sigma = math.sqrt((t - 1) * 0.25)
    assert abs(g.n_vertices - want) <= 4 * sigma


def test_evolve_deterministic():
    f = es.rv_power(0.7)
    a = gr.evolve(f, 500, seed=42)
    b = gr.evolve(f, 500, seed=42)
    c = gr.evolve(f, 500, seed=43)
    assert np.array_equal(a.endpoints, b.endpoints)
    assert not np.array_equal(a.endpoints, c.endpoints)


def test_evolve_horizon_prefix_consistency():
    # the same seed at a longer horizon extends the same trajectory
    f = es.constant(0.4)
    short = gr.evolve(f, 200, seed=7)
    long = gr.evolve(f, 400, seed=7)
    assert np.array_equal(long.endpoints[:400], short.endpoints)


@given(
    horizon=st.integers(1, 3000),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    fam=st.sampled_from(["const:0.5", "const:0", "ba", "rv:0.5", "log:1", "osc:base=30"]),
    chunk=st.sampled_from([7, 64, 1 << 20]),
)
@settings(max_examples=80, deadline=None)
def test_prefix_is_the_shorter_horizons_graph(horizon, data, seed, fam, chunk):
    # small blocks put the seams of the draws and the resolver inside the prefix
    t = data.draw(st.integers(1, horizon), label="t")
    f = es.make_family(fam)
    with mock.patch.object(es, "STEP_CHUNK", chunk):
        full = gr.evolve(f, horizon, seed)
    prefix = full.prefix(t)
    prefix.validate()
    assert_same_graph(prefix, gr.evolve(f, t, seed))
    for name in ("birth_time", "parent"):
        assert_equal_arrays(getattr(prefix, name), getattr(full, name)[: prefix.n_vertices], full.endpoints.dtype)
    assert full.prefix(horizon) is full


def test_prefix_rejects_times_outside_the_run():
    g = gr.evolve(es.constant(0.5), 50, seed=1)
    for t in (0, 51):
        with pytest.raises(ValueError, match="prefix time"):
            g.prefix(t)


@given(
    t=st.integers(1, 120),
    seed=st.integers(0, 2**32 - 1),
    fam=st.sampled_from(["const:0.5", "const:0", "ba", "rv:0.7", "log:1"]),
)
@settings(max_examples=60, deadline=None)
def test_fast_matches_sequential_reference(t, seed, fam):
    f = es.make_family(fam)
    fast = gr.evolve(f, t, seed)
    slow = gr._evolve_sequential(f, t, seed)
    assert np.array_equal(fast.endpoints, slow.endpoints)
    assert np.array_equal(fast.step_type, slow.step_type)
    assert np.array_equal(fast.birth_time, slow.birth_time)
    assert np.array_equal(fast.parent, slow.parent)


def _path_sums_by_loop(ptr, w):
    w = np.broadcast_to(w, ptr.shape)
    out = np.empty(len(ptr), dtype=w.dtype)
    for i in range(len(ptr)):
        out[i] = w[i] if ptr[i] == i else w[i] + out[ptr[i]]
    return out


def _backward_links(rng, n, terminal, reach, dtype):
    idx = np.arange(n)
    ptr = np.maximum(idx - rng.integers(1, reach + 1, n), 0)  # links up to ``reach`` back
    ptr = np.where(rng.random(n) < terminal, idx, ptr).astype(dtype)
    if n:
        ptr[0] = 0
    return ptr


@given(
    n=st.integers(1, 400),
    seed=st.integers(0, 2**32 - 1),
    terminal=st.floats(0.0, 1.0),
    reach=st.integers(1, 400),
    block=st.sampled_from([1, 2, 3, 7, 64, 1 << 16]),
    dtype=st.sampled_from([np.int32, np.int64]),
)
@settings(max_examples=120, deadline=None)
def test_resolve_backward_links_matches_loop(n, seed, terminal, reach, block, dtype):
    rng = np.random.default_rng(seed)
    ptr = _backward_links(rng, n, terminal, reach, dtype)
    w = rng.integers(-10**6, 10**6, n).astype(dtype)  # negative weights too
    roots = w * (ptr == np.arange(n))  # zero at every link
    one = ptr.dtype.type(1)
    with mock.patch.object(es, "STEP_CHUNK", block):
        sums = gr.resolve_backward_links(ptr, w)
        copied = gr.resolve_backward_links(ptr, roots)
        counted = gr.resolve_backward_links(ptr, one)
    assert sums.dtype == copied.dtype == counted.dtype == dtype
    assert np.array_equal(sums, _path_sums_by_loop(ptr, w))
    # zero weights at the links copy each root's weight down to its links
    root = np.arange(n)
    for i in range(n):
        root[i] = i if ptr[i] == i else root[ptr[i]]
    assert np.array_equal(copied, w[root])
    assert np.array_equal(counted, _path_sums_by_loop(ptr, np.ones(n, dtype=dtype)))


@pytest.mark.parametrize("block", [1, 7, 64, 1 << 16])
@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_hops_only_resolve_matches_count_mode(block, dtype):
    # broadcast ones count the links followed, plus one, over terminals,
    # in-block links and links into the prefix, across three seams
    n = 3 * block + 300
    rng = np.random.default_rng(block)
    idx = np.arange(n)
    near = np.maximum(idx - rng.integers(1, 5, n), 0)
    far = (rng.random(n) * idx).astype(np.int64)
    ptr = np.select([rng.random(n) < 0.2, rng.random(n) < 0.5], [idx, near], far).astype(dtype)
    hops = np.zeros(n, dtype=np.int64)
    for i in range(n):
        hops[i] = 0 if ptr[i] == i else hops[ptr[i]] + 1
    with mock.patch.object(es, "STEP_CHUNK", block):
        counted = gr.resolve_backward_links(ptr, np.broadcast_to(ptr.dtype.type(1), n))
        scalar = gr.resolve_backward_links(ptr, ptr.dtype.type(1))
        ones = gr.resolve_backward_links(ptr, np.ones(n, dtype=dtype))
    assert counted.dtype == scalar.dtype == ones.dtype == dtype
    assert np.array_equal(counted, hops + 1)
    assert np.array_equal(scalar, counted) and np.array_equal(ones, counted)


@given(
    n=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    reach=st.integers(1, 300),
    block=st.sampled_from([1, 3, 7, 64]),
)
@settings(max_examples=80, deadline=None)
def test_depth_walk_matches_loop(n, seed, reach, block):
    # parent links of a heap-ordered tree, up to ``reach`` ids back, so that
    # chains cross the block seams; weights of one sum to 1 + the depth
    parent = _backward_links(np.random.default_rng(seed), n, 0.0, reach, np.int64)
    want = np.zeros(n, dtype=np.int64)
    for v in range(1, n):
        want[v] = want[parent[v]] + 1
    with mock.patch.object(es, "STEP_CHUNK", block):
        depth = gr.resolve_backward_links(parent, 1)
    assert np.array_equal(depth - 1, want)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_resolve_backward_links_edge_cases(dtype):
    n = 3 * es.STEP_CHUNK + 5
    idx = np.arange(n, dtype=dtype)
    val = (7 * idx + 3).astype(dtype)
    assert np.array_equal(gr.resolve_backward_links(idx, val), val)  # all terminal
    chain = np.maximum(idx - 1, 0).astype(dtype)  # one chain through every block
    at_root = np.where(idx == 0, val, 0).astype(dtype)
    assert np.array_equal(gr.resolve_backward_links(chain, at_root), np.full(n, val[0]))
    # chains that jump back across block boundaries, to one of four terminals
    hop = np.maximum(idx - 4 * (es.STEP_CHUNK // 8 + 1), idx % 4).astype(dtype)
    at_roots = np.where(idx < 4, val, 0).astype(dtype)
    assert np.array_equal(gr.resolve_backward_links(hop, at_roots), val[idx % 4])
    assert np.array_equal(gr.resolve_backward_links(chain, dtype(1)), idx + 1)
    # the sums of a chain through every block, each entry weighing its own index
    assert np.array_equal(gr.resolve_backward_links(chain, idx.astype(np.int64)), np.cumsum(idx, dtype=np.int64))
    for w in (val[:0], dtype(1)):
        empty = gr.resolve_backward_links(idx[:0], w)
        assert empty.size == 0 and empty.dtype == dtype


@pytest.mark.parametrize("block", [1, 2, 3, 7, 64, 1 << 16])
@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_resolve_backward_links_block_sizes(block, dtype):
    # random signed weights over terminals, in-block links and prefix links
    rng = np.random.default_rng(block + 1)
    n = 5 * block + 37 if block < 1000 else 2 * block + 37
    ptr = _backward_links(rng, n, 0.3, 3 * block, dtype)
    w = rng.integers(-1000, 1000, n).astype(dtype)
    with mock.patch.object(es, "STEP_CHUNK", block):
        out = gr.resolve_backward_links(ptr, w)
    assert out.dtype == dtype and np.array_equal(out, _path_sums_by_loop(ptr, w))


# each id links to the next of its cycle; with blocks of 8 the first two
# cycles lie inside block 0, the next two inside block 1 and the last two
# across the seam at 8
@pytest.mark.parametrize("cycle", [(2, 5), (1, 6, 3), (9, 12), (10, 15, 11), (5, 9), (4, 9, 6)])
@pytest.mark.parametrize("block", [8, 1 << 16])
@pytest.mark.parametrize("ones", [False, True])
def test_resolve_backward_links_rejects_cycles(cycle, block, ones):
    ptr = np.maximum(np.arange(20) - 1, 0)
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        ptr[a] = b
    w = ptr.dtype.type(1) if ones else np.arange(20) - 7
    with mock.patch.object(es, "STEP_CHUNK", block), pytest.raises(ValueError):
        gr.resolve_backward_links(ptr, w)


@pytest.mark.parametrize("ones", [False, True])
def test_resolve_backward_links_rejects_forward_links(ones):
    ptr = np.arange(20)
    ptr[6] = 11  # a forward link with no cycle
    w = ptr.dtype.type(1) if ones else np.arange(20) - 7
    with pytest.raises(ValueError, match="link at 6 points forward, to 11"):
        gr.resolve_backward_links(ptr, w)


def _assert_matches_reference(t):
    # evolve's blocks against the reference, which reads both streams whole
    # and ignores STEP_CHUNK
    f, seed = es.make_family("log:1"), 21
    assert_same_graph(gr.evolve(f, t, seed), gr._evolve_sequential(f, t, seed))


@pytest.mark.parametrize("chunk", [1, 7, 1 << 20])
def test_evolve_blocks_match_the_reference(chunk):
    with mock.patch.object(es, "STEP_CHUNK", chunk):
        _assert_matches_reference(300)


def test_evolve_matches_the_reference_across_the_shipped_seam():
    _assert_matches_reference(es.STEP_CHUNK + 100)


def _digest(*arrays) -> str:
    """sha256 of the values of ``arrays`` (integers as int64, floats as
    float64), so that only the draws, not the storage types, move it."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(a.astype(np.float64 if a.dtype.kind == "f" else np.int64).tobytes())
    return h.hexdigest()


def test_draw_layout_is_pinned():
    # Every record follows from these draws: a new bit generator, label or
    # draw order changes a digest here, and that change must be declared
    # with the new digests.  Together they cover COINS, SLOTS, TREE_SLOTS
    # and TREE_ULABELS.
    assert type(_rng.stream(0).bit_generator) is np.random.PCG64DXSM
    g = gr.evolve(es.constant(0.5), 1000, 7)
    tree = cp.grow_tree(1000, 7)
    batch = gr.evolve_batch(es.constant(0.5), 50, 3, 7)
    assert {
        "evolve": _digest(g.step_type, g.endpoints),
        "grow_tree w, ell": _digest(tree.w, tree.ell),
        "grow_tree u": _digest(tree.u),
        "evolve_batch": _digest(batch.z, batch.endpoints),
    } == {
        "evolve": "2552e2982e46127009b5591ad7d4ed2a80232aee1e6e28a82d30aa9dc5dc2256",
        "grow_tree w, ell": "99d5528a6e91b2a56d4be7cb6a5a4de36035e13f17592518785c51d0b40d78b5",
        "grow_tree u": "a696245a5d31435a84e045f216cc2fd421c57b1d92b6d46d5bbbce4bc5f584d3",
        "evolve_batch": "ca2e07797b4fecb72d5d9188e7b8381c26d9759688e5214416e47c457ca5e953",
    }


def test_evolve_connected():
    for seed in range(5):
        g = gr.evolve(es.constant(0.5), 300, seed=seed)
        dist = bfs_distances(simple_view(g), 0)
        assert dist.min() >= 0  # every vertex reachable


def test_evolve_batch_matches_single():
    f = es.constant(0.3)
    batch = gr.evolve_batch(f, 80, reps=1, seed=17)
    single = gr.evolve(f, 80, seed=17)
    assert np.array_equal(batch.extract(0).endpoints, single.endpoints)
    assert batch.n_vertices()[0] == single.n_vertices


def test_evolve_batch_rows_are_valid_and_distinct():
    batch = gr.evolve_batch(es.constant(0.5), 60, reps=5, seed=17)
    keys = set()
    for r in range(batch.reps):
        g = batch.extract(r)
        g.validate()
        assert g.degrees().sum() == 2 * g.t
        keys.add(gr.canonical_key(g))
    assert len(keys) > 1


def test_evolve_batch_force_coin():
    batch = gr.evolve_batch(es.constant(0.1), 30, reps=16, seed=1, force_coin={10: True, 11: False})
    assert np.all(batch.z[:, 8])
    assert not np.any(batch.z[:, 9])


def _assert_batch_matches_per_step_loop(f, t, reps, seed, force):
    gen_c, gen_s = _rng.stream(seed, _rng.COINS), _rng.stream(seed, _rng.SLOTS)
    ends = [[1, 1] for _ in range(reps)]
    zs = [[] for _ in range(reps)]
    for s in range(2, t + 1):
        coins = gen_c.random(reps) < f.eval(s)
        raw = gen_s.random((reps, 2))
        width = 2 * (s - 1)
        for r in range(reps):
            vertex = force[s] if force and s in force else bool(coins[r])
            a, b = (min(int(x * width), width - 1) for x in raw[r])
            e = ends[r]
            e += [e[a], max(e) + 1 if vertex else e[b]]
            zs[r].append(vertex)
    batch = gr.evolve_batch(f, t, reps, seed, force_coin=force)
    # transposed views of the slot-major working matrices, in the working type
    assert batch.endpoints.dtype == np.min_scalar_type(t) and batch.endpoints.T.flags.c_contiguous
    assert batch.z.dtype == bool and batch.z.T.flags.c_contiguous
    assert (batch.reps, batch.t) == (reps, t) and batch.n_vertices().shape == (reps,)
    assert np.array_equal(batch.endpoints, np.array(ends))
    assert np.array_equal(batch.z, np.array(zs))
    assert np.array_equal(batch.n_vertices(), [max(e) for e in ends])
    for r in (0, reps - 1):
        g = batch.extract(r, f.name)
        g.validate()
        assert g.endpoints.dtype == gr._id_dtype(t) and g.endpoints.flags.c_contiguous
        assert not np.shares_memory(g.endpoints, batch.endpoints) and g.family == f.name


@pytest.mark.parametrize("force", [None, {3: False, 10: True, 11: False}])
def test_evolve_batch_rows_match_per_step_loop(force):
    _assert_batch_matches_per_step_loop(es.make_family("rv:0.5"), 90, 7, 23, force)


# ba reaches id t: 255 is the largest uint8 working matrix, 256 the smallest uint16
@pytest.mark.parametrize("fam, t", [("rv:0.5", 100), ("ba", 255), ("ba", 256)])
@pytest.mark.parametrize("chunk, reps", [(1, 3), (7, 3), (7, 2)])  # 1, 2 and 3 steps per draw chunk
def test_evolve_batch_rows_match_per_step_loop_across_chunks(fam, t, chunk, reps):
    steps = max(1, chunk // reps)
    # a chunk's first step, another chunk's last step, and the last step of the run
    force = {2 + 5 * steps: False, 1 + 9 * steps: True, t: False} if fam == "rv:0.5" else None
    with mock.patch.object(es, "STEP_CHUNK", chunk):
        _assert_batch_matches_per_step_loop(es.make_family(fam), t, reps, 4, force)


# Peak numpy allocations of evolve_batch over the bytes of its result,
# measured at t = 1000, reps = 5000 (1.11) and pinned 10 % higher: a copy
# of the result made at the end of the call reads 1.91.
BATCH_PEAK_RATIO = 1.22


def test_evolve_batch_peak_memory():
    f = es.make_family("const:0.5")
    gr.evolve_batch(f, 100, 100, 0)  # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        batch = gr.evolve_batch(f, 1000, 5000, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= BATCH_PEAK_RATIO * (batch.endpoints.nbytes + batch.z.nbytes)


def _assert_mask_selected(g):
    # birth times and parents as a boolean mask over the steps selects them
    ids = np.arange(1, g.t + 1, dtype=g.endpoints.dtype)
    parent = g.endpoints[::2][g.step_type]
    parent[0] = 0
    for name, want in (("birth_time", ids[g.step_type]), ("parent", parent)):
        got = getattr(g, name)
        assert got.dtype == g.endpoints.dtype and np.array_equal(got, want), name


@pytest.mark.parametrize("chunk", [1, 7, es.STEP_CHUNK])
@pytest.mark.parametrize("fam", ["ba", "const:0", "const:0.5"])  # every step, none past 1, half
def test_births_and_parents_select_vertex_steps_across_chunk_seams(chunk, fam):
    f, t, seed = es.make_family(fam), 150, 9
    tree = cp.grow_tree(t, seed)
    g = gr.evolve(f, t, seed)
    with mock.patch.object(es, "STEP_CHUNK", chunk):
        graphs = [
            gr.evolve(f, t, seed),
            cp.collapse(tree, f),
            gr.evolve_batch(f, t, 3, seed).extract(2, fam),
            gr.load_graph(io.StringIO(dumps_graph(g))),
        ]
        for h in graphs:
            h.validate()
            _assert_mask_selected(h)  # derived here, STEP_CHUNK steps at a time
    assert_same_graph(graphs[0], g)
    if fam != "const:0.5":
        assert all(h.n_vertices == (t if fam == "ba" else 1) for h in graphs)


def test_births_and_parents_are_derived_only_when_read():
    # nothing on the generator, check or view path reads them; once read,
    # both are cached together
    f, t = es.make_family("const:0.5"), 3000
    for g in (gr.evolve(f, t, 4), cp.collapse(cp.grow_tree(t, 4), f)):
        g.validate()
        view = simple_view(g)
        ob.diameter_bounds(view)
        ob.clique_exact(view)
        assert "birth_time" not in g.__dict__ and "parent" not in g.__dict__
        parent = g.parent
        assert g.__dict__["parent"] is parent and g.__dict__["birth_time"] is g.birth_time


def test_dump_round_trip_bit_exact():
    g = gr.evolve(es.make_family("const:0.5"), 200, seed=31)
    text = dumps_graph(g)
    g2 = gr.load_graph(io.StringIO(text))
    assert dumps_graph(g2) == text
    assert np.array_equal(g2.endpoints, g.endpoints)
    assert np.array_equal(g2.parent, g.parent)
    assert g2.seed == g.seed and g2.family == g.family


# t = 4: vertices born at steps 1, 2 and 4; step 3 is an edge-step
_VALID_ARRAYS = dict(
    endpoints=[1, 1, 1, 2, 2, 1, 2, 3],
    step_type=[True, True, False, True],
)


@pytest.mark.parametrize(
    "field, index, value, message",
    [
        ("endpoints", slice(6, None), None, "length 2t"),
        ("step_type", 0, False, "step 1 must be the seed vertex"),
        ("step_type", 2, True, "vertex-step slots must hold the new vertex id"),  # an edge-step read as a vertex-step
        ("endpoints", 4, 5, "endpoint ids out of range"),
        ("endpoints", 6, 3, "parents must be strictly older"),  # step 4's parent is its own new vertex
        ("endpoints", 7, 2, "vertex-step slots must hold the new vertex id"),
    ],
)
def test_validate_rejects_inconsistent_arrays(field, index, value, message):
    arrays = {k: np.array(v) for k, v in _VALID_ARRAYS.items()}
    gr.MultiGraph(**arrays).validate()
    if value is None:
        arrays[field] = np.delete(arrays[field], index)
    else:
        arrays[field][index] = value
    with pytest.raises(ValueError, match=message):
        gr.MultiGraph(**arrays).validate()


# validate's checks in order
_CHECKS = [
    "length 2t",
    "step 1 must be the seed vertex",
    "endpoint ids out of range",
    "parents must be strictly older",
    "vertex-step slots must hold the new vertex id",
]


# Faults, each caught by the check of its index into _CHECKS.  Each is
# placed at step s, where a vertex was born (slots 2s - 2 and 2s - 1), and
# reads the ids off the arrays as they stand, so it stays the same fault
# after another has been placed.  The step-1 fault has one place only.
_FAULT_CHECK = [0, 1, 2, 2, 3, 3, 4, 4]


def _break(a, fault, s):
    n = int(np.count_nonzero(a["step_type"]))
    new = int(np.count_nonzero(a["step_type"][:s]))  # the id step s creates
    if fault == 0:
        a["endpoints"] = np.delete(a["endpoints"], 2 * s - 1)
    elif fault == 1:
        a["step_type"][0] = False
    elif fault == 2:
        a["endpoints"][2 * s - 2] = n + 1
    elif fault == 3:
        a["endpoints"][2 * s - 2] = 0
    elif fault == 4:
        a["endpoints"][2 * s - 2] = new  # its parent is the new vertex
    elif fault == 5:
        a["endpoints"][2 * s - 2] = min(new + 1, n)  # a younger vertex, where there is one
    elif fault == 6:
        a["endpoints"][2 * s - 1] = new - 1  # the previous vertex's id
    else:
        edge = np.flatnonzero(~a["step_type"])  # the edge-step nearest to s becomes a vertex-step
        a["step_type"][edge[np.argmin(np.abs(edge - s))]] = True


@functools.cache
def _graph_for(chunk):
    """A const:0.5 graph with more than 2 * chunk + 1 vertices that ends
    on a vertex-step, so that its last vertex holds its last slot."""
    g = gr.evolve(es.constant(0.5), 80 if chunk < 64 else 5 * chunk, 12)
    return g.prefix(int(g.birth_time[-1]))


def _faulted(chunk, faults):
    """Copies of ``_graph_for(chunk)`` with the faults placed at the birth
    of vertex 2 * chunk + 1 (the seam of two blocks), then of the last."""
    g = _graph_for(chunk)
    for v in (2 * chunk, g.n_vertices - 1):
        arrays = {"endpoints": g.endpoints.copy(), "step_type": g.step_type.copy()}
        for fault in faults:
            _break(arrays, fault, int(g.birth_time[v]))
        yield gr.MultiGraph(**arrays)


@pytest.mark.parametrize("chunk", [1, 7, es.STEP_CHUNK])
@pytest.mark.parametrize("fault", range(len(_FAULT_CHECK)))
def test_validate_rejects_each_fault_past_the_first_block(chunk, fault):
    with mock.patch.object(es, "STEP_CHUNK", chunk):
        _graph_for(chunk).validate()
        for g in _faulted(chunk, [fault]):
            with pytest.raises(ValueError, match=_CHECKS[_FAULT_CHECK[fault]]):
                g.validate()


@pytest.mark.parametrize("chunk", [1, 7, es.STEP_CHUNK])
def test_validate_reports_the_earlier_of_two_faults(chunk):
    with mock.patch.object(es, "STEP_CHUNK", chunk):
        for earlier, later in itertools.combinations(range(len(_FAULT_CHECK)), 2):
            if _FAULT_CHECK[earlier] < _FAULT_CHECK[later]:
                for g in _faulted(chunk, [later, earlier]):  # the deleted slot of fault 0 goes last
                    with pytest.raises(ValueError, match=_CHECKS[_FAULT_CHECK[earlier]]):
                        g.validate()


def test_load_rejects_corrupt_dump():
    g = gr.evolve(es.ba(), 5, seed=1)
    lines = dumps_graph(g).splitlines()
    lines[2], lines[3] = lines[3], lines[2]  # out-of-order edge times
    with pytest.raises(ValueError):
        gr.load_graph(io.StringIO("\n".join(lines) + "\n"))
    with pytest.raises(ValueError):
        gr.load_graph(io.StringIO("1 1\n"))
    lines = dumps_graph(g).splitlines()
    lines[1] = lines[1][:-1] + "0"  # step 1 not a vertex-step
    with pytest.raises(ValueError, match="step 1"):
        gr.load_graph(io.StringIO("\n".join(lines) + "\n"))
    lines = dumps_graph(g).splitlines()
    lines[0] = lines[0].replace(" 5 ", " 4 ", 1)  # the header's vertex count
    with pytest.raises(ValueError, match="header claims 4 vertices, lines imply 5"):
        gr.load_graph(io.StringIO("\n".join(lines) + "\n"))


def _birth_form(g):
    """Step types and the sorted birth-time pairs of the edges, in Python."""
    born = [int(g.birth_time[v - 1]) for v in g.endpoints]
    pairs = sorted((min(a, b), max(a, b)) for a, b in zip(born[::2], born[1::2]))
    return tuple(bool(b) for b in g.step_type[1:]), tuple(pairs)


def test_id_dtype_widens_only_past_int32_slots():
    assert gr._id_dtype(2**30 - 1) == np.int32
    assert gr._id_dtype(2**30) == np.int64


@pytest.mark.parametrize("f", FAMILIES, ids=case_id)
def test_every_graph_holds_its_ids_in_the_id_dtype(f):
    t = len(f.params["values"]) + 1 if f.family == "tabulated" else 300
    g = gr.evolve(f, t, 3)
    made = {
        "evolve": g,
        "prefix": g.prefix(t // 2),
        "collapse": cp.collapse(cp.grow_tree(t, 3), f),
        "extract": gr.evolve_batch(f, t, 2, 3).extract(1, f.name),
        "sequential": gr._evolve_sequential(f, t, 3),
        "load_graph": gr.load_graph(io.StringIO(dumps_graph(g))),
    }
    for name, h in made.items():
        assert h.endpoints.dtype == h.birth_time.dtype == h.parent.dtype == gr._id_dtype(h.t), name
        h.validate()
        wide = gr.MultiGraph(
            endpoints=h.endpoints.astype(np.int64), step_type=h.step_type, family=h.family, seed=h.seed
        )
        assert dumps_graph(h) == dumps_graph(wide), name
        assert gr.canonical_key(h) == gr.canonical_key(wide), name


def test_canonical_key_matches_canonical_form():
    form_of, key_of = {}, {}
    for seed in range(40):
        g = gr.evolve(es.constant(0.5), 6, seed=seed)
        key, form = gr.canonical_key(g), _birth_form(g)
        assert form_of.setdefault(key, form) == form
        assert key_of.setdefault(form, key) == key
    assert len(key_of) > 1


def test_canonical_form_uses_birth_times():
    g = gr.evolve(es.constant(0.5), 5, seed=8)
    z, edges = _birth_form(g)
    assert len(z) == 4 and len(edges) == 5
    flat = [b for pair in edges for b in pair]
    assert min(flat) == 1 and max(flat) <= 5
    packed = np.frombuffer(gr.canonical_key(g)[8 + g.t :], dtype=np.int64)
    assert [divmod(int(p), g.t + 2) for p in packed] == list(edges)
