import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgepa import edgestep as es
from edgepa import graphs as gr
from edgepa import rng as _rng
from edgepa.observables import bfs_distances, simple_view

from conftest import assert_same_graph


def test_new_initial():
    g = gr.new_initial()
    assert g.t == 1 and g.n_vertices == 1
    assert list(g.endpoints) == [1, 1]
    assert g.degrees().sum() == 2
    g.validate()


def test_sample_preferential_single_vertex():
    g = gr.new_initial()
    gen = _rng.stream(0, 99)
    assert all(gr.sample_preferential(g, gen) == 1 for _ in range(20))


def test_sample_preferential_matches_degrees():
    # v2 attached to v1: degrees 3 and 1
    g = gr.evolve_step(gr.new_initial(), gr.VERTEX, _rng.stream(1, 0))
    gen = _rng.stream(2, 0)
    n = 20000
    hits = sum(gr.sample_preferential(g, gen) == 1 for _ in range(n))
    p = 0.75
    assert abs(hits - n * p) <= 4 * math.sqrt(n * p * (1 - p))


def test_sample_preferential_multinomial_on_fixed_graph():
    g = gr.evolve(es.constant(0.5), 18, seed=124)  # fixed 10-vertex graph
    assert g.n_vertices == 10
    gen = _rng.stream(5, 0)
    n = 200000
    counts = np.zeros(g.n_vertices + 1, dtype=np.int64)
    for _ in range(n):
        counts[gr.sample_preferential(g, gen)] += 1
    probs = g.degrees() / (2 * g.t)
    for v in range(1, g.n_vertices + 1):
        p = probs[v - 1]
        assert abs(counts[v] - n * p) <= 4 * math.sqrt(n * p * (1 - p))


def test_evolve_step_examples():
    g1 = gr.new_initial()
    gen = _rng.stream(3, 0)
    gv = gr.evolve_step(g1, gr.VERTEX, gen)
    assert gv.n_vertices == 2 and sorted(gv.degrees()) == [1, 3]
    assert gv.parent[1] == 1 and gv.birth_time[1] == 2
    ge = gr.evolve_step(g1, gr.EDGE, gen)
    assert ge.n_vertices == 1 and list(ge.degrees()) == [4]
    with pytest.raises(ValueError):
        gr.evolve_step(g1, "both", gen)


def test_evolve_step_preserves_handshake():
    g = gr.new_initial()
    gen = _rng.stream(4, 0)
    for k in range(40):
        g = gr.evolve_step(g, gr.VERTEX if k % 3 else gr.EDGE, gen)
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
    # small draw chunks and resolver blocks put their seams inside the prefix
    t = data.draw(st.integers(1, horizon), label="t")
    f = es.make_family(fam)
    with mock.patch.object(gr, "_DRAW_CHUNK", chunk), mock.patch.object(gr, "_RESOLVE_BLOCK", chunk):
        full = gr.evolve(f, horizon, seed)
    prefix = full.prefix(t)
    prefix.validate()
    assert_same_graph(prefix, gr.evolve(f, t, seed))
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


def _resolve_by_loop(ptr, val):
    out = np.empty_like(val)
    for i in range(len(ptr)):
        out[i] = val[i] if ptr[i] == i else out[ptr[i]]
    return out


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
    idx = np.arange(n)
    ptr = np.maximum(idx - rng.integers(1, reach + 1, n), 0)  # links up to ``reach`` back
    ptr = np.where(rng.random(n) < terminal, idx, ptr).astype(dtype)
    ptr[0] = 0
    val = rng.integers(-5, 10**6, n).astype(dtype)
    with mock.patch.object(gr, "_RESOLVE_BLOCK", block):
        out = gr.resolve_backward_links(ptr, val)
    assert out.dtype == val.dtype
    assert np.array_equal(out, _resolve_by_loop(ptr, val))


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_resolve_backward_links_edge_cases(dtype):
    n = 3 * gr._RESOLVE_BLOCK + 5
    idx = np.arange(n, dtype=dtype)
    val = (7 * idx + 3).astype(dtype)
    assert np.array_equal(gr.resolve_backward_links(idx, val), val)  # all terminal
    chain = np.maximum(idx - 1, 0).astype(dtype)  # one chain through every block
    assert np.array_equal(gr.resolve_backward_links(chain, val), np.full(n, val[0]))
    # chains that jump back across block boundaries, to one of four terminals
    hop = np.maximum(idx - 4 * (gr._RESOLVE_BLOCK // 8 + 1), idx % 4).astype(dtype)
    assert np.array_equal(gr.resolve_backward_links(hop, val), val[idx % 4])
    assert gr.resolve_backward_links(idx[:0], val[:0]).size == 0


@pytest.mark.parametrize("chunk", [1, 7, 1 << 20])
def test_presample_keeps_the_stream_layout(chunk):
    # one coin per step, then one (t-1, 2) block of slot uniforms scaled to 2(s-1)
    f, t, seed = es.make_family("log:1"), 300, 21
    s = np.arange(2, t + 1)
    z = _rng.stream(seed, _rng.COINS).random(t - 1) < f.eval_array(s)
    raw = _rng.stream(seed, _rng.SLOTS).random((t - 1, 2))
    width = 2 * (s - 1)
    slots = np.minimum((raw * width[:, None]).astype(np.int64), (width - 1)[:, None])
    with mock.patch.object(gr, "_DRAW_CHUNK", chunk):
        got_z, got_a, got_b = gr._presample(f, t, seed)
    assert np.array_equal(got_z, z)
    assert np.array_equal(got_a, slots[:, 0]) and np.array_equal(got_b, slots[:, 1])


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


@pytest.mark.parametrize("force", [None, {3: False, 10: True, 11: False}])
def test_evolve_batch_rows_match_per_step_loop(force):
    f, t, reps, seed = es.make_family("rv:0.5"), 90, 7, 23
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
    assert batch.endpoints.dtype == np.int32 and batch.endpoints.flags.c_contiguous
    assert np.array_equal(batch.endpoints, np.array(ends))
    assert np.array_equal(batch.z, np.array(zs))
    for r in (0, reps - 1):
        g = batch.extract(r, f.name)
        g.validate()
        assert g.endpoints.dtype == np.int64 and g.family == f.name


def test_dump_round_trip_bit_exact():
    g = gr.evolve(es.make_family("const:0.5"), 200, seed=31)
    text = gr.dumps_graph(g)
    g2 = gr.load_graph(io.StringIO(text))
    assert gr.dumps_graph(g2) == text
    assert np.array_equal(g2.endpoints, g.endpoints)
    assert np.array_equal(g2.parent, g.parent)
    assert g2.seed == g.seed and g2.family == g.family


def test_load_rejects_corrupt_dump():
    g = gr.evolve(es.ba(), 5, seed=1)
    lines = gr.dumps_graph(g).splitlines()
    lines[2], lines[3] = lines[3], lines[2]  # out-of-order edge times
    with pytest.raises(ValueError):
        gr.load_graph(io.StringIO("\n".join(lines) + "\n"))
    with pytest.raises(ValueError):
        gr.load_graph(io.StringIO("1 1\n"))
    lines = gr.dumps_graph(g).splitlines()
    lines[1] = lines[1][:-1] + "0"  # step 1 not a vertex-step
    with pytest.raises(ValueError, match="step 1"):
        gr.load_graph(io.StringIO("\n".join(lines) + "\n"))


def test_canonical_key_matches_canonical_form():
    seen = {}
    for seed in range(40):
        g = gr.evolve(es.constant(0.5), 6, seed=seed)
        key = gr.canonical_key(g)
        form = gr.canonical_form(g)
        if key in seen:
            assert seen[key] == form
        seen[key] = form
    assert len({gr.canonical_key(gr.evolve(es.constant(0.5), 6, seed=s)) for s in range(40)}) > 1


def test_canonical_form_uses_birth_times():
    g = gr.evolve(es.constant(0.5), 5, seed=8)
    z, edges = gr.canonical_form(g)
    assert len(z) == 4 and len(edges) == 5
    flat = [b for pair in edges for b in pair]
    assert min(flat) == 1 and max(flat) <= 5
