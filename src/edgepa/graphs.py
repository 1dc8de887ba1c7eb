"""Time-indexed preferential-attachment multigraphs and their generator.

A graph at time ``t`` has exactly ``t`` edges stored in an endpoint array
of length ``2t`` (edge ``s`` occupies slots ``2s-2`` and ``2s-1``; loops
repeat the same id).  The array doubles as the sampling structure: a
vertex drawn with probability proportional to its degree is a uniform
draw over the filled slots, which keeps every step exact and O(1).

The process starts from a single vertex carrying a loop.  At step ``s``
a coin with success probability ``f(s)`` decides between a vertex-step
(new vertex attached to a degree-proportional target) and an edge-step
(one new edge between two independently degree-proportional endpoints,
both drawn on the pre-step graph; loops and parallel edges allowed).

``evolve`` builds the whole trajectory with a vectorized slot-link
resolution that is draw-for-draw identical to the sequential definition
(see ``_evolve_sequential``, kept as the reference implementation).
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import rng as _rng
from .edgestep import EdgeStepFunction

VERTEX = "vertex"
EDGE = "edge"


@dataclass
class MultiGraph:
    """Growth history of one run: endpoints, step types, births, parents.

    Vertex ids are birth-order indices starting at 1; ``birth_time[i]`` is
    the step at which vertex ``i + 1`` appeared (the root has birth time 1)
    and ``parent[i]`` is the target of its first connection (0 for the
    root).  Instances are treated as immutable once built.
    """

    endpoints: np.ndarray
    step_type: np.ndarray
    birth_time: np.ndarray
    parent: np.ndarray
    family: str = ""
    seed: Optional[int] = None

    @property
    def t(self) -> int:
        return len(self.step_type)

    @property
    def n_vertices(self) -> int:
        return len(self.birth_time)

    def degrees(self) -> np.ndarray:
        """Degree of every vertex (loops count twice), indexed by id - 1."""
        return np.bincount(self.endpoints, minlength=self.n_vertices + 1)[1:]

    def prefix(self, t: int) -> MultiGraph:
        """The same trajectory at time ``t <= self.t``: the first ``t`` edges
        and the vertices born by then, as views of this graph's arrays."""
        if t == self.t:
            return self
        if not 1 <= t < self.t:
            raise ValueError(f"prefix time must lie in [1, {self.t}], got {t}")
        n = int(np.searchsorted(self.birth_time, t, side="right"))
        return MultiGraph(
            endpoints=self.endpoints[: 2 * t],
            step_type=self.step_type[:t],
            birth_time=self.birth_time[:n],
            parent=self.parent[:n],
            family=self.family,
            seed=self.seed,
        )

    def validate(self) -> None:
        """Raise ValueError if the stored arrays are mutually inconsistent."""
        t, n = self.t, self.n_vertices
        if len(self.endpoints) != 2 * t:
            raise ValueError("endpoint array must have length 2t")
        if t >= 1 and not bool(self.step_type[0]):
            raise ValueError("step 1 must be the seed vertex")
        if n != 1 + int(np.count_nonzero(self.step_type[1:])):
            raise ValueError("vertex count does not match the step types")
        if self.endpoints.min() < 1 or self.endpoints.max() > n:
            raise ValueError("endpoint ids out of range")
        if self.birth_time[0] != 1 or np.any(np.diff(self.birth_time) <= 0):
            raise ValueError("birth times must start at 1 and strictly increase")
        if self.parent[0] != 0:
            raise ValueError("the root has no parent")
        ids = np.arange(1, n + 1)
        if n > 1 and (np.any(self.parent[1:] < 1) or np.any(self.parent[1:] >= ids[1:])):
            raise ValueError("parents must be strictly older vertices")
        born = np.flatnonzero(self.step_type) + 1
        if np.any(self.endpoints[2 * born[1:] - 1] != ids[1:]):
            raise ValueError("vertex-step slots must hold the new vertex id")


def new_initial() -> MultiGraph:
    """The starting graph: one vertex, one loop, time 1."""
    return MultiGraph(
        endpoints=np.array([1, 1], dtype=np.int64),
        step_type=np.array([True]),
        birth_time=np.array([1], dtype=np.int64),
        parent=np.array([0], dtype=np.int64),
    )


def sample_preferential(g: MultiGraph, gen: np.random.Generator) -> int:
    """Draw a vertex with probability degree/2t via a uniform endpoint slot."""
    return int(g.endpoints[gen.integers(0, len(g.endpoints))])


def evolve_step(g: MultiGraph, coin: str, gen: np.random.Generator) -> MultiGraph:
    """Apply one vertex- or edge-step to ``g`` and return the grown graph.

    Both edge-step endpoints are drawn on the pre-step graph, so each sees
    the same degree normalization.
    """
    if coin == VERTEX:
        u = sample_preferential(g, gen)
        vid = g.n_vertices + 1
        return MultiGraph(
            endpoints=np.append(g.endpoints, [u, vid]),
            step_type=np.append(g.step_type, True),
            birth_time=np.append(g.birth_time, g.t + 1),
            parent=np.append(g.parent, u),
            family=g.family,
            seed=g.seed,
        )
    if coin == EDGE:
        u1 = sample_preferential(g, gen)
        u2 = sample_preferential(g, gen)
        return MultiGraph(
            endpoints=np.append(g.endpoints, [u1, u2]),
            step_type=np.append(g.step_type, False),
            birth_time=g.birth_time,
            parent=g.parent,
            family=g.family,
            seed=g.seed,
        )
    raise ValueError(f"coin must be {VERTEX!r} or {EDGE!r}, got {coin!r}")


# -- full-trajectory generation -------------------------------------------

# Steps per chunk of slot draws, and entries per block of the link
# resolver (int32 ids: 256 KB per local array, so a block stays in cache).
_DRAW_CHUNK = 1 << 20
_RESOLVE_BLOCK = 1 << 16


def _id_dtype(t: int):
    """Integer type of the slot and vertex ids of a horizon-``t`` run."""
    return np.int32 if 2 * t < 2**31 else np.int64


def _draw_slots(gen: np.random.Generator, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Two slots per step ``s = 2..t``, each uniform over the ``2(s-1)`` filled ones.

    The values of one ``gen.random((t - 1, 2))`` call, drawn in chunks of
    steps (Philox is sequential) so no float temporary spans the run.
    """
    a = np.empty(t - 1, dtype=_id_dtype(t))
    b = np.empty_like(a)
    for lo in range(0, t - 1, _DRAW_CHUNK):
        raw = gen.random((min(_DRAW_CHUNK, t - 1 - lo), 2))
        width = 2.0 * np.arange(lo + 1, lo + 1 + len(raw))
        for col, out in ((0, a), (1, b)):
            x = raw[:, col] * width
            # clamp, then truncate on assignment: floor commutes with min(., width - 1)
            np.minimum(x, width - 1, out=x)
            out[lo : lo + len(raw)] = x
    return a, b


def _presample(f: EdgeStepFunction, t: int, seed: int):
    """Coins and slot indices for steps 2..t, in the documented stream layout."""
    s = np.arange(2, t + 1, dtype=np.int64)
    z = _rng.stream(seed, _rng.COINS).random(t - 1) < f.eval_array(s)
    return (z, *_draw_slots(_rng.stream(seed, _rng.SLOTS), t))


def resolve_backward_links(ptr: np.ndarray, val: np.ndarray) -> np.ndarray:
    """``out[i] = val[root(i)]`` for links with ``ptr[i] <= i``; ``ptr[i] == i``
    marks a terminal.

    Blocks of ``_RESOLVE_BLOCK`` entries are resolved in index order.  A
    block's links into the resolved prefix take one gather; its in-block
    links are resolved by pointer doubling on a local array that stays in
    cache.  Gathers use ``take``, which indexes with int32 ids without
    first converting them.
    """
    out = np.empty(len(ptr), dtype=val.dtype)
    for lo in range(0, len(ptr), _RESOLVE_BLOCK):
        hi = min(lo + _RESOLVE_BLOCK, len(ptr))
        p = ptr[lo:hi]
        out[lo:hi] = val[lo:hi]
        got = out.take(p)  # final for terminals and for links into the prefix
        link = np.where(p >= lo, p - lo, np.arange(hi - lo, dtype=p.dtype)) if lo else p
        while True:
            nxt = link.take(link)
            if (nxt == link).all():
                break
            link = nxt
        out[lo:hi] = got.take(link)
    return out


def _finish(seed, family, z, endpoints) -> MultiGraph:
    born = np.flatnonzero(z) + 2
    return MultiGraph(
        endpoints=endpoints,
        step_type=np.concatenate([[True], z]),
        birth_time=np.concatenate([[1], born]),
        parent=np.concatenate([[0], endpoints[2 * born - 2]]),
        family=family,
        seed=seed,
    )


def evolve(f: EdgeStepFunction, t: int, seed: int) -> MultiGraph:
    """Generate the graph at horizon ``t``; deterministic given ``(f, t, seed)``.

    Each slot is stored as a link to the earlier slot it copies (or as a
    terminal holding a new vertex id) and the links are resolved block by
    block by :func:`resolve_backward_links`, so the whole trajectory costs
    a few vectorized passes instead of ``t`` Python-level steps.
    """
    if t < 1:
        raise ValueError(f"horizon must be >= 1, got {t}")
    z, slot_a, slot_b = _presample(f, t, seed)
    ptr = np.arange(2 * t, dtype=slot_a.dtype)
    ptr[2::2] = slot_a
    np.copyto(ptr[3::2], slot_b, where=~z)
    val = np.zeros(2 * t, dtype=np.int64)  # the endpoint type, so no copy follows
    val[:2] = 1
    val[3::2] = np.where(z, 1 + np.cumsum(z), 0)
    return _finish(seed, f.name, z, resolve_backward_links(ptr, val))


def _evolve_sequential(f: EdgeStepFunction, t: int, seed: int) -> MultiGraph:
    """Reference generator: same presampled draws, naive per-step resolution."""
    z, slot_a, slot_b = _presample(f, t, seed)
    e = np.zeros(2 * t, dtype=np.int64)
    e[0] = e[1] = 1
    vid = 1
    for i in range(t - 1):
        lo = 2 * (i + 1)
        if z[i]:
            vid += 1
            e[lo] = e[slot_a[i]]
            e[lo + 1] = vid
        else:
            e[lo] = e[slot_a[i]]
            e[lo + 1] = e[slot_b[i]]
    return _finish(seed, f.name, z, e)


@dataclass
class BatchRun:
    """Endpoint matrices of many replicates generated together.

    Row ``r`` is one full trajectory; with ``reps=1`` the draws coincide
    exactly with ``evolve`` under the same seed.  Replicates occupy
    disjoint counter blocks of the keyed streams, so they are mutually
    independent and the whole batch is reproducible from the seed.
    """

    endpoints: np.ndarray  # (reps, 2t) int
    z: np.ndarray          # (reps, t-1) bool, steps 2..t
    seed: int

    @property
    def reps(self) -> int:
        return self.endpoints.shape[0]

    @property
    def t(self) -> int:
        return self.endpoints.shape[1] // 2

    def n_vertices(self) -> np.ndarray:
        return 1 + self.z.sum(axis=1)

    def extract(self, r: int, family: str = "") -> MultiGraph:
        return _finish(self.seed, family, self.z[r], self.endpoints[r].astype(np.int64))


def evolve_batch(
    f: EdgeStepFunction,
    t: int,
    reps: int,
    seed: int,
    force_coin: Optional[dict[int, bool]] = None,
) -> BatchRun:
    """Generate ``reps`` independent trajectories, one step for all of them at a time.

    Endpoints are built slot-major, so each step writes two contiguous
    rows, and transposed once at the end.  ``force_coin`` pins the coin
    of selected steps (e.g. ``{10: True}`` conditions every replicate on
    a vertex birth at time 10); the remaining coins keep their own draws,
    so forcing equals conditioning.
    """
    if t < 1 or reps < 1:
        raise ValueError("need t >= 1 and reps >= 1")
    gen_c = _rng.stream(seed, _rng.COINS)
    gen_s = _rng.stream(seed, _rng.SLOTS)
    dtype = _id_dtype(t)
    fs = f.eval_array(np.arange(2, t + 1, dtype=np.int64))
    ends = np.zeros((2 * t, reps), dtype=dtype)
    ends[:2] = 1
    flat = ends.reshape(-1)
    z = np.zeros((t - 1, reps), dtype=bool)
    cols = np.arange(reps)
    top_id = np.ones(reps, dtype=dtype)
    for s in range(2, t + 1):
        width = 2 * (s - 1)
        zs = z[s - 2]
        np.less(gen_c.random(reps), fs[s - 2], out=zs)
        if force_coin and s in force_coin:
            zs[:] = force_coin[s]
        slots = np.minimum((gen_s.random((reps, 2)) * width).astype(np.int64), width - 1)
        at = slots * reps + cols[:, None]  # flat positions of the drawn slots
        top_id += zs
        ends[width] = flat[at[:, 0]]
        ends[width + 1] = np.where(zs, top_id, flat[at[:, 1]])
    return BatchRun(endpoints=_transposed(ends), z=_transposed(z), seed=seed)


def _transposed(a: np.ndarray) -> np.ndarray:
    """``a.T`` as a C-contiguous array, copied in 256 x 256 tiles that stay in cache."""
    out = np.empty(a.shape[::-1], dtype=a.dtype)
    for i in range(0, a.shape[0], 256):
        for j in range(0, a.shape[1], 256):
            out[j : j + 256, i : i + 256] = a[i : i + 256, j : j + 256].T
    return out


# -- canonical forms --------------------------------------------------------


def edge_birth_pairs(g: MultiGraph) -> np.ndarray:
    """Edges as sorted (older, younger) birth-time pairs, one row per edge."""
    bt = g.birth_time[g.endpoints - 1].reshape(-1, 2)
    return np.sort(bt, axis=1)


def canonical_form(g: MultiGraph) -> tuple:
    """Hashable identity of a run: step types plus the birth-time edge multiset.

    Vertices are named by birth time, so two graphs are equal as labeled
    multigraphs exactly when their canonical forms are equal; no
    isomorphism search is ever needed.
    """
    pairs = edge_birth_pairs(g)
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    z = tuple(bool(b) for b in g.step_type[1:])
    edges = tuple((int(a), int(b)) for a, b in pairs[order])
    return (z, edges)


def canonical_key(g: MultiGraph) -> bytes:
    """Compact bytes equivalent of :func:`canonical_form` for bulk comparisons."""
    pairs = edge_birth_pairs(g).astype(np.int64)
    packed = np.sort(pairs[:, 0] * (g.t + 2) + pairs[:, 1])
    return g.t.to_bytes(8, "little") + np.ascontiguousarray(g.step_type).tobytes() + packed.tobytes()


# -- text dumps --------------------------------------------------------------


def dump_graph(g: MultiGraph, fh) -> None:
    """Write the dump format: header ``t V seed family``, then ``s u v z`` per edge."""
    seed = "-" if g.seed is None else str(g.seed)
    family = g.family if g.family else "-"
    fh.write(f"{g.t} {g.n_vertices} {seed} {family}\n")
    for s in range(1, g.t + 1):
        u, v = g.endpoints[2 * s - 2], g.endpoints[2 * s - 1]
        fh.write(f"{s} {u} {v} {int(g.step_type[s - 1])}\n")


def dumps_graph(g: MultiGraph) -> str:
    buf = io.StringIO()
    dump_graph(g, buf)
    return buf.getvalue()


def load_graph(fh) -> MultiGraph:
    """Read a dump back; the round trip is bit-exact."""
    header = fh.readline().split()
    if len(header) != 4:
        raise ValueError("graph dump header must be 't V seed family'")
    t, n = int(header[0]), int(header[1])
    seed = None if header[2] == "-" else int(header[2])
    family = "" if header[3] == "-" else header[3]

    endpoints = np.zeros(2 * t, dtype=np.int64)
    step_type = np.zeros(t, dtype=bool)
    for i in range(t):
        parts = fh.readline().split()
        if len(parts) != 4:
            raise ValueError(f"graph dump line {i + 2}: expected 's u v z'")
        s, u, v, z = (int(x) for x in parts)
        if s != i + 1:
            raise ValueError(f"graph dump line {i + 2}: out-of-order edge time {s}")
        endpoints[2 * i] = u
        endpoints[2 * i + 1] = v
        step_type[i] = bool(z)

    if t and not step_type[0]:
        raise ValueError("graph dump line 2: step 1 must be the seed vertex")
    g = _finish(seed, family, step_type[1:], endpoints)
    if g.n_vertices != n:
        raise ValueError(f"graph dump header claims {n} vertices, lines imply {g.n_vertices}")
    g.validate()
    return g
