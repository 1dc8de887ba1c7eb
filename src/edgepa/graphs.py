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

``evolve`` builds the trajectory in one pass over blocks of
``edgestep.STEP_CHUNK`` steps.  Each block draws its coins and slots,
stores each slot as a link to the earlier slot it copies (or as a
terminal holding a new vertex id), and resolves those links while the
block is in cache: a gather from the resolved prefix, then pointer
doubling over the few links inside the block.  The result is
draw-for-draw identical to the sequential definition
(``_evolve_sequential``, kept as the reference implementation), and the
scratch is a few blocks, whatever ``t``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import edgestep as _es
from . import rng as _rng
from .edgestep import EdgeStepFunction

@dataclass
class MultiGraph:
    """Growth history of one run: the endpoints and step types the
    generator draws.

    Vertex ids are birth-order indices starting at 1; ``birth_time[i]`` is
    the step at which vertex ``i + 1`` appeared (the root has birth time 1)
    and ``parent[i]`` is the target of its first connection (0 for the
    root).  Both are derived from the stored arrays when first read, in
    the endpoints' integer type, ``_id_dtype(t)`` for generated graphs:
    int32 while ``2t < 2**31``, else int64.  Instances are treated as
    immutable once built.
    """

    endpoints: np.ndarray
    step_type: np.ndarray
    family: str = ""
    seed: Optional[int] = None

    @property
    def t(self) -> int:
        return len(self.step_type)

    @cached_property
    def n_vertices(self) -> int:
        return int(np.count_nonzero(self.step_type))

    @cached_property
    def birth_time(self) -> np.ndarray:
        return self._derive_births_and_parents()[0]

    @cached_property
    def parent(self) -> np.ndarray:
        return self._derive_births_and_parents()[1]

    def _derive_births_and_parents(self) -> tuple[np.ndarray, np.ndarray]:
        """Birth times and parents, cached together: each vertex-step ``s``
        gives the next id birth time ``s`` and the parent in its slot
        ``2s - 2``.  The vertex-steps are found ``STEP_CHUNK`` steps at a
        time, so no index array spans the run."""
        birth_time = np.empty(self.n_vertices, dtype=self.endpoints.dtype)
        parent = np.empty(self.n_vertices, dtype=self.endpoints.dtype)
        birth_time[0], parent[0] = 1, 0
        for first, new, steps in self._vertex_step_slots(0):
            born = slice(new[0] - 1, new[-1])
            birth_time[born] = steps
            parent[born] = first
        self.__dict__.update(birth_time=birth_time, parent=parent)
        return birth_time, parent

    def _vertex_step_slots(self, slot: int):
        """For each block of ``STEP_CHUNK`` steps from step 2 on that holds a
        vertex-step: the ids in slot ``2s - 2 + slot`` of its vertex-steps
        ``s``, the new ids those steps create, and the steps ``s``."""
        z, ends, chunk = self.step_type[1:], self.endpoints[2 + slot :: 2], _es.STEP_CHUNK
        newest = 1
        for lo in range(0, len(z), chunk):
            at = np.flatnonzero(z[lo : lo + chunk])
            if len(at):
                got = ends[lo : lo + chunk].take(at)
                yield got, np.arange(newest + 1, newest + 1 + len(at)), at + (lo + 2)
                newest += len(at)

    def degrees(self) -> np.ndarray:
        """Degree of every vertex (loops count twice), indexed by id - 1, as
        int64.  Added in place with ``np.add.at``, which reads the ids in
        their own type; ``np.bincount`` would first copy them to int64."""
        out = np.zeros(self.n_vertices + 1, dtype=np.int64)
        np.add.at(out, self.endpoints, 1)
        return out[1:]

    def prefix(self, t: int) -> MultiGraph:
        """The same trajectory at time ``t <= self.t``: views of this graph's
        first ``t`` steps and ``2t`` endpoints."""
        if t == self.t:
            return self
        if not 1 <= t < self.t:
            raise ValueError(f"prefix time must lie in [1, {self.t}], got {t}")
        return MultiGraph(
            endpoints=self.endpoints[: 2 * t],
            step_type=self.step_type[:t],
            family=self.family,
            seed=self.seed,
        )

    def validate(self) -> None:
        """Raise ValueError if the stored arrays are mutually inconsistent.

        The checks run one after another, each over all of its arrays, so
        of two faults the earlier check's is reported.  Each reads its
        arrays by a reduction or ``STEP_CHUNK`` steps at a time, so the
        scratch is a few blocks, whatever ``t``.  The derived births and
        parents are neither read nor cached.
        """
        if len(self.endpoints) != 2 * self.t:
            raise ValueError("endpoint array must have length 2t")
        if self.t >= 1 and not bool(self.step_type[0]):
            raise ValueError("step 1 must be the seed vertex")
        if self.endpoints.min() < 1 or self.endpoints.max() > self.n_vertices:
            raise ValueError("endpoint ids out of range")
        # slot 2s - 2 of each vertex-step s >= 2 holds its parent, slot
        # 2s - 1 the new id
        if any(np.any(first >= new) for first, new, _ in self._vertex_step_slots(0)):
            raise ValueError("parents must be strictly older vertices")
        if any(np.any(second != new) for second, new, _ in self._vertex_step_slots(1)):
            raise ValueError("vertex-step slots must hold the new vertex id")


# -- full-trajectory generation -------------------------------------------


def keep_where(x: np.ndarray, mask: np.ndarray, y: np.ndarray) -> None:
    """``x[~mask] = y[~mask]`` in place, for integer ``x`` and ``y`` and a
    boolean ``mask``.

    Computed as ``x = (x - y) * mask + y``, because masked writes are slow
    on random masks: for 1e7 int32 entries and a half-true mask these
    three plain passes take 21 ms, ``np.copyto(x, y, where=~mask)`` 96 ms
    and a boolean-mask assignment 176 ms (2 shared CPUs, numpy 2.4.6).
    Integer wraparound in the difference cancels in the sum.
    """
    x -= y
    x *= mask
    x += y


def _id_dtype(t: int):
    """Integer type of the slot and vertex ids of a horizon-``t`` run."""
    return np.int32 if 2 * t < 2**31 else np.int64


def _slots(gen: np.random.Generator, lo: int, k: int, dtype) -> np.ndarray:
    """Two slots for each step ``s = lo + 2 .. lo + k + 1``, each uniform over
    the ``2(s - 1)`` filled ones, as a ``(k, 2)`` array of ``dtype``.

    They are the next ``2k`` values of ``gen.random``, so consecutive calls
    continue one stream, each scaled by ``2(s - 1)``, truncated, and
    clamped to ``2(s - 1) - 1`` (truncation commutes with that clamp).
    The passes run over flat arrays: broadcasting a per-step width over
    the two columns took 60 % longer at t = 1e7 (2 shared CPUs, numpy
    2.4.6).
    """
    x = gen.random(2 * k)
    width = np.arange(2 * lo + 2, 2 * (lo + k) + 2, dtype=dtype)
    width &= ~1  # 2(s - 1), once for each of the step's two slots
    x *= width
    slots = x.astype(dtype)
    width -= 1
    np.minimum(slots, width, out=slots)
    return slots.reshape(k, 2)


class _BlockResolver:
    """The kernel of :func:`resolve_backward_links`, for blocks of up to
    ``width`` entries, with its scratch allocated once.

    ``resolve(out, lo, p, w)`` writes the path sums of entries
    ``lo .. lo + len(p) - 1`` into ``out``, from their links ``p`` (indices
    into ``out``) and weights ``w``.  ``out[:lo]`` must already hold its
    sums, and the block of ``out`` zeros.  One gather then reads the sum
    at a link into the prefix and 0 at every other entry, and ``w`` is
    added.  Only the block's in-block links (``lo <= p[i] < lo + i``,
    about 1 % of the generator's links) are left; they are numbered from
    1, with 0 standing for every root, and pointer doubling over arrays as
    long as their count sums the weights each jump passes over.  A forward
    link raises ``ValueError``: every cycle has one, and the doubling
    would follow a cycle forever, or, on one whose length is a power of
    two, settle on a wrong root.
    """

    def __init__(self, width: int, dtype, w_dtype):
        self.own = np.arange(width, dtype=dtype)  # a block entry's own local index
        self.pos = np.zeros(width, dtype=dtype)  # an in-block link's number, while its block runs
        self.rel = np.empty(width, dtype=dtype)
        self.mask = np.empty(width, dtype=bool)
        self.got = np.empty(width, dtype=w_dtype)

    def resolve(self, out: np.ndarray, lo: int, p: np.ndarray, w) -> None:
        n = len(p)
        own, r, m, got = self.own[:n], self.rel[:n], self.mask[:n], self.got[:n]
        np.subtract(p, lo, out=r)
        if np.greater(r, own, out=m).any():
            i = int(np.argmax(m))
            raise ValueError(f"link at {lo + i} points forward, to {p[i]}")
        # 0 <= r < own at an in-block link; read unsigned, a link into the
        # prefix (r < 0) is larger than every own index
        unsigned = np.dtype(f"u{r.itemsize}")
        inner = np.flatnonzero(np.less(r.view(unsigned), own.view(unsigned), out=m))
        # every index lies in [0, lo + n), and mode="wrap" spares take the
        # copy of ``got`` that mode="raise" makes
        out.take(p, out=got, mode="wrap")
        block = out[lo : lo + n]
        np.add(got, w, out=block)  # final but at the in-block links
        k = len(inner)
        if not k:
            return
        tgt = r.take(inner)
        self.pos[inner] = np.arange(1, k + 1, dtype=r.dtype)
        jump = np.zeros(k + 1, dtype=r.dtype)  # the number of each link's target, 0 at a root
        jump[1:] = self.pos[tgt]
        self.pos[inner] = 0
        total = np.zeros(k + 1, dtype=block.dtype)
        total[1:] = block[inner]  # the weights, as the gather read 0 there
        block[inner] = 0
        total[1:] += block[tgt]  # a root's final sum, else 0
        # each round, every link adds its target's total and jumps to its
        # target's target
        while jump.any():
            total += total.take(jump)
            jump = jump.take(jump)
        block[inner] = total[1:]


def resolve_backward_links(ptr: np.ndarray, w) -> np.ndarray:
    """Path sums over backward links: ``out[i] = w[i]`` at a terminal
    (``ptr[i] == i``) and ``out[i] = w[i] + out[ptr[i]]`` at a link
    (``ptr[i] < i``), in ``w``'s type.  A scalar ``w`` is broadcast over
    ``ptr``: weights of one give the vertices on each entry's path to its
    root (1 + the depth, for parent links), and weights that are zero at
    every link copy each root's weight down its links.

    The array is resolved in index order, ``edgestep.STEP_CHUNK`` entries
    at a time, by the kernel ``_BlockResolver.resolve`` (a gather from the
    resolved prefix, then pointer doubling over the few links inside the
    block); the generators call that kernel on each block as they draw
    it.  A forward link, and so every cycle, raises ``ValueError``.
    """
    w = np.broadcast_to(w, ptr.shape)
    out = np.zeros(len(ptr), dtype=w.dtype)
    chunk = _es.STEP_CHUNK
    kernel = _BlockResolver(min(len(ptr), chunk), ptr.dtype, w.dtype)
    for lo in range(0, len(ptr), chunk):
        kernel.resolve(out, lo, ptr[lo : lo + chunk], w[lo : lo + chunk])
    return out


def evolve(f: EdgeStepFunction, t: int, seed: int) -> MultiGraph:
    """Generate the graph at horizon ``t``; deterministic given ``(f, t, seed)``.

    One pass over blocks of ``STEP_CHUNK`` steps: each block draws its
    coins and slots (the next values of the two streams, so the draws are
    those that ``_evolve_sequential`` reads whole), stores each slot as a
    link to the earlier slot it copies or as a terminal holding a new
    vertex id, and resolves its ``2 * STEP_CHUNK`` slots, ``STEP_CHUNK``
    at a time, while they are in cache.  The newest vertex id carries from
    block to block.
    """
    if t < 1:
        raise ValueError(f"horizon must be >= 1, got {t}")
    coins = _rng.stream(seed, _rng.COINS)
    draws = _rng.stream(seed, _rng.SLOTS)
    dtype = _id_dtype(t)
    step_type = np.ones(t, dtype=bool)
    endpoints = np.zeros(2 * t, dtype=dtype)  # zeros, as the kernel reads them
    endpoints[:2] = 1
    chunk = _es.STEP_CHUNK
    kernel = _BlockResolver(min(chunk, 2 * t), dtype, dtype)
    newest = 1  # the newest vertex id
    for lo, fs in f.eval_chunks(2, t):
        k, at = len(fs), 2 * lo + 2  # steps in the block, its first slot
        z = step_type[lo + 1 : lo + 1 + k]
        np.less(coins.random(k), fs, out=z)
        link = _slots(draws, lo, k, dtype)
        # a vertex-step's second slot is a terminal holding the new id
        keep_where(link[:, 1], ~z, np.arange(at + 1, at + 2 * k, 2, dtype=dtype))
        val = np.zeros_like(link)
        born = val[:, 1]
        np.cumsum(z, dtype=dtype, out=born)
        born += newest
        newest = int(born[-1])
        born *= z  # the new vertex's id at a vertex-step, else 0
        link, val = link.reshape(-1), val.reshape(-1)
        for a in range(0, 2 * k, chunk):
            kernel.resolve(endpoints, at + a, link[a : a + chunk], val[a : a + chunk])
    return MultiGraph(endpoints=endpoints, step_type=step_type, family=f.name, seed=seed)


def _evolve_sequential(f: EdgeStepFunction, t: int, seed: int) -> MultiGraph:
    """Reference generator: the sequential definition, one step at a time,
    over the documented stream layout read whole.

    Step ``s = 2..t`` takes entry ``s - 2`` of one ``COINS`` call
    ``random(t - 1)`` as its coin (a vertex-step when below ``f(s)``), and
    row ``s - 2`` of one ``SLOTS`` call ``random((t - 1, 2))`` as its two
    slots, each scaled by ``2(s - 1)``, truncated and clamped to
    ``2(s - 1) - 1``.  It shares no draw code with ``evolve``, whose blocks
    must give the same graph.
    """
    s = np.arange(2, t + 1)
    z = _rng.stream(seed, _rng.COINS).random(t - 1) < f.eval_array(s)
    width = 2 * (s[:, None] - 1)
    x = _rng.stream(seed, _rng.SLOTS).random((t - 1, 2)) * width
    slot_a, slot_b = np.minimum(x.astype(np.int64), width - 1).T
    e = np.ones(2 * t, dtype=_id_dtype(t))
    ends, vid = memoryview(e), 1  # Python ints in and out: no numpy scalar is made
    for i, coin, a, b in zip(range(2, 2 * t, 2), memoryview(z), memoryview(slot_a), memoryview(slot_b)):
        ends[i] = ends[a]
        if coin:
            vid += 1
            ends[i + 1] = vid
        else:
            ends[i + 1] = ends[b]
    return MultiGraph(endpoints=e, step_type=np.concatenate([[True], z]), family=f.name, seed=seed)


@dataclass
class BatchRun:
    """Endpoint matrices of many replicates generated together.

    Replicate ``r``'s full trajectory is column ``r`` of the slot-major
    matrices ``evolve_batch`` builds, read as row ``r`` of their transposed
    views: ``endpoints.T`` and ``z.T`` are C-contiguous, and the endpoints
    keep the working type ``np.min_scalar_type(t)``.  With ``reps=1`` the
    draws coincide exactly with ``evolve`` under the same seed.  Each step
    draws its coins and slots for all replicates at once, and replicate
    ``r`` takes column ``r`` of them, so the replicates are independent
    and the whole batch is reproducible from the seed.
    """

    endpoints: np.ndarray  # (reps, 2t) np.min_scalar_type(t)
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
        """Replicate ``r`` as a graph with contiguous ``_id_dtype(t)`` ids of its own."""
        return MultiGraph(
            endpoints=self.endpoints[r].astype(_id_dtype(self.t)),
            step_type=np.concatenate([[True], self.z[r]]),
            family=family,
            seed=self.seed,
        )


def evolve_batch(
    f: EdgeStepFunction,
    t: int,
    reps: int,
    seed: int,
    force_coin: Optional[dict[int, bool]] = None,
) -> BatchRun:
    """Generate ``reps`` independent trajectories, one step for all of them at a time.

    Endpoints are built slot-major, in the narrowest type that holds ``t``
    (ids never exceed it), and handed back as transposed views, uncopied.
    Coins and slot uniforms are drawn ``max(1, STEP_CHUNK // reps)`` steps
    at a time into buffers made once (the same stream values as per-step
    calls), and the chunk's flat positions ``slot * reps + col`` are
    computed in one pass.  A row past the last slot holds each replicate's
    newest id, one add per step; a vertex-step's second position points
    there, so each step is one gather of both slots and one two-row write.
    ``force_coin`` pins the coin of selected steps (e.g. ``{10: True}``
    conditions every replicate on a vertex birth at time 10); the
    remaining coins keep their own draws, so forcing equals conditioning.
    """
    if t < 1 or reps < 1:
        raise ValueError("need t >= 1 and reps >= 1")
    gen_c = _rng.stream(seed, _rng.COINS)
    gen_s = _rng.stream(seed, _rng.SLOTS)
    fs = f.eval_array(np.arange(2, t + 1, dtype=np.int64))
    ends = np.zeros((2 * t + 1, reps), dtype=np.min_scalar_type(t))
    ends[:2] = 1
    top_id = ends[2 * t]  # each replicate's newest id
    top_id[:] = 1
    flat = ends.reshape(-1)
    z = np.zeros((t - 1, reps), dtype=bool)
    cols = np.arange(reps)
    steps = max(1, _es.STEP_CHUNK // reps)
    coins = np.empty((steps, reps))
    raw = np.empty((steps, reps, 2))
    at = np.empty((steps, 2, reps), dtype=np.intp)  # flat positions of both slots
    got = np.empty((2, reps), dtype=ends.dtype)
    for lo in range(0, t - 1, steps):
        k = min(steps, t - 1 - lo)
        zc = z[lo : lo + k]
        np.less(gen_c.random(out=coins[:k]), fs[lo : lo + k, None], out=zc)
        for s, coin in (force_coin or {}).items():
            if lo + 2 <= s < lo + 2 + k:
                zc[s - lo - 2] = coin
        # step s draws over the 2(s - 1) filled rows
        width = np.arange(2 * lo + 2, 2 * (lo + k) + 2, 2)[:, None, None]
        x = gen_s.random(out=raw[:k])
        x *= width
        # clamp, then truncate on assignment: the slots of _slots, which
        # truncates, then clamps
        np.minimum(x, width - 1, out=x)
        ak = at[:k]
        ak[...] = x.transpose(0, 2, 1)
        keep_where(ak[:, 1], ~zc, 2 * t)  # a vertex-step reads the newest id
        ak *= reps
        ak += cols
        for i in range(k):
            top_id += zc[i]
            # every position lies in the filled rows or the newest-id row,
            # and mode="wrap" spares take the copy of ``got`` that
            # mode="raise" makes
            flat.take(ak[i], out=got, mode="wrap")
            ends[2 * (lo + i + 1) : 2 * (lo + i + 2)] = got
    return BatchRun(endpoints=ends[: 2 * t].T, z=z.T, seed=seed)


# -- canonical form ---------------------------------------------------------


def canonical_key(g: MultiGraph) -> bytes:
    """Hashable identity of a run: its step types and the multiset of its
    edges as sorted (older, younger) birth-time pairs, packed into bytes.

    Vertices are named by birth time, so two graphs are equal as labeled
    multigraphs exactly when their keys are equal; no isomorphism search
    is ever needed.
    """
    ends = g.birth_time[g.endpoints - 1].reshape(-1, 2)
    packed = np.minimum(ends[:, 0], ends[:, 1], dtype=np.int64)
    packed *= g.t + 2
    packed += np.maximum(ends[:, 0], ends[:, 1])
    packed.sort()
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


def load_graph(fh) -> MultiGraph:
    """Read a dump back; the round trip is bit-exact, ids of ``_id_dtype(t)``."""
    header = fh.readline().split()
    if len(header) != 4:
        raise ValueError("graph dump header must be 't V seed family'")
    t, n = int(header[0]), int(header[1])
    if t < 1:
        raise ValueError(f"graph dump header: t must be >= 1, got {t}")
    seed = None if header[2] == "-" else int(header[2])
    family = "" if header[3] == "-" else header[3]

    # the edge lines are read before anything sized by the header's t
    ends, coins = array("q"), array("b")
    for line_no, line in enumerate(fh, start=2):
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(f"graph dump line {line_no}: expected 's u v z'")
        try:
            s, u, v, z = (int(x) for x in parts)
            ends.extend((u, v))
        except (ValueError, OverflowError):
            raise ValueError(f"graph dump line {line_no}: 's u v z' must be 64-bit integers") from None
        if s != line_no - 1:
            raise ValueError(f"graph dump line {line_no}: out-of-order edge time {s}")
        coins.append(z != 0)
    claim = f"(the header claims {t} edges)"
    if len(coins) < t:
        raise ValueError(f"graph dump line {len(coins) + 2}: expected 's u v z' {claim}")
    if len(coins) > t:
        raise ValueError(f"graph dump line {t + 2}: expected the end {claim}")
    endpoints = np.frombuffer(ends, dtype=np.int64)  # the parsed ids, uncopied
    step_type = np.array(coins, dtype=bool)

    if not step_type[0]:
        raise ValueError("graph dump line 2: step 1 must be the seed vertex")
    g = MultiGraph(endpoints=endpoints, step_type=step_type, family=family, seed=seed)
    if g.n_vertices != n:
        raise ValueError(f"graph dump header claims {n} vertices, lines imply {g.n_vertices}")
    g.validate()  # on the int64 ids, so an out-of-range id is reported, never wrapped
    return MultiGraph(endpoints=endpoints.astype(_id_dtype(t)), step_type=step_type, family=family, seed=seed)
