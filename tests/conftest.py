import numpy as np
import pytest

from edgepa.graphs import MultiGraph


def forced_path(n: int) -> MultiGraph:
    """History where every vertex attaches to its predecessor (a line)."""
    e = [1, 1]
    for s in range(2, n + 1):
        e += [s - 1, s]
    return MultiGraph(
        endpoints=np.array(e, dtype=np.int64),
        step_type=np.ones(n, dtype=bool),
    )


def forced_star(n: int) -> MultiGraph:
    """History where every vertex attaches to the root."""
    e = [1, 1]
    for s in range(2, n + 1):
        e += [1, s]
    return MultiGraph(
        endpoints=np.array(e, dtype=np.int64),
        step_type=np.ones(n, dtype=bool),
    )


def assert_same_graph(a: MultiGraph, b: MultiGraph) -> None:
    """Equal arrays, horizon, vertex count, family and seed."""
    for name in ("endpoints", "step_type", "birth_time", "parent"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert (a.t, a.n_vertices, a.family, a.seed) == (b.t, b.n_vertices, b.family, b.seed)


def assert_equal_arrays(got, want, dtype=None, note="") -> None:
    """``got`` has ``want``'s shape and values, and ``dtype`` if one is given.

    A mismatch reports its first index only: pytest's diff of two long
    lists runs for minutes under ``-v``."""
    got, want = np.asarray(got), np.asarray(want)
    if dtype is not None:
        assert got.dtype == dtype, f"dtype {got.dtype}, not {np.dtype(dtype)} {note}"
    assert got.shape == want.shape, f"shape {got.shape}, not {want.shape} {note}"
    if not np.array_equal(got, want):
        at = tuple(int(i) for i in np.argwhere(got != want)[0])
        raise AssertionError(f"first mismatch at {at}: {got[at]} != {want[at]} {note}")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
