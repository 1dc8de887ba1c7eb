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
        birth_time=np.arange(1, n + 1, dtype=np.int64),
        parent=np.concatenate([[0], np.arange(1, n)]).astype(np.int64),
    )


def forced_star(n: int) -> MultiGraph:
    """History where every vertex attaches to the root."""
    e = [1, 1]
    for s in range(2, n + 1):
        e += [1, s]
    return MultiGraph(
        endpoints=np.array(e, dtype=np.int64),
        step_type=np.ones(n, dtype=bool),
        birth_time=np.arange(1, n + 1, dtype=np.int64),
        parent=np.concatenate([[0], np.ones(n - 1, dtype=np.int64)]),
    )


def assert_same_graph(a: MultiGraph, b: MultiGraph) -> None:
    """Equal arrays, horizon, vertex count, family and seed."""
    for name in ("endpoints", "step_type", "birth_time", "parent"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert (a.t, a.n_vertices, a.family, a.seed) == (b.t, b.n_vertices, b.family, b.seed)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
