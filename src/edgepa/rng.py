"""Keyed random streams.

Every stochastic routine in this package draws from a stream of the
numpy bit generator named by ``BIT_GENERATOR`` (PCG64DXSM), keyed by
``(seed, *labels)`` through :func:`stream`.  The key is hashed by
``np.random.SeedSequence`` into the generator's state, so a stream is
fully determined by its key, and streams keyed by distinct labels or
seeds are independent: replicates can be generated in any order or in
parallel, and rerunning with the same key reproduces the draws bit for
bit.

Within one stream, arrays are drawn in a fixed documented order (see the
callers), so an array element at position ``(step, draw)`` always takes
the same place in its keyed stream.  Changing ``BIT_GENERATOR`` changes
every draw; ``ExperimentSpec.spec_hash`` folds its name in for that
reason.
"""

from __future__ import annotations

import numpy as np

# The bit generator behind every stream, by name: :func:`stream` looks it
# up in ``np.random``, which numpy imports lazily, so ``import edgepa``
# does not pay for that import.
BIT_GENERATOR = "PCG64DXSM"

# Stream labels; each consumer owns one label so draw layouts never collide.
COINS = 0
SLOTS = 1
TREE_SLOTS = 2
TREE_ULABELS = 3


def stream(seed: int, *labels: int) -> np.random.Generator:
    """Return the ``BIT_GENERATOR`` stream keyed by ``(seed, *labels)``."""
    ss = np.random.SeedSequence((int(seed),) + tuple(int(x) for x in labels))
    return np.random.Generator(getattr(np.random, BIT_GENERATOR)(ss))


def child_seed(seed: int, index: int) -> int:
    """Derive the replicate seed for replicate ``index`` of a run seeded by ``seed``."""
    ss = np.random.SeedSequence((int(seed), int(index)))
    return int(ss.generate_state(1, np.uint64)[0])
