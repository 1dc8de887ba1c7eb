"""Edge-step functions: the probability schedule that drives graph growth.

An edge-step function maps a time index ``t >= 2`` to the probability
``f(t)`` that step ``t`` creates a new vertex (a vertex-step) instead of a
new edge between existing vertices (an edge-step).  The built-in families
cover the regimes studied by the experiments:

* ``constant(p)``   -- fixed vertex rate ``p``; ``ba()`` is the ``p = 1`` tree case
* ``rv_power(g)``   -- ``min(1, c * t**-g)``, regularly varying with index ``-g``
* ``log_class(a)``  -- ``min(1, 1 / log(t)**a)``, slowly varying
* ``exp_class(a)``  -- ``exp(-log(t)**a)`` with ``a`` in (0, 1), slowly varying
* ``oscillating(b)``-- alternates 1/0 plateaus on a squared tower ``b, b**2, b**4, ...``
* ``tabulated(v)``  -- explicit values for ``t = 2 .. len(v) + 1``

Instances are immutable and safe to share across workers; the prefix sum
``F(t) = 1 + sum_{s=2..t} f(s)`` is summed afresh on every call, so its
value depends only on ``t``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_TOWER_LIMIT = 1 << 62
# Steps per chunk of f's values (:meth:`EdgeStepFunction.eval_chunks`) and
# of ``graphs``' draws and vertex-step selection, so their temporaries,
# about 3 MB, grow with neither t nor reps (``evolve_batch`` divides it).
STEP_CHUNK = 1 << 16


class EdgeStepFunction:
    """A validated edge-step function.

    Use the module-level constructors (:func:`constant`, :func:`rv_power`,
    ...) or :func:`make_family` rather than instantiating directly.
    """

    def __init__(self, family: str, params: dict, name: str):
        self.family = family
        self.params = dict(params)
        self.name = name
        if family == "oscillating":
            b = params["base"]
            bounds = [b]
            while bounds[-1] * bounds[-1] <= _TOWER_LIMIT:
                bounds.append(bounds[-1] * bounds[-1])
            self._bounds = np.array(bounds, dtype=np.int64)

    def __repr__(self) -> str:
        return f"EdgeStepFunction({self.name})"

    def _key(self):
        if self.family == "tabulated":
            return ("tabulated", self.params["values"].tobytes())
        return (self.family, tuple(sorted(self.params.items())))

    def __eq__(self, other) -> bool:
        return isinstance(other, EdgeStepFunction) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    # -- evaluation ------------------------------------------------------

    def eval(self, t: int) -> float:
        """Value of the function at a single time index ``t >= 2``."""
        return float(self.eval_array(np.array([t], dtype=np.int64))[0])

    def eval_array(self, ts: np.ndarray) -> np.ndarray:
        """Vectorized evaluation; values are clamped into [0, 1]."""
        ts = np.asarray(ts, dtype=np.int64)
        if ts.size and ts.min() < 2:
            raise ValueError(f"edge-step functions are defined for t >= 2, got t={ts.min()}")
        return np.clip(self._raw(ts), 0.0, 1.0)

    def eval_chunks(self, a: int, b: int):
        """``f(s)`` for ``s = a..b`` in pieces of ``STEP_CHUNK`` values, each
        as ``(lo, values)`` with ``values[i] = f(a + lo + i)``, so that no
        float or int64 temporary spans the range."""
        for lo in range(0, b - a + 1, STEP_CHUNK):
            yield lo, self.eval_array(np.arange(a + lo, min(a + lo + STEP_CHUNK, b + 1), dtype=np.int64))

    def _raw(self, ts: np.ndarray) -> np.ndarray:
        fam, p = self.family, self.params
        if fam == "constant":
            return np.full(ts.shape, p["p"])
        if fam == "ba":
            return np.ones(ts.shape)
        if fam == "rv_power":
            return p["scale"] * np.asarray(ts, dtype=float) ** (-p["gamma"])
        if fam == "log_class":
            return np.log(ts) ** (-p["alpha"])
        if fam == "exp_class":
            return np.exp(-(np.log(ts) ** p["alpha"]))
        if fam == "oscillating":
            # One-plateaus are closed [.., bound], zero-plateaus are open.
            below = np.searchsorted(self._bounds, ts, side="left")
            on_bound = (below < len(self._bounds)) & (self._bounds[np.minimum(below, len(self._bounds) - 1)] == ts)
            return np.where((below % 2 == 0) | on_bound, 1.0, 0.0)
        if fam == "tabulated":
            values = p["values"]
            if ts.size and ts.max() - 2 >= len(values):
                raise ValueError(
                    f"tabulated function covers t in [2, {len(values) + 1}], got t={ts.max()}"
                )
            return values[ts - 2]
        raise AssertionError(f"unknown family {fam!r}")

    # -- sums ------------------------------------------------------------

    def partial_sum(self, t: int) -> float:
        """Prefix sum ``F(t) = 1 + sum_{s=2..t} f(s)``; ``F(1) = 1``."""
        if t < 1:
            raise ValueError(f"partial_sum needs t >= 1, got {t}")
        if self.family == "constant":
            return 1.0 + (t - 1) * self.params["p"]
        if self.family == "ba":
            return float(t)
        # each chunk's first value carries the sum so far: one running cumsum
        total = 0.0
        for _, fs in self.eval_chunks(2, t):
            fs[0] += total
            total = np.cumsum(fs)[-1]
        return float(1.0 + total)

    def weighted_tail_sum(self, a: int, b: int) -> float:
        """``sum_{s=a..b} f(s) / (s - 1)`` for ``2 <= a <= b``."""
        if a < 2:
            raise ValueError(f"weighted_tail_sum needs a >= 2, got a={a}")
        if a > b:
            raise ValueError(f"weighted_tail_sum needs a <= b, got a={a}, b={b}")
        total = 0.0
        for lo, fs in self.eval_chunks(a, b):
            total += np.sum(fs / np.arange(a + lo - 1, a + lo - 1 + len(fs)))
        return float(total)


# -- constructors ---------------------------------------------------------


def constant(p: float) -> EdgeStepFunction:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return EdgeStepFunction("constant", {"p": float(p)}, f"const:{p:g}")


def ba() -> EdgeStepFunction:
    """The all-vertex-steps schedule ``f == 1`` (pure preferential tree)."""
    return EdgeStepFunction("ba", {}, "ba")


def rv_power(gamma: float, scale: float = 1.0) -> EdgeStepFunction:
    if gamma <= 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    if scale <= 0:
        raise ValueError(f"scale must be > 0, got {scale}")
    name = f"rv:{gamma:g}" if scale == 1.0 else f"rv:{gamma:g},scale={scale:g}"
    return EdgeStepFunction("rv_power", {"gamma": float(gamma), "scale": float(scale)}, name)


def log_class(alpha: float) -> EdgeStepFunction:
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    return EdgeStepFunction("log_class", {"alpha": float(alpha)}, f"log:{alpha:g}")


def exp_class(alpha: float) -> EdgeStepFunction:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return EdgeStepFunction("exp_class", {"alpha": float(alpha)}, f"exp_class:{alpha:g}")


def oscillating(base: int) -> EdgeStepFunction:
    if int(base) != base or base <= 1:
        raise ValueError(f"base must be an integer > 1, got {base}")
    return EdgeStepFunction("oscillating", {"base": int(base)}, f"osc:base={int(base)}")


def tabulated(values: Sequence[float]) -> EdgeStepFunction:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("values must be a non-empty 1-d sequence")
    if np.any((arr < 0) | (arr > 1)):
        raise ValueError("values must all lie in [0, 1]")
    return EdgeStepFunction("tabulated", {"values": arr}, f"tab[{arr.size}]")


_ALIASES = {
    "const": "constant",
    "constant": "constant",
    "ba": "ba",
    "rv": "rv_power",
    "rv_power": "rv_power",
    "rvpower": "rv_power",
    "log": "log_class",
    "log_class": "log_class",
    "exp": "exp_class",
    "exp_class": "exp_class",
    "osc": "oscillating",
    "oscillating": "oscillating",
    "tab": "tabulated",
    "tabulated": "tabulated",
}


def make_family(descriptor: str) -> EdgeStepFunction:
    """Parse a family descriptor string like ``const:0.3`` or ``osc:base=10``.

    The same syntax is accepted by the CLI ``--family`` flag and by config
    files.  Parameters may be positional (``rv:0.5,2``) or named
    (``rv:gamma=0.5,scale=2``).
    """
    head, _, rest = descriptor.strip().partition(":")
    fam = _ALIASES.get(head.strip().lower())
    if fam is None:
        raise ValueError(f"unknown family {head!r} in descriptor {descriptor!r}")

    positional: list[str] = []
    named: dict[str, str] = {}
    if rest.strip():
        for piece in rest.split(","):
            key, eq, val = piece.partition("=")
            if eq:
                named[key.strip().lower()] = val.strip()
            else:
                positional.append(piece.strip())

    def grab(key: str, pos: int, default=None):
        if key in named:
            return named.pop(key)
        if pos < len(positional):
            return positional[pos]
        if default is not None:
            return default
        raise ValueError(f"family {head!r} requires parameter {key!r} ({descriptor!r})")

    try:
        if fam == "constant":
            out = constant(float(grab("p", 0)))
        elif fam == "ba":
            out = ba()
        elif fam == "rv_power":
            out = rv_power(float(grab("gamma", 0)), float(grab("scale", 1, "1")))
        elif fam == "log_class":
            out = log_class(float(grab("alpha", 0)))
        elif fam == "exp_class":
            out = exp_class(float(grab("alpha", 0)))
        elif fam == "oscillating":
            out = oscillating(int(grab("base", 0)))
        else:  # tabulated
            if not positional:
                raise ValueError(f"tabulated family requires values ({descriptor!r})")
            out = tabulated([float(x) for x in positional])
            positional = []
    except ValueError as exc:
        raise ValueError(f"bad descriptor {descriptor!r}: {exc}") from None
    if named:
        raise ValueError(f"unknown parameters {sorted(named)} in descriptor {descriptor!r}")
    return out

