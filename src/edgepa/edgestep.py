"""Edge-step functions: the probability schedule that drives graph growth.

An edge-step function maps a time index ``t >= 2`` to the probability
``f(t)`` that step ``t`` creates a new vertex (a vertex-step) instead of a
new edge between existing vertices (an edge-step).  The families cover the
regimes studied by the experiments: ``const:p`` (``ba`` is ``p = 1``),
regularly varying ``rv:gamma,scale=c``, slowly varying ``log:alpha`` and
``exp_class:alpha``, ``osc:base=b`` with 1/0 plateaus on a squared tower,
and explicit values ``tab:v1,v2,...`` for ``t = 2 .. len(v) + 1``.

Each family is one row of ``_FAMILIES``: its descriptor heads, its
parameters in positional order with their domains and defaults, and its
formula.  :func:`make_family` parses every descriptor by that table, and
every function is named by a canonical descriptor: ``make_family(f.name)
== f``, and functions compare by name.  Instances hold only the family,
the parameters and the name, so they pickle and are safe to share across
workers; ``F(t) = 1 + sum_{s=2..t} f(s)`` is summed afresh on every call.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

_TOWER_LIMIT = 1 << 62
# Steps per chunk of f's values (:meth:`EdgeStepFunction.eval_chunks`) and
# of ``graphs``' draws and vertex-step selection, so their temporaries,
# about 3 MB, grow with neither t nor reps (``evolve_batch`` divides it).
STEP_CHUNK = 1 << 16


class EdgeStepFunction:
    """An edge-step function of one of the ``_FAMILIES``, with its
    ``params`` validated and its canonical ``name``."""

    def __init__(self, family: str, params: dict):
        row = _FAMILIES.get(family)
        if row is None:
            raise ValueError(f"unknown family {family!r}")
        unknown = set(params) - {p.name for p in row.params}
        if unknown:
            raise ValueError(f"unknown parameters {sorted(unknown)} for family {family!r}")
        self.family, self.params, parts = family, {}, []
        for p in row.params:
            raw = params.get(p.name, p.default)
            if raw is None:
                raise ValueError(f"family {family!r} requires parameter {p.name!r}")
            value = np.array(raw, dtype=float, ndmin=1) if p.kind is list else float(raw)
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{p.name} must be finite, got {raw}")
            if not p.test(value):
                raise ValueError(f"{p.name} must {p.rule}, got {raw}")
            self.params[p.name] = value = int(value) if p.kind is int else value
            text = ",".join(map(_text, np.atleast_1d(value).tolist()))
            if not p.named:
                parts.append(text)
            elif value != p.default:
                parts.append(f"{p.name}={text}")
        self.name = f"{row.heads[0]}:{','.join(parts)}" if parts else row.heads[0]

    def __repr__(self) -> str:
        return f"EdgeStepFunction({self.name})"

    def __eq__(self, other) -> bool:
        return isinstance(other, EdgeStepFunction) and self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)

    # -- evaluation ------------------------------------------------------

    def eval(self, t: int) -> float:
        """Value of the function at a single time index ``t >= 2``."""
        return float(self.eval_array(np.array([t], dtype=np.int64))[0])

    def eval_array(self, ts: np.ndarray) -> np.ndarray:
        """Vectorized evaluation; values are clamped into [0, 1]."""
        ts = np.asarray(ts, dtype=np.int64)
        if ts.size and ts.min() < 2:
            raise ValueError(f"edge-step functions are defined for t >= 2, got t={ts.min()}")
        return np.clip(_FAMILIES[self.family].formula(ts, **self.params), 0.0, 1.0)

    def eval_chunks(self, a: int, b: int):
        """``f(s)`` for ``s = a..b`` in pieces of ``STEP_CHUNK`` values, each
        as ``(lo, values)`` with ``values[i] = f(a + lo + i)``, so that no
        float or int64 temporary spans the range."""
        for lo in range(0, b - a + 1, STEP_CHUNK):
            yield lo, self.eval_array(np.arange(a + lo, min(a + lo + STEP_CHUNK, b + 1), dtype=np.int64))

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


def _text(v: float) -> str:
    """A float as ``:g`` writes it where that text is exact, else (and an
    int) as its shortest exact text."""
    short = f"{v:g}"
    return short if isinstance(v, float) and float(short) == v else repr(v)


# -- the families ---------------------------------------------------------


class _Param(NamedTuple):
    """A parameter, required where ``default`` is None; its value passes
    ``test``, which ``rule`` states, and is a ``kind`` (a ``list`` one takes
    every positional value from its place on, as one float array).  A
    function's name writes a ``named`` one ``name=value``, left out at its
    default."""

    name: str
    rule: str
    test: Callable
    default: float | None = None
    named: bool = False
    kind: type = float


class _Family(NamedTuple):
    heads: tuple  # descriptor heads; the first one starts the family's names
    params: tuple  # _Param rows, in positional order
    formula: Callable  # f(ts, **params) on int64 ``ts``, before the clamp into [0, 1]


def _oscillating(ts, base):
    # One-plateaus are closed [.., bound], zero-plateaus are open.
    bounds = [base]
    while bounds[-1] * bounds[-1] <= _TOWER_LIMIT:
        bounds.append(bounds[-1] * bounds[-1])
    bounds = np.array(bounds, dtype=np.int64)
    below = np.searchsorted(bounds, ts, side="left")
    on_bound = (below < len(bounds)) & (bounds[np.minimum(below, len(bounds) - 1)] == ts)
    return np.where((below % 2 == 0) | on_bound, 1.0, 0.0)


def _tabulated(ts, values):
    if ts.size and ts.max() - 2 >= len(values):
        raise ValueError(f"tabulated function covers t in [2, {len(values) + 1}], got t={ts.max()}")
    return values[ts - 2]


def _positive(name, default=None, named=False):
    return _Param(name, "be > 0", lambda v: v > 0, default, named)


_FAMILIES = {
    "constant": _Family(("const", "constant"), (_Param("p", "lie in [0, 1]", lambda v: 0 <= v <= 1),),
                        lambda ts, p: np.full(ts.shape, p)),
    "ba": _Family(("ba",), (), lambda ts: np.ones(ts.shape)),
    "rv_power": _Family(("rv", "rv_power", "rvpower"),
                        (_positive("gamma"), _positive("scale", 1.0, named=True)),
                        lambda ts, gamma, scale: scale * np.asarray(ts, dtype=float) ** (-gamma)),
    "log_class": _Family(("log", "log_class"), (_positive("alpha"),), lambda ts, alpha: np.log(ts) ** (-alpha)),
    "exp_class": _Family(("exp_class", "exp"), (_Param("alpha", "lie in (0, 1)", lambda v: 0 < v < 1),),
                         lambda ts, alpha: np.exp(-(np.log(ts) ** alpha))),
    "oscillating": _Family(
        ("osc", "oscillating"),
        (_Param("base", "be an integer > 1", lambda v: v == int(v) and v > 1, named=True, kind=int),),
        _oscillating,
    ),
    "tabulated": _Family(("tab", "tabulated"),
                         (_Param("values", "be a non-empty 1-d sequence in [0, 1]", kind=list,
                                 test=lambda v: v.ndim == 1 and v.size > 0 and ((v >= 0) & (v <= 1)).all()),),
                         _tabulated),
}


def make_family(descriptor: str) -> EdgeStepFunction:
    """Parse a descriptor such as ``const:0.3``, ``rv:0.5,2`` or
    ``rv:gamma=0.5,scale=2`` (as ``--family`` and config files take it):
    the head names a row of ``_FAMILIES``, and the i-th positional value is
    its i-th parameter.  A surplus value, a parameter given twice, an
    unknown or missing one, or a bad value raises ``ValueError``."""
    head, _, rest = descriptor.strip().partition(":")
    family = next((fam for fam, row in _FAMILIES.items() if head.strip().lower() in row.heads), None)
    if family is None:
        raise ValueError(f"unknown family {head!r} in descriptor {descriptor!r}")
    params = _FAMILIES[family].params
    try:
        pieces = [piece.partition("=") for piece in rest.split(",")] if rest.strip() else []
        positional = [key.strip() for key, eq, _ in pieces if not eq]
        named = [(key.strip().lower(), val.strip()) for key, eq, val in pieces if eq]
        last = len(params) - 1
        if params and params[last].kind is list and len(positional) > last:
            positional[last:] = [positional[last:]]
        if len(positional) > len(params):
            raise ValueError(f"surplus value {positional[len(params)]!r}")
        given = dict(zip((p.name for p in params), positional))
        for key, val in named:
            if key in given:
                raise ValueError(f"parameter {key!r} given twice")
            given[key] = val
        return EdgeStepFunction(family, given)
    except ValueError as exc:
        raise ValueError(f"bad descriptor {descriptor!r}: {exc}") from None
