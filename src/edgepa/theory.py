"""Closed-form evaluators for degree, path, clique, and diameter predictions.

These are the quantities the Monte Carlo experiments overlay against
measurements: the one-step degree increment law, the exact expected-degree
product, first-moment bounds for isolated chains (lower) and vertex paths
(upper), the diameter and clique overlay of a record, and the diameter
constant of the pure tree.  Products and factorials are evaluated in log
space via ``lgamma`` so that large chain lengths neither overflow nor
underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .edgestep import EdgeStepFunction


def transition_probs(d, t, fnext):
    """One-step degree increment law for a vertex of degree ``d`` at time ``t``.

    With ``x = d / 2t`` and ``fnext`` the vertex-step probability of the
    next step, returns the probabilities of the increment being 0, 1, 2::

        p0 = fnext (1 - x) + (1 - fnext)(1 - x)^2
        p1 = fnext x + 2 (1 - fnext) x (1 - x)
        p2 = (1 - fnext) x^2

    Pure arithmetic throughout: passing ``fractions.Fraction`` inputs
    yields exact rationals whose sum is exactly 1.
    """
    if d < 1 or d > 2 * t:
        raise ValueError(f"degree must lie in [1, 2t], got d={d}, t={t}")
    if fnext < 0 or fnext > 1:
        raise ValueError(f"fnext must lie in [0, 1], got {fnext}")
    x = d / (2 * t)
    xc = 1 - x
    g = 1 - fnext
    gxc = g * xc
    return (xc * (fnext + gxc), x * (fnext + 2 * gxc), g * x * x)


def expected_degree(f: EdgeStepFunction, t0: int, t: int) -> float:
    """Expected degree at time ``t`` of a vertex born at time ``t0``.

    The exact product ``prod_{s=t0}^{t-1} (1 + 1/s - f(s+1)/(2s))``,
    evaluated as a sum of ``log1p`` terms.
    """
    if not 1 <= t0 < t:
        raise ValueError(f"need 1 <= t0 < t, got t0={t0}, t={t}")
    s = np.arange(t0, t, dtype=np.int64)
    fv = f.eval_array(s + 1)
    return float(np.exp(np.sum(np.log1p((2.0 - fv) / (2.0 * s)))))


def isolated_path_mean_lb(f: EdgeStepFunction, t: int, l: int, xi: float) -> float:
    """Lower bound on the expected number of size-``l`` isolated chains
    whose vertices were all born in ``[xi * t, t]``::

        C(floor((1 - xi) t), l) * f(t)^l / (2t)^(l-1) * (1 - 2l/(xi t))^t
    """
    if not 0.0 < xi < 1.0:
        raise ValueError(f"xi must lie in (0, 1), got {xi}")
    if l < 1:
        raise ValueError(f"need l >= 1, got {l}")
    if 2 * l >= xi * t:
        raise ValueError(f"need 2l < xi*t, got l={l}, xi*t={xi * t:g}")
    n = math.floor((1.0 - xi) * t)
    if n < l:
        return 0.0
    ft = f.eval(t)
    if ft == 0.0:
        return 0.0
    log_binom = math.lgamma(n + 1) - math.lgamma(l + 1) - math.lgamma(n - l + 1)
    log_val = (
        log_binom
        + l * math.log(ft)
        - (l - 1) * math.log(2.0 * t)
        + t * math.log1p(-2.0 * l / (xi * t))
    )
    return math.exp(log_val)


def vertex_path_prob_ub(f: EdgeStepFunction, s_vec: Sequence[int]) -> float:
    """Upper bound on the probability that ``s_vec`` forms a vertex path::

        f(s_1) * (s_k - 1)/(s_1 + 1) * prod_{m=2}^{k} f(s_m) / (2 (s_m - 1))
    """
    s = np.asarray(s_vec, dtype=np.int64)
    if s.size < 2:
        raise ValueError(f"need at least 2 times, got {s.size}")
    if np.any(np.diff(s) <= 0):
        raise ValueError("times must be strictly increasing")
    fv = f.eval_array(s)
    out = fv[0] * (s[-1] - 1) / (s[0] + 1)
    out *= np.prod(fv[1:] / (2.0 * (s[1:] - 1)))
    return float(out)


def t13(t: int) -> int:
    """The time index ``ceil(t^(1/13))``, never below 2: where the tail sum
    of :func:`diameter_theory` starts, and the birth-time cutoff ``t0`` of
    the vertex paths that records measure and C13 counts."""
    return max(2, math.ceil(t ** (1.0 / 13.0)))


def vertex_path_mean_ub(f: EdgeStepFunction, t0: int, t: int, k: int) -> float:
    """Upper bound on the expected number of length-``k`` vertex paths with
    all birth times in ``[t0, t]``::

        (sum_{j=t0}^{t} f(j)/(j-1))^(k-2) / (2^(k-1) (k-2)!)
            * sum_{t0 <= s1 < sk <= t} f(s1) f(sk) / (s1 + 1)

    The double sum runs in O(t) via prefix sums; everything is assembled
    in log space.
    """
    if k < 3:
        raise ValueError(f"need k >= 3, got {k}")
    if not 2 <= t0 < t:
        raise ValueError(f"need 2 <= t0 < t, got t0={t0}, t={t}")
    ladder = f.weighted_tail_sum(t0, t)
    js = np.arange(t0, t + 1, dtype=np.int64)
    fv = f.eval_array(js)
    # pair sum: for each s1, the later f-mass is total - cumsum(f)[s1]
    later_mass = float(np.sum(fv)) - np.cumsum(fv)
    pair_sum = float(np.sum(fv / (js + 1.0) * later_mass))
    if ladder <= 0.0 or pair_sum <= 0.0:
        return 0.0
    log_val = (
        (k - 2) * math.log(ladder)
        + math.log(pair_sum)
        - (k - 1) * math.log(2.0)
        - math.lgamma(k - 1)
    )
    return math.exp(log_val)


def _pittel_gamma() -> float:
    """Root of ``gamma * exp(1 + gamma) = 1`` by bisection on ``[0, 1]``.

    The left side increases from 0 to ``e^2``, so the root is unique.
    """
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(1.0 + mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


#: Constant of the pure-tree diameter scale, ``1 / gamma* ~ 3.5911``, where
#: ``gamma* ~ 0.278465`` solves ``gamma e^(1 + gamma) = 1``.  The height
#: ``H_t`` of the plane-oriented recursive tree (the ``f == 1`` graph, up to
#: the weight of the root) satisfies ``H_t / log t -> 1 / (2 gamma*)``
#: almost surely (Pittel 1994, Random Structures & Algorithms 5:337-347).
#: Every tree path climbs to a common ancestor and back down, so
#: ``H_t <= diameter <= 2 H_t`` and the diameter is at most
#: ``(1 / gamma*) log t`` to first order.
TREE_DIAMETER_CONSTANT = 1.0 / _pittel_gamma()


@dataclass(frozen=True)
class BoundSet:
    """The theory overlay of one schedule at one horizon.  Each field is a
    record column, in record order, and is ``None`` where its bound does not
    apply.  :func:`diameter_theory` rounds ``theory_diam_lower``,
    ``_upper_a``, ``_upper_b`` and ``theory_clique_upper`` to 6 decimals.

    ``expected_vertices`` is the prefix sum ``F(t)`` of ``f``.
    ``theory_diam_upper_a`` is ``log t``, the scale of the paper's general
    ``O(log t)`` upper bound; the paper leaves its constant unspecified, so
    this is an order, not a bound with constant 1 (for ``f == 1`` the
    constant is :data:`TREE_DIAMETER_CONSTANT`).  ``theory_diam_upper_b``
    needs the weighted tail sum below 1.  The ``theory_rv_*`` band and the
    clique exponent need a regular-variation index ``-gamma``.  The exponent
    ``(1 - gamma)/2`` is not a value at ``t``: the clique lower bound
    ``t^((1-gamma)(1-eps)/2)`` holds for each ``eps > 0`` only from some
    ``t0(eps)`` on, and ``t0`` is not explicit.  ``theory_clique_upper`` is
    the ceiling ``7 sqrt(t)``.
    """

    expected_vertices: Optional[float] = None
    theory_diam_lower: Optional[float] = None
    theory_diam_upper_a: Optional[float] = None
    theory_diam_upper_b: Optional[float] = None
    theory_rv_lower: Optional[float] = None
    theory_rv_upper: Optional[float] = None
    theory_clique_exponent: Optional[float] = None
    theory_clique_upper: Optional[float] = None


def diameter_theory(f: EdgeStepFunction, t: int) -> BoundSet:
    """The theory overlay of ``f`` at horizon ``t >= 1``.

    A tabulated ``f`` has none.  Below ``t = 16``, where ``log log t < 1``
    and ``log t / log log t`` would exceed ``log t``, only the expected
    vertex count applies.  From there the lower bound is
    ``(1/3) min(log t / log log t, log t / -log f(t))`` (the second branch
    is infinite when ``f(t) = 1``); upper bounds are the ``log t`` scale of
    the unconditional ``O(log t)`` bound (constant unspecified, see
    :class:`BoundSet`), the tail-sum regime
    ``2 + 6 min(log t / -log W, log t / log log t)`` with
    ``W = sum_{s=ceil(t^(1/13))}^{t} f(s)/(s-1)`` when ``W < 1``, and the
    clique ceiling ``7 sqrt(t)``.  A regularly varying ``f`` (``rv_power``,
    index ``-gamma``) adds the constant band ``[1/(4 gamma), 100/gamma + 2]``
    and, for ``gamma < 1``, the clique exponent ``(1 - gamma)/2``.
    """
    if f.family == "tabulated":
        return BoundSet()
    if t < 16:
        return BoundSet(expected_vertices=f.partial_sum(t))
    log_t = math.log(t)
    loglog_t = math.log(log_t)
    ft = f.eval(t)
    if ft >= 1.0:
        decay_branch = math.inf
    elif ft > 0.0:
        decay_branch = log_t / (-math.log(ft))
    else:
        decay_branch = 0.0
    lower = (min(log_t / loglog_t, decay_branch)) / 3.0

    tail = f.weighted_tail_sum(t13(t), t)
    upper_b = None
    if tail < 1.0:
        tail_branch = 0.0 if tail == 0.0 else log_t / (-math.log(tail))
        upper_b = round(2.0 + 6.0 * min(tail_branch, log_t / loglog_t), 6)

    rv_lower = rv_upper = clique_exponent = None
    if f.family == "rv_power":
        gamma = f.params["gamma"]
        rv_lower = 1.0 / (4.0 * gamma)
        rv_upper = 100.0 / gamma + 2.0
        if gamma < 1.0:
            clique_exponent = (1.0 - gamma) / 2.0

    return BoundSet(
        expected_vertices=f.partial_sum(t),
        theory_diam_lower=round(lower, 6),
        theory_diam_upper_a=round(log_t, 6),
        theory_diam_upper_b=upper_b,
        theory_rv_lower=rv_lower,
        theory_rv_upper=rv_upper,
        theory_clique_exponent=clique_exponent,
        theory_clique_upper=round(7.0 * math.sqrt(t), 6),
    )
