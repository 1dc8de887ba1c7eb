"""Closed-form evaluators for degree, path, clique, and diameter predictions.

These are the quantities the Monte Carlo experiments overlay against
measurements: the one-step degree increment law, the exact expected-degree
product, first-moment bounds for isolated chains (lower) and vertex paths
(upper), the diameter/clique bound set, and the diameter constant of the
pure tree.  Products and factorials are evaluated in log space via
``lgamma`` so that large chain lengths neither overflow nor underflow.
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
    p0 = fnext * xc + (1 - fnext) * xc * xc
    p1 = fnext * x + 2 * (1 - fnext) * x * xc
    p2 = (1 - fnext) * x * x
    return (p0, p1, p2)


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
    js = np.arange(t0, t + 1, dtype=np.int64)
    fv = f.eval_array(js)
    ladder = float(np.sum(fv / (js - 1.0)))
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


def clique_theory(t: int, gamma: float) -> tuple[float, float]:
    """Clique-number predictions ``((1-gamma)/2, 7 sqrt(t))`` for regularly
    varying schedules with index ``-gamma``, ``gamma`` in ``[0, 1)``.

    The first entry is an exponent, not a value at ``t``: the lower bound
    ``t^((1-gamma)(1-eps)/2)`` holds for each ``eps > 0`` only from some
    ``t0(eps)`` on, and ``t0`` is not explicit, so it is asymptotic.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must lie in [0, 1), got {gamma}")
    return ((1.0 - gamma) / 2.0, 7.0 * math.sqrt(t))


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
    """Diameter and clique predictions at one horizon, with applicability flags.

    ``diameter_upper_a`` is ``log t``, the scale of the paper's general
    ``O(log t)`` upper bound; the paper leaves its constant unspecified, so
    this is an order, not a bound with constant 1 (for ``f == 1`` the
    constant is :data:`TREE_DIAMETER_CONSTANT`).  It always applies;
    ``_b`` needs the weighted tail sum below 1, and the constant ``rv_*``
    band and the asymptotic clique exponent (see :func:`clique_theory`)
    need a regular-variation index.  Inapplicable entries are ``None`` and
    flagged, never raised.
    """

    t: int
    diameter_lower: float
    diameter_upper_a: float
    diameter_upper_b: Optional[float]
    rv_diameter_lower: Optional[float]
    rv_diameter_upper: Optional[float]
    clique_exponent: Optional[float]
    clique_upper: float
    flags: dict


def diameter_theory(
    f: EdgeStepFunction,
    t: int,
    gamma: Optional[float] = None,
) -> BoundSet:
    """Evaluate every applicable diameter/clique bound for ``f`` at horizon ``t``.

    The lower bound is ``(1/3) min(log t / log log t, log t / -log f(t))``
    (the second branch is infinite when ``f(t) = 1``); upper bounds are
    the ``log t`` scale of the unconditional ``O(log t)`` bound (constant
    unspecified, see :class:`BoundSet`), the tail-sum regime
    ``2 + 6 min(log t / -log W, log t / log log t)`` with
    ``W = sum_{s=ceil(t^(1/13))}^{t} f(s)/(s-1)`` when ``W < 1``.
    A supplied ``gamma`` adds the constant band ``[1/(4 gamma),
    100/gamma + 2]`` and, below 1, the clique exponent.
    """
    if t < 16:
        raise ValueError(f"need t >= 16, got {t}")
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

    flags = {"upper_b": False, "rv": False, "clique": False}

    t13 = max(2, math.ceil(t ** (1.0 / 13.0)))
    tail = f.weighted_tail_sum(t13, t)
    upper_b = None
    if tail < 1.0:
        tail_branch = 0.0 if tail == 0.0 else log_t / (-math.log(tail))
        upper_b = 2.0 + 6.0 * min(tail_branch, log_t / loglog_t)
        flags["upper_b"] = True

    rv_lower = rv_upper = clique_exponent = None
    if gamma is not None:
        if gamma <= 0:
            raise ValueError(f"gamma must be > 0 for the constant band, got {gamma}")
        rv_lower = 1.0 / (4.0 * gamma)
        rv_upper = 100.0 / gamma + 2.0
        flags["rv"] = True
        if gamma < 1.0:
            clique_exponent = clique_theory(t, gamma)[0]
            flags["clique"] = True

    return BoundSet(
        t=t,
        diameter_lower=lower,
        diameter_upper_a=log_t,
        diameter_upper_b=upper_b,
        rv_diameter_lower=rv_lower,
        rv_diameter_upper=rv_upper,
        clique_exponent=clique_exponent,
        clique_upper=7.0 * math.sqrt(t),
        flags=flags,
    )
