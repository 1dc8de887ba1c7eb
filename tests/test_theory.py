import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgepa import edgestep as es
from edgepa import theory as th


def test_transition_probs_examples():
    assert th.transition_probs(2, 4, 0.5) == (0.65625, 0.3125, 0.03125)
    # saturated degree: a vertex-step must hit, an edge-step hits twice
    assert th.transition_probs(8, 4, 0.25) == (0.0, 0.25, 0.75)
    p0, p1, p2 = th.transition_probs(3, 5, 1.0)
    assert (p0, p1, p2) == (1 - 0.3, 0.3, 0.0)


def test_transition_probs_rejects_bad_degree():
    with pytest.raises(ValueError):
        th.transition_probs(9, 4, 0.5)
    with pytest.raises(ValueError):
        th.transition_probs(0, 4, 0.5)
    with pytest.raises(ValueError):
        th.transition_probs(2, 4, 1.5)


@given(
    t=st.integers(1, 500),
    dfrac=st.floats(0.0, 1.0),
    fnum=st.integers(0, 20),
)
@settings(max_examples=200, deadline=None)
def test_transition_probs_unit_mass_exact(t, dfrac, fnum):
    d = max(1, min(2 * t, int(round(dfrac * 2 * t))))
    probs = th.transition_probs(Fraction(d), t, Fraction(fnum, 20))
    assert sum(probs) == 1
    assert all(p >= 0 for p in probs)


@given(
    t=st.integers(1, 500),
    dfrac=st.floats(0.0, 1.0),
    fnum=st.integers(0, 20),
)
@settings(max_examples=200, deadline=None)
def test_transition_mean_identity_exact(t, dfrac, fnum):
    # p1 + 2 p2 collapses to (1 - f/2) d / t, the one-step mean increment
    d = max(1, min(2 * t, int(round(dfrac * 2 * t))))
    f = Fraction(fnum, 20)
    _, p1, p2 = th.transition_probs(Fraction(d), t, f)
    assert p1 + 2 * p2 == (1 - f / 2) * Fraction(d, t)


def test_expected_degree_hand_values():
    assert th.expected_degree(es.make_family("const:0.5"), 10, 11) == pytest.approx(1 + 1 / 10 - 0.5 / 20)
    assert th.expected_degree(es.make_family("ba"), 2, 4) == pytest.approx(35 / 24)
    with pytest.raises(ValueError):
        th.expected_degree(es.make_family("ba"), 5, 5)


def test_expected_degree_monotone():
    f, h = es.make_family("const:0.3"), es.make_family("const:0.7")
    # growing horizon grows the expectation; pointwise-larger schedules shrink it
    prev = 0.0
    for t in (20, 40, 80, 160):
        cur = th.expected_degree(f, 10, t)
        assert cur > prev
        prev = cur
        assert th.expected_degree(f, 10, t) >= th.expected_degree(h, 10, t)


def test_expected_degree_log_space_matches_direct():
    f = es.make_family("const:0.5")
    s = np.arange(10, 2000)
    direct = float(np.prod(1.0 + 1.0 / s - f.eval_array(s + 1) / (2.0 * s)))
    assert th.expected_degree(f, 10, 2000) == pytest.approx(direct, rel=1e-9)


def test_isolated_path_mean_lb_values():
    assert th.isolated_path_mean_lb(es.make_family("const:0"), 100, 1, 0.5) == 0.0
    got = th.isolated_path_mean_lb(es.make_family("const:1"), 100, 1, 0.5)
    assert got == pytest.approx(50 * 0.96**100, rel=1e-9)
    with pytest.raises(ValueError):
        th.isolated_path_mean_lb(es.make_family("const:0.5"), 100, 26, 0.5)
    with pytest.raises(ValueError):
        th.isolated_path_mean_lb(es.make_family("const:0.5"), 100, 1, 1.5)


def test_isolated_path_mean_lb_log_space_matches_direct():
    f, t, l, xi = es.make_family("const:0.5"), 400, 3, 0.5
    n = math.floor((1 - xi) * t)
    direct = math.comb(n, l) * f.eval(t) ** l / (2 * t) ** (l - 1) * (1 - 2 * l / (xi * t)) ** t
    assert th.isolated_path_mean_lb(f, t, l, xi) == pytest.approx(direct, rel=1e-9)


def test_t13_hand_values():
    # ceil(t^(1/13)), never below 2: 1000^(1/13) = 1.70, 1e4^(1/13) = 2.03, 1e7^(1/13) = 3.46
    assert [th.t13(t) for t in (1, 16, 1000, 10**4, 10**7)] == [2, 2, 2, 3, 4]


def test_vertex_path_mean_ub_hand_value():
    got = th.vertex_path_mean_ub(es.make_family("ba"), 2, 4, 3)
    assert got == pytest.approx((1 / 4) * (11 / 6) * (11 / 12), rel=1e-12)
    assert th.vertex_path_mean_ub(es.make_family("const:0"), 2, 100, 4) == 0.0
    with pytest.raises(ValueError):
        th.vertex_path_mean_ub(es.make_family("ba"), 2, 4, 2)


def test_vertex_path_mean_ub_brute_pair_sum():
    f, t0, t, k = es.make_family("const:0.3"), 3, 40, 4
    ladder = sum(f.eval(j) / (j - 1) for j in range(t0, t + 1))
    pair = sum(
        f.eval(s1) * f.eval(sk) / (s1 + 1)
        for s1 in range(t0, t + 1)
        for sk in range(s1 + 1, t + 1)
    )
    want = ladder ** (k - 2) * pair / (2 ** (k - 1) * math.factorial(k - 2))
    assert th.vertex_path_mean_ub(f, t0, t, k) == pytest.approx(want, rel=1e-9)


def test_tree_diameter_constant():
    g = 1 / th.TREE_DIAMETER_CONSTANT
    assert abs(g * math.exp(1 + g) - 1) < 1e-12
    assert th.TREE_DIAMETER_CONSTANT == pytest.approx(3.5911, abs=1e-4)
    # twice Pittel's height constant 1/(2 gamma*) ~ 1.7956
    assert th.TREE_DIAMETER_CONSTANT > 2 * 1.79


def test_diameter_theory_tree_case():
    bs = th.diameter_theory(es.make_family("ba"), 10**5)
    assert bs.theory_diam_lower == pytest.approx(math.log(1e5) / math.log(math.log(1e5)) / 3)
    assert bs.theory_diam_upper_a == pytest.approx(math.log(1e5))
    assert bs.theory_diam_upper_b is None  # tail sum diverges past 1
    assert bs.theory_clique_exponent is None


def test_diameter_theory_rv_band():
    bs = th.diameter_theory(es.make_family("rv:0.5"), 10**4)
    assert (bs.theory_rv_lower, bs.theory_rv_upper) == (0.5, 202.0)
    # the weighted tail sum still exceeds 1 at this horizon for gamma = 0.5
    assert bs.theory_diam_upper_b is None
    assert bs.theory_clique_upper == 7.0 * math.sqrt(10**4)
    assert bs.theory_clique_exponent == 0.25


def test_clique_theory():
    # the exponent (1 - gamma)/2 needs an index below 1; the ceiling 7 sqrt(t)
    # applies to every family
    assert th.diameter_theory(es.make_family("rv:0.1"), 10**4).theory_clique_exponent == pytest.approx(0.45)
    assert th.diameter_theory(es.make_family("rv:1"), 10**4).theory_clique_exponent is None
    for f in map(es.make_family, ("rv:0.5", "ba", "const:0.5")):
        assert th.diameter_theory(f, 10**6).theory_clique_upper == 7000.0
        assert th.diameter_theory(f, 10**3).theory_clique_upper == round(7.0 * math.sqrt(10**3), 6)


def test_diameter_theory_tail_regime_applies_for_fast_decay():
    bs = th.diameter_theory(es.make_family("rv:3"), 10**4)
    assert bs.theory_diam_upper_b is not None
    assert bs.theory_clique_exponent is None  # the clique band needs an index below 1
    tail = es.make_family("rv:3").weighted_tail_sum(3, 10**4)
    want = 2 + 6 * min(
        math.log(10**4) / -math.log(tail),
        math.log(10**4) / math.log(math.log(10**4)),
    )
    assert bs.theory_diam_upper_b == pytest.approx(want)


def test_diameter_theory_log_class_branch():
    t = 10**6
    bs = th.diameter_theory(es.make_family("log:1"), t)
    # -log f(t) = log log t, so both branches of the minimum coincide
    assert bs.theory_diam_lower == pytest.approx(math.log(t) / math.log(math.log(t)) / 3)


@pytest.mark.parametrize("f", [es.make_family(d) for d in ("ba", "const:0.5", "rv:0.5", "log:1")])
def test_diameter_theory_lower_below_upper_a(f):
    for t in (16, 100, 10**4, 10**6):
        bs = th.diameter_theory(f, t)
        assert bs.theory_diam_lower <= bs.theory_diam_upper_a


def test_diameter_theory_with_no_vertex_steps():
    # f(t) = 0: the decay branch of the lower bound is 0, and the tail sum
    # is 0, so the tail regime applies with its branch 0 as well
    for t in (16, 10**4):
        bs = th.diameter_theory(es.make_family("const:0"), t)
        assert bs.theory_diam_lower == 0.0
        assert bs.theory_diam_upper_b == 2.0
        assert bs.theory_diam_upper_a == round(math.log(t), 6)


def test_diameter_theory_below_16_gives_only_expected_vertices():
    f = es.make_family("ba")
    assert th.diameter_theory(f, 15) == th.BoundSet(expected_vertices=f.partial_sum(15))
    assert th.diameter_theory(f, 16).theory_diam_lower is not None
