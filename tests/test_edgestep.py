import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgepa import edgestep as es

FAMILIES = [
    es.constant(0.5),
    es.constant(0.0),
    es.ba(),
    es.rv_power(0.5),
    es.rv_power(2.0, scale=3.0),
    es.log_class(1.0),
    es.log_class(0.3),
    es.exp_class(0.5),
    es.oscillating(10),
    es.tabulated([0.9, 0.5, 0.25, 0.1]),
]


def test_eval_examples():
    assert es.constant(0.5).eval(7) == 0.5
    assert es.ba().eval(12345) == 1.0
    assert es.rv_power(0.5).eval(100) == pytest.approx(0.1)
    # small-t values above 1 are clamped
    assert es.log_class(1.0).eval(2) == 1.0
    assert es.log_class(1.0).eval(4) == pytest.approx(1.0 / math.log(4))
    assert es.exp_class(0.5).eval(3) == pytest.approx(math.exp(-math.log(3) ** 0.5))


def test_eval_rejects_small_t():
    with pytest.raises(ValueError):
        es.ba().eval(1)


@pytest.mark.parametrize("f", FAMILIES, ids=lambda f: f.name)
def test_eval_range(f):
    hi = 500 if f.family != "tabulated" else len(f.params["values"]) + 2
    vals = f.eval_array(np.arange(2, hi))
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)


def test_partial_sum_examples():
    assert es.constant(0.5).partial_sum(5) == 3.0
    for f in FAMILIES:
        assert f.partial_sum(1) == 1.0
    f = es.log_class(1.0)
    want = 1.0 + 1.0 + 1.0 / math.log(3) + 1.0 / math.log(4)  # f(2) clamps to 1
    assert f.partial_sum(4) == pytest.approx(want)


def test_partial_sum_constant_exact():
    f = es.constant(0.3)
    for t in (1, 2, 17, 1000):
        assert f.partial_sum(t) == 1.0 + (t - 1) * 0.3


@pytest.mark.parametrize("f", FAMILIES[:9], ids=lambda f: f.name)
def test_partial_sum_increments_match_eval(f):
    for t in (2, 3, 10, 97, 256):
        got = f.partial_sum(t) - f.partial_sum(t - 1)
        assert got == pytest.approx(f.eval(t), abs=1e-9)


def test_weighted_tail_sum():
    one = es.constant(1.0)
    assert one.weighted_tail_sum(2, 3) == pytest.approx(1.5)
    assert es.constant(0.0).weighted_tail_sum(2, 100) == 0.0
    f = es.rv_power(0.5)
    assert f.weighted_tail_sum(2, 2) == pytest.approx(f.eval(2))
    with pytest.raises(ValueError):
        one.weighted_tail_sum(1, 5)


@given(
    a=st.integers(2, 50),
    mid=st.integers(0, 50),
    tail=st.integers(1, 50),
    p=st.floats(0.0, 1.0),
)
@settings(max_examples=50, deadline=None)
def test_weighted_tail_sum_splits(a, mid, tail, p):
    f = es.constant(p)
    b = a + mid
    c = b + tail
    whole = f.weighted_tail_sum(a, c)
    split = f.weighted_tail_sum(a, b) + f.weighted_tail_sum(b + 1, c)
    assert whole == pytest.approx(split, abs=1e-12)


def test_oscillating_plateaus():
    f = es.oscillating(10)
    # ones on [1, 10] and [100, 10^4], zeros strictly inside (10, 100)
    assert [f.eval(t) for t in (2, 10, 11, 99, 100, 101, 10**4, 10**4 + 1)] == [
        1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0,
    ]


def test_make_family_round_trips():
    assert es.make_family("const:0.3") == es.constant(0.3)
    assert es.make_family("exp_class:0.5") == es.exp_class(0.5)
    assert es.make_family("ba") == es.ba()
    assert es.make_family("rv:0.5,2") == es.rv_power(0.5, 2.0)
    assert es.make_family("rv:gamma=0.5,scale=2") == es.rv_power(0.5, 2.0)
    assert es.make_family("osc:base=10") == es.oscillating(10)
    assert es.make_family("tab:0.5,0.25") == es.tabulated([0.5, 0.25])


@pytest.mark.parametrize(
    "descriptor,needle",
    [
        ("const:1.5", "p"),
        ("rv:-1", "gamma"),
        ("rv:0.5,scale=0", "scale"),
        ("log:0", "alpha"),
        ("exp_class:1.5", "alpha"),
        ("osc:base=1", "base"),
        ("tab:0.5,1.5", "values"),
        ("mystery:1", "mystery"),
        ("rv:0.5,bogus=1", "bogus"),
    ],
)
def test_make_family_names_bad_parameter(descriptor, needle):
    with pytest.raises(ValueError, match=needle):
        es.make_family(descriptor)


def test_tabulated_domain_is_bounded():
    f = es.tabulated([0.5, 0.5])
    assert f.eval(3) == 0.5
    with pytest.raises(ValueError):
        f.eval(4)
    with pytest.raises(ValueError):
        f.partial_sum(10)


@pytest.mark.parametrize("f", FAMILIES[:8], ids=lambda f: f.name)
def test_d0_implies_d_and_monotone_families_are_d(f):
    # condition D is a non-increasing schedule; D0 adds f(t) -> 0, so it implies D
    vals = f.eval_array(np.arange(2, 2001, dtype=np.int64))
    assert np.all(np.diff(vals) <= 1e-12)  # every non-oscillating built-in family is D
