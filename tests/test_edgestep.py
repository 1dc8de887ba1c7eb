import math
import pickle
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgepa import edgestep as es
from edgepa.cli import main

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


def case_id(f):
    """Test id of a family: its name, with a table shortened to its length."""
    return f"tab[{len(f.params['values'])}]" if f.family == "tabulated" else f.name


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


@pytest.mark.parametrize("f", FAMILIES, ids=case_id)
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


@pytest.mark.parametrize("f", FAMILIES[:9], ids=case_id)
def test_partial_sum_increments_match_eval(f):
    for t in (2, 3, 10, 97, 256):
        got = f.partial_sum(t) - f.partial_sum(t - 1)
        assert got == pytest.approx(f.eval(t), abs=1e-9)


@pytest.mark.parametrize("f", FAMILIES, ids=case_id)
def test_partial_sum_ignores_call_history(f):
    # one instance asked at increasing horizons gives each the value a
    # fresh instance gives, to the last bit
    last = len(f.params["values"]) + 1 if f.family == "tabulated" else 10**6
    used = es.EdgeStepFunction(f.family, f.params)
    for t in (2, 3, 17, 1000, 4099, 10**5, 10**6):
        if t <= last:
            fresh = es.EdgeStepFunction(f.family, f.params)
            assert used.partial_sum(t) == fresh.partial_sum(t)


def test_weighted_tail_sum():
    one = es.constant(1.0)
    assert one.weighted_tail_sum(2, 3) == pytest.approx(1.5)
    assert es.constant(0.0).weighted_tail_sum(2, 100) == 0.0
    f = es.rv_power(0.5)
    assert f.weighted_tail_sum(2, 2) == pytest.approx(f.eval(2))
    with pytest.raises(ValueError):
        one.weighted_tail_sum(1, 5)


@pytest.mark.parametrize("desc", ["rv:0.5", "log:1", "osc:base=10"])
def test_partial_sum_in_chunks_is_one_cumsum(desc):
    # three full chunks and a short one: the carried sum keeps every addition
    f = es.make_family(desc)
    t = 3 * es.STEP_CHUNK + 5
    assert f.partial_sum(t) == 1.0 + np.cumsum(f.eval_array(np.arange(2, t + 1)))[-1]


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
    assert es.make_family("rv:scale=2,0.5") == es.make_family("rv:0.5,2")


@pytest.mark.parametrize(
    "f,name",
    [
        (es.constant(0.5), "const:0.5"),
        (es.constant(0.3), "const:0.3"),
        (es.rv_power(0.5), "rv:0.5"),
        (es.rv_power(0.5, 2.0), "rv:0.5,scale=2"),
        (es.log_class(1.0), "log:1"),
        (es.exp_class(0.5), "exp_class:0.5"),
        (es.oscillating(10), "osc:base=10"),
        (es.ba(), "ba"),
        # a table is named by its values, and a parameter that %g would
        # round by its shortest exact text
        (es.tabulated([1.0, 0.5, 0.5]), "tab:1,0.5,0.5"),
        (es.constant(0.123456789), "const:0.123456789"),
    ],
)
def test_names_are_canonical_descriptors(f, name):
    assert f.name == name and es.make_family(name) == f


_PARAMS = {
    "constant": st.builds(es.constant, st.floats(0.0, 1.0)),
    "ba": st.just(es.ba()),
    "rv_power": st.builds(es.rv_power, st.floats(1e-3, 5.0), st.floats(1e-3, 1e3)),
    "log_class": st.builds(es.log_class, st.floats(1e-3, 5.0)),
    "exp_class": st.builds(es.exp_class, st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
    "oscillating": st.builds(es.oscillating, st.integers(2, 10**9)),
    "tabulated": st.builds(es.tabulated, st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40)),
}


def test_round_trip_strategies_cover_every_family():
    assert set(_PARAMS) == set(es._FAMILIES)


@given(f=st.one_of(*_PARAMS.values()))
@settings(max_examples=200, deadline=None)
def test_name_parses_back_to_the_same_function(f):
    g = es.make_family(f.name)
    assert g == f and hash(g) == hash(f) and g.name == f.name
    assert pickle.loads(pickle.dumps(f)) == f and set(vars(f)) == {"family", "params", "name"}
    last = len(f.params["values"]) + 1 if f.family == "tabulated" else 5000
    ts = np.arange(2, last + 1)
    assert f.eval_array(ts).tobytes() == g.eval_array(ts).tobytes()


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


STRICT = {
    "const:0.5,rv:0.5,log:1,ba": "surplus value 'rv:0.5'",
    "rv:0.5,gamma=0.7": "'gamma' given twice",
    "const:p=0.3,0.5": "'p' given twice",
    "ba:0.5": "surplus value '0.5'",
    "log:1,2": "surplus value '2'",
    "osc:10,20": "surplus value '20'",
    "rv:nan": "gamma must be finite",
    "rv:0.5,nan": "scale must be finite",
    "log:inf": "alpha must be finite",
    "tab:nan,0.5": "values must be finite",
    "const": "requires parameter 'p'",
}


@pytest.mark.parametrize("descriptor", STRICT)
def test_make_family_rejects_a_bad_descriptor(descriptor):
    with pytest.raises(ValueError, match=f"bad descriptor .*{re.escape(STRICT[descriptor])}"):
        es.make_family(descriptor)


def test_cli_exits_2_on_a_strict_descriptor(capsys):
    for descriptor in STRICT:
        assert main(["generate", "--family", descriptor, "--t", "10", "--seed", "7"]) == 2
        assert STRICT[descriptor] in capsys.readouterr().err


def test_readme_descriptor_table_matches_the_families():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = {}
    for line in readme.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if line.startswith("| `") and cells[0].strip("`") in es._FAMILIES:
            rows[cells[0].strip("`")] = [re.findall(r"`([^`]+)`", cell) for cell in cells[1:]]
    assert set(rows) == set(es._FAMILIES)
    for family, (heads, params, formula, names) in rows.items():
        row = es._FAMILIES[family]
        assert tuple(heads) == row.heads
        assert params == [p.name if p.default is None else f"{p.name}={p.default:g}" for p in row.params]
        assert formula and names
        for name in names:  # each name shown is canonical
            f = es.make_family(name)
            assert f.family == family and f.name == name


def test_tabulated_domain_is_bounded():
    f = es.tabulated([0.5, 0.5])
    assert f.eval(3) == 0.5
    with pytest.raises(ValueError):
        f.eval(4)
    with pytest.raises(ValueError):
        f.partial_sum(10)


@pytest.mark.parametrize("f", FAMILIES[:8], ids=case_id)
def test_d0_implies_d_and_monotone_families_are_d(f):
    # condition D is a non-increasing schedule; D0 adds f(t) -> 0, so it implies D
    vals = f.eval_array(np.arange(2, 2001, dtype=np.int64))
    assert np.all(np.diff(vals) <= 1e-12)  # every non-oscillating built-in family is D
