import io
import math
from collections import Counter
from fractions import Fraction

import pytest

from edgepa import edgestep as es
from edgepa import graphs as gr
from edgepa import oracle as orc

from reference import decode_key, dump_law


def _decoded(law):
    return {decode_key(key): p for key, p in law.probs.items()}


def test_forced_laws():
    ba2 = orc.enumerate_direct_law(es.make_family("ba"), 2)
    assert _decoded(ba2) == {((True,), ((1, 1), (1, 2))): Fraction(1)}
    loops = orc.enumerate_direct_law(es.make_family("const:0"), 3)
    assert _decoded(loops) == {((False, False), ((1, 1), (1, 1), (1, 1))): Fraction(1)}
    collapsed = orc.enumerate_collapse_law(es.make_family("const:0"), 4)
    assert _decoded(collapsed) == {
        ((False, False, False), ((1, 1), (1, 1), (1, 1), (1, 1))): Fraction(1)
    }


def test_tree_attachment_split():
    law = _decoded(orc.enumerate_direct_law(es.make_family("ba"), 3))
    key_root = ((True, True), ((1, 1), (1, 2), (1, 3)))
    key_child = ((True, True), ((1, 1), (1, 2), (2, 3)))
    assert law[key_root] == Fraction(3, 4)
    assert law[key_child] == Fraction(1, 4)


@pytest.mark.parametrize("f", [es.make_family(d) for d in ("const:0.5", "const:1", "log:1")])
@pytest.mark.parametrize("t", [2, 3, 4])
def test_collapse_law_equals_direct_law(f, t):
    direct = orc.enumerate_direct_law(f, t)
    collapsed = orc.enumerate_collapse_law(f, t)
    assert direct.total() == 1
    assert collapsed.total() == 1
    assert orc.law_distance(direct, collapsed) < 1e-10


def test_collapse_law_equals_direct_law_log_at_t5():
    # log:1 differs at every step, so survival read one step late shows at
    # t = 5 as it does at t = 3 and 4
    test_collapse_law_equals_direct_law(es.make_family("log:1"), 5)


def test_law_distance_extremes():
    a = orc.GraphLaw(2, {"x": Fraction(1)})
    assert orc.law_distance(a, a) == 0.0
    b = orc.GraphLaw(2, {"y": Fraction(1)})
    assert orc.law_distance(a, b) == 1.0


def test_enumeration_caps():
    with pytest.raises(ValueError):
        orc.enumerate_direct_law(es.make_family("ba"), 7)
    with pytest.raises(ValueError):
        orc.enumerate_collapse_law(es.make_family("ba"), 0)


def test_sampled_frequencies_track_law():
    f, t, reps = es.make_family("const:0.5"), 3, 10**5
    law = orc.enumerate_direct_law(f, t)
    counts = orc.sample_direct_law(f, t, reps, seed=5)
    assert set(counts) <= set(law.probs)
    for key, p in law.probs.items():
        pf = float(p)
        sd = math.sqrt(reps * pf * (1 - pf))
        assert abs(counts.get(key, 0) - reps * pf) <= 5 * sd



@pytest.mark.parametrize("t", range(1, orc.MAX_ENUM_T + 1))
def test_sampled_counts_match_row_wise_unique(t):
    # the counts that sample_direct_law gathers over distinct raw rows equal
    # the canonical_key of every replicate counted one at a time
    reps, seed = 400, 7
    for f in map(es.make_family, ("const:0.5", "log:1", "tab:1,0.3,0.8,0.5,0.2")):
        batch = gr.evolve_batch(f, t, reps, seed)
        want = Counter(gr.canonical_key(batch.extract(r)) for r in range(reps))
        assert orc.sample_direct_law(f, t, reps, seed) == want
        assert len(want) > 1 or t <= 2


def test_dump_law_format():
    law = orc.enumerate_direct_law(es.make_family("ba"), 2)
    buf = io.StringIO()
    dump_law(law, buf)
    line = buf.getvalue().strip()
    prob, _, rest = line.partition("\t")
    assert float(prob) == 1.0
    assert rest == "z=1 (1,1) (1,2)"
