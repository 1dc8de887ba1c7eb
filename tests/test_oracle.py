import io
import math
from fractions import Fraction

import numpy as np
import pytest

from edgepa import edgestep as es
from edgepa import graphs as gr
from edgepa import oracle as orc

from reference import dump_law


def test_forced_laws():
    ba2 = orc.enumerate_direct_law(es.ba(), 2)
    assert ba2.probs == {((True,), ((1, 1), (1, 2))): Fraction(1)}
    loops = orc.enumerate_direct_law(es.constant(0.0), 3)
    assert loops.probs == {((False, False), ((1, 1), (1, 1), (1, 1))): Fraction(1)}
    collapsed = orc.enumerate_collapse_law(es.constant(0.0), 4)
    assert collapsed.probs == {
        ((False, False, False), ((1, 1), (1, 1), (1, 1), (1, 1))): Fraction(1)
    }


def test_tree_attachment_split():
    law = orc.enumerate_direct_law(es.ba(), 3)
    key_root = ((True, True), ((1, 1), (1, 2), (1, 3)))
    key_child = ((True, True), ((1, 1), (1, 2), (2, 3)))
    assert law.probs[key_root] == Fraction(3, 4)
    assert law.probs[key_child] == Fraction(1, 4)


@pytest.mark.parametrize("f", [es.constant(0.5), es.constant(1.0), es.log_class(1.0)])
@pytest.mark.parametrize("t", [2, 3, 4])
def test_collapse_law_equals_direct_law(f, t):
    direct = orc.enumerate_direct_law(f, t)
    collapsed = orc.enumerate_collapse_law(f, t)
    assert direct.total() == 1
    assert collapsed.total() == 1
    assert orc.law_distance(direct, collapsed) < 1e-10


def test_law_distance_extremes():
    a = orc.GraphLaw(2, {"x": Fraction(1)})
    assert orc.law_distance(a, a) == 0.0
    b = orc.GraphLaw(2, {"y": Fraction(1)})
    assert orc.law_distance(a, b) == 1.0


def test_enumeration_caps():
    with pytest.raises(ValueError):
        orc.enumerate_direct_law(es.ba(), 7)
    with pytest.raises(ValueError):
        orc.enumerate_collapse_law(es.ba(), 0)


def test_sampled_frequencies_track_law():
    f, t, reps = es.constant(0.5), 3, 10**5
    law = orc.enumerate_direct_law(f, t)
    counts = orc.sample_direct_law(f, t, reps, seed=5)
    assert set(counts) <= set(law.probs)
    for key, p in law.probs.items():
        pf = float(p)
        sd = math.sqrt(reps * pf * (1 - pf))
        assert abs(counts.get(key, 0) - reps * pf) <= 5 * sd



@pytest.mark.parametrize("t", range(1, orc.MAX_ENUM_T + 1))
def test_sampled_counts_match_row_wise_unique(t):
    # the same dict, in the same order, as np.unique(rows, axis=0) over each
    # replicate's coins and sorted packed birth-time pairs, read off extract
    f, reps, seed = es.constant(0.5), 400, 7
    batch = gr.evolve_batch(f, t, reps, seed)
    rows = []
    for r in range(reps):
        g = batch.extract(r)
        pairs = g.birth_time[g.endpoints - 1].reshape(-1, 2).astype(np.int64)
        packed = np.sort(pairs.min(axis=1) * (t + 2) + pairs.max(axis=1))
        rows.append(np.concatenate([g.step_type[1:], packed]))
    uniq, counts = np.unique(np.array(rows, dtype=np.int64), axis=0, return_counts=True)
    want = {
        (tuple(bool(x) for x in row[: t - 1]), tuple((int(p // (t + 2)), int(p % (t + 2))) for p in row[t - 1 :])): int(c)
        for row, c in zip(uniq, counts)
    }
    got = orc.sample_direct_law(f, t, reps, seed)
    assert list(got.items()) == list(want.items())
    assert len(got) > 1 or t <= 2


def test_dump_law_format():
    law = orc.enumerate_direct_law(es.ba(), 2)
    buf = io.StringIO()
    dump_law(law, buf)
    line = buf.getvalue().strip()
    prob, _, rest = line.partition("\t")
    assert float(prob) == 1.0
    assert rest == "z=1 (1,1) (1,2)"
