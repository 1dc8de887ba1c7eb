"""Each output check of the benchmark rejects a corrupted output.

Run from the root of a source checkout: ``python3 -m pytest perfbench``.
"""

import csv

import numpy as np
import pytest

import checks
import run
from spans import Tracer

run.import_edgepa()
from edgepa import experiments, graphs, make_family  # noqa: E402


def written_record(tmp_path, family: str, t: int) -> dict:
    spec = experiments.ExperimentSpec(
        families=[family], horizons=[t], reps=1, seed=3, clique_exact=True,
        out=str(tmp_path / "records.csv"),
    )
    experiments.run(spec)
    with open(spec.out, newline="") as fh:
        (rec,) = csv.DictReader(fh)
    return rec


def regenerated(rec: dict):
    f, t, seed = make_family(rec["family"]), int(rec["t"]), int(rec["rep_seed"])
    return graphs.evolve(f, t, seed), graphs._evolve_sequential(f, t, seed)


@pytest.mark.parametrize("family", ["const:0.5", "ba"])
def test_correct_records_pass(tmp_path, family):
    rec = written_record(tmp_path, family, 400)
    assert checks.check_record(rec) == []
    assert checks.check_regenerated(rec, *regenerated(rec)) == []


def test_histogram_missing_a_vertex_is_rejected(tmp_path):
    rec = written_record(tmp_path, "const:0.5", 400)
    hist = checks.parse_histogram(rec["degree_histogram"])
    d = max(hist)
    hist[d] -= 1
    rec["degree_histogram"] = " ".join(f"{k}:{c}" for k, c in sorted(hist.items()) if c)
    assert checks.check_record(rec)
    assert checks.check_regenerated(rec, *regenerated(rec))


@pytest.mark.parametrize("family,all_pairs_max", [("ba", 0), ("const:0.5", 2500)])
@pytest.mark.parametrize("shift", [-1, 1])
def test_diameter_off_by_one_is_rejected(tmp_path, monkeypatch, family, all_pairs_max, shift):
    # ba above the all-pairs limit is checked by a double sweep on the tree
    monkeypatch.setattr(checks, "ALL_PAIRS_MAX", all_pairs_max)
    rec = written_record(tmp_path, family, 400)
    d = int(rec["diameter_lower"])
    assert d == int(rec["diameter_upper"])
    rec["diameter_lower"] = rec["diameter_upper"] = str(d + shift)
    assert checks.check_regenerated(rec, *regenerated(rec))


def test_diameter_outside_the_eccentricity_bracket_is_rejected(tmp_path, monkeypatch):
    monkeypatch.setattr(checks, "ALL_PAIRS_MAX", 0)
    rec = written_record(tmp_path, "const:0.5", 400)
    g, _ = regenerated(rec)
    indptr, nbr = checks.adjacency(g.endpoints, g.n_vertices)
    assert checks.check_diameter(rec, g.endpoints, g.n_vertices) == []
    ecc = checks.eccentricity(indptr, nbr, 0)[0]
    rec["diameter_lower"] = str(2 * ecc + 1)
    rec["diameter_upper"] = str(2 * ecc + 1)
    assert checks.check_diameter(rec, g.endpoints, g.n_vertices)


def test_swapped_endpoint_is_rejected(tmp_path):
    rec = written_record(tmp_path, "const:0.5", 400)
    g, reference = regenerated(rec)
    i, j = 2, int(np.flatnonzero(g.endpoints != g.endpoints[2])[0])
    g.endpoints[[i, j]] = g.endpoints[[j, i]]
    assert checks.check_regenerated(rec, g, reference)


def test_vertex_band_rejects_a_shifted_mean():
    assert run.vertex_band(1 + 0.5 * 1999, 0.5, 2000, 10**4) == []
    assert run.vertex_band(1 + 0.5 * 1999 + 2, 0.5, 2000, 10**4)


def test_tracer_times_nested_spans_and_restores_the_package(tmp_path):
    tracer = Tracer()
    original = experiments.evolve
    spec = experiments.ExperimentSpec(
        families=["const:0.5"], horizons=[300], reps=2, seed=1, out=str(tmp_path / "r.csv")
    )
    with tracer.installed():
        assert experiments.evolve is not original
        experiments.run(spec)
    assert experiments.evolve is original and graphs.evolve is original
    times = tracer.layer_times()
    assert tracer.steps == 600
    assert tracer.count("observables.bfs") > 0
    assert 0 < times["observables.bfs"] <= times["observables.diameter"]
    total = sum(end - start for metric, start, end, parent in tracer.spans if parent < 0)
    assert sum(v for k, v in times.items() if k != "observables.bfs") == pytest.approx(total)
