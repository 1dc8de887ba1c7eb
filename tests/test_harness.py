import copy
import json

import numpy as np
import pytest

from unittest import mock

from edgepa import coupling
from edgepa import experiments as ex
from edgepa.cli import main
from edgepa.edgestep import make_family
from edgepa.graphs import evolve, load_graph
from edgepa.observables import measure_graph
from edgepa.rng import child_seed


def _spec(**overrides):
    base = dict(
        families=["const:0.5"],
        horizons=[200],
        reps=2,
        seed=7,
    )
    base.update(overrides)
    return ex.ExperimentSpec(**base)


def _strip_volatile(rows):
    out = []
    for row in rows:
        row = dict(row)
        row.pop("wall_time", None)
        out.append(row)
    return out


def test_spec_validation():
    with pytest.raises(ValueError, match="empty family grid"):
        _spec(families=[]).validate()
    with pytest.raises(ValueError, match="strictly increasing"):
        _spec(horizons=[100, 100]).validate()
    with pytest.raises(ValueError, match="reps"):
        _spec(reps=0).validate()
    with pytest.raises(ValueError, match="format"):
        _spec(fmt="xml").validate()
    with pytest.raises(ValueError):
        _spec(families=["nope:1"]).validate()
    with pytest.raises(ValueError, match=">= 1"):
        _spec(horizons=[0]).validate()
    with pytest.raises(ValueError, match="covers t in"):
        _spec(families=["tab:1,0.5"], horizons=[2, 10]).validate()
    with pytest.raises(ValueError, match="covers t in"):
        _spec(families=["const:0.5", "tab:1,0.5"], coupled=True, horizons=[4]).validate()
    with pytest.raises(ValueError, match="at least two families"):
        _spec(coupled=True).validate()
    _spec(families=["tab:1,0.5"], horizons=[1, 3]).validate()


def test_run_smoke_and_determinism():
    spec = _spec(families=["const:1"], horizons=[100], reps=1)
    rows = ex.run(spec)
    assert len(rows) == 1
    assert rows[0]["n_vertices"] == 100
    assert rows[0]["error"] == ""
    again = ex.run(copy.deepcopy(spec))
    assert _strip_volatile(rows) == _strip_volatile(again)


def test_run_emits_theory_overlays():
    rows = ex.run(_spec(families=["rv:0.5"], horizons=[100]))
    row = rows[0]
    assert row["theory_rv_lower"] == 0.5
    assert row["theory_rv_upper"] == 202.0
    assert row["expected_vertices"] > 0
    assert row["spec_hash"]


def test_parallel_matches_serial():
    for coupled in (False, True):
        grid = dict(families=["const:0.5", "rv:0.5"], horizons=[60, 200], reps=4, coupled=coupled)
        serial = ex.run(_spec(**grid, jobs=1))
        parallel = ex.run(_spec(**grid, jobs=2))
        assert len(serial) == 16
        assert _strip_volatile(serial) == _strip_volatile(parallel)


def _direct_record(spec, family, t, rep, g):
    """The record of ``g`` measured on its own, as the run would write it."""
    report = measure_graph(g, want_clique_exact=spec.clique_exact)
    rec = ex._report_to_record(
        spec.spec_hash(), family, t, rep, child_seed(spec.seed, rep), report, ex._overlay(family, t)
    )
    return {k: rec[k] for k in ex.RECORD_FIELDS if k != "wall_time"}


def test_plain_rows_equal_direct_measurements():
    spec = _spec(families=["log:1", "ba"], horizons=[1, 17, 300], reps=2, clique_exact=True)
    rows = ex.run(spec)
    assert [(r["family"], r["t"], r["rep"]) for r in rows] == [
        (f, t, rep) for f in ("ba", "log:1") for t in (1, 17, 300) for rep in (0, 1)
    ]
    for row in rows:
        g = evolve(make_family(row["family"]), row["t"], child_seed(spec.seed, row["rep"]))
        assert _strip_volatile([row])[0] == _direct_record(spec, row["family"], row["t"], row["rep"], g)


def test_coupled_grid_rows_equal_direct_collapses():
    families = ["const:0.2", "const:0.6", "rv:0.5"]
    spec = _spec(families=families, coupled=True, horizons=[50, 400], reps=3, clique_exact=True)
    rows = ex.run(spec)
    keys = [(r["family"], r["t"], r["rep"]) for r in rows]
    assert sorted(keys) == [(f, t, rep) for f in families for t in (50, 400) for rep in range(3)]
    for row in rows:
        tree = coupling.grow_tree(row["t"], child_seed(spec.seed, row["rep"]))
        g = coupling.collapse(tree, make_family(row["family"]))
        assert _strip_volatile([row])[0] == _direct_record(spec, row["family"], row["t"], row["rep"], g)


def test_one_generation_per_replicate(monkeypatch):
    evolve_calls = mock.Mock(wraps=ex.evolve)
    monkeypatch.setattr(ex, "evolve", evolve_calls)
    rows = ex.run(_spec(families=["const:0.5", "log:1"], horizons=[30, 100, 300], reps=3))
    assert len(rows) == 18
    assert evolve_calls.call_count == 6
    assert {c.args[1] for c in evolve_calls.call_args_list} == {300}
    grow_calls = mock.Mock(wraps=coupling.grow_tree)
    monkeypatch.setattr(ex.coupling, "grow_tree", grow_calls)
    families = ["const:0.3", "const:0.5", "const:0.7"]
    rows = ex.run(_spec(families=families, coupled=True, horizons=[30, 100, 300], reps=3))
    assert len(rows) == 27
    assert grow_calls.call_count == 3 and evolve_calls.call_count == 6
    assert {c.args[0] for c in grow_calls.call_args_list} == {300}


@pytest.mark.parametrize("coupled", [False, True])
def test_generation_failure_fills_every_row(monkeypatch, coupled):
    def fail(*args):
        raise MemoryError("no room")

    monkeypatch.setattr(ex, "evolve", fail)
    monkeypatch.setattr(ex.coupling, "grow_tree", fail)
    rows = ex.run(_spec(families=["const:0.3", "ba"], coupled=coupled, horizons=[20, 40], reps=2))
    assert len(rows) == 8
    assert {r["error"] for r in rows} == {"MemoryError: no room"}
    assert {(r["family"], r["t"], r["rep"]) for r in rows} == {
        (f, t, rep) for f in ("const:0.3", "ba") for t in (20, 40) for rep in (0, 1)
    }


def test_coupled_rows_share_tree_seed():
    spec = _spec(families=["const:0.5", "const:0.9"], coupled=True, reps=2)
    rows = ex.run(spec)
    assert {r["family"] for r in rows} == {"const:0.5", "const:0.9"}
    by_rep = {}
    for r in rows:
        by_rep.setdefault(r["rep"], []).append(r)
    for rep_rows in by_rep.values():
        assert len({r["rep_seed"] for r in rep_rows}) == 1
        small = next(r for r in rep_rows if r["family"] == "const:0.5")
        big = next(r for r in rep_rows if r["family"] == "const:0.9")
        assert small["n_vertices"] <= big["n_vertices"]
        assert small["max_degree"] >= big["max_degree"]


def test_sweep_grid(tmp_path):
    out = tmp_path / "grid.csv"
    spec = _spec(
        families=["log:0.5", "log:1", "log:2"],
        horizons=[100],
        reps=1,
        out=str(out),
    )
    rows = ex.run(spec)
    assert len(rows) == 3
    assert len({r["family"] for r in rows}) == 3
    read_back = ex.read_records(str(out))
    assert [r["family"] for r in read_back] == [r["family"] for r in rows]
    single = ex.run(_spec(families=["log:1"], horizons=[100], reps=1))
    direct = ex.run(_spec(families=["log:1"], horizons=[100], reps=1))
    assert _strip_volatile(single) == _strip_volatile(direct)


def test_json_output(tmp_path):
    out = tmp_path / "rows.json"
    ex.run(_spec(out=str(out), fmt="json"))
    rows = json.loads(out.read_text())
    assert len(rows) == 2 and rows[0]["n_vertices"] > 0


def test_cli_generate_observe_round_trip(tmp_path):
    out = tmp_path / "records.csv"
    dumps = tmp_path / "dumps"
    rc = main(
        [
            "generate",
            "--family", "const:0.5",
            "--t", "150",
            "--reps", "1",
            "--seed", "21",
            "--out", str(out),
            "--dump-graphs", str(dumps),
        ]
    )
    assert rc == 0
    dump = next(dumps.iterdir())
    obs_out = tmp_path / "observed.json"
    rc = main(["observe", str(dump), "--out", str(obs_out), "--format", "json"])
    assert rc == 0
    observed = json.loads(obs_out.read_text())[0]
    recorded = ex.read_records(str(out))[0]
    assert str(observed["n_vertices"]) == recorded["n_vertices"]
    assert str(observed["diameter_lower"]) == recorded["diameter_lower"]


def test_dumped_graphs_are_the_measured_graphs(tmp_path):
    dumps = tmp_path / "dumps"
    base = ["--t", "40,90", "--reps", "2", "--seed", "5", "--out", str(tmp_path / "r.csv")]
    assert main(["generate", "--family", "rv:0.5", "--family", "const:0.3", *base,
                 "--dump-graphs", str(dumps)]) == 0
    records = ex.read_records(str(tmp_path / "r.csv"))
    assert len(list(dumps.iterdir())) == len(records) == 8
    for rec in records:
        tag = rec["family"].replace(":", "_")
        with open(dumps / f"{tag}_t{rec['t']}_r{rec['rep']}.graph") as fh:
            dumped = load_graph(fh)
        t, rep_seed = int(rec["t"]), child_seed(5, int(rec["rep"]))
        assert int(rec["rep_seed"]) == rep_seed
        want = evolve(make_family(rec["family"]), t, rep_seed)
        for name in ("endpoints", "step_type", "birth_time", "parent"):
            assert np.array_equal(getattr(dumped, name), getattr(want, name))
        assert (dumped.t, dumped.seed, dumped.family) == (want.t, want.seed, want.family)
    # the dump directory is not part of the spec's identity
    assert main(["generate", "--family", "rv:0.5", "--family", "const:0.3", *base]) == 0
    assert {r["spec_hash"] for r in ex.read_records(str(tmp_path / "r.csv"))} == {
        r["spec_hash"] for r in records
    }


def test_cli_usage_errors(tmp_path):
    assert main(["generate", "--family", "const:0.5", "--t", "100"]) == 2  # missing seed
    assert main(["generate", "--t", "100", "--seed", "1"]) == 2  # missing family
    assert main(["verify", "--suite", "bogus"]) == 2
    assert main(["observe", str(tmp_path / "missing.graph")]) == 2
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just-a-line\n")
    assert main(["generate", "--config", str(cfg)]) == 2


def test_cli_rejects_bad_horizons():
    assert main(["generate", "--family", "const:0.5", "--t", "0", "--seed", "7"]) == 2
    assert main(["generate", "--family", "tab:1,0.5", "--t", "10", "--seed", "7"]) == 2
    grid = ["--family", "const:0.5", "--family", "tab:1,0.5"]
    assert main(["generate", *grid, "--t", "4", "--seed", "7"]) == 2
    assert main(["couple", "--family", "const:0.5", "--family", "tab:1", "--t", "3", "--seed", "7"]) == 2
    # a coupled grid needs two families
    assert main(["couple", "--family", "const:0.5", "--t", "3", "--seed", "7"]) == 2


def test_cli_rejects_sweep():
    # a family grid is a plain generate
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--family", "const:0.5", "--t", "4", "--seed", "7"])
    assert exc.value.code == 2


def test_cli_exits_1_on_record_errors(tmp_path, monkeypatch, capsys):
    def fail(g, **kwargs):
        raise RuntimeError("measurement failed")

    base = ["--family", "const:0.5", "--t", "50", "--seed", "7", "--out", str(tmp_path / "r.csv")]
    assert main(["generate", *base]) == 0
    monkeypatch.setattr(ex.observables, "measure_graph", fail)
    assert main(["generate", *base]) == 1
    assert main(["generate", *base, "--family", "const:0.7"]) == 1
    assert main(["couple", *base, "--family", "const:0.7"]) == 1
    assert "RuntimeError: measurement failed" in capsys.readouterr().err
    assert ex.read_records(str(tmp_path / "r.csv"))[0]["error"]


def test_cli_config_and_override(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"family=const:0.5\nt=120\nreps=1\nseed=3\nout={out1}\n# comment line\n"
    )
    assert main(["generate", "--config", str(cfg)]) == 0
    assert ex.read_records(str(out1))[0]["t"] == "120"
    assert main(["generate", "--config", str(cfg), "--t", "80", "--out", str(out2)]) == 0
    assert ex.read_records(str(out2))[0]["t"] == "80"


def test_cli_verify_exit_codes():
    assert main(["verify", "--suite", "observables"]) == 0


def test_cli_verify_json(capsys, monkeypatch):
    assert main(["verify", "--suite", "observables", "--json"]) == 0
    results = json.loads(capsys.readouterr().out)
    assert [r["cid"] for r in results] == ["C14"]
    assert results[0]["passed"] is True
    assert set(results[0]) == {"cid", "name", "passed", "measured", "expected", "seconds"}
    assert main(["verify", "--suite", "bogus", "--json"]) == 2
    failing = ex.observables.clique_exact
    monkeypatch.setattr(ex.observables, "clique_exact", lambda view: (failing(view)[0] + 1, "exact", 0))
    assert main(["verify", "--suite", "observables", "--json"]) == 1
    assert json.loads(capsys.readouterr().out)[0]["passed"] is False
