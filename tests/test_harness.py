import copy
import csv
import dataclasses
import hashlib
import importlib.util
import io
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from unittest import mock

from edgepa import coupling, observables, rng, theory, verify
from edgepa import experiments as ex
from edgepa.cli import main
from edgepa.edgestep import make_family
from edgepa.graphs import dump_graph, evolve, load_graph
from edgepa.rng import child_seed
from reference import all_pairs_diameter


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
    with pytest.raises(ValueError, match="seed must be >= 0"):
        _spec(seed=-1).validate()
    with pytest.raises(ValueError, match="clique_exact needs clique"):
        _spec(clique=False, clique_exact=True).validate()
    _spec(families=["tab:1,0.5"], horizons=[1, 3]).validate()
    _spec(seed=0).validate()


def test_run_smoke_and_determinism():
    spec = _spec(families=["const:1"], horizons=[100], reps=1)
    rows = ex.run(spec)
    assert len(rows) == 1
    assert rows[0]["n_vertices"] == 100
    assert rows[0]["error"] == ""
    again = ex.run(copy.deepcopy(spec))
    assert _strip_volatile(rows) == _strip_volatile(again)


def test_spec_hash_names_the_bit_generator(monkeypatch):
    # the same spec draws other records under another bit generator, so it
    # must not keep its hash
    spec = _spec()
    before = spec.spec_hash()
    assert _spec().spec_hash() == before
    monkeypatch.setattr(rng, "BIT_GENERATOR", "Philox")
    assert spec.spec_hash() != before


def test_run_emits_theory_overlays():
    rows = ex.run(_spec(families=["rv:0.5"], horizons=[100]))
    row = rows[0]
    assert row["theory_rv_lower"] == 0.5
    assert row["theory_rv_upper"] == 202.0
    assert row["expected_vertices"] > 0
    assert row["spec_hash"]


def test_overlay_is_computed_once_per_family_and_horizon():
    ex._overlay.cache_clear()
    grid = dict(families=["const:0.5", "rv:0.5"], horizons=[60, 200], reps=3,
                diameter=False, clique=False, paths=False)
    with mock.patch.object(theory, "diameter_theory", wraps=theory.diameter_theory) as spy:
        rows = ex.run(_spec(**grid))
    calls = sorted((c.args[0].family, c.args[1]) for c in spy.call_args_list)
    assert calls == [("constant", 60), ("constant", 200), ("rv_power", 60), ("rv_power", 200)]
    assert len(rows) == 12
    for row in rows:
        fresh = ex._overlay.__wrapped__(row["family"], row["t"])
        assert {k: row[k] for k in ex.OVERLAY_FIELDS} == {k: "" if v is None else v for k, v in fresh.items()}
    with pytest.raises(TypeError):
        ex._overlay("const:0.5", 60)["expected_vertices"] = 0


def test_overlay_cache_holds_every_family_and_horizon():
    # a coupled task visits each (family, t) in turn, so a bounded cache
    # smaller than the grid would miss on every lookup of the next replicate
    ex._overlay.cache_clear()
    grid = dict(families=["const:0.3", "const:0.7"], horizons=list(range(16, 81)), reps=2,
                coupled=True, diameter=False, clique=False, paths=False)
    with mock.patch.object(theory, "diameter_theory", wraps=theory.diameter_theory) as spy:
        rows = ex.run(_spec(**grid))
    assert len(rows) == 260
    assert spy.call_count == 130


def test_overlay_is_pinned():
    # every overlay column's value, on both sides of the t = 16 seam and for a
    # tabulated schedule; a change to any bound or its rounding moves this
    grid = [(d, t) for d in ("const:0.5", "ba", "rv:0.5", "rv:3", "log:1", "exp_class:0.9", "osc:base=10")
            for t in (1, 15, 16, 17, 10**4, 10**6)] + [("tab:1,0.5,0.5,0.2", 5)]
    h = hashlib.sha256()
    for d, t in grid:
        for value in ex._overlay.__wrapped__(d, t).values():
            h.update(repr(value).encode())
    assert h.hexdigest() == "db8fff6813d6f189aa2242f058cd2512fa9f1d3615cdcb1fa1551edc26889b30"


def test_overlay_memory_does_not_grow_with_t():
    # f is summed chunk by chunk, so no array spans the 1e7 steps
    tracemalloc.start()
    try:
        ex._overlay.__wrapped__("log:1", 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_tabulated_overlay_is_blank():
    rows = ex.run(_spec(families=["tab:1,0.5,0.5"], horizons=[4], reps=1))
    assert rows[0]["error"] == "" and rows[0]["n_vertices"] > 0
    assert all(rows[0][k] == "" for k in ex.OVERLAY_FIELDS)


def test_parallel_matches_serial():
    for coupled in (False, True):
        grid = dict(families=["const:0.5", "rv:0.5"], horizons=[60, 200], reps=4, coupled=coupled)
        serial = ex.run(_spec(**grid, jobs=1))
        parallel = ex.run(_spec(**grid, jobs=2))
        assert len(serial) == 16
        assert _strip_volatile(serial) == _strip_volatile(parallel)


def _direct_record(spec, family, t, rep, g):
    """The record of ``g`` measured on its own, as the run would write it."""
    ids = ex.record_ids(spec.spec_hash(), family, t, rep, child_seed(spec.seed, rep))
    rec = ex.record(ids, g, family, want_clique_exact=spec.clique_exact)
    return {k: rec[k] for k in ex.RECORD_FIELDS if k != "wall_time"}


def test_record_fields_are_pinned():
    # derived from the report's fields; a renamed or reordered field shows here
    assert ex.RECORD_FIELDS == [
        "schema", "spec_hash", "family", "t", "rep", "rep_seed",
        "n_vertices", "max_degree", "simple_edges",
        "diameter_lower", "diameter_upper", "diameter_method",
        "clique_greedy", "clique_exact", "clique_exact_status", "clique_nodes",
        "isolated_path_count", "isolated_path_max", "isolated_paths",
        "max_vertex_path", "vertex_path_t0", "degree_histogram",
        "expected_vertices", "theory_diam_lower", "theory_diam_upper_a", "theory_diam_upper_b",
        "theory_rv_lower", "theory_rv_upper", "theory_clique_exponent", "theory_clique_upper",
        "error", "wall_time",
    ]


def test_every_row_lists_the_record_fields_in_order(tmp_path, monkeypatch, capsys):
    grid = dict(families=["const:0.3", "rv:0.5"], horizons=[20, 40], reps=1)
    rows = ex.run(_spec(**grid)) + ex.run(_spec(**grid, coupled=True))

    def fail(g, **kwargs):
        raise RuntimeError("measurement failed")

    with monkeypatch.context() as m:
        m.setattr(ex.observables, "measure_graph", fail)
        failed = ex.run(_spec(**grid))
    assert {r["error"] for r in failed} == {"RuntimeError: measurement failed"}
    dumps = tmp_path / "dumps"
    assert main(["generate", "--family", "const:0.5", "--t", "60", "--seed", "3",
                 "--out", str(tmp_path / "r.csv"), "--dump-graphs", str(dumps)]) == 0
    dump = next(dumps.iterdir())
    header, *edges = dump.read_text().splitlines(keepends=True)
    bare = tmp_path / "bare.graph"  # the same graph with no family in its header
    bare.write_text(header.rsplit(" ", 1)[0] + " -\n" + "".join(edges))
    observed = []
    for path in (dump, bare):
        capsys.readouterr()
        assert main(["observe", str(path)]) == 0
        observed.append(json.loads(capsys.readouterr().out))
    for row in rows + failed + observed:
        assert list(row) == ex.RECORD_FIELDS
    with_family, without = observed
    assert without["family"] == "-" and with_family["expected_vertices"] != ""
    assert {without[k] for k in ex.OVERLAY_FIELDS} == {""}
    assert {k: v for k, v in without.items() if k not in ex.OVERLAY_FIELDS and k != "family"} == {
        k: v for k, v in with_family.items() if k not in ex.OVERLAY_FIELDS and k != "family"
    }


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
def test_a_budget_of_the_last_horizon_makes_every_diameter_exact(coupled):
    # the premise of the criteria that read diameters from records
    horizons = [300, 2000]
    spec = _spec(families=["const:0.5", "rv:0.5", "log:1"], horizons=horizons, coupled=coupled,
                 reps=1, clique=False, paths=False, refine_budget=horizons[-1])
    for row in ex.run(spec):
        f, rep_seed = make_family(row["family"]), child_seed(spec.seed, row["rep"])
        g = coupling.collapse(coupling.grow_tree(row["t"], rep_seed), f) if coupled else evolve(f, row["t"], rep_seed)
        assert row["diameter_method"] == "exact"
        assert row["diameter_lower"] == all_pairs_diameter(observables.simple_view(g))
    starved = ex.run(dataclasses.replace(spec, refine_budget=0))
    assert "bounds" in {row["diameter_method"] for row in starved}


def test_a_failed_record_fails_its_criterion_loudly(monkeypatch):
    def fail(*args):
        raise RuntimeError("evolve broke")

    monkeypatch.setattr(ex, "evolve", fail)
    with pytest.raises(RuntimeError, match="evolve broke"):
        verify.c08_ba_diameter_envelope()


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


def test_write_records_removes_its_temp_file_on_failure(tmp_path):
    path = tmp_path / "rows.json"
    with pytest.raises(TypeError):
        ex.write_records([{"cell": object()}], str(path), fmt="json")
    assert list(tmp_path.iterdir()) == []


def test_write_records_rejects_an_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="format must be csv or json, got 'xml'"):
        ex.write_records([], str(tmp_path / "rows.xml"), fmt="xml")
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("family,t", [("tab:1,0.5,0.5", 4), ("const:0.123456789", 100), ("exp:0.5", 50)])
def test_observe_reads_back_every_dump_generate_writes(tmp_path, family, t):
    # the dump header carries the function's name, which parses back to the
    # same function: a tab: table, and a parameter that :g would round; the
    # generate row and the observe row both name the family by it, also
    # where the descriptor typed is not that name (exp:0.5 is exp_class:0.5)
    dumps, out, obs = tmp_path / "dumps", tmp_path / "gen.json", tmp_path / "obs.json"
    assert main(["generate", "--family", family, "--t", str(t), "--reps", "1", "--seed", "3",
                 "--format", "json", "--out", str(out), "--dump-graphs", str(dumps)]) == 0
    assert main(["observe", str(next(dumps.iterdir())), "--format", "json", "--out", str(obs)]) == 0
    generated, observed = json.loads(out.read_text())[0], json.loads(obs.read_text())[0]
    assert generated["family"] == observed["family"] == make_family(family).name
    assert observed["family"] == family.replace("exp:", "exp_class:")
    cells = [k for k in ex.RECORD_FIELDS if k not in ex.ID_FIELDS and k != "wall_time"]
    assert {k: observed[k] for k in cells} == {k: generated[k] for k in cells}
    if family.startswith("const"):
        assert observed["expected_vertices"] == 1 + (t - 1) * 0.123456789


def test_a_grid_that_names_one_schedule_twice_is_rejected(capsys):
    base = ["--t", "50", "--reps", "1", "--seed", "7"]
    assert main(["couple", "--family", "const:0.5", "--family", "constant:p=0.5", *base]) == 2
    assert "names const:0.5 a second time" in capsys.readouterr().err
    assert main(["generate", "--family", "const:0.5", "--family", "const:0.5", *base]) == 2
    assert "names const:0.5 a second time" in capsys.readouterr().err
    with pytest.raises(ValueError, match="rv:0.5,scale=2 a second time"):
        _spec(families=["rv:0.5,2", "const:0.5", "rv:scale=2,gamma=0.5"]).validate()


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


def test_cli_usage_errors(tmp_path, capsys):
    assert main(["generate", "--family", "const:0.5", "--t", "100"]) == 2  # missing seed
    assert main(["generate", "--t", "100", "--seed", "1"]) == 2  # missing family
    assert main(["verify", "--suite", "bogus"]) == 2
    assert main(["observe", str(tmp_path / "missing.graph")]) == 2
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just-a-line\n")
    assert main(["generate", "--config", str(cfg)]) == 2
    # a config value is the option's default, so argparse rejects a bad
    # number as it rejects the flag's
    cfg.write_text("family=const:0.5\nt=100\nseed=1\nreps=abc\n")
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "argument --reps: invalid int value: 'abc'" in capsys.readouterr().err
    cfg.write_text("family=const:0.5\nt=100\nseed=1\nclique_exact=ture\n")
    assert main(["generate", "--config", str(cfg)]) == 2
    assert "clique_exact='ture'" in capsys.readouterr().err
    # a config key that names no option of the subcommand is rejected, by name
    run = "family=const:0.5 ba\nt=100\nseed=1\n"
    for command, text, key in [("generate", run + "exact_clique = 1", "exact_clique"),
                               ("generate", run + "refine_budget = 0", "refine_budget"),
                               ("couple", run + "dump_graphs = d", "dump_graphs"),
                               ("verify", "suite = coupling\nseeds = 4", "seeds"),
                               # nor are the subcommand, the config and the dump path
                               ("generate", run + "graph = nothing.graph", "graph"),
                               ("generate", run + "command = verify", "command"),
                               ("generate", run + "config = other.cfg", "config"),
                               ("verify", "suite = coupling\ngraph = x", "graph")]:
        cfg.write_text(text + "\n")
        assert main([command, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.endswith(f": no {command} option named {key}\n")
    # an exact clique without the clique measurement would be dropped unseen
    assert main(["generate", "--family", "ba", "--t", "30", "--seed", "1", "--no-clique", "--clique-exact"]) == 2
    assert "clique_exact needs clique" in capsys.readouterr().err
    # a truncated dump is a usage error with the loader's message, and so
    # is a dump whose header names no known family
    buf = io.StringIO()
    dump_graph(evolve(make_family("const:0.5"), 30, 1), buf)
    lines = buf.getvalue().splitlines(keepends=True)
    dump = tmp_path / "bad.graph"
    dump.write_text("".join(lines[:12]))  # the header and 11 of 30 edges
    assert main(["observe", str(dump)]) == 2
    assert "graph dump line 13: expected 's u v z'" in capsys.readouterr().err
    dump.write_text("".join([lines[0].replace("const:0.5", "bogus:1")] + lines[1:]))
    assert main(["observe", str(dump)]) == 2
    assert "unknown family 'bogus'" in capsys.readouterr().err
    # a header that overstates t is rejected before anything of that size is
    # allocated, and so is one that understates it
    dump.write_text("1000000000000 1 - -\n1 1 1 1\n")
    assert main(["observe", str(dump)]) == 2
    assert "line 3: expected 's u v z' (the header claims 1000000000000 edges)" in capsys.readouterr().err
    dump.write_text("".join([lines[0].replace("30 ", "29 ", 1)] + lines[1:]))
    assert main(["observe", str(dump)]) == 2
    assert "line 31: expected the end (the header claims 29 edges)" in capsys.readouterr().err
    # a number past int64 is the loader's error too, not an OverflowError
    dump.write_text("2 2 - -\n1 1 1 1\n2 99999999999999999999 1 1\n")
    assert main(["observe", str(dump)]) == 2
    assert "line 3: 's u v z' must be 64-bit integers" in capsys.readouterr().err
    # an id past int32 is reported before the ids are narrowed, never wrapped
    # (2**32 + 1 would read as vertex 1)
    dump.write_text(f"2 2 - -\n1 1 1 1\n2 {2**32 + 1} 2 1\n")
    assert main(["observe", str(dump)]) == 2
    assert "endpoint ids out of range" in capsys.readouterr().err


def test_observe_rejects_a_config_format_before_writing(tmp_path, monkeypatch, capsys):
    # config values skip the --format choices; observe checks them itself,
    # before it measures or writes anything
    dump, out, cfg = tmp_path / "g.graph", tmp_path / "obs.xml", tmp_path / "obs.cfg"
    with open(dump, "w") as fh:
        dump_graph(evolve(make_family("ba"), 20, 1), fh)
    cfg.write_text(f"format = xml\nout = {out}\n")
    monkeypatch.setattr(ex.observables, "measure_graph", None)  # never reached
    assert main(["observe", str(dump), "--config", str(cfg)]) == 2
    assert "format must be csv or json, got 'xml'" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.graph", "obs.cfg"]


def test_cli_rejects_a_directory_path(tmp_path, monkeypatch, capsys):
    # a directory where a file is read or written is a usage error, and
    # an output directory is found before anything is measured
    monkeypatch.setattr(ex, "_run_task", None)  # never reached
    monkeypatch.setattr(ex.observables, "measure_graph", None)
    for command in ("generate", "couple"):
        argv = [command, "--family", "const:0.5", "--family", "ba", "--t", "50", "--seed", "1"]
        assert main([*argv, "--out", str(tmp_path)]) == 2
        assert f"out must be a file path, got the directory {str(tmp_path)!r}" in capsys.readouterr().err
    assert main(["observe", str(tmp_path)]) == 2
    assert f"Is a directory: {str(tmp_path)!r}" in capsys.readouterr().err
    dump = tmp_path / "g.graph"
    with open(dump, "w") as fh:
        dump_graph(evolve(make_family("ba"), 20, 1), fh)
    assert main(["observe", str(dump), "--out", str(tmp_path)]) == 2
    assert f"out must be a file path, got the directory {str(tmp_path)!r}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.graph"]


def test_cli_rejects_bad_horizons(capsys):
    assert main(["generate", "--family", "const:0.5", "--t", "0", "--seed", "7"]) == 2
    assert main(["generate", "--family", "tab:1,0.5", "--t", "10", "--seed", "7"]) == 2
    assert "covers t in [2, 3], got t=10" in capsys.readouterr().err
    grid = ["--family", "const:0.5", "--family", "tab:1,0.5"]
    assert main(["generate", *grid, "--t", "4", "--seed", "7"]) == 2
    assert main(["couple", "--family", "const:0.5", "--family", "tab:1", "--t", "3", "--seed", "7"]) == 2
    # a coupled grid needs two families
    assert main(["couple", "--family", "const:0.5", "--t", "3", "--seed", "7"]) == 2


@pytest.mark.parametrize("horizons", ["100,abc", "1.5", "1e-3", "inf", "1e4x"])
def test_cli_rejects_malformed_horizons(horizons, capsys):
    assert main(["generate", "--family", "ba", "--t", horizons, "--seed", "1"]) == 2
    bad = next(tok for tok in horizons.split(",") if not tok.isdigit())
    assert f"t: {bad!r} is not an integer" in capsys.readouterr().err


def test_cli_reads_horizons_in_scientific_notation(tmp_path):
    out = tmp_path / "r.csv"
    off = ["--no-diameter", "--no-clique", "--no-paths", "--out", str(out)]
    assert main(["generate", "--family", "ba", "--t", "1e2,2E2", "--seed", "1", *off]) == 0
    assert [r["t"] for r in ex.read_records(str(out))] == ["100", "200"]


def test_cli_requires_horizons_and_a_suite(capsys):
    assert main(["generate", "--family", "ba", "--seed", "1"]) == 2
    assert "--t is required" in capsys.readouterr().err
    assert main(["verify"]) == 2
    assert "--suite is required" in capsys.readouterr().err


def test_cli_generate_prints_json_without_out(capsys):
    assert main(["generate", "--family", "ba", "--t", "30,60", "--seed", "1"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [(r["family"], r["t"], r["n_vertices"]) for r in rows] == [("ba", 30, 30), ("ba", 60, 60)]
    assert list(rows[0]) == ex.RECORD_FIELDS


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
    # switches read yes/no words; the default stays where a key is absent
    cfg.write_text(f"family=const:0.5\nt=120\nseed=3\nout={out1}\nclique_exact=yes\nno_paths=on\n")
    assert main(["generate", "--config", str(cfg)]) == 0
    row = ex.read_records(str(out1))[0]
    assert row["clique_exact_status"] == "exact" and row["max_vertex_path"] == ""
    assert row["diameter_method"] == "exact"


def test_cli_family_flags_replace_the_config_families(tmp_path):
    # --family appends to its default, so the file's list must not become it
    out, cfg = tmp_path / "r.csv", tmp_path / "run.cfg"
    cfg.write_text(f"family=const:0.5 ba\nt=40\nseed=3\nout={out}\nno_paths=yes\n")
    assert main(["generate", "--config", str(cfg)]) == 0
    assert sorted(r["family"] for r in ex.read_records(str(out))) == ["ba", "const:0.5"]
    assert main(["generate", "--config", str(cfg), "--family", "log:1", "--family", "rv:0.5"]) == 0
    assert sorted(r["family"] for r in ex.read_records(str(out))) == ["log:1", "rv:0.5"]


def test_cli_zero_is_a_given_value(tmp_path, monkeypatch):
    out = tmp_path / "r.csv"
    assert main(["generate", "--family", "const:0.5", "--t", "50", "--seed", "0", "--out", str(out)]) == 0
    assert ex.read_records(str(out))[0]["rep_seed"] == str(child_seed(0, 0))
    # a zero flag overrides the config file's value
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"family=const:0.5\nt=50\nreps=3\nseed=5\nout={out}\n")
    assert main(["generate", "--config", str(cfg), "--seed", "0"]) == 0
    rows = ex.read_records(str(out))
    assert len(rows) == 3 and rows[0]["rep_seed"] == str(child_seed(0, 0))
    assert main(["generate", "--config", str(cfg), "--reps", "0"]) == 2
    assert main(["generate", "--config", str(cfg), "--jobs", "0"]) == 2
    calls = []
    monkeypatch.setattr(verify, "run_suite", lambda suite, seed: calls.append((suite, seed)) or [])
    assert main(["verify", "--suite", "paths", "--seed", "0"]) == 0
    assert calls == [("paths", 0)]


def test_cli_rejects_a_negative_seed(capsys):
    assert main(["generate", "--family", "const:0.5", "--t", "50", "--seed", "-1"]) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert main(["couple", "--family", "const:0.3", "--family", "const:0.7", "--t", "50", "--seed", "-1"]) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err


def _stub_criterion(cid: str, passed: bool):
    """A criterion that runs nothing: its verdict is fixed, and its
    measured text names the seed it was given."""
    def run(seed):
        return verify.CriterionResult(cid, "stub", passed, f"seed {seed}", "a stub", 1.5)
    return run


def test_cli_verify_exit_codes(capsys, monkeypatch):
    passing, failing = _stub_criterion("C1", True), _stub_criterion("C2", False)
    monkeypatch.setitem(verify.SUITES, "observables", [passing])
    assert main(["verify", "--suite", "observables"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"[PASS] C1 stub: measured seed {verify.DEFAULT_SEED}; expected a stub (1.5s)",
        "1/1 criteria passed",
    ]
    monkeypatch.setitem(verify.SUITES, "observables", [passing, failing])
    assert main(["verify", "--suite", "observables", "--seed", "5"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "[PASS] C1 stub: measured seed 5; expected a stub (1.5s)",
        "[FAIL] C2 stub: measured seed 5; expected a stub (1.5s)",
        "1/2 criteria passed",
    ]
    assert main(["verify", "--suite", "bogus"]) == 2


def test_cli_verify_rejects_a_negative_seed(capsys):
    assert main(["verify", "--suite", "paths", "--seed", "-1"]) == 2
    assert "--seed must be >= 0, got -1" in capsys.readouterr().err


def test_cli_verify_criterion_value_error_is_not_a_usage_error(monkeypatch):
    # a defect inside a criterion fails the run; it is not bad input
    def broken(seed):
        raise ValueError("defect inside a criterion")

    monkeypatch.setitem(verify.SUITES, "observables", [broken])
    with pytest.raises(ValueError, match="defect inside a criterion"):
        main(["verify", "--suite", "observables"])


def test_cli_verify_json(capsys, monkeypatch):
    monkeypatch.setitem(verify.SUITES, "observables", [_stub_criterion("C14", True)])
    assert main(["verify", "--suite", "observables", "--json"]) == 0
    results = json.loads(capsys.readouterr().out)
    assert [r["cid"] for r in results] == ["C14"]
    assert results[0]["passed"] is True
    assert set(results[0]) == {"cid", "name", "passed", "measured", "expected", "seconds"}
    assert main(["verify", "--suite", "bogus", "--json"]) == 2
    monkeypatch.setitem(verify.SUITES, "observables", [_stub_criterion("C14", True), _stub_criterion("C15", False)])
    assert main(["verify", "--suite", "observables", "--json"]) == 1
    assert [r["passed"] for r in json.loads(capsys.readouterr().out)] == [True, False]


def test_criteria_registry():
    suites = {name: fns for name, fns in verify.SUITES.items() if name != "all"}
    cids = [fn.cid for fns in suites.values() for fn in fns]
    # each criterion is in exactly one suite, and C1 .. C16 and C19 are all
    # there (C17 and C18 are kept for the diameter laws)
    want = [f"C{i}" for i in [*range(1, 17), 19]]
    assert sorted(cids, key=lambda cid: int(cid[1:])) == want
    assert [fn.cid for fn in verify.SUITES["all"]] == want
    assert {fn for fns in suites.values() for fn in fns} == set(verify.SUITES["all"])
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert set(re.findall(r"edgepa verify --suite (\w+)", readme)) == set(verify.SUITES)


def test_every_traced_metric_has_a_live_target():
    # the benchmark's tracer skips a target that no longer resolves, so a
    # rename would silently leave a per-layer metric timing nothing
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    served = set()
    for module_name, attr, metric in spans.TARGETS:
        owner = importlib.import_module(f"edgepa.{module_name}")
        *owners, name = attr.split(".")
        for part in owners:
            owner = getattr(owner, part)
        if callable(vars(owner).get(name)):
            served.add(metric)
    assert served == {metric for _, _, metric in spans.TARGETS}


def test_bench_memory_script_runs_one_record_per_family(tmp_path, monkeypatch):
    path = Path(__file__).resolve().parent.parent / "scripts" / "bench_memory.py"
    spec = importlib.util.spec_from_file_location("bench_memory", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    monkeypatch.setattr(bench, "T", 1000)
    monkeypatch.setattr(bench, "REPS", 1)
    out = tmp_path / "BENCH_memory.json"
    assert bench.main(["--out", str(out)]) == 0
    runs = json.loads(out.read_text())["runs"]
    assert [r["family"] for r in runs] == ["const:0.5", "ba", "log:1"]
    for r in runs:
        assert r["checkout"] == "after" and r["t"] == 1000 and r["ru_maxrss_mb"] > 0
        assert r["generate_s"] >= 0 and r["measure_s"] >= 0 and r["numpy"] == np.__version__
        assert r["malloc_mmap_threshold"] == bench.MALLOC_MMAP_THRESHOLD
    assert runs[0]["n_vertices"] == evolve(make_family("const:0.5"), 1000, 11).n_vertices
    (coupled,) = json.loads(out.read_text())["coupled"]
    assert coupled["checkout"] == "after" and coupled["t"] == 1000 and coupled["n_vertices"] == 1000
    assert list(coupled["maxrss_mb_after"]) == ["grow_tree", "collapse", "graph_validate", "tree_validate"]
    assert coupled["malloc_mmap_threshold"] == bench.MALLOC_MMAP_THRESHOLD


def test_same_verdicts_script_names_each_changed_cid(tmp_path, capsys):
    path = Path(__file__).resolve().parent.parent / "scripts" / "same_verdicts.py"
    spec = importlib.util.spec_from_file_location("same_verdicts", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)

    def verdict(cid, **fields):
        return {"cid": cid, "name": "n", "passed": True, "measured": "m", "expected": "e", "seconds": 1.0, **fields}

    def compare(before, after):
        paths = [tmp_path / "before.json", tmp_path / "after.json"]
        for p, rows in zip(paths, (before, after)):
            p.write_text(json.dumps(rows))
        code = script.main([str(p) for p in paths])
        return code, [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]

    before = [verdict("C1"), verdict("C2"), verdict("C16", measured="t=1e6 in 0.06s")]
    # seconds, and C16's timings, are not compared
    same = [verdict("C1", seconds=9.0), before[1], verdict("C16", measured="t=1e6 in 0.09s")]
    assert compare(before, same) == (0, ["3 verdicts identical"])
    after = [verdict("C1", passed=False), verdict("C2", expected="x"), verdict("C16", expected="x"), verdict("C3")]
    assert compare(before, after) == (1, ["C1", "C2", "C16", "C3"])


def test_same_records_script_names_each_changed_cell(tmp_path, capsys):
    path = Path(__file__).resolve().parent.parent / "scripts" / "same_records.py"
    spec = importlib.util.spec_from_file_location("same_records", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)

    def row(family, t, **cells):
        return {"family": family, "t": t, "rep": 0, "max_degree": 5, "error": "", "wall_time": 0.5, **cells}

    def compare(before, after, fmt):
        paths = [tmp_path / f"before.{fmt}", tmp_path / f"after.{fmt}"]
        for p, rows in zip(paths, (before, after)):
            if fmt == "json":
                p.write_text(json.dumps(rows))
                continue
            with open(p, "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
                writer.writeheader()
                writer.writerows(rows)
        code = script.main([str(p) for p in paths])
        return code, [line.partition(": ")[0] for line in capsys.readouterr().out.splitlines()]

    before = [row("ba", 10), row("ba", 20), row("const:0.5", 10)]
    for fmt in ("csv", "json"):
        # wall_time is not compared
        same = [row("ba", 10, wall_time=9.0), row("ba", 20), row("const:0.5", 10)]
        assert compare(before, same, fmt) == (0, ["3 records identical"])
        after = [row("ba", 10, max_degree=6), row("const:0.5", 10, error="boom"), row("log:1", 10)]
        assert compare(before, after, fmt) == (1, [
            "ba t=10 rep=0 max_degree", "ba t=20 rep=0", "const:0.5 t=10 rep=0 error", "log:1 t=10 rep=0",
        ])


def test_src_lines_script_counts_code_without_comments_or_docstrings(tmp_path, capsys):
    path = Path(__file__).resolve().parent.parent / "scripts" / "src_lines.py"
    spec = importlib.util.spec_from_file_location("src_lines", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    package = tmp_path / "src" / "edgepa"
    package.mkdir(parents=True)
    # the eight code lines are numbered; the rest are blank, comment or docstring lines
    (package / "mod.py").write_text(
        '"""Module docstring,\n'
        'on two lines."""\n'
        "\n"
        "# a comment-only line\n"
        "import math  # and a trailing comment\n"              # 1
        "\n"
        "\n"
        "class Thing:\n"                                        # 2
        '    """Class docstring."""\n'
        "\n"
        "    def area(self, r):\n"                              # 3
        '        """Function docstring,\n'
        '        """\n'
        '        note = """a string that is\n'                  # 4
        '        not a docstring"""\n'                          # 5
        "        return (math.pi\n"                             # 6
        "                # a comment inside a statement\n"
        "                * r * r)\n"                            # 7
        "\n"
        "\n"
        'def short(): """one-line docstring"""; return 1\n'    # 8
    )
    assert script.code_lines((package / "mod.py").read_text()) == 8
    assert script.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[2:] == [["mod.py", "21", "8"], ["total", "21", "8"]]
    assert script.main([str(tmp_path / "nowhere")]) == 2
