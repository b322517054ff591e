"""End-to-end runs of the command-line surface on the bundled data."""
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import heatlab
from heatlab import assemble, eigendecompose, heat_kernel, load_graph
from heatlab.cli import main, parse_vector
from heatlab.errors import (
    PositivityConnectivityMismatch,
    UnknownVertex,
    ValidationError,
)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_spectrum_artifact(tmp_path, data_dir):
    assert main(["spectrum", "--graph", str(data_dir / "path3.json"),
                 "--out", str(tmp_path)]) == 0
    with open(tmp_path / "spectrum.json") as fh:
        d = json.load(fh)
    assert d["vertices"] == ["1", "2", "3"]
    sd = eigendecompose(assemble(load_graph(data_dir / "path3.json")))
    assert d["E0"] == pytest.approx(sd.E0, abs=1e-15)
    assert d["spectral_gap"] == pytest.approx(sd.gap, abs=1e-15)
    assert sorted(i for grp in d["groups"] for i in grp) == [0, 1, 2]
    assert len(d["eigenvalues"]) == 3


def test_kernel_artifact_matches_library(tmp_path, data_dir):
    assert main(["kernel", "--graph", str(data_dir / "k2.json"),
                 "--t", "0.7", "--method", "expm",
                 "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "kernel.csv")
    assert header == ["x", "y", "p"]
    assert len(rows) == 4
    g = load_graph(data_dir / "k2.json")
    K = heat_kernel(assemble(g), 0.7)
    for x, y, p in rows:
        i, j = g.vertex_index(x), g.vertex_index(y)
        assert float(p) == pytest.approx(K.p[i, j], rel=1e-12)


def test_rate_inner_artifact(tmp_path, data_dir):
    assert main(["rate", "--graph", str(data_dir / "path3.json"),
                 "--count", "30", "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "rate.csv")
    assert header == ["t", "log_value", "cesaro", "differenced",
                      "residual", "target"]
    assert len(rows) == 30
    e0 = eigendecompose(assemble(load_graph(data_dir / "path3.json"))).E0
    # ones has ground-state mass, so the target is the bottom energy
    assert float(rows[0][5]) == pytest.approx(e0, abs=1e-12)
    assert float(rows[-1][3]) == pytest.approx(e0, abs=1e-6)


def test_rate_rerun_is_byte_identical(tmp_path, data_dir):
    args = ["rate", "--graph", str(data_dir / "path3.json"),
            "--f", "random:11", "--g", "perron"]
    for sub in ("a", "b"):
        assert main(args + ["--out", str(tmp_path / sub)]) == 0
    assert (tmp_path / "a" / "rate.csv").read_bytes() == \
        (tmp_path / "b" / "rate.csv").read_bytes()


def test_rate_kernel_mode(tmp_path, data_dir):
    assert main(["rate", "--graph", str(data_dir / "path3.json"),
                 "--x", "1", "--y", "3", "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "rate.csv")
    e0 = eigendecompose(assemble(load_graph(data_dir / "path3.json"))).E0
    assert float(rows[0][5]) == pytest.approx(e0, abs=1e-12)


def test_rate_kernel_mode_needs_both_endpoints(tmp_path, data_dir):
    assert main(["rate", "--graph", str(data_dir / "path3.json"),
                 "--x", "1", "--out", str(tmp_path)]) == 1


def test_groundstate_artifact(tmp_path, data_dir):
    assert main(["groundstate", "--graph", str(data_dir / "path3.json"),
                 "--out", str(tmp_path)]) == 0
    with open(tmp_path / "groundstate.json") as fh:
        d = json.load(fh)
    assert set(d) == {"E0", "spectral_gap", "eigenvalue_detected", "Phi"}
    assert d["eigenvalue_detected"] is True
    assert all(v > 0 for v in d["Phi"].values())
    _, rows = read_csv(tmp_path / "groundstate.csv")
    assert float(rows[-1][1]) <= float(rows[0][1])


def test_groundstate_without_gap_exits_2(tmp_path, data_dir, capsys):
    code = main(["groundstate", "--graph",
                 str(data_dir / "two_triangles.json"),
                 "--out", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NoSpectralGap"
    assert err["exit_code"] == 2


def test_kernel_overflowing_squarings_exit_2(tmp_path, capsys):
    # unit path on 3 vertices: at t = 1e300 the squarings overflow
    graph = tmp_path / "path.json"
    graph.write_text(json.dumps({
        "vertices": [{"id": v, "m": 1.0, "c": 0.0} for v in "123"],
        "edges": [{"u": "1", "v": "2", "b": 1.0},
                  {"u": "2", "v": "3", "b": 1.0}]}))
    code = main(["kernel", "--graph", str(graph), "--t", "1e300",
                 "--method", "expm", "--out", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NumericsError"
    assert "t = 1e+300" in err["message"]


def test_positivity_verdicts(tmp_path, data_dir):
    assert main(["positivity", "--graph", str(data_dir / "path3.json"),
                 "--out", str(tmp_path / "conn")]) == 0
    assert main(["positivity", "--graph",
                 str(data_dir / "two_triangles.json"),
                 "--out", str(tmp_path / "disc")]) == 0
    with open(tmp_path / "conn" / "positivity.json") as fh:
        conn = json.load(fh)
    with open(tmp_path / "disc" / "positivity.json") as fh:
        disc = json.load(fh)
    assert conn == {"improving": True, "connected": True, "components": 1}
    assert disc == {"improving": False, "connected": False, "components": 2}


def test_forced_invariant_violation_exits_3(tmp_path, data_dir, capsys,
                                            monkeypatch):
    import heatlab.cli as cli_mod

    def broken(op):
        raise PositivityConnectivityMismatch("forced for the exit path")

    monkeypatch.setattr(cli_mod, "positivity_improving", broken)
    code = main(["positivity", "--graph", str(data_dir / "path3.json"),
                 "--out", str(tmp_path)])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "PositivityConnectivityMismatch"
    assert not (tmp_path / "positivity.json").exists()


def test_perturb_artifacts(tmp_path, data_dir):
    assert main(["perturb", "--graph", str(data_dir / "path3.json"),
                 "--potential", str(data_dir / "well_potential.json"),
                 "--E", "-3.0", "--ks", "1,2,4",
                 "--out", str(tmp_path)]) == 0
    with open(tmp_path / "perturb.json") as fh:
        d = json.load(fh)
    assert d["admissibility"]["admissible"] is True
    assert d["admissibility"]["E"] == -3.0
    assert d["lambda0"] > -3.0
    header, rows = read_csv(tmp_path / "ladder.csv")
    assert header == ["k", "t", "log_norm"]
    by_t = {}
    for k, t, ln in rows:
        by_t.setdefault(float(t), []).append((float(k), float(ln)))
    for pairs in by_t.values():
        lns = [ln for _, ln in sorted(pairs)]
        assert all(b >= a - 1e-9 for a, b in zip(lns, lns[1:]))


def test_perturb_decomposes_each_matrix_once(tmp_path, data_dir,
                                             decompositions):
    # L - V and L - V^k for k = 0, 1, 2; V^4 = V on this potential
    assert main(["perturb", "--graph", str(data_dir / "path3.json"),
                 "--potential", str(data_dir / "well_potential.json"),
                 "--E", "-3", "--ks", "0,1,2,4",
                 "--out", str(tmp_path)]) == 0
    assert len(decompositions) == len(set(decompositions)) == 4


def test_solve_artifacts(tmp_path, data_dir):
    assert main(["solve", "--graph", str(data_dir / "path3.json"),
                 "--potential", str(data_dir / "well_potential.json"),
                 "--out", str(tmp_path)]) == 0
    with open(tmp_path / "solve.json") as fh:
        d = json.load(fh)
    assert set(d) == {"lambda0", "max_ode_residual", "max_log_bound_margin"}
    assert d["max_ode_residual"] <= 1e-6
    assert d["max_log_bound_margin"] <= 1e-9
    _, rows = read_csv(tmp_path / "solve.csv")
    assert len(rows) == 10 * 3  # grid times x vertices


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_solve_margin_stays_finite_as_u_grows(tmp_path, data_dir):
    # u(2048) is about 1e295, so its squared norm overflows
    assert main(["solve", "--graph", str(data_dir / "path3.json"),
                 "--potential", str(data_dir / "well_potential.json"),
                 "--t0", "1", "--ratio", "2", "--count", "12",
                 "--out", str(tmp_path)]) == 0
    d = json.loads((tmp_path / "solve.json").read_text(),
                   parse_constant=_reject_constant)
    assert -1.0 < d["max_log_bound_margin"] <= 1e-9


def test_perturb_admits_an_energy_just_above_lambda0(tmp_path, data_dir):
    # lambda0 + 2e-12, inside the verdict's tolerance
    assert main(["perturb", "--graph", str(data_dir / "path3.json"),
                 "--potential", str(data_dir / "well_potential.json"),
                 "--E", "-0.3316210909832", "--out", str(tmp_path)]) == 0
    d = json.loads((tmp_path / "perturb.json").read_text())
    assert d["admissibility"]["admissible"] is True
    assert d["admissibility"]["holds_i"] is True


def test_perturb_rejects_an_energy_at_subnormal_times(tmp_path, data_dir):
    # E a little above lambda0 on a grid from the least subnormal time,
    # where t lambda0 and t E round alike: (i) must come from
    # lambda0 >= E, as (iii) does, for the three readings to agree
    assert main(["perturb", "--graph", str(data_dir / "path3.json"),
                 "--potential", str(data_dir / "well_potential.json"),
                 "--E", "-0.33", "--t0", "5e-324", "--ratio", "2",
                 "--count", "3", "--out", str(tmp_path)]) == 0
    d = json.loads((tmp_path / "perturb.json").read_text())
    assert d["admissibility"]["admissible"] is False
    assert d["admissibility"]["holds_i"] is False


def test_counterexample_artifacts(tmp_path):
    assert main(["counterexample", "--lambda2", "0.6",
                 "--out", str(tmp_path)]) == 0
    with open(tmp_path / "counterexample.json") as fh:
        d = json.load(fh)
    assert d["mu"] == 0.25 and d["N"] == 200
    assert d["rates"]["0.75"] == pytest.approx(0.75, abs=0.05)
    assert d["rates"]["0.6"] == pytest.approx(0.6, abs=0.05)
    assert d["orbit_defect"] <= 1e-8
    header, rows = read_csv(tmp_path / "counterexample.csv")
    assert header == ["t", "lambda", "log_pairing", "differenced_rate"]
    assert len(rows) == 2 * 60


def test_small_graph_calls_load_no_scipy(tmp_path, data_dir):
    # below the sparse order every dense LAPACK call goes through numpy
    calls = [
        ["spectrum", "--graph", str(data_dir / "path3.json")],
        ["kernel", "--graph", str(data_dir / "k2.json"), "--t", "0.7",
         "--method", "expm"],
        ["rate", "--graph", str(data_dir / "path3.json")],
        ["positivity", "--graph", str(data_dir / "path3.json")],
        ["perturb", "--graph", str(data_dir / "path3.json"),
         "--potential", str(data_dir / "well_potential.json"),
         "--E", "-3", "--ks", "0,1,2,4"],
        ["counterexample", "--lambda2", "0.6"],
    ]
    calls = [args + ["--out", str(tmp_path / args[0])] for args in calls]
    script = ("import json, sys\n"
              "from heatlab.cli import main\n"
              "codes = [main(args) for args in json.loads(sys.argv[1])]\n"
              "print(json.dumps([codes, sorted(m for m in sys.modules "
              "if m.startswith('scipy'))]))")
    src = Path(heatlab.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", script, json.dumps(calls)],
                         capture_output=True, text=True, env=env, check=True)
    codes, loaded = json.loads(out.stdout.splitlines()[-1])
    assert codes == [0] * len(calls)
    assert loaded == []


@pytest.mark.parametrize("argv", [
    ["spectrum"], ["kernel", "--t", "0.7"], ["rate"], ["groundstate"],
    ["positivity"],
])
def test_metric_graph_file_is_named_as_such(tmp_path, data_dir, capsys,
                                            argv):
    # star.json is a metric graph (edges i, j, l); the weighted-graph
    # subcommands name the missing field, the edge, and `heatlab metric`
    assert main(argv + ["--graph", str(data_dir / "star.json"),
                        "--out", str(tmp_path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError" and err["exit_code"] == 1
    for part in ("edge 0", "'u'", "metric-graph", "heatlab metric"):
        assert part in err["message"]


@pytest.mark.parametrize("edges, named", [
    ([{"u": "a", "v": "b"}], "has no field 'b'"),
    ({"u": "a", "v": "b", "b": 1.0}, "is not an object"),
])
def test_malformed_edge_is_named(tmp_path, capsys, edges, named):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"vertices": [{"id": "a"}, {"id": "b"}],
                                "edges": edges}))
    assert main(["spectrum", "--graph", str(path),
                 "--out", str(tmp_path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"
    assert "edge 0" in err["message"] and named in err["message"]
    assert "metric" not in err["message"]


@pytest.mark.parametrize("vertices, named", [
    ([{"id": "a"}, {"m": 2.0}], "vertex 1 ({'m': 2.0}) has no field 'id'"),
    ([{"id": "a"}, "b"], "vertex 1 ('b') is not an object"),
])
def test_malformed_vertex_is_named(tmp_path, capsys, vertices, named):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"vertices": vertices,
                                "edges": [{"u": "a", "v": "b", "b": 1.0}]}))
    assert main(["spectrum", "--graph", str(path),
                 "--out", str(tmp_path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError" and err["exit_code"] == 1
    assert named in err["message"]


@pytest.mark.parametrize("argv", [
    ["positivity"], ["kernel", "--t", "0.7", "--method", "expm"],
])
def test_dense_commands_import_no_scipy(tmp_path, data_dir, argv):
    # a fresh `python -m heatlab.cli` process; -X importtime lists every
    # module it imports on stderr.  The resolvent inverts its Cholesky
    # factor in numpy, so these commands never load scipy
    src = Path(heatlab.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "heatlab.cli", *argv,
         "--graph", str(data_dir / "path3.json"), "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, check=True)
    imported = [line.rsplit("|", 1)[-1].strip()
                for line in out.stderr.splitlines()
                if line.startswith("import time:")]
    assert "heatlab.semigroup" in imported
    assert [name for name in imported
            if name.split(".")[0] == "scipy"] == []


def test_counterexample_rejects_short_tail(tmp_path, capsys):
    assert main(["counterexample", "--N", "40",
                 "--out", str(tmp_path)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == \
        "TruncationInsufficient"


def test_metric_then_delegates(tmp_path, data_dir):
    assert main(["metric", "--graph", str(data_dir / "star.json"),
                 "--mesh", "0.1", "--out", str(tmp_path),
                 "--then", "spectrum", "--out", str(tmp_path)]) == 0
    g = load_graph(tmp_path / "discretized.json")
    assert g.n > 4  # interior points added
    with open(tmp_path / "spectrum.json") as fh:
        d = json.load(fh)
    assert len(d["eigenvalues"]) == g.n


def test_verify_artifact_and_seed_fallback(tmp_path, monkeypatch):
    # without --seed the seed is 0; the environment plays no part
    assert main(["verify", "--seed", "0",
                 "--out", str(tmp_path / "flag")]) == 0
    monkeypatch.setenv("HEATLAB_SEED", "5")
    assert main(["verify", "--out", str(tmp_path / "default")]) == 0
    flag = (tmp_path / "flag" / "verify.json").read_bytes()
    assert flag == (tmp_path / "default" / "verify.json").read_bytes()
    d = json.loads(flag)
    assert d["seed"] == 0 and d["passed"] is True
    assert "elapsed" not in d
    assert all("elapsed" not in s for s in d["sections"])


@pytest.mark.parametrize("argv", [
    ["spectrum", "--graph", "/nonexistent/graph.json"],
    ["rate", "--graph", "DATA/path3.json", "--f", "bogus"],
    ["kernel", "--graph", "DATA/path3.json", "--t", "-1"],
    ["frobnicate"],
    ["rate", "--graph", "DATA/path3.json", "--t0", "-2"],
    ["rate", "--graph", "DATA/path3.json", "--f", "random:-1"],
    ["rate", "--graph", "DATA/path3.json", "--f", "random:abc"],
    ["perturb", "--graph", "DATA/path3.json",
     "--potential", "DATA/well_potential.json", "--E", "nan"],
    ["perturb", "--graph", "DATA/path3.json",
     "--potential", "DATA/well_potential.json", "--E", "1e+308"],
])
def test_bad_input_exits_1(tmp_path, data_dir, capsys, argv):
    argv = [a.replace("DATA", str(data_dir)) for a in argv]
    assert main(argv + ["--out", str(tmp_path)]
                if argv[0] != "frobnicate" else argv) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == 1
    if {"--f", "--E"} & set(argv):  # a bad value is named
        assert err["error"] == "ValidationError"
        assert argv[-1] in err["message"]


@pytest.mark.parametrize("argv", [
    ["spectrum", "--graph", "DATA/path3.json", "--method", "krylov"],
    ["groundstate", "--graph", "DATA/path3.json", "--seed", "3"],
    ["verify", "--graph", "DATA/path3.json"],
    ["counterexample", "--graph", "DATA/path3.json"],
    ["solve", "--graph", "DATA/path3.json",
     "--potential", "DATA/well_potential.json", "--ks", "1"],
])
def test_flags_only_on_their_subcommand(tmp_path, data_dir, capsys, argv):
    # --method belongs to kernel alone, --seed to verify alone, --ks to
    # perturb alone; verify and counterexample read no graph
    argv = [a.replace("DATA", str(data_dir)) for a in argv]
    assert main(argv + ["--out", str(tmp_path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("extra", [
    ["--ks", "1,nan"],
    ["--ks=-1,2"],
    ["--ks=-1,2", "--E", "-3"],
    ["--ks", "-1,2"],
    ["--ks", "1,abc"],
    ["--ks", "1,,2"],
])
def test_perturb_rejects_bad_truncation_levels(tmp_path, data_dir, capsys,
                                               extra):
    argv = ["perturb", "--graph", str(data_dir / "path3.json"),
            "--potential", str(data_dir / "well_potential.json"), *extra,
            "--out", str(tmp_path)]
    assert main(argv) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError" and "--ks" in err["message"]
    # the message quotes the bad value, so the level check raised it
    value = extra[1] if extra[0] == "--ks" else extra[0].split("=", 1)[1]
    assert repr(value) in err["message"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("t_max", ["nan", "inf", "-1", "2", "1e300", "2e5"])
def test_counterexample_rejects_bad_t_max(tmp_path, capsys, t_max):
    assert main(["counterexample", "--t-max", t_max,
                 "--out", str(tmp_path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError" and "--t-max" in err["message"]
    assert list(tmp_path.iterdir()) == []


def test_schema_flag_prints_without_artifacts(tmp_path, capsys):
    assert main(["rate", "--schema", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "rate.csv" in out and "differenced" in out
    assert list(tmp_path.iterdir()) == []


def test_parse_vector_shorthands(data_dir):
    g = load_graph(data_dir / "two_triangles.json")
    op = assemble(g)
    np.testing.assert_array_equal(parse_vector("ones", g, op), np.ones(6))
    delta = parse_vector("deltad", g, op)
    assert delta[g.vertex_index("d")] == 1.0 and delta.sum() == 1.0
    # numeric label falls back to 0-based position when no id matches
    by_pos = parse_vector("delta0", g, op)
    assert by_pos[0] == 1.0 and by_pos.sum() == 1.0
    r1 = parse_vector("random:7", g, op)
    np.testing.assert_array_equal(r1, parse_vector("random:7", g, op))
    assert np.all(r1 > 0)
    perron = parse_vector("perron", g, op)
    np.testing.assert_allclose(perron,
                               eigendecompose(op).vectors[:, 0])
    with pytest.raises(ValidationError):
        parse_vector("bogus", g, op)
    with pytest.raises(UnknownVertex):
        parse_vector("deltanope", g, op)
