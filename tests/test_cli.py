import hashlib
import json
import os
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from petrov3 import cli
from petrov3.cli import main
from petrov3.pdesystem import lccne_generate


def run(argv):
    return main(argv)


@pytest.fixture()
def lccne_file(tmp_path):
    path = tmp_path / "lccne.json"
    path.write_text(json.dumps(lccne_generate(1, 1).to_json()))
    return str(path)


def test_build_writes_metric_and_summary(tmp_path, lccne_file):
    out = tmp_path / "m.json"
    assert run(["build", "--input", lccne_file, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["determinantIsPhiSquared"]
    assert data["metric"]["coords"] == ["y1", "y2", "x1", "x2"]
    assert data["derived"]["r"]["num"] == []          # r = 0 for this instance


@pytest.fixture()
def non_solution_file(tmp_path):
    """All eight components empty at K = 1: fails the solution-consistency guard."""
    comp = {name: [] for name in
            ("lambda_cc", "lambda_ca", "lambda_aa", "mu_cc", "mu_ca", "mu_aa",
             "omega_cq", "omega_aq")}
    bad = tmp_path / "zero.json"
    bad.write_text(json.dumps({"K": "1", "components": comp}))
    return str(bad)


def test_build_rejects_non_solution(tmp_path, non_solution_file):
    assert run(["build", "--input", non_solution_file, "--out", str(tmp_path / "m.json")]) == 3


@pytest.mark.parametrize("command", ["verify", "invariant"])
def test_non_solution_exit3(tmp_path, capsys, non_solution_file, command):
    out = tmp_path / "out.json"
    assert run([command, "--input", non_solution_file, "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_build_malformed_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"K\": \"1\"}")
    assert run(["build", "--input", str(bad)]) == 2


def test_build_r_override_same_metric_different_f(tmp_path, lccne_file):
    out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
    assert run(["build", "--input", lccne_file, "--out", str(out1)]) == 0
    assert run(["build", "--input", lccne_file, "--out", str(out2),
                "--r-override", "5"]) == 0
    d1, d2 = json.loads(out1.read_text()), json.loads(out2.read_text())
    assert d1["metric"] == d2["metric"]
    assert d1["derived"]["f"] != d2["derived"]["f"]


def test_verify_full_suite_exit_zero(tmp_path, lccne_file):
    out = tmp_path / "report.json"
    assert run(["verify", "--input", lccne_file, "--out", str(out)]) == 0
    reports = json.loads(out.read_text())
    assert {r["name"] for r in reports} >= {"einstein", "selfdual_type3", "nonwalker"}
    assert all(r["status"] == "pass" for r in reports)


def test_verify_subset_and_orientation(tmp_path, lccne_file):
    out = tmp_path / "report.json"
    assert run(["verify", "--input", lccne_file, "--checks", "einstein",
                "--out", str(out)]) == 0
    reports = json.loads(out.read_text())
    assert [r["name"] for r in reports] == ["einstein"]
    # forcing an orientation: one sign passes, the other fails
    codes = {o: run(["verify", "--input", lccne_file, "--checks", "selfdual",
                     "--orientation", str(o), "--out", str(tmp_path / f"r{o}.json")])
             for o in (1, -1)}
    assert sorted(codes.values()) == [0, 1]


def test_verify_perturbed_metric_fails(tmp_path, lccne_file):
    mfile = tmp_path / "m.json"
    assert run(["build", "--input", lccne_file, "--out", str(mfile)]) == 0
    data = json.loads(mfile.read_text())
    metric = data["metric"]
    # perturb one horizontal component by +y1
    metric["g"][0][0]["num"].append({"e": [1, 0, 0, 0], "c": "1"})
    bad = tmp_path / "bad_metric.json"
    bad.write_text(json.dumps(metric))
    out = tmp_path / "report.json"
    assert run(["verify", "--input", str(bad), "--checks", "einstein",
                "--K", "1", "--out", str(out)]) == 1
    # unperturbed metric passes
    good = tmp_path / "good_metric.json"
    good.write_text(json.dumps(json.loads(mfile.read_text())["metric"]))
    assert run(["verify", "--input", str(good), "--checks", "einstein",
                "--K", "1", "--out", str(out)]) == 0


def test_verify_metric_input_skips_solution_checks(tmp_path, lccne_file):
    mfile = tmp_path / "m.json"
    run(["build", "--input", lccne_file, "--out", str(mfile)])
    good = tmp_path / "metric.json"
    good.write_text(json.dumps(json.loads(mfile.read_text())["metric"]))
    out = tmp_path / "report.json"
    assert run(["verify", "--input", str(good), "--checks", "einstein,witness",
                "--K", "1", "--out", str(out)]) == 0
    reports = json.loads(out.read_text())
    by_name = {r["name"]: r for r in reports}
    assert by_name["einstein"]["status"] == "pass"
    assert by_name["witness"]["status"] == "indeterminate"


def test_solve_lccne_family(tmp_path):
    out = tmp_path / "sol.json"
    assert run(["solve", "--family", "lccne", "--K", "-2", "--const0", "0",
                "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["K"] == "-2"
    assert run(["verify", "--input", str(out), "--checks", "einstein",
                "--out", str(tmp_path / "rep.json")]) == 0


def test_solve_k0_family(tmp_path):
    out = tmp_path / "sol.json"
    assert run(["solve", "--family", "k0", "--chi", "[]", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["K"] == "0"
    default = tmp_path / "default.json"
    assert run(["solve", "--family", "k0", "--out", str(default)]) == 0
    assert json.loads(default.read_text()) == data


def test_solve_k0_residual_failure_exit3(tmp_path, monkeypatch):
    from petrov3 import pdesystem
    from petrov3.exactfield import RatFn

    monkeypatch.setattr(pdesystem, "residual_eqn",
                        lambda sol: (RatFn.const(1, 4), RatFn.const(0, 4)))
    out = tmp_path / "sol.json"
    assert run(["solve", "--family", "k0", "--out", str(out)]) == 3
    assert not out.exists()


def test_solve_characteristics(tmp_path):
    pde = {
        "rho": [{"e": [0, 0, 0], "c": "1"}],
        "sigma": [{"e": [0, 0, 0], "c": "1"}],
        "chi": [],
        "initialCurve": {"axis": "y2", "offset": 0, "poly": [{"e": [2], "c": "1"}]},
        "step": 1e-3,
        "extent": 0.25,
    }
    pfile = tmp_path / "pde.json"
    pfile.write_text(json.dumps(pde))
    out = tmp_path / "z.json"
    assert run(["solve", "--method", "characteristics", "--pde", str(pfile),
                "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["maxPdeResidual"] <= 1e-6


def test_solve_tangent_curve_exit4(tmp_path):
    pde = {
        "rho": [],
        "sigma": [{"e": [0, 0, 0], "c": "1"}],
        "chi": [],
        "initialCurve": {"axis": "y1", "offset": 0, "values": [0, 0, 0]},
        "step": 1e-2,
        "extent": 0.2,
    }
    pfile = tmp_path / "pde.json"
    pfile.write_text(json.dumps(pde))
    assert run(["solve", "--method", "characteristics", "--pde", str(pfile)]) == 4


def test_solve_blow_up_exit4(tmp_path, capsys):
    """z_1 = z^2 from z = 10 blows up at y1 = 0.1: exit 4, no fan with non-finite nodes."""
    pde = {
        "rho": [{"e": [0, 0, 0], "c": "1"}],
        "sigma": [],
        "chi": [{"e": [0, 0, 2], "c": "1"}],
        "initialCurve": {"axis": "y1", "offset": 0, "poly": [{"e": [0], "c": "10"}]},
        "step": 1e-3,
        "extent": 0.3,
    }
    pfile = tmp_path / "pde.json"
    pfile.write_text(json.dumps(pde))
    out = tmp_path / "fan.json"
    assert run(["solve", "--method", "characteristics", "--pde", str(pfile),
                "--out", str(out)]) == 4
    assert not out.exists()
    assert "error: characteristic fan has 8118 non-finite nodes" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--family", "lccne", "--paa", "{bad"],
    ["--family", "lccne", "--pac", '{"e": [1]}'],
    ["--family", "lccne", "--paa", '[{"e": [1, 0], "c": "1"}]'],
    ["--family", "lccne", "--paa", '[{"e": [1], "c": "x"}]'],
    ["--family", "lccne", "--K", "1/0"],
    ["--family", "k0", "--chi", "{bad"],
    ["--family", "k0", "--chi", '[{"e": [0, 1]}]'],
    ["--family", "k0", "--chi", '[{"e": [0, 0, 1, 0], "c": "1"}]'],
    [],
])
def test_solve_family_malformed_option_exit2(tmp_path, capsys, argv):
    out = tmp_path / "sol.json"
    assert run(["solve", *argv, "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: malformed input")


@pytest.mark.parametrize("pde", [
    {"rho": "abc", "sigma": [], "chi": [], "initialCurve": {"axis": "y1", "poly": []}},
    {"rho": [], "sigma": [{"e": [0, 0, 0], "c": "1"}], "chi": [],
     "initialCurve": {"axis": "y3", "poly": []}},
    {"rho": [], "sigma": [], "chi": [], "step": "small", "initialCurve": {"axis": "y1", "poly": []}},
    [1, 2],
    {"rho": [], "sigma": [], "chi": [], "step": 10 ** 400, "initialCurve": {"axis": "y1", "poly": []}},
    {"rho": [], "sigma": [], "chi": [], "initialCurve": {"axis": "y1", "values": []}},
])
def test_solve_malformed_pde_exit2(tmp_path, capsys, pde):
    pfile = tmp_path / "pde.json"
    pfile.write_text(json.dumps(pde))
    assert run(["solve", "--method", "characteristics", "--pde", str(pfile)]) == 2
    assert capsys.readouterr().err.startswith("error: malformed input")


@pytest.mark.parametrize("step", [0, -1e-3, float("nan"), 1e-9],
                         ids=["zero", "negative", "nan", "over-cap"])
def test_solve_bad_step_exit2(tmp_path, capsys, step):
    """A step that is not positive and finite, or a fan over the node cap, ends in exit 2."""
    pde = {"rho": [{"e": [0, 0, 0], "c": "1"}], "sigma": [], "chi": [],
           "initialCurve": {"axis": "y1", "offset": 0, "poly": [{"e": [0], "c": "1"}]},
           "step": step, "extent": 0.3}
    pfile = tmp_path / "pde.json"
    pfile.write_text(json.dumps(pde))
    out = tmp_path / "fan.json"
    assert run(["solve", "--method", "characteristics", "--pde", str(pfile),
                "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["build", "--tol", "1"],
    ["build", "--mode", "numeric"],
    ["build", "--seed", "1"],
    ["verify", "--points", "pts.json"],
    ["invariant", "--orientation", "1"],
    ["solve", "--family", "lccne", "--seed", "1"],
    ["classify", "--step", "0.1"],
])
def test_flags_a_command_does_not_read_exit2(lccne_file, argv):
    argv = argv[:1] + ([] if argv[0] == "solve" else ["--input", lccne_file]) + argv[1:]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2


def test_classify_metric_points(tmp_path, lccne_file):
    mfile = tmp_path / "m.json"
    run(["build", "--input", lccne_file, "--out", str(mfile)])
    metric = tmp_path / "metric.json"
    metric.write_text(json.dumps(json.loads(mfile.read_text())["metric"]))
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps([["0", "0", "1", "1"], ["1", "-1", "2", "1"]]))
    out = tmp_path / "verdicts.json"
    assert run(["classify", "--input", str(metric), "--points", str(pts),
                "--out", str(out)]) == 0
    verdicts = json.loads(out.read_text())
    tags = {(v["part"], v["tag"]) for v in verdicts}
    assert tags == {("Wplus", "Zero"), ("Wminus", "TypeIII")} or \
        tags == {("Wplus", "TypeIII"), ("Wminus", "Zero")}


def test_readme_build_then_classify(tmp_path, monkeypatch, capsys):
    """The README sequence: a build output file is a valid classify input."""
    monkeypatch.chdir(tmp_path)
    assert run(["solve", "--family", "lccne", "--K", "1", "--out", "lccne.json"]) == 0
    assert run(["build", "--input", "lccne.json", "--out", "metric.json"]) == 0
    (tmp_path / "pts.json").write_text('[["0","0","1","1"]]\n')
    capsys.readouterr()
    assert run(["classify", "--input", "metric.json", "--points", "pts.json"]) == 0
    verdicts = json.loads(capsys.readouterr().out)
    assert sorted(v["tag"] for v in verdicts) == ["TypeIII", "Zero"]


@pytest.fixture()
def classify_args(tmp_path, lccne_file):
    metric = tmp_path / "metric.json"
    assert run(["build", "--input", lccne_file, "--out", str(metric)]) == 0
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps([["0", "0", "1", "1"]]))
    return {"input": str(metric), "points": str(pts)}


@pytest.mark.parametrize("which", ["input", "points"])
def test_classify_missing_file_exit2(tmp_path, classify_args, which):
    classify_args[which] = str(tmp_path / "absent.json")
    assert run(["classify", "--input", classify_args["input"],
                "--points", classify_args["points"]]) == 2


@pytest.mark.parametrize("which", ["input", "points"])
def test_classify_invalid_json_exit2(tmp_path, classify_args, which):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    classify_args[which] = str(bad)
    assert run(["classify", "--input", classify_args["input"],
                "--points", classify_args["points"]]) == 2


def test_classify_flat_metric_all_zero(tmp_path):
    from tests_flat_helper import flat_reference_metric

    metric = tmp_path / "metric.json"
    metric.write_text(json.dumps(flat_reference_metric().to_json()))
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps([["0", "0", "1", "1"]]))
    out = tmp_path / "verdicts.json"
    assert run(["classify", "--input", str(metric), "--points", str(pts),
                "--out", str(out)]) == 0
    assert all(v["tag"] == "Zero" for v in json.loads(out.read_text()))


def test_classify_pole_point_exit2(tmp_path, lccne_file):
    mfile = tmp_path / "m.json"
    run(["build", "--input", lccne_file, "--out", str(mfile)])
    metric = tmp_path / "metric.json"
    metric.write_text(json.dumps(json.loads(mfile.read_text())["metric"]))
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps([["0", "0", "1", "0"]]))       # on the phi = 0 wall
    assert run(["classify", "--input", str(metric), "--points", str(pts)]) == 2


def test_classify_builds_no_symbolic_star_or_weyl_part(tmp_path, lccne_file, monkeypatch):
    """classify decides from point values: no symbolic star, projectors or P W P."""
    from petrov3 import duality
    from petrov3.exactfield import RatFn

    metric = tmp_path / "metric.json"
    assert run(["build", "--input", lccne_file, "--out", str(metric)]) == 0
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps([["0", "0", "1", "1"], ["1", "-1", "2", "1"]]))
    argv = ["classify", "--input", str(metric), "--points", str(pts)]
    assert run(argv + ["--out", str(tmp_path / "plain.json")]) == 0

    def refuse(name):
        def fn(*args, **kwargs):
            raise AssertionError(f"classify called duality.{name}")
        return fn

    symbolic_mat_mul = duality.mat_mul

    def fraction_mat_mul(A, B):
        if isinstance(A[0][0], RatFn) or isinstance(B[0][0], RatFn):
            raise AssertionError("classify multiplied RatFn matrices")
        return symbolic_mat_mul(A, B)

    for name in ("hodge_star", "sd_projectors", "weyl_endo_at_point"):
        monkeypatch.setattr(duality, name, refuse(name))
    monkeypatch.setattr(duality, "mat_mul", fraction_mat_mul)
    assert run(argv + ["--out", str(tmp_path / "patched.json")]) == 0
    assert (tmp_path / "patched.json").read_bytes() == (tmp_path / "plain.json").read_bytes()


GOLDEN_POINTS = [["0", "0", "1", "1"], ["1", "-1", "2", "0"], ["1/2", "1/3", "-1", "3/4"],
                 ["-1", "2", "1/2", "-1/2"], ["2", "-1/2", "3", "-5/2"]]


def test_classify_sheared_metric_golden_bytes(tmp_path):
    """The K != 0, q != 0 metric sheared by x2 -> x2 + y1^2 at five points with
    phi in [1/2, 3/2]: the bytes the symbolic P W P route wrote."""
    from petrov3.builder import assemble_metric
    from tests_metric_helper import nonzero_K_and_q_solution, sheared

    metric = tmp_path / "metric.json"
    metric.write_text(json.dumps(sheared(assemble_metric(nonzero_K_and_q_solution()), -1).to_json()))
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps(GOLDEN_POINTS))
    out = tmp_path / "verdicts.json"
    assert run(["classify", "--input", str(metric), "--points", str(pts), "--out", str(out)]) == 0
    golden = Path(__file__).parent / "golden" / "classify_sheared_kq.json"
    assert out.read_bytes() == golden.read_bytes()


def test_characteristics_fan_golden_bytes(tmp_path):
    """The benchmark's fan (rho = z^2, sigma = -1, chi = z/2, z0 = 9/10, extent 0.3)
    keeps the bytes the list-form encoder wrote: same size and sha256."""
    golden = json.loads((Path(__file__).parent / "golden" / "fan_sha256.json").read_text())
    pde = tmp_path / "pde.json"
    pde.write_text(json.dumps(golden["cliFan"]["pde"]))
    out = tmp_path / "fan.json"
    assert run(["solve", "--method", "characteristics", "--pde", str(pde), "--out", str(out)]) == 0
    text = out.read_bytes()
    assert len(text) == golden["cliFan"]["bytes"]
    assert hashlib.sha256(text).hexdigest() == golden["cliFan"]["sha256"]


def test_classify_connection_passthrough(tmp_path):
    conn = {"case": "II", "psi": [{"e": [0, 1, 0, 0], "c": "1"}], "chi": []}
    cfile = tmp_path / "conn.json"
    cfile.write_text(json.dumps(conn))
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps([["0", "0"], ["1", "1"]]))
    out = tmp_path / "cls.json"
    assert run(["classify", "--input", str(cfile), "--points", str(pts),
                "--out", str(out)]) == 0
    assert all(r["tag"] == "Positive" for r in json.loads(out.read_text()))


def test_classify_exact_mode_rejects_transcendental_connection(tmp_path):
    conn = {"case": "Ia", "psi": [], "chi": [{"e": [1, 0, 0, 0], "c": "1"}]}
    cfile = tmp_path / "conn.json"
    cfile.write_text(json.dumps(conn))
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps([["0", "0"]]))
    assert run(["classify", "--input", str(cfile), "--points", str(pts),
                "--mode", "exact"]) == 2
    assert run(["classify", "--input", str(cfile), "--points", str(pts),
                "--mode", "numeric"]) == 0


def test_invariant_command(tmp_path, lccne_file):
    out = tmp_path / "inv.json"
    assert run(["invariant", "--input", lccne_file, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["report"]["status"] == "pass"
    assert data["report"]["details"]["values"] == ["2", "5/4"]


def test_invariant_command_builds_no_curvature(tmp_path, lccne_file, monkeypatch):
    from petrov3 import tensorcalc

    def no_riemann(*args, **kwargs):
        raise AssertionError("invariant built the Riemann tensor")

    monkeypatch.setattr(tensorcalc, "riemann", no_riemann)
    assert run(["invariant", "--input", lccne_file, "--out", str(tmp_path / "inv.json")]) == 0


def test_deterministic_output_bytes(tmp_path, lccne_file):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        assert run(["verify", "--input", lccne_file, "--checks",
                    "einstein,selfdual,witness", "--seed", "7",
                    "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# -- streamed output and unwritable --out ----------------------------------------------------

# the benchmark's gauge problem on case Ia: a 601 x 41 fan, about 1.7 MB of JSON
GAUGE_PDE = {"rho": [{"e": [0, 0, 2], "c": "1"}], "sigma": [{"e": [0, 0, 0], "c": "-1"}],
             "chi": [{"e": [0, 0, 1], "c": "1/2"}],
             "initialCurve": {"axis": "y2", "offset": 0, "poly": [{"e": [0], "c": "1/3"}]},
             "step": 1e-3, "extent": 0.3}


@pytest.fixture()
def command_argvs(tmp_path, lccne_file):
    """One argv per command and input kind, without --out."""
    from petrov3.builder import assemble_metric

    def write(name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    metric = write("metric.json", assemble_metric(lccne_generate(1, 1)).to_json())
    conn = write("conn.json", {"case": "II", "psi": [{"e": [0, 1, 0, 0], "c": "1"}]})
    return {
        "build": ["build", "--input", lccne_file],
        "verify": ["verify", "--input", lccne_file, "--checks", "einstein,witness"],
        "classify-metric": ["classify", "--input", metric,
                            "--points", write("pts.json", [["0", "0", "1", "1"]])],
        "classify-connection": ["classify", "--input", conn,
                                "--points", write("base.json", [["0", "0"], ["1", "1"]])],
        "solve-lccne": ["solve", "--family", "lccne", "--K", "-2"],
        "solve-characteristics": ["solve", "--method", "characteristics",
                                  "--pde", write("pde.json", GAUGE_PDE)],
        "invariant": ["invariant", "--input", lccne_file],
    }


COMMANDS = ["build", "verify", "classify-metric", "classify-connection", "solve-lccne",
            "solve-characteristics", "invariant"]


@pytest.mark.parametrize("where", ["file", "stdout"])
@pytest.mark.parametrize("command", COMMANDS)
def test_streamed_output_equals_one_shot_text(tmp_path, capsys, monkeypatch, command_argvs,
                                              command, where):
    """The chunks the encoder streams add up to the one-shot text of the same payload,
    its arrays taken as lists."""
    payloads, write = [], cli._write
    monkeypatch.setattr(cli, "_write", lambda fh, payload: (payloads.append(payload),
                                                            write(fh, payload))[1])
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert run(command_argvs[command] + ["--out", str(out) if where == "file" else "-"]) == 0
    (payload,) = payloads
    expected = json.dumps(_as_lists(payload), indent=2, sort_keys=True) + "\n"
    if where == "file":
        assert out.read_bytes() == expected.encode()
    else:
        assert capsys.readouterr().out == expected


def _as_lists(obj):
    """``obj`` with every numpy array replaced by its ``tolist()``."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _as_lists(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_as_lists(v) for v in obj]
    return obj


SPECIAL_FLOATS = [-0.0, 5e-324, 1e300, float("nan"), float("inf"), float("-inf")]
_floats = st.floats() | st.sampled_from(SPECIAL_FLOATS)
_shapes = hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4)
_leaves = (st.none() | st.booleans() | st.integers() | _floats | st.text()
           | st.lists(_floats, max_size=6)
           | hnp.arrays(np.float64, _shapes, elements=_floats)
           | hnp.arrays(np.int64, _shapes, elements=st.integers(-2 ** 62, 2 ** 62)))
_payloads = st.recursive(_leaves, lambda kids: st.lists(kids, max_size=4)
                         | st.dictionaries(st.text(), kids, max_size=4), max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(_payloads)
@example({"ü€": SPECIAL_FLOATS, "": [], "a": {}, "b": [True, None, -3, "\u00e9\n"],
          "rows": np.array([SPECIAL_FLOATS, [0.1, -2.5, 3e-7, 1.0, -1e22, 7.0]]),
          "empty": [np.zeros(0), np.zeros((0, 3)), np.zeros((2, 0))],
          "ints": np.arange(6).reshape(2, 3)})
def test_chunks_equal_stdlib_text(payload):
    """The streamed encoder writes exactly the stdlib's indented, key-sorted text."""
    expected = json.dumps(_as_lists(payload), indent=2, sort_keys=True)
    assert "".join(cli._chunks(payload)) == expected


def _solve_peak(tmp_path, pde) -> tuple:
    """(traced peak, output path) of the second of two identical characteristics solves."""
    pfile = tmp_path / "pde.json"
    pfile.write_text(json.dumps(pde))
    out = tmp_path / "fan.json"
    argv = ["solve", "--method", "characteristics", "--pde", str(pfile), "--out", str(out)]
    assert run(argv) == 0                       # imports and compiled evaluators settle
    tracemalloc.start()
    try:
        assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, out


def test_characteristics_solve_peak_memory(tmp_path):
    """One 601 x 41 fan solve holds neither the whole text, nor the fan's list
    form, nor the residual's temporaries: its traced peak stays below 1.5x the
    bytes it writes (about 1.9x with the list form, 6.4x with the whole text)."""
    peak, out = _solve_peak(tmp_path, GAUGE_PDE)
    assert peak < 1.5 * out.stat().st_size


def test_large_fan_solve_peak_memory(tmp_path):
    """A 6001 x 41 fan solve peaks below 2.5x the bytes of its three node arrays
    (about 5.3x when the fan was turned into lists before it was written)."""
    peak, out = _solve_peak(tmp_path, {**GAUGE_PDE, "step": 1e-4})
    fan = json.loads(out.read_text())
    assert (len(fan["t"]), len(fan["s"])) == (6001, 41)
    assert peak < 2.5 * 3 * 6001 * 41 * 8


@pytest.mark.parametrize("command", COMMANDS)
def test_unwritable_out_exit2(tmp_path, capsys, command_argvs, command):
    """--out naming a directory, or a file in a missing directory, is a named error, exit 2."""
    for out in (tmp_path, tmp_path / "missing" / "out.json"):
        capsys.readouterr()
        assert run(command_argvs[command] + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write output: ")
    assert not (tmp_path / "missing").exists()


def test_failed_write_leaves_no_partial_file(tmp_path):
    """A write that fails partway (file size limit) exits 2 with one error line and no
    traceback, and removes the partial file."""
    pfile = tmp_path / "pde.json"
    pfile.write_text(json.dumps(GAUGE_PDE))
    out = tmp_path / "fan.json"
    limited = ("import resource, signal, sys\n"
               "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
               "resource.setrlimit(resource.RLIMIT_FSIZE, (65536, 65536))\n"
               "from petrov3.cli import main\n"
               "sys.exit(main(sys.argv[1:]))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", limited, "solve", "--method", "characteristics",
                           "--pde", str(pfile), "--out", str(out)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write output: ")
    assert "Traceback" not in proc.stderr
    assert not out.exists()


# -- one failure policy: malformed input is exit 2 with one error line -----------------------


@pytest.fixture()
def malformed_argvs(tmp_path, lccne_file):
    """One argv per kind of malformed input, without --out."""
    from petrov3.builder import assemble_metric

    def write(name, data):
        path = tmp_path / name
        path.write_text(data if isinstance(data, str) else json.dumps(data))
        return str(path)

    metric = write("metric.json", assemble_metric(lccne_generate(1, 1)).to_json())
    pair, g5 = write("pair.json", [1, 2]), write("g5.json", {"g": 5})
    numeric_conn = write("conn.json", {"case": "Ia", "chi": [{"e": [1, 0, 0, 0], "c": "1"}]})
    return {
        "verify-K-abc": ["verify", "--input", metric, "--K", "abc"],
        "verify-K-1/0": ["verify", "--input", metric, "--K", "1/0"],
        "build-r-override-1/0": ["build", "--input", lccne_file, "--r-override", "1/0"],
        "classify-2-entry-chart-row": ["classify", "--input", metric,
                                       "--points", write("pts.json", [["0", "0"]])],
        "classify-g-5": ["classify", "--input", g5],
        "verify-g-5": ["verify", "--input", g5, "--K", "1"],
        "build-list": ["build", "--input", pair],
        "verify-list": ["verify", "--input", pair],
        "classify-list": ["classify", "--input", pair],
        "invariant-list": ["invariant", "--input", pair],
        "classify-case-IV": ["classify", "--input", write("iv.json", {"case": "IV"})],
        "classify-psi-c-x": ["classify", "--input", write(
            "psi.json", {"case": "II", "psi": [{"e": [0, 1, 0, 0], "c": "x"}]})],
        "classify-Gamma-shape": ["classify", "--input", write("gamma.json", {"Gamma": [[[]]]})],
        "verify-checks-bogus": ["verify", "--input", lccne_file, "--checks", "bogus"],
        "classify-zero-tol-nan": ["classify", "--input", numeric_conn, "--mode", "numeric",
                                  "--zero-tol", "nan"],
        "classify-n-points--1": ["classify", "--input", metric, "--n-points", "-1"],
        "classify-1-entry-base-row": ["classify", "--input", numeric_conn, "--mode", "numeric",
                                      "--points", write("base.json", [["0"]])],
        "classify-nested-too-deep": ["classify", "--input",
                                     write("deep.json", "[" * 100_000 + "]" * 100_000)],
    }


MALFORMED = ["verify-K-abc", "verify-K-1/0", "build-r-override-1/0", "classify-2-entry-chart-row",
             "classify-g-5", "verify-g-5", "build-list", "verify-list", "classify-list",
             "invariant-list", "classify-case-IV", "classify-psi-c-x", "classify-Gamma-shape",
             "verify-checks-bogus", "classify-zero-tol-nan", "classify-n-points--1",
             "classify-1-entry-base-row", "classify-nested-too-deep"]


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_input_exit2(tmp_path, capsys, malformed_argvs, case):
    """Malformed input ends in exit 2 and one `error: malformed input:` line, no output."""
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert run(malformed_argvs[case] + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: malformed input: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.out == "" and not out.exists()


# keys and strings the input parsers look for, so that generated values reach past the top level
_KEYS = ("K", "components", "metric", "g", "Gamma", "case", "psi", "chi", "p", "rho", "sigma",
         "initialCurve", "axis", "offset", "poly", "values", "step", "extent", "e", "c", "num",
         "den")
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3)
    | st.sampled_from(("III", "II", "Ia", "y1", "y2", "1/0", "x")),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=3), kids, max_size=4),
    max_leaves=10)


@settings(max_examples=100, deadline=None)
@given(_json_values)
@example({"rho": [], "sigma": [], "chi": [], "initialCurve": {"axis": "y1", "poly": []}})
@example({"case": "II", "psi": [{"e": [1], "c": 1}]})
def test_any_json_input_ends_in_an_exit_code(value):
    """Whatever JSON value an input file holds, every command returns an exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "input.json"), os.path.join(tmp, "out.json")
        with open(path, "w") as fh:
            json.dump(value, fh)
        for argv in (["build", "--input", path], ["verify", "--input", path],
                     ["classify", "--input", path], ["invariant", "--input", path],
                     ["solve", "--method", "characteristics", "--pde", path]):
            assert type(run(argv + ["--out", out])) is int


def _readme_command_lines():
    """The lines of the README's "Command line" block, without comments and blank lines."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line and not line.startswith("#")]


def test_readme_command_block(tmp_path, monkeypatch, capsys):
    """Each line of the README's "Command line" block, run in order in an empty
    directory (`echo` lines as file writes), exits 0."""
    monkeypatch.chdir(tmp_path)
    lines = _readme_command_lines()
    assert any(line.startswith("petrov3 solve --method characteristics") for line in lines)
    for line in lines:
        words = shlex.split(line)
        if words[0] == "echo":
            assert words[2:3] == [">"] and len(words) == 4, line
            (tmp_path / words[3]).write_text(words[1] + "\n")
        else:
            assert words[0] == "petrov3", line
            assert run(words[1:]) == 0, line
