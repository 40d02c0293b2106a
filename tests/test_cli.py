import json

import pytest

from petrov3.cli import main
from petrov3.pdesolve import lccne_generate


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


def test_build_rejects_non_solution(tmp_path):
    zero_terms = []
    comp = {name: zero_terms for name in
            ("lambda_cc", "lambda_ca", "lambda_aa", "mu_cc", "mu_ca", "mu_aa",
             "omega_cq", "omega_aq")}
    bad = tmp_path / "zero.json"
    bad.write_text(json.dumps({"K": "1", "components": comp}))
    assert run(["build", "--input", str(bad), "--out", str(tmp_path / "m.json")]) == 3


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
    from petrov3 import pdesolve
    from petrov3.exactfield import RatFn

    monkeypatch.setattr(pdesolve, "residual_eqn",
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
