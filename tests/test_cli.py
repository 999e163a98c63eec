import json
import math
import pathlib
import re
import shlex

import numpy as np
import pytest

from missingmass import cli
from missingmass import gfunction as gf
from missingmass import tail_bounds as tb
from missingmass.errors import InvalidInputError, NumericalError


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# parsers


def test_parse_g():
    assert cli.parse_g("power:2").descriptor() == "power:2"
    assert cli.parse_g("power:1.5").alpha == 1.5
    assert cli.parse_g("entropy:64").k_floor == 64
    for bad in ("power", "power:x", "entropy:2.5", "log:3", "power:2:3"):
        with pytest.raises(InvalidInputError):
            cli.parse_g(bad)


def test_parse_dist():
    assert cli.parse_dist("uniform:50").label == "uniform:50"
    assert cli.parse_dist("zipf:200:1").label == "zipf:200:1"
    assert cli.parse_dist("geometric:100:0.5").label == "geometric:100:0.5"
    for bad in ("uniform", "uniform:x", "zipf:10", "pareto:3", "geometric:10:0.5:1"):
        with pytest.raises(InvalidInputError):
            cli.parse_dist(bad)


def test_parse_dist_explicit(tmp_path):
    path = tmp_path / "d.json"
    path.write_text("[0.5, 0.5]")
    d = cli.parse_dist(f"explicit:{path}")
    np.testing.assert_allclose(d.probs, [0.5, 0.5])


def test_parse_eps_grid():
    np.testing.assert_allclose(cli.parse_eps_grid("0:0.2:0.1"), [0.0, 0.1, 0.2])
    np.testing.assert_allclose(cli.parse_eps_grid("0.05,0.1"), [0.05, 0.1])
    grid = cli.parse_eps_grid("0:0.7:0.05")
    assert grid.size == 15 and grid[-1] == pytest.approx(0.7)
    for bad in ("", "0:1", "0:1:0", "1:0:0.1", "-0.1,0.2", "a:b:c"):
        with pytest.raises(InvalidInputError):
            cli.parse_eps_grid(bad)


def test_parse_n_list():
    assert cli.parse_n_list("20,40,80") == [20, 40, 80]
    for bad in ("", "0", "10,x", "-5"):
        with pytest.raises(InvalidInputError):
            cli.parse_n_list(bad)


# ---------------------------------------------------------------------------
# estimate


def test_estimate_tokens_json(tmp_path, capsys):
    f = tmp_path / "toks.txt"
    f.write_text("a\nb\na\nc\na\nb\nd\n")
    code, out, _ = run(capsys, "estimate", "--input", str(f), "--alpha", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 7
    assert doc["phi"] == {"1": 2, "2": 1, "3": 1}
    assert doc["good_turing"] == pytest.approx(2.0 / 7.0)
    assert doc["generalized"]["estimate"] == pytest.approx(1.0 / math.comb(7, 2))
    assert doc["generalized"]["bias_bound"] == pytest.approx(8.0 / 49.0)


def test_estimate_counts_format(tmp_path, capsys):
    f = tmp_path / "counts.csv"
    f.write_text("token,count\nalpha,3\nbeta,2\ngamma,1\ndelta,1\n")
    code, out, _ = run(capsys, "estimate", "--input", str(f), "--format", "counts")
    assert code == 0
    assert json.loads(out)["good_turing"] == pytest.approx(2.0 / 7.0)


def test_estimate_phi_roundtrip(tmp_path, capsys):
    toks = tmp_path / "toks.txt"
    toks.write_text("x\ny\nx\nz\nx\ny\nw\n")
    phi_csv = tmp_path / "phi.csv"
    code, first, _ = run(capsys, "estimate", "--input", str(toks),
                         "--emit-phi", str(phi_csv))
    assert code == 0
    code, second, _ = run(capsys, "estimate", "--input", str(phi_csv),
                          "--format", "phi", "--n", "7")
    assert code == 0
    a, b = json.loads(first), json.loads(second)
    assert a["phi"] == b["phi"]
    assert a["good_turing"] == b["good_turing"]


def test_estimate_inconsistent_phi_exits_2(tmp_path, capsys):
    f = tmp_path / "phi.csv"
    f.write_text("l,phi_l\n1,2\n2,1\n")
    code, _, err = run(capsys, "estimate", "--input", str(f), "--format", "phi", "--n", "9")
    assert code == 2
    assert "inconsistent" in err


def test_estimate_phi_needs_n(tmp_path, capsys):
    f = tmp_path / "phi.csv"
    f.write_text("1,2\n")
    code, _, _ = run(capsys, "estimate", "--input", str(f), "--format", "phi")
    assert code == 2


def test_estimate_missing_file_exits_4(capsys):
    code, _, err = run(capsys, "estimate", "--input", "/nonexistent/toks.txt")
    assert code == 4
    assert "i/o" in err


def test_estimate_out_of_regime_exits_3(tmp_path, capsys):
    f = tmp_path / "toks.txt"
    f.write_text("a\nb\na\nc\na\nb\nd\n")
    code, _, err = run(capsys, "estimate", "--input", str(f),
                       "--alpha", "2", "--eps", "0.1")
    assert code == 3
    assert "regime" in err


def test_estimate_clamp(tmp_path, capsys):
    # n = 1 with one singleton gives phi_1/n = 1, clamp keeps it at 1
    f = tmp_path / "toks.txt"
    f.write_text("solo\n")
    code, out, _ = run(capsys, "estimate", "--input", str(f), "--clamp")
    assert code == 0
    assert json.loads(out)["good_turing"] == 1.0


def test_estimate_deviation_bounds(tmp_path, capsys):
    f = tmp_path / "toks.txt"
    f.write_text("".join(f"tok{i}\n" for i in range(30)))
    code, out, _ = run(capsys, "estimate", "--input", str(f), "--eps", "0.05,0.2")
    assert code == 0
    doc = json.loads(out)
    dev = doc["deviation_bounds"]
    assert dev["eps"] == [0.05, 0.2]
    assert dev["right"][0] == pytest.approx(tb.corollary_right_tail("m0", 30, 0.05))
    assert dev["left"][1] == pytest.approx(
        tb.corollary_left_tail("m0alpha", 30, 0.2, alpha=1.0))


# ---------------------------------------------------------------------------
# fig1 / bounds / ustar


def test_fig1_writes_reference_curves(tmp_path, capsys):
    code, out, _ = run(capsys, "fig1", "--outdir", str(tmp_path))
    assert code == 0
    for n in (20, 100, 1000):
        header, data = cli.read_csv_table(str(tmp_path / f"tail_curves_n{n}.csv"))
        assert header == ["eps", "subgauss", "r2", "r5"]
        assert data.shape == (15, 4)
        np.testing.assert_allclose(data[:, 0], np.arange(15) * 0.05, atol=1e-12)
        np.testing.assert_allclose(data[:, 1], np.minimum(1.0, np.exp(-n * data[:, 0] ** 2)), rtol=1e-12)


def test_fig1_outdir_from_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
    code, _, _ = run(capsys, "fig1")
    assert code == 0
    assert (tmp_path / "tail_curves_n20.csv").exists()


def test_bounds_csv_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "b.csv"
    code, _, _ = run(capsys, "bounds", "--family", "ssg", "--g", "power:1",
                     "--n", "50", "--eps-grid", "0:0.3:0.05", "--path", str(out_path))
    assert code == 0
    header, data = cli.read_csv_table(str(out_path))
    assert header == ["eps", "bound", "exponent"]
    curve = tb.curve("ssg", 50, gf.power(1.0), data[:, 0])
    np.testing.assert_allclose(data[:, 1], curve.bounds, rtol=1e-14)
    np.testing.assert_allclose(data[:, 2], curve.exponents, rtol=1e-14)


def test_bounds_json_format(capsys):
    code, out, _ = run(capsys, "bounds", "--family", "subgauss", "--g", "power:1",
                       "--n", "20", "--eps-grid", "0.1,0.2", "--out", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["family"] == "subgauss"
    assert doc["columns"] == ["eps", "bound", "exponent"]
    assert doc["rows"][0][1] == pytest.approx(math.exp(-20 * 0.01))


def test_bounds_rejects_small_power(capsys):
    code, _, _ = run(capsys, "bounds", "--family", "ssg", "--g", "power:0.5",
                     "--n", "50", "--eps-grid", "0.1,0.2")
    assert code == 2


def test_bounds_regime_exit(capsys):
    code, _, err = run(capsys, "bounds", "--family", "ssg", "--g", "power:1",
                       "--n", "2", "--eps-grid", "0.1,0.2")
    assert code == 3


@pytest.mark.parametrize("family,n", [("poly:2", 702), ("poly:2", 10000),
                                      ("poly:5", 143), ("poly:5", 10000)])
def test_bounds_near_pole_cells(family, n, capsys):
    # power:2 cells whose Chernoff root lies next to the pole 1/c
    code, out, err = run(capsys, "bounds", "--family", family, "--g", "power:2",
                         "--n", str(n), "--eps-grid", "0:0.7:0.005")
    assert code == 0, err
    lines = out.strip().splitlines()
    assert lines[0] == "eps,bound,exponent"
    bound = np.array([float(line.split(",")[1]) for line in lines[1:]])
    assert bound.size == 141
    assert np.all((bound >= 0.0) & (bound <= 1.0))
    assert np.all(np.diff(bound) <= 0.0)


def test_numerical_failure_exits_5(capsys, monkeypatch):
    def fail(spec, eps):
        raise NumericalError("Chernoff solve residual 1 exceeds tolerance")

    monkeypatch.setattr(tb, "poly_filtered_exponent", fail)
    code, _, err = run(capsys, "bounds", "--family", "poly:2", "--g", "power:1",
                       "--n", "50", "--eps-grid", "0.1")
    assert code == 5
    assert err.startswith("numerical failure:")


def test_ustar_json(capsys):
    code, out, _ = run(capsys, "ustar", "--g", "power:1", "--n", "20", "--r", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(0.012562256919262382, rel=1e-10)
    assert 0.0 < doc["argmax"] < 1.0
    assert doc["n"] == 20 and doc["r"] == 2


def test_argparse_errors_exit_2(capsys):
    assert cli.main(["ustar", "--g", "power:1", "--n", "20"]) == 2  # missing --r
    assert cli.main(["ustar", "--g", "power:1", "--n", "20", "--r", "2",
                     "--tol", "1e-9"]) == 2
    assert cli.main(["nosuchcommand"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# simulate


def test_simulate_dirichlet_decreasing(capsys):
    code, out, _ = run(capsys, "simulate", "--task", "dirichlet", "--alpha", "1",
                       "--c", "1", "--n-list", "20,40,80", "--trials", "0")
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l]
    assert lines[0] == "n,variance"
    vals = [float(l.split(",")[1]) for l in lines[1:]]
    assert len(vals) == 3
    assert vals[2] < vals[1] < vals[0]


def test_simulate_risk_seed_and_thread_determinism(tmp_path, capsys):
    args = ("simulate", "--task", "risk", "--g", "power:1", "--dist", "uniform:30",
            "--n-list", "10,20", "--trials", "300", "--seed", "3")
    code, a, _ = run(capsys, *args, "--threads", "1")
    assert code == 0
    code, b, _ = run(capsys, *args, "--threads", "4")
    assert code == 0
    assert a == b


def test_simulate_risk_json_meta(capsys):
    code, out, _ = run(capsys, "simulate", "--task", "risk", "--g", "power:2",
                       "--dist", "uniform:15", "--n-list", "10,20,40",
                       "--trials", "300", "--out", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["estimator"] == "generalized:2"
    assert doc["columns"] == ["n", "trials", "mse", "se"]
    assert "slope" in doc and len(doc["rows"]) == 3


def test_simulate_tail_columns(capsys):
    code, out, _ = run(capsys, "simulate", "--task", "tail", "--g", "power:1",
                       "--dist", "uniform:25", "--n-list", "15",
                       "--trials", "1500", "--eps-grid", "0.05,0.2")
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    assert header[:6] == ["n", "eps", "right_freq", "right_se", "left_freq", "left_se"]
    assert "right_poly_r2" in header and "left_exact_u2" in header
    assert len(lines) == 3


def test_simulate_requires_dist_for_risk(capsys):
    code, _, _ = run(capsys, "simulate", "--task", "risk", "--g", "power:1",
                     "--n-list", "10", "--trials", "300")
    assert code == 2


def test_simulate_entropy_needs_compatible_support(capsys):
    # zipf:200:1 puts mass below 1/64, outside the declared entropy domain
    code, _, err = run(capsys, "simulate", "--task", "tail", "--g", "entropy:64",
                       "--dist", "zipf:200:1", "--n-list", "20", "--trials", "1000")
    assert code == 2
    assert "entropy" in err


def test_readme_command_lines_parse():
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    block = re.search(r"## Command line\n+```bash\n(.*?)```", readme.read_text(), re.S)
    lines = [line for line in block.group(1).splitlines() if line.startswith("missingmass ")]
    assert len(lines) >= 5
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])
