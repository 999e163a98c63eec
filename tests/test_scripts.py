"""Smoke tests: each script under scripts/ runs with small inputs and prints
its table header, without the development-only dependencies and with
RuntimeWarnings as errors, as the package's own tests run."""

import os
import pathlib
import subprocess
import sys

import pytest
from test_imports import DEV_ONLY

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: script -> (arguments, a header line it prints, with runs of spaces as one)
SCRIPTS = {
    "constants_table": ([], "constant value"),
    "make_fig1": (["--outdir", "{tmp}"],
                  "max relative deviation from the frozen reference curves"),
    "risk_rates": (["--trials", "100"], "rate of the order-alpha estimator on uniform(K=n)"),
    "tail_dominance": (["--trials", "1000"], "g dist n worst slack tightest bound"),
    "dirichlet_curves": (["--trials", "100"], "alpha n closed monte carlo rel diff"),
}


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_runs(script, tmp_path):
    args, header = SCRIPTS[script]
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    path = str(ROOT / "scripts" / f"{script}.py")
    argv = [path, *(a.format(tmp=tmp_path) for a in args)]
    # a None entry in sys.modules makes any import of that name fail
    run = ("import runpy, sys\n"
           f"for name in {DEV_ONLY!r}:\n"
           "    sys.modules[name] = None\n"
           f"sys.argv = {argv!r}\n"
           f"runpy.run_path({path!r}, run_name='__main__')\n")
    proc = subprocess.run([sys.executable, "-c", run], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert header in [" ".join(line.split()) for line in proc.stdout.splitlines()]
    if script == "make_fig1":
        assert sorted(p.name for p in tmp_path.glob("*.csv")) == [
            "tail_curves_n100.csv", "tail_curves_n1000.csv", "tail_curves_n20.csv"]
