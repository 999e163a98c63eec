"""The package names that bench/ relies on.

bench/tracer.py hooks parameters by name (trials and n_list of the Monte
Carlo entry points, path of cli.read_tokens), counts the symbols of the
profiles that empirical's profile_from_* builders return, times the u_star
calls that miss its cache through u_star.cache_info, and raises KeyError
when a hooked parameter is gone; bench/worker.py calls risk_lab.mc_bias with
threads=.
"""

import importlib
import inspect
import os
import pathlib
import subprocess
import sys

from missingmass import cli
from missingmass import distributions as dm
from missingmass import empirical as emp
from missingmass import estimators as est
from missingmass import gfunction as gf
from missingmass import risk_lab as rl
from missingmass import tail_bounds as tb
from missingmass import ustar_engine as ue

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def test_tracer_patches_and_restores_every_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer_mod = importlib.import_module("tracer")
    originals = {"u_star": ue.u_star, "curve": tb.curve}
    tracer = tracer_mod.Tracer("missingmass", {})
    tracer.patch()
    try:
        assert ue.u_star is not originals["u_star"]
        assert tb.curve is not originals["curve"]
        # a u_star call that misses the cache is timed, one that hits it is not
        args = (7919, gf.power(3.25), 4)
        misses = originals["u_star"].cache_info().misses
        ue.u_star(*args)
        assert originals["u_star"].cache_info().misses == misses + 1
        miss_s = tracer.counters["u_star.miss_s"]
        assert miss_s > 0.0
        ue.u_star(*args)
        assert tracer.counters["u_star.miss_s"] == miss_s
    finally:
        tracer.unpatch()
    assert ue.u_star is originals["u_star"]
    assert tb.curve is originals["curve"]


def test_mc_bias_accepts_threads():
    d = dm.uniform(8)
    a = rl.mc_bias(d, est.good_turing(), gf.power(1.0), 12, 200, seed=4, threads=2)
    assert a == rl.mc_bias(d, est.good_turing(), gf.power(1.0), 12, 200, seed=4)


def test_hooked_reader_and_profile_builders_keep_their_names():
    # The tracer counts cli.read_tokens.lines by the path argument of
    # cli.read_tokens, and empirical.symbols on the profile_from_* builders.
    assert cli.read_tokens.__module__ == "missingmass.cli"
    assert "path" in inspect.signature(cli.read_tokens).parameters
    for name in ("profile_from_samples", "profile_from_counts", "profile_from_phi"):
        assert getattr(emp, name).__module__ == "missingmass.empirical"


def test_empirical_does_not_import_cli():
    script = "import sys, missingmass.empirical; sys.exit('missingmass.cli' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
