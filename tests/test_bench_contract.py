"""The package names that bench/ relies on.

bench/tracer.py hooks parameters by name (spec/eps of
tail_bounds.poly_filtered_exponent, trials and n_list of the Monte Carlo
entry points, path of cli.read_tokens) and raises KeyError when one is gone;
bench/worker.py calls risk_lab.mc_bias with threads=.
"""

import importlib
import pathlib

from missingmass import distributions as dm
from missingmass import estimators as est
from missingmass import gfunction as gf
from missingmass import risk_lab as rl
from missingmass import tail_bounds as tb

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def test_tracer_patches_and_restores_every_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer_mod = importlib.import_module("tracer")
    original = tb.poly_filtered_exponent
    tracer = tracer_mod.Tracer("missingmass", {})
    tracer.patch()
    try:
        assert tb.poly_filtered_exponent is not original
        # curve solves a whole grid at once, past this hook; a direct call
        # at eps > 0 is one solve
        spec = tb.build_spec(20, gf.power(1.0), 2)
        for eps in (0.0, 0.1, 0.2):
            tb.poly_filtered_exponent(spec, eps)
        assert tracer.counters["chernoff_solves"] == 2
    finally:
        tracer.unpatch()
    assert tb.poly_filtered_exponent is original


def test_mc_bias_accepts_threads():
    d = dm.uniform(8)
    a = rl.mc_bias(d, est.good_turing(), gf.power(1.0), 12, 200, seed=4, threads=2)
    assert a == rl.mc_bias(d, est.good_turing(), gf.power(1.0), 12, 200, seed=4)
