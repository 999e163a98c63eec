"""Acceptance gate: one test per advertised guarantee, at the stated
tolerance and within the stated time budget.

The order-2 and order-5 reference values of criteria 02 and 03 (the "r2"
and "r5" columns of data/reference_tail_curves.json and the spot constants
below) come from data/make_reference_tail_curves.py, a 40-digit evaluation
of the documented recipe that does not import the package.  Every test here
must pass.
"""

import json
import pathlib

import numpy as np
import pytest

from missingmass import distributions as dm
from missingmass import empirical as emp
from missingmass import estimators as est
from missingmass import gfunction as gf
from missingmass import risk_lab as rl
from missingmass import tail_bounds as tb
from missingmass import ustar_engine as ue
from missingmass.cli import fig1_rows
from missingmass.errors import InvalidInputError

P1 = gf.power(1.0)
P2 = gf.power(2.0)
E64 = gf.entropy_log2(64)

REFERENCE = json.loads(
    (pathlib.Path(__file__).parent / "data" / "reference_tail_curves.json").read_text()
)

EPS_15 = np.arange(15) * 0.05


def test_criterion_01_sub_gaussian_reference_curve():
    """subgauss family reproduces exp(-n eps^2) to 1e-9 for n in {20,100,1000}."""
    for n in (20, 100, 1000):
        got = np.asarray(tb.curve("subgauss", n, P1, EPS_15)["bound"])
        want = np.minimum(1.0, np.exp(-n * EPS_15**2))
        assert np.max(np.abs(got - want)) <= 1e-9


def test_criterion_02a_order2_spot_n20_eps005():
    """order-2 filtered bound at (n=20, eps=0.05) within 0.5% of reference."""
    got = tb.curve("poly:2", 20, P1, [0.05])["bound"][0]
    want = 0.914933968097578
    rel = abs(got - want) / want
    assert rel <= 0.005, (
        f"order-2 bound at (n=20, eps=0.05) is {got:.15g}, reference "
        f"{want:.15g}, deviation {rel:.3%} (tolerance 0.5%)"
    )


def test_criterion_02b_order2_spot_n20_eps010():
    """order-2 filtered bound at (n=20, eps=0.1) within 0.5% of reference."""
    got = tb.curve("poly:2", 20, P1, [0.1])["bound"][0]
    want = 0.726983256729986
    rel = abs(got - want) / want
    assert rel <= 0.005, (
        f"order-2 bound at (n=20, eps=0.1) is {got:.15g}, reference "
        f"{want:.15g}, deviation {rel:.3%} (tolerance 0.5%). The reference "
        f"follows the documented recipe (c = 3/(2(n+2)), exact u*_2 and u*_3, "
        f"v = u*_3/(2c), a_2 = u*_2 - v); see "
        f"tests/data/make_reference_tail_curves.py."
    )


def _worst_curve_deviation(column):
    """Worst relative deviation of fig1's column from the reference, per n."""
    worst = {}
    for n in (20, 100, 1000):
        header, rows = fig1_rows(n)
        j = header.index(column)
        ref = REFERENCE[str(n)][column]["bound"]
        worst[n] = max(
            abs(row[j] - want) / want for row, want in zip(rows, ref) if want > 0.0
        )
    return worst


def test_criterion_02c_order2_full_reference_curves():
    """order-2 curves for n in {20,100,1000} within 1% of the references."""
    worst = _worst_curve_deviation("r2")
    assert all(w <= 0.01 for w in worst.values()), (
        "order-2 curve deviation from the reference exceeds 1%: worst "
        + ", ".join(f"n={n}: {w:.2%}" for n, w in worst.items())
        + ". The references follow the documented recipe (c = 3/(2(n+2)), "
        "exact u*_2 and u*_3, v = u*_3/(2c), a_2 = u*_2 - v); see "
        "tests/data/make_reference_tail_curves.py."
    )


def test_criterion_03_order5_numeric_chernoff_spots():
    """order-5 numeric Chernoff bound within 1% at two reference points."""
    got_a = tb.curve("poly:5", 20, P1, [0.1])["bound"][0]
    want_a = 0.721191842023466
    assert abs(got_a - want_a) / want_a <= 0.01
    got_b = tb.curve("poly:5", 100, P1, [0.15])["bound"][0]
    want_b = 0.0384833714561327
    assert abs(got_b - want_b) / want_b <= 0.01


def test_criterion_03b_order5_full_reference_curves():
    """order-5 curves for n in {20,100,1000} within 1% of the references."""
    worst = _worst_curve_deviation("r5")
    assert all(w <= 0.01 for w in worst.values()), (
        "order-5 curve deviation from the reference exceeds 1%: worst "
        + ", ".join(f"n={n}: {w:.2%}" for n, w in worst.items())
        + ". The references follow the documented recipe (c = 3/(2(n+2)), "
        "exact u*_2..u*_6, v = u*_6/(c^4 5!), a_r = u*_r/(r-1)! - c^(r-2) v); "
        "see tests/data/make_reference_tail_curves.py."
    )


def test_criterion_04_variational_constants():
    """gamma, 1/(2 gamma), kappa, 2 kappa at their stated tolerances."""
    assert ue.gamma_const() == pytest.approx(0.2603, abs=1e-3)
    assert 1.0 / (2.0 * ue.gamma_const()) == pytest.approx(1.92, abs=0.01)
    assert ue.kappa_const() == pytest.approx(0.2595, abs=5e-4)
    assert 2.0 * ue.kappa_const() == pytest.approx(0.519, abs=1e-3)


@pytest.mark.parametrize("alpha", [1, 2])
def test_criterion_05_generalized_estimator_minimax_rate(alpha):
    """MSE of the order-alpha estimator on uniform(K=n) falls at n^-(2a-1)."""
    g = gf.power(float(alpha))
    kind = est.generalized_good_turing(alpha)
    pairs = []
    for n in (20, 40, 80, 160):
        rep = rl.mc_risk(dm.uniform(n), kind, g, [n], trials=10**4, seed=42)
        pairs.append((n, rep["mse"][0]))
    slope, _ = rl.rate_fit(pairs)
    want = -(2.0 * alpha - 1.0)
    assert abs(slope - want) <= 0.3, f"slope {slope:.3f}, want {want} +- 0.3"


@pytest.mark.parametrize("k", [10, 100, 1000])
def test_criterion_06_good_turing_worst_case_level(k):
    """GT squared error at n=100 stays below 0.65/n across support sizes."""
    n = 100
    rep = rl.mc_risk(dm.uniform(k), est.good_turing(), P1, [n],
                     trials=10**5, seed=7)
    assert rep["mse"][0] <= 0.65 / n


@pytest.mark.parametrize("alpha", [1, 2, 3])
@pytest.mark.parametrize("n", [10, 20, 50])
def test_criterion_07_signed_bias_window(alpha, n):
    """empirical bias sits in [-3se, bound + 3se] for alpha in {1,2,3}."""
    g = gf.power(float(alpha))
    kind = est.generalized_good_turing(alpha)
    mean, se = rl.mc_bias(dm.uniform(n), kind, g, n, trials=3 * 10**4,
                          seed=101)
    bound = est.gt_bias_bound(n, alpha)
    assert mean >= -3.0 * se
    assert mean <= bound + 3.0 * se


TAIL_EPS = (0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3)

TAIL_CELLS = [
    (g, d, n)
    for g in (P1, P2, E64)
    for d in (dm.uniform(50), dm.zipf(200, 1.0))
    for n in (20, 100)
]


@pytest.mark.parametrize(
    "g,dist,n",
    TAIL_CELLS,
    ids=[f"{g.descriptor()}-{d.label}-n{n}" for g, d, n in TAIL_CELLS],
)
def test_criterion_08_tail_bound_dominance(g, dist, n):
    """every bound column dominates the observed tail frequency (3se slack);
    cells whose support puts mass below an entropy floor must refuse."""
    if g.kind == "entropy_log2" and dist.probs.min() < g.domain_min:
        with pytest.raises(InvalidInputError):
            rl.mc_tail(dist, g, n, 10**5, TAIL_EPS, seed=13)
        return
    table = rl.mc_tail(dist, g, n, 10**5, TAIL_EPS, seed=13)
    for name, col in table.items():
        if name.endswith(("_freq", "_se")):
            continue
        side = name.split("_")[0]
        for e, f, s, b in zip(TAIL_EPS, table[side + "_freq"], table[side + "_se"], col):
            assert f <= b + 3.0 * s, (
                f"{name} violated at eps={e}: freq {f:.4g} > bound {b:.4g} "
                f"+ 3*{s:.2g}"
            )


def test_criterion_09_dirichlet_lower_bound_curves():
    """closed-form prior variance: MC agreement, rate, and 1/(8n) spot."""
    for alpha, n in [(1, 10), (1, 20), (2, 10), (2, 20)]:
        closed = rl.dirichlet_prior_variance(n, 1.0, alpha)
        mc, se = rl.dirichlet_mc_variance(n, 1.0, alpha, trials=4000, seed=29)
        assert abs(mc - closed) / closed <= 0.05
    for alpha in (1, 2):
        pairs = [(n, rl.dirichlet_prior_variance(n, 1.0, alpha)) for n in (20, 40, 80)]
        slope, _ = rl.rate_fit(pairs)
        assert abs(slope - (-(2.0 * alpha - 1.0))) <= 0.3
    n = 200
    assert rl.dirichlet_prior_variance(n, 1.0, 1) == pytest.approx(
        1.0 / (8.0 * n), rel=0.05
    )


def test_criterion_10_structural_invariants():
    """identity, moment ratio chain, bound orderings, determinism."""
    # missing + observed = total, to 1e-12, across kinds and supports
    cases = [
        (P1, dm.uniform(50)), (P1, dm.zipf(200, 1.0)), (P1, dm.geometric(100, 0.5)),
        (P2, dm.uniform(50)), (P2, dm.zipf(200, 1.0)), (P2, dm.geometric(100, 0.5)),
        (E64, dm.uniform(50)),
    ]
    for g, d in cases:
        total = float(np.sum(np.asarray(g.eval(d.probs[d.probs > 0.0]))))
        for seed, n in ((0, 10), (1, 100), (2, 500)):
            x = dm.sample(d, n, seed=seed)
            got = emp.realized_missing(d, x, g) + emp.realized_observed(d, x, g)
            assert abs(got - total) <= 1e-12

    # consecutive maxima obey the scale-parameter chain
    for g in (P1, P2, E64):
        for n in (10, 50, 200):
            c = ue.scale_parameter(n, g)
            for r in range(3, 9):
                assert ue.u_star(n, g, r).value <= (
                    c * (r - 1) * ue.u_star(n, g, r - 1).value * (1 + 1e-9)
                )

    # the strongly-sub-gamma tail never exceeds the sub-gamma tail
    for v in (1e-4, 0.01, 0.3):
        for c in (0.01, 0.1, 1.0):
            ssg = np.exp(-tb._strongly_sub_gamma(v, c, EPS_15))
            assert np.all(ssg <= np.exp(-tb._sub_gamma(v, c, EPS_15)) + 1e-15)

    # same seed, same numbers
    d = dm.zipf(60, 1.0)
    a = rl.mc_risk(d, est.good_turing(), P1, [30], trials=400, seed=5)
    b = rl.mc_risk(d, est.good_turing(), P1, [30], trials=400, seed=5)
    c2 = rl.mc_risk(d, est.good_turing(), P1, [30], trials=400, seed=6)
    assert a == b
    assert a["mse"][0] != c2["mse"][0]
