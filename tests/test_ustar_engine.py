import math

import numpy as np
import pytest
from scipy import optimize

from missingmass import gfunction as gf
from missingmass import ustar_engine as ue
from missingmass.errors import InvalidInputError, RegimeError

P1 = gf.power(1.0)
P2 = gf.power(2.0)
E64 = gf.entropy_log2(64)


def brute_force_max(n, g, r, points=2_000_001):
    # independent oracle: flat linear scan, no refinement
    p = np.linspace(1e-9, 1.0 - 1e-9, points)
    q = np.exp(n * np.log1p(-p))
    vals = np.asarray(g.eval_raw(p)) ** r * q * (1.0 - q) / p
    i = int(np.argmax(vals))
    return float(vals[i]), float(p[i])


@pytest.mark.parametrize("n,g,r", [(20, P1, 2), (100, P1, 3), (20, P2, 2), (50, E64, 4)])
def test_u_star_matches_brute_force(n, g, r):
    res = ue.u_star(n, g, r)
    ref, argmax_ref = brute_force_max(n, g, r)
    assert res.value == pytest.approx(ref, rel=1e-8)
    assert res.argmax == pytest.approx(argmax_ref, abs=2e-6)


def test_u_star_grid_refinement_stable(monkeypatch):
    a = ue.u_star(200, P1, 2)
    monkeypatch.setattr(ue, "_GRID_POINTS", 4 * ue._GRID_POINTS)
    ue.u_star.cache_clear()
    try:
        b = ue.u_star(200, P1, 2)
    finally:
        ue.u_star.cache_clear()
    assert abs(a.value - b.value) <= 1e-10 * a.value


def test_u_star_frozen_spot():
    res = ue.u_star(20, P1, 2)
    assert res.value == pytest.approx(0.012562256919262382, rel=1e-12)
    assert res.argmax == pytest.approx(0.0684510292499676, rel=1e-8)


def test_u_star_argmax_is_local_max():
    res = ue.u_star(50, P2, 3)
    for d in (-1e-7, 1e-7):
        assert ue.u_r_eval(res.argmax + d, 50, P2, 3) <= res.value + 1e-18


def test_u_star_window_restricts_search():
    full = ue.u_star(200, E64, 2)
    floored = ue.u_star(200, E64, 2, p_window=(1.0 / 64.0, 1.0 - 1e-12))
    assert floored.value <= full.value + 1e-15
    assert floored.argmax >= 1.0 / 64.0 - 1e-12


def test_u_star_input_validation():
    with pytest.raises(InvalidInputError):
        ue.u_star(0, P1, 2)
    with pytest.raises(InvalidInputError):
        ue.u_star(10, P1, 1)
    with pytest.raises(InvalidInputError):
        ue.u_star(10, P1, 2, p_window=(0.5, 0.2))


@pytest.mark.parametrize(
    "bad",
    [lambda p: np.full_like(p, np.nan), lambda p: np.where(p < 0.5, np.inf, p),
     lambda p: -p],
    ids=["nan", "inf", "negative"],
)
def test_u_star_rejects_non_finite_or_negative_g(bad):
    with pytest.raises(InvalidInputError):
        ue.u_star(20, gf.user_defined(bad), 3)


def test_u_star_decreasing_in_n():
    vals = [ue.u_star(n, P1, 2).value for n in (5, 10, 20, 40, 80)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def scipy_gamma_alpha(alpha):
    obj = lambda t: -(t ** (2 * alpha - 1) * math.exp(-t) * (1.0 - math.exp(-t)))
    res = optimize.minimize_scalar(obj, bounds=(1e-8, 50.0), method="bounded",
                                   options={"xatol": 1e-12})
    return -res.fun


@pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0, 3.0])
def test_gamma_alpha_against_scipy(alpha):
    assert ue.gamma_alpha(alpha) == pytest.approx(scipy_gamma_alpha(alpha), rel=1e-9)


def test_gamma_constants_frozen():
    assert ue.gamma_const() == pytest.approx(0.26034549134920526, rel=1e-10)
    assert ue.gamma_alpha(2.0) == pytest.approx(1.2820002767035465, rel=1e-10)
    assert ue.two_gamma_inverse() == pytest.approx(1.920524904844012, rel=1e-10)


def test_gamma_alpha_requires_alpha_at_least_one():
    with pytest.raises(InvalidInputError):
        ue.gamma_alpha(0.9)


def test_kappa_against_scipy():
    def f(x):
        u, v = math.exp(x[0]), math.exp(x[1])
        return -(u / v**2) * math.log1p(math.exp(-u) * (math.expm1(v) - v))

    # coarse grid start, then a local polish with an independent optimizer
    us = np.linspace(-2.0, 3.0, 80)
    vs = np.linspace(-2.0, 3.0, 80)
    best = min(((f((a, b)), (a, b)) for a in us for b in vs), key=lambda t: t[0])
    res = optimize.minimize(f, best[1], method="Nelder-Mead",
                            options={"xatol": 1e-12, "fatol": 1e-14})
    assert ue.kappa_const() == pytest.approx(-res.fun, rel=1e-7)


def test_kappa_frozen():
    assert ue.kappa_const() == pytest.approx(0.25954716297483316, rel=1e-9)
    assert 2.0 * ue.kappa_const() == pytest.approx(0.519, abs=1e-3)


def test_n_times_u2_approaches_gamma_from_below():
    # n u*_2(n, id) increases toward gamma
    seq = [n * ue.u_star(n, P1, 2).value for n in (10, 40, 160, 640)]
    assert all(b > a for a, b in zip(seq, seq[1:]))
    assert seq[-1] < ue.gamma_const()
    assert seq[-1] == pytest.approx(ue.gamma_const(), rel=5e-3)


@pytest.mark.parametrize("n", [3, 10, 100, 1000])
@pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0])
def test_u2_closed_bound_dominates_power(n, alpha):
    g = gf.power(alpha)
    assert ue.u_star(n, g, 2).value <= ue.u2_closed_bound(n, g) * (1 + 1e-12)


@pytest.mark.parametrize("n", [3, 10, 100, 1000])
def test_u2_closed_bound_dominates_entropy_on_declared_domain(n):
    # the closed entropy bound presumes p >= 1/k, so compare on that window
    g = gf.entropy_log2(64)
    floored = ue.u_star(n, g, 2, p_window=(1.0 / 64.0, 1.0 - 1e-12))
    assert floored.value <= ue.u2_closed_bound(n, g) * (1 + 1e-12)


def test_u2_closed_bound_regimes():
    with pytest.raises(RegimeError):
        ue.u2_closed_bound(2, P1)  # needs n >= ln2/(1-ln2) + eps
    with pytest.raises(RegimeError):
        ue.u2_closed_bound(2, E64)
    with pytest.raises(InvalidInputError):
        ue.u2_closed_bound(10, gf.power(0.5))


def test_scale_parameter_identity_hand_value():
    # type A with mu=1 stays in the single-probe case: 0.5 * 3/(n+2)
    assert ue.scale_parameter(20, P1) == pytest.approx(3.0 / 44.0, rel=1e-14)
    assert ue.scale_parameter(100, P1) == pytest.approx(3.0 / 204.0, rel=1e-14)


def test_scale_parameter_entropy_hand_value():
    # probe point 3/(n + 3e - 1) with g(p) = p log2(1/p), halved
    n = 100
    probe = 3.0 / (n + 3.0 * math.e - 1.0)
    want = 0.5 * probe * math.log2(1.0 / probe)
    assert ue.scale_parameter(n, E64) == pytest.approx(want, rel=1e-14)
    assert want == pytest.approx(0.07221219098980826, rel=1e-12)


def test_scale_parameter_square_frozen():
    assert ue.scale_parameter(1000, P2) == pytest.approx(5.015065398113834e-4, rel=1e-10)


def test_scale_parameter_regimes():
    with pytest.raises(RegimeError):
        ue.scale_parameter(2, P1)
    with pytest.raises(InvalidInputError):
        ue.scale_parameter(100, gf.user_defined(lambda p: p))


@pytest.mark.parametrize("g", [P1, P2, E64], ids=["power1", "power2", "entropy64"])
@pytest.mark.parametrize("n", [10, 50, 200])
def test_moment_ratio_chain(g, n):
    # the scale constant controls consecutive maxima: u*_(r) <= c (r-1) u*_(r-1)
    c = ue.scale_parameter(n, g)
    for r in range(3, 9):
        hi = c * (r - 1) * ue.u_star(n, g, r - 1).value
        assert ue.u_star(n, g, r).value <= hi * (1 + 1e-9)
