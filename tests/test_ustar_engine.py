import json
import math
import pathlib

import mpmath
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
    assert res.value == pytest.approx(ref, rel=1e-8, abs=0)
    assert res.argmax == pytest.approx(argmax_ref, abs=2e-6)


_EXACT = json.loads(
    (pathlib.Path(__file__).parent / "data" / "reference_u_star.json").read_text()
)


@pytest.mark.parametrize("r", range(2, 7))
@pytest.mark.parametrize("n", [20, 100, 1000])
def test_u_star_matches_exact_oracle(n, r):
    # 40-digit mpmath maxima written by data/make_reference_tail_curves.py,
    # which does not import the package
    exact = _EXACT[str(n)][str(r)]
    assert ue.u_star(n, P1, r).value == pytest.approx(exact, rel=1e-14, abs=0)


def sweep_sizes():
    # the 30 sample sizes of the benchmark's bound sweep
    grid = np.geomspace(10, 10_000, 27)
    return sorted({int(round(x)) for x in grid} | {20, 100, 1000})


def _closed_log_u(n, g, r, p):
    if g.kind == "power":
        log_g = g.alpha * np.log(p)
    else:
        log_g = np.log(p) + np.log(-np.log(p)) - math.log(math.log(2.0))
    t = n * np.log1p(-p)
    return r * log_g + t + np.log(-np.expm1(t)) - np.log(p)


def _golden_oracle(n, g, r):
    # independent of the Newton search: the closed-form log u_r scanned on a
    # log grid dense near both edges of (1e-12, 1 - 1e-12), refined by
    # golden-section search between the grid argmax's two neighbours; the
    # grid point wins if the refinement does not beat it
    lo, hi = 1e-12, 1.0 - 1e-12
    half = np.geomspace(lo, 0.5 * (lo + hi), 20001)
    grid = np.unique(np.concatenate([half, hi + lo - half]))
    i = int(np.argmax(_closed_log_u(n, g, r, grid)))
    x0 = float(grid[i])
    a, b = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, grid.size - 1)])
    _, fx = ue._golden_max(lambda p: ue._log_u_r_at(p, n, g, r), a, b)
    return max(fx, ue._log_u_r_at(x0, n, g, r))


_SWEEP_CELLS = [(g, n) for g in (P1, P2, E64) for n in sweep_sizes()]


@pytest.mark.parametrize("g,n", _SWEEP_CELLS,
                         ids=[f"{g.descriptor()}-n{n}" for g, n in _SWEEP_CELLS])
def test_newton_refinement_matches_golden_and_ends_by_its_stop_rule(g, n, monkeypatch):
    calls = []  # the points each refinement evaluated h' at
    newton = ue._newton_max

    def counted(dh, lo, x, hi):
        calls.append([])
        return newton(lambda p: calls[-1].append(p) or dh(p), lo, x, hi)

    monkeypatch.setattr(ue, "_newton_max", counted)
    ue.u_star.cache_clear()
    try:
        newton_vals = [ue.u_star(n, g, r).log_value for r in range(2, 7)]
    finally:
        ue.u_star.cache_clear()
    assert len(calls) == 5  # one Newton search per r
    # the step cap was not what ended any refinement
    assert max(map(len, calls)) < ue._NEWTON_STEPS
    for r, got in zip(range(2, 7), newton_vals):
        assert got == pytest.approx(_golden_oracle(n, g, r), rel=4e-15, abs=0), r


def test_newton_max_bisects_where_newton_cannot_step():
    def run(dh, lo, x, hi):
        calls = []
        out = ue._newton_max(lambda p: calls.append(p) or dh(p), lo, x, hi)
        assert len(calls) < ue._NEWTON_STEPS  # a stop rule, not the cap, ended it
        return out

    # h'' >= 0 everywhere: every step is a bisection, ended by the bracket width
    assert run(lambda p: (0.3 - p, 1.0), 0.1, 0.15, 0.7) == pytest.approx(0.3, rel=1e-15, abs=0)
    # Newton steps past the bracket: the maximum sits on its upper end
    assert run(lambda p: (1.0, -1.0), 0.1, 0.15, 0.2) == pytest.approx(0.2, rel=1e-15, abs=0)
    # h' = 0 exactly at the start
    assert run(lambda p: (0.0, -1.0), 0.1, 0.15, 0.2) == 0.15


def test_log_value_matches_log_of_value():
    for g in (P1, P2, E64):
        for n in (20, 1000):
            for r in (2, 6):
                res = ue.u_star(n, g, r)
                assert res.log_value == pytest.approx(math.log(res.value), rel=1e-14, abs=1e-14)


def test_log_value_stays_finite_where_value_underflows():
    # power:60 at n = 1e5: u*_2 is about e^-1210, far below the smallest double
    n, g = 10**5, gf.power(60.0)
    res = ue.u_star(n, g, 2)
    assert res.value == 0.0 and math.isfinite(res.log_value)
    # independent dense scan of log u_2 around the argmax
    p = np.linspace(0.5 * res.argmax, 2.0 * res.argmax, 200_001)
    t = n * np.log1p(-p)
    log_u = 2 * 60.0 * np.log(p) + t + np.log(-np.expm1(t)) - np.log(p)
    assert res.log_value >= log_u.max() - 1e-12 * abs(log_u.max())
    assert res.log_value == pytest.approx(log_u.max(), rel=1e-12)


def test_power_g_far_below_the_double_range_keeps_its_log():
    # log u_2 of power:1e15 rises up to the window edge 1 - 1e-12; the value
    # there, from 40-digit mpmath at that double
    res = ue.u_star(20, gf.power(1e15), 2)
    assert res.argmax == 1.0 - 1e-12 and res.value == 0.0
    assert res.log_value == pytest.approx(-2552.5766213186231191, rel=1e-14)


def test_power_g_at_the_largest_alpha_keeps_a_finite_log():
    # no power g underflows to log u*_2 = -inf: even alpha = 1.7e308 gives a
    # finite log at the window edge, about alpha * log(1 - 1e-12)
    res = ue.u_star(20, gf.power(1.7e308), 2)
    assert res.value == 0.0
    assert math.isfinite(res.log_value) and res.log_value < -1e296


# power:0.3 at r = 2 and 3 has r*alpha < 1, where log u_r is not concave
_NEWTON_CELLS = [(n, g, r) for n in (1, 20, 1000, 10**6, 10**13)
                 for g in (P1, P2, gf.power(0.5), gf.power(0.3), E64) for r in (2, 3, 6)]


@pytest.mark.parametrize("n,g,r", _NEWTON_CELLS,
                         ids=[f"n{n}-{g.descriptor()}-r{r}" for n, g, r in _NEWTON_CELLS])
def test_newton_u_star_matches_a_dense_closed_form_scan(n, g, r):
    # independent of the Newton search: a global log grid, reaching well below
    # the argmax near r/n, finds no higher point, and dense grids zoomed in
    # twice around their argmax agree to 1e-12.  The log sums terms near
    # |r log p|, so near log u = 0 its rounding is absolute, not relative
    res = ue.u_star(n, g, r)
    p = np.geomspace(min(1e-12, 1e-4 / n), 1.0 - 1e-12, 100_001)
    for _ in range(3):
        log_u = _closed_log_u(n, g, r, p)
        i = int(np.argmax(log_u))
        assert res.log_value >= log_u[i] - 1e-14 * max(abs(log_u[i]), 1.0)
        p = np.linspace(p[max(i - 1, 0)], p[min(i + 1, p.size - 1)], 100_001)
    assert res.log_value == pytest.approx(log_u[i], rel=1e-12, abs=1e-12)
    assert res.value == pytest.approx(math.exp(res.log_value), rel=1e-13, abs=0)


def test_u_star_where_p_to_the_alpha_underflows_matches_mpmath():
    # p^150 underflows below p ~ 0.0068; the argmax sits at 0.00298, where a
    # scan of log(p**alpha) saw -inf.  40-digit mpmath root of d log u_2/dp
    res = ue.u_star(10**5, gf.power(150.0), 2)
    assert res.log_value == pytest.approx(-2037.378645732152114902670046, rel=1e-12)
    assert res.argmax == pytest.approx(0.002981086551211876489297, rel=1e-12, abs=0)


_EXTREME_CELLS = [(n, g, r) for n in (1, 3, 10**6, 10**12, 10**18)
                  for g in (P1, P2, gf.power(0.3), gf.power(150.0), gf.power(1e15), E64)
                  for r in (2, 6, 10**4, 10**15)]


def test_newton_search_ends_by_its_stop_rule_on_extreme_cells(monkeypatch):
    calls = []
    newton = ue._newton_max

    def counted(dh, lo, x, hi):
        calls.append(0)

        def dh_counted(p):
            calls[-1] += 1
            return dh(p)

        return newton(dh_counted, lo, x, hi)

    monkeypatch.setattr(ue, "_newton_max", counted)
    for n, g, r in _EXTREME_CELLS:
        res = ue.u_star.__wrapped__(n, g, r)
        lo = min(1e-12, 1e-3 / n)
        assert lo <= res.argmax <= 1.0 - 1e-12 and math.isfinite(res.log_value), (n, g, r)
    assert calls and max(calls) < ue._NEWTON_STEPS


@pytest.mark.parametrize("n", [10**13, 10**15, 10**18])
def test_default_window_holds_the_argmax_at_huge_n(n):
    # the argmax of u_2 for power:1 is t*/n, t* = 1.44557... the root of
    # 1/t - 1 + 1/(e^t - 1), below the fixed edge 1e-12 from n ~ 1.45e12 on;
    # n u*_2 tends to gamma = 0.26034...
    t_star = float(mpmath.findroot(lambda t: 1 / t - 1 + 1 / mpmath.expm1(t), 1.45))
    res = ue.u_star(n, P1, 2)
    assert res.argmax == pytest.approx(t_star / n, rel=1e-9, abs=0)
    assert n * res.value == pytest.approx(ue.gamma_const(), rel=1e-9)


def test_golden_max_stops_at_a_few_ulps():
    calls = []

    def f(x):
        calls.append(x)
        return -(x - 0.3) ** 2

    x, fx = ue._golden_max(f, 0.2, 0.4)
    # two opening probes, one per step, one at the end: the stop rule fired
    assert len(calls) < 100 + 3
    assert x == pytest.approx(0.3, abs=1e-8)


def test_u_star_frozen_spot():
    res = ue.u_star(20, P1, 2)
    assert res.value == pytest.approx(0.012562256919262382, rel=1e-12, abs=0)
    # the root of d log u_2/dp = 0, from 40-digit mpmath
    assert res.argmax == pytest.approx(0.068451030159344687, rel=1e-13, abs=0)


def test_u_star_argmax_is_local_max():
    # log u_3 falls by about 3.4e-12 at 1e-7 from the argmax
    res = ue.u_star(50, P2, 3)
    for d in (-1e-7, 1e-7):
        assert ue._log_u_r_at(res.argmax + d, 50, P2, 3) <= res.log_value + 1e-13


def test_u_star_window_restricts_search():
    # h'(lo) <= 0 at the window's lower edge 1e-12: the edge wins
    assert ue.u_star(20, gf.power(1e-12), 2).argmax == 1e-12

    def dh(p):
        return ue._dlog_u_r(p, 20, P1, 2)

    # the Newton search ends at its upper edge, below the root 0.0685
    assert ue._newton_max(dh, 0.01, 0.05, 0.05) == 0.05
    # and with the root 1 to 4 ulps above the upper edge, where the last
    # Newton step is below the stop rule's width and would cross the edge
    hi = 0.068451030159344687  # the root of d log u_2/dp, from mpmath
    for _ in range(4):
        hi = math.nextafter(hi, 0.0)
        assert ue._newton_max(dh, 0.01, hi, hi) == hi


@pytest.mark.parametrize("g", [P1, P2, E64], ids=["power1", "power2", "entropy64"])
def test_u_star_agrees_on_a_window_around_its_argmax(g):
    # Newton on a narrow bracket that holds the argmax, started at either
    # edge, ends at the same maximum
    for n in (20, 1000, 10**6):
        for r in (2, 5):
            full = ue.u_star(n, g, r)
            lo, hi = 0.5 * full.argmax, 2.0 * full.argmax
            for x0 in (lo, hi):
                x = ue._newton_max(lambda p: ue._dlog_u_r(p, n, g, r), lo, x0, hi)
                log_value = ue._log_u_r_at(x, n, g, r)
                assert log_value == pytest.approx(full.log_value, rel=4e-15, abs=0), (n, r)
                assert x == pytest.approx(full.argmax, rel=1e-12, abs=0), (n, r)


def test_u_star_input_validation():
    with pytest.raises(InvalidInputError):
        ue.u_star(0, P1, 2)
    with pytest.raises(InvalidInputError):
        ue.u_star(10, P1, 1)


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
    assert math.exp(ue.log_gamma_alpha(alpha)) == pytest.approx(scipy_gamma_alpha(alpha), rel=1e-9)


def mpmath_log_gamma_alpha(alpha):
    # 40-digit root of h'(t) = e/t - 1 + 1/(e^t - 1) in (e, e + 1), e = 2 alpha - 1
    with mpmath.workdps(40):
        e = mpmath.mpf(2.0 * alpha - 1.0)
        t = mpmath.findroot(lambda t: e / t - 1 + 1 / mpmath.expm1(t), (e, e + 1),
                            solver="anderson")
        return e * mpmath.log(t) - t + mpmath.log(-mpmath.expm1(-t))


@pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0, 3.0, 6.75, 30.0, 60.0, 86.0])
def test_gamma_alpha_matches_mpmath(alpha):
    want = float(mpmath.exp(mpmath_log_gamma_alpha(alpha)))
    assert math.exp(ue.log_gamma_alpha(alpha)) == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("alpha", [1.0, 86.0, 87.0, 400.0, 1000.0, 1e6])
def test_log_gamma_alpha_matches_mpmath(alpha):
    # the log stays finite where gamma_alpha leaves the double range (alpha >= 87)
    want = float(mpmath_log_gamma_alpha(alpha))
    assert ue.log_gamma_alpha(alpha) == pytest.approx(want, rel=1e-14, abs=1e-15)


def test_gamma_constants_frozen():
    assert ue.gamma_const() == pytest.approx(0.26034549134920526, rel=1e-10)
    assert math.exp(ue.log_gamma_alpha(2.0)) == pytest.approx(1.2820002767035465, rel=1e-10)
    assert 1.0 / (2.0 * ue.gamma_const()) == pytest.approx(1.920524904844012, rel=1e-10)


def test_gamma_alpha_requires_alpha_at_least_one():
    with pytest.raises(InvalidInputError):
        ue.log_gamma_alpha(0.9)


@pytest.mark.parametrize("alpha", [1.0, 2.0, 6.75, 10.0, 30.0, 40.0, 60.0, 86.0])
@pytest.mark.parametrize("n", [100, 3000, 10**5])
def test_u2_closed_bound_dominates_u_star(alpha, n):
    # gamma_alpha's argmax sits near t = 2 alpha - 1, beyond t = 50 from
    # alpha = 25.5 on; a scan that stops short makes the bound too small.
    # Compared in logs: at n = 1e5 both sides underflow from alpha = 60 on.
    g = gf.power(alpha)
    assert ue.log_u2_closed_bound(n, g) >= ue.u_star(n, g, 2).log_value - 1e-12


@pytest.mark.parametrize("alpha", [50.0, 1000.0])
def test_u2_closed_bound_large_alpha_in_log_space(alpha):
    # n^(2 alpha - 1) overflows, and from alpha = 87 on gamma_alpha too
    want = float(mpmath_log_gamma_alpha(alpha) - (2 * alpha - 1) * mpmath.log(3000))
    got = ue.log_u2_closed_bound(3000, gf.power(alpha))
    assert got == pytest.approx(want, rel=1e-13)


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
    assert ue.u_star(n, g, 2).log_value <= ue.log_u2_closed_bound(n, g) + 1e-12


@pytest.mark.parametrize("n", [3, 10, 100, 1000])
def test_u2_closed_bound_dominates_entropy_on_declared_domain(n):
    # the closed entropy bound presumes p >= 1/k, so compare the maximum of
    # log u_2 over p >= 1/k, which lies at max(argmax, 1/k)
    g = gf.entropy_log2(64)
    floored = ue._log_u_r_at(max(ue.u_star(n, g, 2).argmax, 1.0 / 64.0), n, g, 2)
    assert floored <= ue.log_u2_closed_bound(n, g) + 1e-12


def test_u2_closed_bound_regimes():
    with pytest.raises(RegimeError):
        ue.log_u2_closed_bound(2, P1)  # needs n >= ln2/(1-ln2) + eps
    with pytest.raises(RegimeError):
        ue.log_u2_closed_bound(2, E64)
    with pytest.raises(InvalidInputError):
        ue.log_u2_closed_bound(10, gf.power(0.5))


def test_scale_parameter_identity_hand_value():
    # type A with mu=1 stays in the single-probe case: 0.5 * 3/(n+2)
    assert ue.scale_parameter(20, P1) == pytest.approx(3.0 / 44.0, rel=1e-14, abs=0)
    assert ue.scale_parameter(100, P1) == pytest.approx(3.0 / 204.0, rel=1e-14, abs=0)


def test_scale_parameter_entropy_hand_value():
    # probe point 3/(n + 3e - 1) with g(p) = p log2(1/p), halved
    n = 100
    probe = 3.0 / (n + 3.0 * math.e - 1.0)
    want = 0.5 * probe * math.log2(1.0 / probe)
    assert ue.scale_parameter(n, E64) == pytest.approx(want, rel=1e-14, abs=0)
    assert want == pytest.approx(0.07221219098980826, rel=1e-12, abs=0)


def test_scale_parameter_square_frozen():
    assert ue.scale_parameter(1000, P2) == pytest.approx(5.015065398113834e-4, rel=1e-10, abs=0)


def test_scale_parameter_regimes():
    with pytest.raises(RegimeError):
        ue.scale_parameter(2, P1)


@pytest.mark.parametrize("alpha,n", [(0.5, 1000), (1.0, 1000), (2.0, 10), (2.0, 1000), (3.5, 1000)])
def test_scale_parameter_power_is_type_a_with_mu_alpha(alpha, n):
    # the paper's Type-A constant with mu = alpha; (2, 10) has
    # n < 1 + 4 mu^2/(mu-1)^2 = 17 and stays in the single-probe case
    mu = alpha
    want = 0.5 * (3.0 * mu / (n + 3.0 * mu - 1.0)) ** alpha
    if mu > 1.0 and n >= 1.0 + 4.0 * mu * mu / (mu - 1.0) ** 2:
        r2 = 0.5 * (n - 1.0) * (1.0 - 1.0 / mu) * (
            1.0 + math.sqrt(1.0 - 4.0 * mu * mu / ((n - 1.0) * (mu - 1.0) ** 2)))
        want = max(want, (r2 * mu / (n + r2 * mu - 1.0)) ** alpha / (r2 - 1.0))
    assert ue.scale_parameter(n, gf.power(alpha)) == pytest.approx(want, rel=1e-14, abs=0)


@pytest.mark.parametrize("k", [2, 64, 10**6])
def test_scale_parameter_entropy_is_type_b_at_inverse_e_for_every_floor(k):
    # Type B with p* = 1/e, single probe 3/(n + 3/p* - 1), evaluated by the
    # bare formula: the k-floor does not enter
    n = 1000
    probe = 3.0 / (n + 3.0 * math.e - 1.0)
    want = 0.5 * probe * math.log2(1.0 / probe)
    assert ue.scale_parameter(n, gf.entropy_log2(k)) == pytest.approx(want, rel=1e-14, abs=0)


@pytest.mark.parametrize("g", [P1, P2, E64], ids=["power1", "power2", "entropy64"])
@pytest.mark.parametrize("n", [10, 50, 200])
def test_moment_ratio_chain(g, n):
    # the scale constant controls consecutive maxima: u*_(r) <= c (r-1) u*_(r-1)
    c = ue.scale_parameter(n, g)
    for r in range(3, 9):
        hi = c * (r - 1) * ue.u_star(n, g, r - 1).value
        assert ue.u_star(n, g, r).value <= hi * (1 + 1e-9)
