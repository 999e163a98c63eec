import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import optimize

from missingmass import gfunction as gf
from missingmass import risk_lab as rl
from missingmass import tail_bounds as tb
from missingmass.errors import InvalidInputError, NumericalError, RegimeError
from missingmass.ustar_engine import (gamma_const, kappa_const, log_u2_closed_bound,
                                      scale_parameter, u_star)

P1 = gf.power(1.0)
P2 = gf.power(2.0)
E64 = gf.entropy_log2(64)

EPS_GRID = np.arange(1, 15) * 0.05


def sub_gamma_exponent(v, c, e):
    """The sub-Gamma exponent at one eps, through a one-point array."""
    return float(tb._sub_gamma(v, c, np.array([e]))[0])


def ssg_exponent(v, c, e):
    """The strongly sub-Gamma exponent at one eps, through a one-point array."""
    return float(tb._strongly_sub_gamma(v, c, np.array([e]))[0])


def poly_exponent(spec, e):
    """The Chernoff exponent of spec at one eps, through a one-point array."""
    return float(tb._poly_exponent(spec, np.array([e], dtype=float))[0])


def ssg_tail(v, c, e):
    """Strongly sub-Gamma tail: the order-1 spec, which has no filter terms."""
    return min(1.0, math.exp(-ssg_exponent(v, c, e)))


def bound(family, n, g, e):
    """The bound of one curve family at a single eps."""
    return tb.curve(family, n, g, [e])["bound"][0]


def exponent(family, n, g, e):
    """The Chernoff exponent of one curve family at a single eps."""
    return tb.curve(family, n, g, [e])["exponent"][0]


def sub_gamma_tail(v, c, e):
    return min(1.0, math.exp(-sub_gamma_exponent(v, c, e)))


def test_sub_gamma_matches_naive_form():
    # stable h(x) = x^2/(1+x+sqrt(1+2x)) against the textbook 1+x-sqrt(1+2x)
    for v, c, e in [(0.01, 0.1, 0.2), (0.5, 1.0, 0.7), (1e-4, 0.05, 0.02)]:
        x = c * e / v
        naive = (v / c**2) * (1.0 + x - math.sqrt(1.0 + 2.0 * x))
        assert sub_gamma_exponent(v, c, e) == pytest.approx(naive, rel=1e-9)


def test_strongly_sub_gamma_oracle():
    v, c, e = 0.012, 0.07, 0.15
    z = c * e / v
    want = (v / c**2) * (z - math.log1p(z))
    assert ssg_exponent(v, c, e) == pytest.approx(want, rel=1e-14, abs=0)


@pytest.mark.parametrize("exponent", [sub_gamma_exponent, ssg_exponent])
def test_gamma_exponents_are_inf_where_the_ratio_overflows(exponent):
    # eps/c overflows, and so c*eps/v: the exponent is inf and the bound 0, never NaN
    for e in (1e308, math.inf):
        assert exponent(0.05, 0.5, e) == math.inf
    assert math.isfinite(exponent(0.05, 0.5, 1e100))


def test_sub_gamma_exponent_matches_mpmath_where_the_square_overflows():
    # x = c*eps/v; x^2 overflows from x = 1.3e154 on, x itself only past 1.8e308
    mpmath = pytest.importorskip("mpmath")
    v, c = 0.05, 0.5
    with mpmath.workdps(60):
        for e in (1e-12, 1e-3, 0.2, 1e3, 1e150, 1e152, 1.3e153, 1e154, 1e200, 1e300, 1e307,
                  1.7e307):
            x = mpmath.mpf(c * e / v)  # the double the function computes
            want = mpmath.mpf(v) / mpmath.mpf(c) ** 2 * (1 + x - mpmath.sqrt(1 + 2 * x))
            got = sub_gamma_exponent(v, c, e)
            assert math.isfinite(got)
            assert abs(got - want) <= 1e-13 * want, e


@pytest.mark.parametrize("v", [1e-4, 0.01, 0.3])
@pytest.mark.parametrize("c", [0.01, 0.1, 1.0])
def test_ssg_bound_never_above_sub_gamma(v, c):
    # log(1+z) >= z - z^2/2 style comparison: the ssg exponent dominates
    for e in EPS_GRID:
        assert ssg_tail(v, c, e) <= sub_gamma_tail(v, c, e) + 1e-15


def test_exponents_zero_at_zero_and_increasing():
    v, c = 0.01, 0.1
    assert ssg_exponent(v, c, 0.0) == 0.0
    assert sub_gamma_exponent(v, c, 0.0) == 0.0
    ssg = tb._strongly_sub_gamma(v, c, EPS_GRID).tolist()
    assert all(b > a for a, b in zip(ssg, ssg[1:]))


def test_tails_clamped_to_one():
    assert bound("theorem2", 10, P1, 0.0) == 1.0
    assert sub_gamma_tail(0.5, 0.5, 0.0) == 1.0
    assert 0.0 < ssg_tail(0.5, 0.5, 3.0) <= 1.0


def chernoff_oracle(spec, eps):
    # independent Legendre transform: maximize lam*eps - f(lam) directly
    def f(lam):
        poly = sum(a * lam**r / r for r, a in zip(range(2, spec.R + 1), spec.a))
        tail = (spec.v / spec.c**2) * (-spec.c * lam - math.log1p(-spec.c * lam))
        return poly + tail

    res = optimize.minimize_scalar(
        lambda lam: -(lam * eps - f(lam)),
        bounds=(0.0, (1.0 - 1e-12) / spec.c),
        method="bounded",
        options={"xatol": 1e-13},
    )
    return -res.fun


@pytest.mark.parametrize("n", [20, 100])
@pytest.mark.parametrize("R", [2, 3, 5])
def test_poly_exponent_matches_legendre_oracle(n, R):
    spec = tb.build_spec(n, P1, R)
    for e in (0.02, 0.1, 0.3, 0.6):
        got = poly_exponent(spec, e)
        assert got == pytest.approx(chernoff_oracle(spec, e), rel=1e-8, abs=1e-12)


def mp_chernoff_oracle(spec, eps, digits=60):
    # independent Legendre transform in 60-digit arithmetic, solved in the pole
    # distance s = 1 - c*lam: F(s) = f'((1-s)/c) is decreasing, so bisect
    # F(s) = eps on [v/(v + c eps), 1], where F starts at or above eps
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits):
        a = [mpmath.mpf(x) for x in spec.a]
        v, c, e = mpmath.mpf(spec.v), mpmath.mpf(spec.c), mpmath.mpf(eps)

        def fprime(s):
            lam = (1 - s) / c
            return sum(ar * lam ** (r - 1) for r, ar in enumerate(a, start=2)) + v * lam / s

        lo, hi = v / (v + c * e), mpmath.mpf(1)
        for _ in range(4 * digits):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if fprime(mid) > e else (lo, mid)
        s = (lo + hi) / 2
        lam = (1 - s) / c
        f = sum(ar * lam**r / r for r, ar in enumerate(a, start=2))
        f += v / c**2 * (-(1 - s) - mpmath.log(s))
        return float(lam * e - f)


# power:2 cells whose Chernoff root lies next to the pole 1/c: the pole
# distance s = 1 - c*lam is 1e-18 to 1e-5, and a double-precision lam fixes s
# only to about 1e-16 absolute
NEAR_POLE_CELLS = [(2, 702), (2, 10000), (5, 143), (5, 10000)]


@pytest.mark.parametrize("R,n", NEAR_POLE_CELLS)
def test_poly_exponent_matches_mp_oracle_near_the_pole(R, n):
    spec = tb.build_spec(n, P2, R)
    for e in (0.005, 0.05, 0.2, 0.7):
        want = mp_chernoff_oracle(spec, e)
        assert poly_exponent(spec, e) == pytest.approx(want, rel=1e-13, abs=0)


def reference_exponent(spec, eps):
    # the solve with a separate residual evaluation after the Newton loop
    a, v, c = spec.a, spec.v, spec.c
    s = v / (v + c * eps)
    for _ in range(200):
        d1, d2 = tb._filter_derivs(a, v, c, s)
        step = c * (d1 - eps) / d2
        if step <= 1e-14 * s:
            break
        s += step
    residual = abs(tb._filter_derivs(a, v, c, s)[0] - eps)
    assert residual <= 1e-9 * max(eps, 1.0)
    return (1.0 - s) / c * eps - tb._filter_f(a, v, c, s)


@pytest.mark.parametrize("g", [P1, P2, E64], ids=["power1", "power2", "entropy64"])
def test_poly_exponent_bit_identical_to_the_separate_residual_solve(g):
    for n in (20, 702, 10000):
        for R in (2, 5):
            spec = tb.build_spec(n, g, R)
            for e in np.arange(1, 141) * 0.005:
                e = float(e)
                assert poly_exponent(spec, e).hex() == reference_exponent(spec, e).hex()


def test_poly_exponent_checks_the_residual_after_the_step_cap(monkeypatch):
    # derivatives that always ask for a large step: the loop runs its 200
    # steps, then one more evaluation gives the residual
    calls = []

    def derivs(a, v, c, s):
        calls.append(s)
        return 1.0, 1e-3

    monkeypatch.setattr(tb, "_filter_derivs", derivs)
    with pytest.raises(NumericalError, match="residual"):
        poly_exponent(tb.PolyFiltered(2, (0.1,), 0.01, 0.1), 0.2)
    assert len(calls) == 201


@pytest.mark.parametrize("g", [P1, P2, E64], ids=["power1", "power2", "entropy64"])
def test_curve_exponents_equal_one_point_solves(g):
    # the whole-grid Newton gives every point what a one-point solve gives
    eps = np.arange(0, 141) * 0.005
    for n in (20, 702, 10000):
        for R in (2, 5):
            got = tb.curve(f"poly:{R}", n, g, eps)["exponent"]
            spec = tb.build_spec(n, g, R)
            for e, E in zip(eps.tolist(), got):
                assert abs(E - poly_exponent(spec, e)) <= 1e-14 * max(1.0, abs(E))


def test_one_failed_point_fails_the_whole_curve(monkeypatch):
    # a NaN at one point of the grid: its residual check fails, and so does the curve
    derivs = tb._filter_derivs

    def nan_at_middle(a, v, c, s):
        d1, d2 = derivs(a, v, c, s)
        d1 = np.array(d1, dtype=float)
        d1[3] = math.nan
        return d1, d2

    eps = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35]
    tb.curve("poly:2", 50, P1, eps)
    monkeypatch.setattr(tb, "_filter_derivs", nan_at_middle)
    with pytest.raises(NumericalError, match="residual nan"):
        tb.curve("poly:2", 50, P1, eps)


@pytest.mark.parametrize("family", ["subgauss", "theorem2", "left_u2", "left_corollary",
                                    "right_corollary", "ssg", "subgamma", "poly:2", "poly:5"])
def test_curve_evaluates_the_exponent_once_on_the_whole_grid(family, monkeypatch):
    parse = tb.parse_family
    calls = []

    def counted(text):
        row = parse(text)

        def build(n, g):
            fn = row.build(n, g)

            def once(eps):
                calls.append(eps.copy())
                return fn(eps)
            return once
        return row._replace(build=build)

    monkeypatch.setattr(tb, "parse_family", counted)
    eps = [0.0, 0.01, 0.1, 0.3]
    c = tb.curve(family, 50, P1 if family == "subgauss" else P2, eps)
    assert len(calls) == 1 and calls[0].tolist() == eps
    assert list(c) == ["bound", "exponent"]
    assert len(c["bound"]) == len(c["exponent"]) == len(eps)
    assert all(type(x) is float for x in c["bound"] + c["exponent"])


def mp_pole_oracle(spec, eps, digits=80):
    # the Legendre transform at 80 digits, bisecting F(s) = eps in log s,
    # since the root lies within 1e-150 of the pole
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits):
        a = [mpmath.mpf(x) for x in spec.a]
        v, c, e = mpmath.mpf(spec.v), mpmath.mpf(spec.c), mpmath.mpf(eps)

        def fprime(s):
            lam = (1 - s) / c
            return sum(ar * lam ** (r - 1) for r, ar in enumerate(a, start=2)) + v * lam / s

        lo, hi = mpmath.log(v / (v + c * e)), mpmath.mpf(0)
        for _ in range(400):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if fprime(mpmath.exp(mid)) > e else (lo, mid)
        s = mpmath.exp((lo + hi) / 2)
        lam = (1 - s) / c
        f = sum(ar * lam**r / r for r, ar in enumerate(a, start=2))
        return lam * e - (f + v / c**2 * (-(1 - s) - mpmath.log(s)))


@pytest.mark.parametrize("g,n,R", [(P1, 3, 2), (gf.power(3.5), 10**5, 20), (E64, 6, 2)],
                         ids=["power1", "power3.5", "entropy64"])
def test_poly_exponent_next_to_the_pole_matches_mp_oracle(g, n, R):
    # from c eps near sqrt(v * 1.8e308)/2 the exponent is taken at the
    # Newton start, within 1.5e-154 of the pole; at power:3.5, n = 1e5, R = 20
    # (v = 2.7e-176) a plain solve misses its residual from eps = 1e150 on
    spec = tb.build_spec(n, g, R)
    edge = (math.sqrt(spec.v * sys.float_info.max) / 2.0 - spec.v) / spec.c
    for e in (edge / 2.0, edge * 2.0, 1e200, 1e300):
        got = poly_exponent(spec, e)
        want = mp_pole_oracle(spec, e)
        if want > sys.float_info.max:
            assert got == math.inf
        else:
            assert got == pytest.approx(float(want), rel=1e-15, abs=0)


def mp_gamma_exponent(family, spec, eps):
    """The ssg or subgamma exponent of spec at eps in 60-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        v, c = mpmath.mpf(spec.v), mpmath.mpf(spec.c)
        x = c * mpmath.mpf(eps) / v
        if family == "ssg":
            return v / c**2 * (x - mpmath.log1p(x))
        return v / c**2 * (1 + x - mpmath.sqrt(1 + 2 * x))


@pytest.mark.parametrize("g", [P1, P2, gf.power(10.0), E64],
                         ids=["power1", "power2", "power10", "entropy64"])
@pytest.mark.parametrize("n", [3, 1000, 10**9])
def test_gamma_type_exponents_at_large_eps_match_mpmath(g, n):
    # ssg, subgamma and the poly:2 pole share the large-eps limit eps/c, so
    # none is inf where c*eps/v or its square overflows but the exponent does not
    eps = [1e100, 1e154, 1e200, 1e300, 1e305, 1e307, 1e308]
    for family in ("ssg", "subgamma", "poly:2"):
        spec = tb.build_spec(n, g, 2 if family == "poly:2" else 1)
        for e, got in zip(eps, tb.curve(family, n, g, eps)["exponent"]):
            if family == "poly:2":
                want = mp_pole_oracle(spec, e, digits=60)
            else:
                want = mp_gamma_exponent(family, spec, e)
            if want > sys.float_info.max:
                assert got == math.inf, (family, e)
            else:
                assert abs(got - want) <= 5e-16 * max(1.0, abs(want)), (family, e, got)


def test_scaled_products_overflow_to_inf_without_a_warning():
    # x * num / den as Python floats round it, and +-inf where it overflows;
    # num = 0 stands for a factor that underflowed, so inf * 0 stays inf
    x = np.array([0.0, 1.0, -3.0, 1e300, -1e300, 1.7e308, -math.inf, math.inf, math.nan])
    for num, den in [(1.0, 1.0), (0.3, 1.0), (10.0, 0.05), (1e-300, 1e-8), (0.0, 2.0)]:
        got = tb._scaled(x, num, den)
        for xi, gi in zip(x.tolist(), got.tolist()):
            want = xi if math.isinf(xi) else xi * num / den
            assert gi == want or (math.isnan(gi) and math.isnan(want)), (xi, num, den)


def test_build_spec_negative_coefficient_is_numerical_error(monkeypatch):
    # a scale parameter far below the ratio chain's makes a_2 negative
    c = scale_parameter(50, P1)
    monkeypatch.setattr(tb.ustar_engine, "scale_parameter", lambda n, g: 1e-3 * c)
    with pytest.raises(NumericalError):
        tb.build_spec(50, P1, 2)


@pytest.mark.parametrize("n", [20, 100, 1000])
def test_r2_exponent_matches_mp_oracle_on_fig1_grid(n):
    # the order-2 curves of fig1: power:1 on eps = 0.05, 0.10, ..., 0.70
    spec = tb.build_spec(n, P1, 2)
    for e in EPS_GRID:
        want = mp_chernoff_oracle(spec, float(e))
        assert poly_exponent(spec, float(e)) == pytest.approx(want, rel=1e-13, abs=0)


@pytest.mark.parametrize("g", [P1, P2, gf.power(3.0), E64],
                         ids=["power1", "power2", "power3", "entropy64"])
@pytest.mark.parametrize("n", [3, 20, 100, 1000, 10**4, 10**6])
def test_build_spec_matches_exact_quotient(g, n):
    # v = u*_(R+1)/(c^(R-1) R!) and a_r = u*_r/(r-1)! - c^(r-2) v in exact
    # rational arithmetic on the doubles u*_r and c, wherever that v is normal
    c = scale_parameter(n, g)
    checked = 0
    for R in (1, 2, 3, 5, 10, 20, 50, 100, 170):
        u = {r: Fraction(u_star(n, g, r).value) for r in range(2, R + 2)}
        v = u[R + 1] / (Fraction(c) ** (R - 1) * math.factorial(R))
        if not float(v) >= sys.float_info.min:
            continue
        spec = tb.build_spec(n, g, R)
        assert spec.v == pytest.approx(float(v), rel=1e-12, abs=0), R
        for r, a_r in enumerate(spec.a, start=2):
            lead = u[r] / math.factorial(r - 1)
            if float(lead) >= sys.float_info.min:
                want = max(float(lead - Fraction(c) ** (r - 2) * v), 0.0)
                assert abs(a_r - want) <= 1e-12 * float(lead), (R, r)
        checked += 1
    assert checked >= 4


def test_high_order_spec_where_u_star_underflows():
    # power:1, n = 1e4: u*_151 underflows to 0 but log v = -74 does not; the
    # order-150 curve is the limit that the lower orders have reached
    eps = (0.01, 0.1)
    want = tb.curve("poly:140", 10**4, P1, eps)
    got = tb.curve("poly:150", 10**4, P1, eps)
    assert got["exponent"] == pytest.approx(want["exponent"], rel=1e-12)
    assert got["bound"] == pytest.approx(want["bound"], rel=1e-12, abs=0)


@pytest.mark.parametrize("g", [P1, P2, E64], ids=["power1", "power2", "entropy64"])
@pytest.mark.parametrize("n", [10, 50, 200])
@pytest.mark.parametrize("R", [1, 2, 4, 6])
def test_build_spec_coefficients_nonnegative(g, n, R):
    spec = tb.build_spec(n, g, R)
    assert spec.R == R
    assert len(spec.a) == R - 1
    assert all(a >= 0.0 for a in spec.a)
    assert spec.v > 0.0 and spec.c > 0.0


@pytest.mark.parametrize("g", [P1, P2, gf.power(3.5), E64, gf.entropy_log2(2**1022)],
                         ids=["power1", "power2", "power3.5", "entropy64", "entropy2^1022"])
def test_build_spec_output_satisfies_the_spec_invariants(g):
    # PolyFiltered checks nothing itself: every spec build_spec returns has an
    # integer R in [1, 170], R - 1 coefficients each >= 0, and v, c > 0; where
    # it cannot, build_spec raises
    built = 0
    for n in (3, 20, 1000, 10**6, 10**12):
        for R in (1, 2, 5, 40, 170):
            try:
                spec = tb.build_spec(n, g, R)
            except NumericalError:
                continue
            assert type(spec.R) is int and spec.R == R
            assert len(spec.a) == R - 1 and all(a_r >= 0.0 for a_r in spec.a)
            assert spec.v >= sys.float_info.min and spec.c > 0.0
            built += 1
    assert built >= 10
    for R in (0, 171, 2.5):
        with pytest.raises(InvalidInputError):
            tb.build_spec(20, g, R)


def test_build_spec_r1_is_strongly_sub_gamma():
    n = 30
    spec = tb.build_spec(n, P1, 1)
    v = u_star(n, P1, 2).value
    c = scale_parameter(n, P1)
    assert spec.v == pytest.approx(v, rel=1e-14, abs=0)
    assert spec.c == pytest.approx(c, rel=1e-14, abs=0)
    eps = (0.05, 0.2, 0.5)
    for e, got in zip(eps, tb.curve("ssg", n, P1, eps)["bound"]):
        assert got == pytest.approx(math.exp(-ssg_exponent(v, c, e)), rel=1e-12, abs=0)


def test_high_order_filter_terms_never_nan():
    # power:2, n = 100: from R = 135 on, l^r overflows in f(l) while a_r is
    # subnormal, and from R = 136 on a_r underflows to 0 at high r; the
    # exponent must stay the limit that the lower orders approach.
    base = [poly_exponent(tb.build_spec(100, P2, 134), e) for e in (0.1, 0.3)]
    for R in (135, 136, 150, 170):
        spec = tb.build_spec(100, P2, R)
        for e, want in zip((0.1, 0.3), base):
            assert poly_exponent(spec, e) == pytest.approx(want, rel=1e-12)


def test_zero_filter_coefficients_add_nothing():
    # l = 500 at s = 0.5, so l^r overflows from r = 115 on; the 200 trailing
    # zero coefficients must leave f, f' and f'' bit-identical.
    lean, padded = (0.25, 0.0, 0.125), (0.25, 0.0, 0.125) + (0.0,) * 200
    for s in (0.9, 0.5, 1e-6):
        assert tb._filter_derivs(padded, 0.01, 1e-3, s) == tb._filter_derivs(lean, 0.01, 1e-3, s)
        assert tb._filter_f(padded, 0.01, 1e-3, s) == tb._filter_f(lean, 0.01, 1e-3, s)


@pytest.mark.parametrize("s", [0.01, 1e-6])
def test_filter_matches_mpmath_where_the_power_overflows(s):
    # power:2, n = 100, R = 150: l = (1 - s)/c is about 192-194, so l^150 is
    # about 1e342; Horner's rule must still give f, f' and f'' in full
    mpmath = pytest.importorskip("mpmath")
    spec = tb.build_spec(100, P2, 150)
    a, v, c = spec.a, spec.v, spec.c
    lam = (1.0 - s) / c
    assert 150 * math.log10(lam) > 309  # l^150 overflows a double
    with mpmath.workdps(40):
        mv, mc, ms, ml = (mpmath.mpf(x) for x in (v, c, s, lam))
        terms = [(r, mpmath.mpf(a_r)) for r, a_r in enumerate(a, start=2)]
        d1 = sum(a_r * ml ** (r - 1) for r, a_r in terms) + mv * ml / ms
        d2 = sum((r - 1) * a_r * ml ** (r - 2) for r, a_r in terms) + mv / ms**2
        f = sum(a_r * ml**r / r for r, a_r in terms) + mv / mc**2 * (-(1 - ms) - mpmath.log(ms))
    got_d1, got_d2 = tb._filter_derivs(a, v, c, s)
    assert got_d1 == pytest.approx(float(d1), rel=1e-14, abs=0)
    assert got_d2 == pytest.approx(float(d2), rel=1e-14, abs=0)
    assert tb._filter_f(a, v, c, s) == pytest.approx(float(f), rel=1e-13, abs=0)


def test_higher_order_filter_is_tighter():
    n = 20
    b2 = tb.curve("poly:2", n, P1, EPS_GRID)["bound"]
    b5 = tb.curve("poly:5", n, P1, EPS_GRID)["bound"]
    assert all(x5 <= x2 + 1e-12 for x2, x5 in zip(b2, b5))


def test_theorem2_right_tail_oracle():
    for n, g in [(10, P1), (40, E64)]:
        ratio = gf.ratio_sup(g)
        s2 = tb.THEOREM2_VARIANCE_FACTOR * ratio**2 / n
        for e in (0.05, 0.3):
            assert bound("theorem2", n, g, e) == pytest.approx(
                math.exp(-e * e / (2.0 * s2)), rel=1e-14, abs=0
            )


def test_theorem2_variance_factor_not_below_two_kappa():
    # rounding 2 kappa = 0.51909... down would shrink the theorem's variance
    assert tb.THEOREM2_VARIANCE_FACTOR >= 2.0 * kappa_const()


def test_left_tail_exact_oracle():
    n, e = 20, 0.098
    v = u_star(n, P1, 2).value
    assert bound("left_u2", n, P1, e) == pytest.approx(math.exp(-e * e / (2.0 * v)), rel=1e-13, abs=0)


def test_left_tail_from_log_u2_where_u2_underflows():
    # power:100 at n = 1e5: u*_2 underflows to 0, its log does not
    n, g = 10**5, gf.power(100.0)
    res = u_star(n, g, 2)
    assert res.value == 0.0
    eps = math.exp(0.5 * res.log_value)  # eps^2 / (2 u*_2) = 1/2, up to rounding
    # 40-digit mpmath at these two doubles
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        want = float(mpmath.exp(-mpmath.mpf(eps) ** 2 / (2 * mpmath.exp(res.log_value))))
    assert bound("left_u2", n, g, eps) == pytest.approx(want, rel=1e-12, abs=0)
    assert bound("left_u2", n, g, 0.1) == 0.0
    assert bound("left_u2", n, g, 0.0) == 1.0
    with pytest.raises(InvalidInputError):
        bound("left_u2", n, g, -0.1)


def test_left_tail_entropy_floor():
    # log u_2 rises to one maximum and then falls, so its maximum over the
    # declared domain p >= 1/64 lies at max(argmax, 1/64)
    e = 0.15
    res = u_star(20, E64, 2)
    assert res.argmax > 1.0 / 64.0
    assert exponent("left_u2", 20, E64, e) == tb._gaussian_exponent(res.log_value, e)
    n = 200
    assert u_star(n, E64, 2).argmax < 1.0 / 64.0
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        p = mpmath.mpf(1) / 64
        t = n * mpmath.log1p(-p)
        log_u2 = (2 * mpmath.log(p * mpmath.log(1 / p) / mpmath.log(2)) + t
                  + mpmath.log(-mpmath.expm1(t)) - mpmath.log(p))
        want = float(mpmath.exp(-mpmath.mpf(e) ** 2 / (2 * mpmath.exp(log_u2))))
    assert bound("left_u2", n, E64, e) == pytest.approx(want, rel=1e-13, abs=0)


def test_left_tail_at_the_largest_power_alpha_is_zero():
    # log u*_2 of power:1e300 is about -2e288, finite, so the exponent
    # eps^2 / (2 u*_2) is +inf for eps > 0 and the bound is 0
    g = gf.power(1e300)
    assert bound("left_u2", 20, g, 0.1) == 0.0
    assert bound("left_u2", 20, g, 0.0) == 1.0


@pytest.mark.parametrize("g", [P1, P2, E64], ids=["power1", "power2", "entropy64"])
def test_left_tail_closed_form_never_tighter(g):
    # the closed form replaces u*_2 by an upper bound, so its tail is larger
    for n in (10, 100):
        for e in (0.02, 0.1, 0.3):
            closed = bound("left_corollary", n, g, e)
            assert bound("left_u2", n, g, e) <= closed + 1e-15


def test_corollary_left_identity_alpha_one():
    n, e = 50, 0.1
    want = math.exp(-n * e * e / (2.0 * gamma_const()))
    assert bound("left_corollary", n, P1, e) == pytest.approx(want, rel=1e-13, abs=0)


def test_corollary_left_entropy_oracle():
    n, k, e = 50, 64, 0.2
    want = math.exp(-n * e * e / (2.0 * gamma_const() * math.log2(k) ** 2))
    assert bound("left_corollary", n, gf.entropy_log2(k), e) == pytest.approx(want, rel=1e-13, abs=0)


def test_corollary_left_regimes():
    with pytest.raises(RegimeError):
        bound("left_corollary", 2, gf.entropy_log2(16), 0.1)
    with pytest.raises(InvalidInputError):
        bound("left_corollary", 50, gf.power(0.5), 0.1)
    with pytest.raises(InvalidInputError):
        bound("left_corollary", 50, P1, -0.1)


def test_corollary_left_tail_underflowed_variance():
    # u2_closed_bound(10^6, power(50)) underflows to 0: the bound rounds to 0
    # for eps > 0 and stays the trivial 1 at eps = 0
    assert bound("left_corollary", 10**6, gf.power(50), 0.1) == 0.0
    assert bound("left_corollary", 10**6, gf.power(50), 0.0) == 1.0


def test_corollaries_reject_g_without_closed_form():
    for family in ("left_corollary", "right_corollary"):
        with pytest.raises(InvalidInputError):
            bound(family, 50, gf.power(0.5), 0.1)


@pytest.mark.parametrize("n", [20, 100])
def test_corollary_right_m0_is_ssg_with_gamma_variance(n):
    # the printed curve coincides with the strongly-sub-gamma template at
    # v = gamma/n, c = 3/(2(n+2))
    v = gamma_const() / n
    c = 3.0 / (2.0 * (n + 2.0))
    for e in (0.01, 0.05, 0.1, 0.3, 0.6):
        assert bound("right_corollary", n, P1, e) == pytest.approx(
            ssg_tail(v, c, e), rel=1e-12, abs=0
        )


def test_corollary_right_m0_closed_form_spot():
    # direct transcription evaluated with plain math calls
    n, e = 20, 0.1
    gam_n = gamma_const() * (1.0 + 2.0 / n)
    expo = (2.0 * (n + 2.0) / 3.0) * (e - (2.0 * gam_n / 3.0) * math.log(1.0 + 3.0 * e / (2.0 * gam_n)))
    assert bound("right_corollary", n, P1, e) == pytest.approx(math.exp(-expo), rel=1e-12, abs=0)


def test_corollary_right_m0alpha_weaker_than_exact_ssg():
    # closed form trades sharpness for readability; the trade must go one way
    alpha, n = 2.0, 100
    g = gf.power(alpha)
    v = u_star(n, g, 2).value
    c = scale_parameter(n, g)
    for e in (1e-4, 1e-3, 1e-2):
        closed = bound("right_corollary", n, g, e)
        exact = ssg_tail(v, c, e)
        assert closed >= exact - 1e-15


def test_corollary_right_m0alpha_regime():
    with pytest.raises(RegimeError):
        bound("right_corollary", 17, P2, 0.1)  # needs n > 17
    bound("right_corollary", 18, P2, 0.1)


@pytest.mark.parametrize("alpha,n,eps", [
    (50, 3000, 0.1), (50, 3000, 0.5), (50, 10**5, 1e-3), (50, 1000, 0.5), (50, 1000, 0.1),
    (100, 3000, 0.1), (1000, 3000, 0.1), (10, 10**6, 0.1),
    (2, 30, 0.1), (2, 30, 1e-3), (2, 30, 1e-5), (2, 30, 1e-25), (3, 2 * 10**6, 0.01),
])
def test_corollary_right_large_alpha_matches_mpmath(alpha, n, eps):
    # n^(2 alpha - 1) overflows a double, from alpha = 87 on gamma_alpha too,
    # and from alpha = 1026 on a; the printed form at 60 digits is the oracle
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        m = mpmath.mpf(2 * alpha - 1)
        t = mpmath.findroot(lambda t: m / t - 1 + 1 / mpmath.expm1(t), (m, m + 1),
                            solver="anderson")
        ga = mpmath.exp(m * mpmath.log(t) - t + mpmath.log(-mpmath.expm1(-t)))
        b = 1 + mpmath.mpf(2 * alpha) / (alpha - 1)
        a = (b - 1) * (mpmath.mpf(2 * (alpha - 1)) / (alpha + 1)) ** alpha
        e = mpmath.mpf(eps)
        want = ((n - b) / a) * e - (ga / (a * a)) * (n - b) ** (3 - 2 * alpha) * mpmath.log1p(
            a * mpmath.mpf(n) ** (2 * alpha - 1) * e / (ga * (n - b)))
        want = float(want)
    assert exponent("right_corollary", n, gf.power(alpha), eps) == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("k", [2, 64, 1000, 10**6])
@pytest.mark.parametrize("n", [3, 30, 10**4, 10**12])
def test_corollary_right_entropy_matches_mpmath(k, n):
    # the printed form at 50 digits: (2 n0/log2 n0)(eps - (gamma_k/log2 n0)
    # log2(1 + eps log2 n0/gamma_k)), n0 = (n-1)/3 + e,
    # gamma_k = 2 gamma (1/3 + (e - 1/3)/n) log2(k)^2
    mpmath = pytest.importorskip("mpmath")
    eps = [1e-12, 1e-6, 0.01, 0.5, 5.0, 50.0]
    got = tb.curve("right_corollary", n, gf.entropy_log2(k), eps)["exponent"]
    with mpmath.workdps(50):
        t = mpmath.findroot(lambda t: 1 / t - 1 + 1 / mpmath.expm1(t), (1, 2), solver="anderson")
        gamma = t * mpmath.exp(-t) * -mpmath.expm1(-t)
        n0 = mpmath.mpf(n - 1) / 3 + mpmath.e
        log2n0 = mpmath.log(n0, 2)
        gam_k = 2 * gamma * (mpmath.mpf(1) / 3 + (mpmath.e - mpmath.mpf(1) / 3) / n) * mpmath.log(k, 2) ** 2
        for e, E in zip(eps, got):
            e = mpmath.mpf(e)
            want = float(2 * n0 / log2n0 * (e - gam_k / log2n0 * mpmath.log(1 + e * log2n0 / gam_k, 2)))
            assert abs(E - want) <= 1e-11 * max(1.0, abs(want)), (e, E, want)


def test_corollary_right_second_term_past_double_range():
    # alpha = 2000 at n = 6: the second term is about e^1387, so E = -inf
    g = gf.power(2000.0)
    assert exponent("right_corollary", 6, g, 0.1) == -math.inf
    assert bound("right_corollary", 6, g, 0.1) == 1.0


def test_corollary_right_entropy_clamps_and_decays():
    # deviations of the missing entropy run up to log2(k) bits, and the
    # closed form only bites once eps is an appreciable fraction of that
    n, k = 100, 1024
    g = gf.entropy_log2(k)
    small = bound("right_corollary", n, g, 0.01)
    assert small == 1.0
    vals = [bound("right_corollary", n, g, e) for e in (4.0, 5.0, 6.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[0] < 1.0


def test_corollary_right_entropy_far_below_zero_clamps_to_one():
    # n = 1e9, k = 1e6 at eps = 0.01: the printed form's exponent is far
    # below -709, where exp(-E) overflows; the bound is the trivial 1
    g = gf.entropy_log2(10**6)
    assert exponent("right_corollary", 10**9, g, 0.01) < -710.0
    assert bound("right_corollary", 10**9, g, 0.01) == 1.0


def test_curve_subgauss_matches_exponential_rate():
    for n in (20, 100, 1000):
        c = tb.curve("subgauss", n, P1, EPS_GRID)
        want = np.minimum(1.0, np.exp(-n * EPS_GRID**2))
        np.testing.assert_allclose(np.asarray(c["bound"]), want, rtol=1e-12)


def test_curve_families_consistent():
    n = 50
    eps = EPS_GRID
    ssg = tb.curve("ssg", n, P1, eps)
    sg = tb.curve("subgamma", n, P1, eps)
    p3 = tb.curve("poly:3", n, P1, eps)
    spec3 = tb.build_spec(n, P1, 3)
    for i, e in enumerate(eps):
        assert ssg["bound"][i] <= sg["bound"][i] + 1e-15
        want = min(1.0, math.exp(-poly_exponent(spec3, float(e))))
        assert p3["bound"][i] == pytest.approx(want, rel=1e-12, abs=0)
    assert len(ssg["bound"]) == len(ssg["exponent"]) == len(eps)


@pytest.mark.parametrize("g", [P1, P2, gf.power(3.0), E64],
                         ids=["power1", "power2", "power3", "entropy64"])
@pytest.mark.parametrize("n", [20, 100, 1000, 2 * 10**6])
def test_every_bound_falls_to_zero_at_infinite_eps(g, n):
    for family in ("subgauss", "theorem2", "left_u2", "left_corollary", "right_corollary",
                   "ssg", "subgamma", "poly:2", "poly:5"):
        if family == "subgauss" and g != P1:
            continue
        bounds = tb.curve(family, n, g, [1e200, 1e300, 1e308, math.inf])["bound"]
        assert all(b <= a for a, b in zip(bounds, bounds[1:])), (family, bounds)
        assert bounds[-1] == 0.0, (family, bounds)


@pytest.mark.parametrize("g", [P1, P2, E64], ids=["power1", "power2", "entropy64"])
def test_curve_ssg_is_order_one_filter(g):
    for n in (20, 100, 1000):
        ssg = tb.curve("ssg", n, g, EPS_GRID)
        poly1 = tb.curve("poly:1", n, g, EPS_GRID)
        assert ssg["bound"] == poly1["bound"]
        assert ssg["exponent"] == poly1["exponent"]


@pytest.mark.parametrize("family", ["subgauss", "theorem2", "left_u2", "left_corollary",
                                    "right_corollary", "ssg", "subgamma", "poly:2", "poly:5"])
@pytest.mark.parametrize("eps", [[], [0.1]], ids=["empty", "one"])
def test_every_family_rejects_small_power_before_its_work(family, eps, monkeypatch):
    # the one domain gate is ratio_sup, and it comes before any (n, g) work
    def no_work(*args):
        raise AssertionError("family work reached")

    monkeypatch.setattr(tb, "parse_family", no_work)
    with pytest.raises(InvalidInputError) as info:
        gf.ratio_sup(gf.power(0.5))
    for alpha in (0.5, 0.01):
        with pytest.raises(InvalidInputError) as got:
            tb.curve(family, 50, gf.power(alpha), eps)
        assert str(got.value) == str(info.value)


def test_spec_and_closed_u2_bound_take_the_ratio_sup_gate():
    with pytest.raises(InvalidInputError) as info:
        gf.ratio_sup(gf.power(0.5))
    for call in (lambda: tb.build_spec(50, gf.power(0.5), 2),
                 lambda: log_u2_closed_bound(50, gf.power(0.5))):
        with pytest.raises(InvalidInputError) as got:
            call()
        assert str(got.value) == str(info.value)


#: Grids that are not a 1-D array of numbers >= 0.
BAD_GRIDS = {"nan_first": [math.nan, 0.1], "nan_last": [0.1, math.nan],
             "negative": [0.1, -0.1], "2d": [[0.1, 0.2]], "scalar": 0.1}


@pytest.mark.parametrize("grid", BAD_GRIDS.values(), ids=BAD_GRIDS.keys())
@pytest.mark.parametrize("family", ["ssg", "right_corollary", "poly:2", "theorem2"])
def test_curve_rejects_a_grid_that_is_not_1d_and_nonnegative(family, grid):
    # NaN passes an eps < 0 test; unchecked, it gives the bound 1 (ssg), a
    # warning (right_corollary) or a NumericalError (poly:2)
    with pytest.raises(InvalidInputError, match="eps grid must be a 1-D array of numbers >= 0"):
        tb.curve(family, 100, P2, grid)


def test_curve_takes_an_empty_grid():
    assert tb.curve("poly:2", 100, P1, []) == {"bound": (), "exponent": ()}


def test_curve_rejects_unknown_family_and_small_power():
    with pytest.raises(InvalidInputError):
        tb.curve("cauchy", 20, P1, [0.1])
    with pytest.raises(InvalidInputError):
        tb.curve("poly:x", 20, P1, [0.1])
    with pytest.raises(InvalidInputError):
        tb.curve("ssg", 20, gf.power(0.5), [0.1])


def test_family_table_declares_each_family_and_its_tails():
    # the sides mc_tail's columns, fig1 and README give each family
    assert {f.name: f.tails for f in tb.FAMILIES} == {
        "subgauss": ("right",), "theorem2": ("right", "left"), "left_u2": ("left",),
        "left_corollary": ("left",), "right_corollary": ("right",), "ssg": ("right",),
        "subgamma": ("right",), "poly:R": ("right",)}
    assert [f.name for f in tb.FAMILIES if f.g is not None] == ["subgauss"]
    for column, family in rl._BOUND_FAMILIES.items():
        assert column.split("_")[0] in tb.parse_family(family).tails, column
    for family in ("subgauss", "poly:2", "poly:5"):  # fig1's columns
        assert tb.parse_family(family).tails == ("right",)


@pytest.mark.parametrize("text,name", [("poly:7", "poly:7"), ("poly: 7", "poly:7"),
                                       ("poly:0_7", "poly:7"), ("ssg", "ssg")])
def test_parse_family_gives_the_canonical_name(text, name):
    row = tb.parse_family(text)
    assert row.name == name
    want = tb.curve(name, 20, P1, [0.2])["exponent"]
    assert tuple(row.build(20, P1)(np.array([0.2])).tolist()) == want


@pytest.mark.parametrize("text", ["poly:R", "poly:", "poly", "Poly:2", ""])
def test_parse_family_rejects_what_the_table_does_not_name(text):
    with pytest.raises(InvalidInputError):
        tb.parse_family(text)


# ---------------------------------------------------------------------------
# exact per-distribution Chernoff oracle
#
# The unseen indicators [F_x = 0] are negatively associated (Dubhashi &
# Ranjan 1998), so for lam >= 0 the log-MGF of s (G0 - E[G0]), s = +1 on the
# right tail and -1 on the left, is at most psi_P(s lam), where
#     psi_P(lam) = sum_d m_d [log(1 - q_d + q_d e^(lam g_d)) - lam g_d q_d],
# q_d = (1 - p_d)^n, over the distinct masses p_d of multiplicity m_d.  So
# exp(-E_P(eps)), E_P(eps) = sup_[lam >= 0] [lam eps - psi_P(s lam)], bounds
# each tail, and no family's exponent may exceed E_P.

#: (distinct masses, multiplicities): uniform supports, then two-mass ones.
NA_SUPPORTS = [((1.0 / k,), (k,)) for k in (2, 5, 20, 64, 200, 700)] + [
    ((0.5, 0.005), (1, 100)), ((0.9, 0.001), (1, 100)), ((0.4, 0.0002), (2, 1000)),
    ((0.02, 0.0005), (25, 1000)), ((0.1, 0.01), (5, 50)), ((0.25, 0.025), (2, 20)),
    ((0.05, 0.02), (10, 25)), ((0.125, 0.0625), (4, 8)), ((0.2, 0.016), (1, 50))]
NA_EPS = np.array([0.005, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7])
NA_NS = (20, 100, 1000)
#: Every row of FAMILIES, poly:R as poly:2 and poly:5.
NA_FAMILIES = [name for f in tb.FAMILIES
               for name in (("poly:2", "poly:5") if f.name == "poly:R" else (f.name,))]


def na_exponent(p, m, gv, n, s, eps):
    """E_P per row, inf from the largest deviation on.  p, m and gv (masses,
    multiplicities, g at the masses) have shape (rows, atoms), padded with
    m = 0; n, s and eps have shape (rows,).  lam solves
    (d/dlam) psi_P(s lam) = eps by Newton's method on the convex psi, kept
    inside a bracket that it bisects where a step would leave it."""
    s = s[:, None]
    log_q = n[:, None] * np.log1p(-p)
    log_1mq = np.log(-np.expm1(log_q))
    q = np.exp(log_q)
    w = m * gv
    top = np.sum(w * np.where(s > 0, 1.0 - q, q), axis=1)
    live = eps < top
    e = np.where(live, eps, 0.0)

    def slope(lam):
        """(d/dlam) psi_P(s lam) and its derivative, from the tilted q_d."""
        z = s * lam[:, None] * gv + log_q - log_1mq
        t = np.exp(-np.abs(z))
        tilted = np.where(z >= 0.0, 1.0 / (1.0 + t), t / (1.0 + t))
        return (np.sum(w * s * (tilted - q), axis=1),
                np.sum(w * gv * t / (1.0 + t) ** 2, axis=1))

    # the slope rises from 0 at lam = 0 to top as lam -> inf
    lo, hi = np.zeros_like(e), np.ones_like(e)
    while (short := live & (slope(hi)[0] <= e)).any():
        lo, hi = np.where(short, hi, lo), np.where(short, 2.0 * hi, hi)
    lam = 0.5 * (lo + hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(200):
            d1, d2 = slope(lam)
            lo, hi = np.where(d1 < e, lam, lo), np.where(d1 > e, lam, hi)
            step = lam - (d1 - e) / d2
            new = np.where((step > lo) & (step < hi), step, 0.5 * (lo + hi))
            if np.all(np.abs(new - lam) <= 1e-15 * lam):
                break
            lam = new
    # the slope is a sum of terms up to the total weight, so its rounding
    # error is about 1e-16 of that weight, whatever eps is
    tol = 1e-12 * e + 1e-14 * np.sum(w, axis=1)
    assert np.all(~live | (np.abs(d1 - e) <= tol)), "na_exponent: Newton solve failed"
    tilt = s * lam[:, None] * gv
    psi = np.sum(m * (np.logaddexp(log_1mq, log_q + tilt) - tilt * q), axis=1)
    return np.where(live, lam * eps - psi, np.inf)


def test_na_exponent_is_the_bernoulli_divergence_on_one_atom():
    # one indicator of weight w: E_P(eps) = KL(q +- eps/w || q)
    p, n, w = 0.05, 20, 0.5
    q = (1.0 - p) ** n
    eps = np.linspace(0.005, 0.45, 40)
    ones = np.ones_like(eps)
    for s in (1.0, -1.0):
        got = na_exponent(p * ones[:, None], ones[:, None], w * ones[:, None], n * ones,
                          s * ones, eps)
        a = q + s * eps / w
        inside = (a > 0.0) & (a < 1.0)
        b = a[inside]
        kl = b * np.log(b / q) + (1.0 - b) * np.log((1.0 - b) / (1.0 - q))
        np.testing.assert_allclose(got[inside], kl, rtol=1e-10)
        assert np.all(got[~inside] == np.inf)


@pytest.fixture(scope="module")
def na_exponents():
    """(g, n, tail) -> E_P, one row per support of NA_SUPPORTS (for
    entropy:64 only those whose atoms are >= 1/64), one column per eps of NA_EPS."""
    cells = [(g, n, tail, support) for g in (P1, P2, E64) for n in NA_NS
             for tail in ("right", "left")
             for support in NA_SUPPORTS if min(support[0]) >= g.domain_min]
    p = np.full((len(cells), 2), 0.5)
    m, gv = np.zeros_like(p), np.zeros_like(p)
    for i, (g, _, _, (masses, mults)) in enumerate(cells):
        p[i, :len(masses)], m[i, :len(masses)] = masses, mults
        gv[i, :len(masses)] = g.eval(np.array(masses))
    n = np.array([c[1] for c in cells], dtype=float)
    s = np.array([1.0 if c[2] == "right" else -1.0 for c in cells])
    rows = np.repeat(np.arange(len(cells)), NA_EPS.size)
    exact = na_exponent(p[rows], m[rows], gv[rows], n[rows], s[rows],
                        np.tile(NA_EPS, len(cells))).reshape(len(cells), -1)
    table = {}
    for (g, n, tail, _), row in zip(cells, exact):
        table.setdefault((g, n, tail), []).append(row)
    return {key: np.array(rows) for key, rows in table.items()}


@pytest.mark.parametrize("family", NA_FAMILIES)
def test_no_family_exponent_exceeds_the_exact_chernoff_exponent(family, na_exponents):
    checked = 0
    for g in (P1, P2, E64):
        for n in NA_NS:
            try:
                got = np.array(tb.curve(family, n, g, NA_EPS)["exponent"])
            except (RegimeError, NumericalError):
                continue
            for tail in tb.parse_family(family).tails:
                exact = na_exponents[g, n, tail]
                over = got > exact * (1.0 + 1e-9)
                assert not over.any(), (
                    f"{family} {tail} tail, {g.descriptor()}, n = {n}: exponents {got} "
                    f"above the exact {exact[over]} at eps {NA_EPS[over.any(axis=0)]}")
                checked += exact.size
    assert checked > 0


@st.composite
def na_cases(draw):
    """(masses, multiplicities, g, n, eps): one to three distinct masses, the
    drawn weights renormalized over the multiplicities; g is power:1, power:2
    or entropy:k with every atom >= 1/k; n in [3, 2000]; one to five eps."""
    atoms = draw(st.integers(1, 3))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=atoms, max_size=atoms)))
    mults = np.array(draw(st.lists(st.integers(1, 1000), min_size=atoms, max_size=atoms)),
                     dtype=float)
    assume(mults.sum() >= 2.0)  # a lone atom of mass 1 is never unseen
    masses = weights / np.sum(weights * mults)
    g = draw(st.sampled_from(["power:1", "power:2", "entropy"]))
    if g == "entropy":
        floor = math.ceil(1.0 / masses.min())
        g = gf.entropy_log2(draw(st.integers(max(2, floor), 4 * floor)))
        assume(masses.min() >= g.domain_min)
    else:
        g = gf.parse(g)
    n = draw(st.integers(3, 2000))
    eps = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=5)))
    return masses, mults, g, n, eps


@settings(max_examples=100, deadline=None)
@given(case=na_cases())
def test_no_family_exponent_exceeds_the_exact_chernoff_exponent_on_drawn_supports(case):
    masses, mults, g, n, eps = case
    rows = np.ones((eps.size, 1))
    exact = {tail: na_exponent(masses * rows, mults * rows, g.eval(masses) * rows, n * rows[:, 0],
                               s * rows[:, 0], eps)
             for tail, s in (("right", 1.0), ("left", -1.0))}
    for family in NA_FAMILIES:
        try:
            got = np.array(tb.curve(family, n, g, eps)["exponent"])
        except (RegimeError, NumericalError):
            continue
        for tail in tb.parse_family(family).tails:
            over = got > exact[tail] * (1.0 + 1e-9)
            assert not over.any(), (
                f"{family} {tail} tail, {g.descriptor()}, n = {n}, masses {masses}, "
                f"multiplicities {mults}: exponents {got[over]} above the exact "
                f"{exact[tail][over]} at eps {eps[over]}")
