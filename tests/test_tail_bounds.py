import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy import optimize

from missingmass import gfunction as gf
from missingmass import tail_bounds as tb
from missingmass.errors import InvalidInputError, NumericalError, RegimeError
from missingmass.ustar_engine import gamma_const, kappa_const, scale_parameter, u_star

P1 = gf.power(1.0)
P2 = gf.power(2.0)
E64 = gf.entropy_log2(64)

EPS_GRID = np.arange(1, 15) * 0.05


def ssg_tail(v, c, e):
    """Strongly sub-Gamma tail: the order-1 spec, which has no filter terms."""
    return tb.tail_bound(tb.PolyFiltered(1, (), v, c), e)


def sub_gamma_tail(v, c, e):
    return min(1.0, math.exp(-tb.sub_gamma_exponent(v, c, e)))


def test_sub_gamma_matches_naive_form():
    # stable h(x) = x^2/(1+x+sqrt(1+2x)) against the textbook 1+x-sqrt(1+2x)
    for v, c, e in [(0.01, 0.1, 0.2), (0.5, 1.0, 0.7), (1e-4, 0.05, 0.02)]:
        x = c * e / v
        naive = (v / c**2) * (1.0 + x - math.sqrt(1.0 + 2.0 * x))
        assert tb.sub_gamma_exponent(v, c, e) == pytest.approx(naive, rel=1e-9)


def test_strongly_sub_gamma_oracle():
    v, c, e = 0.012, 0.07, 0.15
    z = c * e / v
    want = (v / c**2) * (z - math.log1p(z))
    assert tb.strongly_sub_gamma_exponent(v, c, e) == pytest.approx(want, rel=1e-14, abs=0)


@pytest.mark.parametrize("exponent", [tb.sub_gamma_exponent, tb.strongly_sub_gamma_exponent])
def test_gamma_exponents_are_inf_where_the_ratio_overflows(exponent):
    # c*eps/v overflows: the exponent is inf and the bound 0, never NaN
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
            got = tb.sub_gamma_exponent(v, c, e)
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
    assert tb.strongly_sub_gamma_exponent(v, c, 0.0) == 0.0
    assert tb.sub_gamma_exponent(v, c, 0.0) == 0.0
    ssg = [tb.strongly_sub_gamma_exponent(v, c, e) for e in EPS_GRID]
    assert all(b > a for a, b in zip(ssg, ssg[1:]))


def test_tails_clamped_to_one():
    assert tb.theorem2_sub_gaussian_right(10, P1, 0.0) == 1.0
    assert sub_gamma_tail(0.5, 0.5, 0.0) == 1.0
    assert 0.0 < ssg_tail(0.5, 0.5, 3.0) <= 1.0


def test_param_validation():
    with pytest.raises(InvalidInputError):
        tb.sub_gamma_exponent(0.1, -1.0, 0.1)
    with pytest.raises(InvalidInputError):
        tb.strongly_sub_gamma_exponent(0.1, 0.1, -0.5)


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
        got = tb.poly_filtered_exponent(spec, e)
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
        assert tb.poly_filtered_exponent(spec, e) == pytest.approx(want, rel=1e-13, abs=0)


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
                assert tb.poly_filtered_exponent(spec, e).hex() == reference_exponent(spec, e).hex()


def test_poly_exponent_checks_the_residual_after_the_step_cap(monkeypatch):
    # derivatives that always ask for a large step: the loop runs its 200
    # steps, then one more evaluation gives the residual
    calls = []

    def derivs(a, v, c, s):
        calls.append(s)
        return 1.0, 1e-3

    monkeypatch.setattr(tb, "_filter_derivs", derivs)
    with pytest.raises(NumericalError, match="residual"):
        tb.poly_filtered_exponent(tb.PolyFiltered(2, (0.1,), 0.01, 0.1), 0.2)
    assert len(calls) == 201


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
        assert tb.poly_filtered_exponent(spec, float(e)) == pytest.approx(want, rel=1e-13, abs=0)


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
    assert got.exponents == pytest.approx(want.exponents, rel=1e-12)
    assert got.bounds == pytest.approx(want.bounds, rel=1e-12, abs=0)


@pytest.mark.parametrize("g", [P1, P2, E64], ids=["power1", "power2", "entropy64"])
@pytest.mark.parametrize("n", [10, 50, 200])
@pytest.mark.parametrize("R", [1, 2, 4, 6])
def test_build_spec_coefficients_nonnegative(g, n, R):
    spec = tb.build_spec(n, g, R)
    assert spec.R == R
    assert len(spec.a) == R - 1
    assert all(a >= 0.0 for a in spec.a)
    assert spec.v > 0.0 and spec.c > 0.0


def test_build_spec_r1_is_strongly_sub_gamma():
    n = 30
    spec = tb.build_spec(n, P1, 1)
    v = u_star(n, P1, 2).value
    c = scale_parameter(n, P1)
    assert spec.v == pytest.approx(v, rel=1e-14, abs=0)
    assert spec.c == pytest.approx(c, rel=1e-14, abs=0)
    for e in (0.05, 0.2, 0.5):
        assert tb.tail_bound(spec, e) == pytest.approx(
            math.exp(-tb.strongly_sub_gamma_exponent(v, c, e)), rel=1e-12, abs=0
        )


def test_high_order_filter_terms_never_nan():
    # power:2, n = 100: from R = 135 on, l^r overflows in f(l) while a_r is
    # subnormal, and from R = 136 on a_r underflows to 0 at high r; the
    # exponent must stay the limit that the lower orders approach.
    base = [tb.poly_filtered_exponent(tb.build_spec(100, P2, 134), e) for e in (0.1, 0.3)]
    for R in (135, 136, 150, 170):
        spec = tb.build_spec(100, P2, R)
        for e, want in zip((0.1, 0.3), base):
            assert tb.poly_filtered_exponent(spec, e) == pytest.approx(want, rel=1e-12)


def test_zero_filter_coefficients_add_nothing():
    # l = 500 at s = 0.5, so l^r overflows from r = 115 on; the 200 trailing
    # zero coefficients must leave f, f' and f'' bit-identical.
    lean, padded = (0.25, 0.0, 0.125), (0.25, 0.0, 0.125) + (0.0,) * 200
    for s in (0.9, 0.5, 1e-6):
        assert tb._filter_derivs(padded, 0.01, 1e-3, s) == tb._filter_derivs(lean, 0.01, 1e-3, s)
        assert tb._filter_f(padded, 0.01, 1e-3, s) == tb._filter_f(lean, 0.01, 1e-3, s)


def test_higher_order_filter_is_tighter():
    n = 20
    b2 = [tb.tail_bound(tb.build_spec(n, P1, 2), float(e)) for e in EPS_GRID]
    b5 = [tb.tail_bound(tb.build_spec(n, P1, 5), float(e)) for e in EPS_GRID]
    assert all(x5 <= x2 + 1e-12 for x2, x5 in zip(b2, b5))


def test_theorem2_right_tail_oracle():
    for n, g in [(10, P1), (40, E64)]:
        ratio = gf.ratio_sup(g)
        s2 = tb.THEOREM2_VARIANCE_FACTOR * ratio**2 / n
        for e in (0.05, 0.3):
            assert tb.theorem2_sub_gaussian_right(n, g, e) == pytest.approx(
                math.exp(-e * e / (2.0 * s2)), rel=1e-14, abs=0
            )


def test_theorem2_variance_factor_not_below_two_kappa():
    # rounding 2 kappa = 0.51909... down would shrink the theorem's variance
    assert tb.THEOREM2_VARIANCE_FACTOR >= 2.0 * kappa_const()


def test_left_tail_exact_oracle():
    n, e = 20, 0.098
    v = u_star(n, P1, 2).value
    assert tb.left_tail(n, P1, e) == pytest.approx(math.exp(-e * e / (2.0 * v)), rel=1e-13, abs=0)


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
    assert tb.left_tail(n, g, eps) == pytest.approx(want, rel=1e-12, abs=0)
    assert tb.left_tail(n, g, 0.1) == 0.0
    assert tb.left_tail(n, g, 0.0) == 1.0
    with pytest.raises(InvalidInputError):
        tb.left_tail(n, g, -0.1)


def test_left_tail_entropy_floor():
    # log u_2 rises to one maximum and then falls, so its maximum over the
    # declared domain p >= 1/64 lies at max(argmax, 1/64)
    e = 0.15
    res = u_star(20, E64, 2)
    assert res.argmax > 1.0 / 64.0
    assert tb.left_tail(20, E64, e) == tb._gaussian_tail(res.log_value, e)
    n = 200
    assert u_star(n, E64, 2).argmax < 1.0 / 64.0
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        p = mpmath.mpf(1) / 64
        t = n * mpmath.log1p(-p)
        log_u2 = (2 * mpmath.log(p * mpmath.log(1 / p) / mpmath.log(2)) + t
                  + mpmath.log(-mpmath.expm1(t)) - mpmath.log(p))
        want = float(mpmath.exp(-mpmath.mpf(e) ** 2 / (2 * mpmath.exp(log_u2))))
    assert tb.left_tail(n, E64, e) == pytest.approx(want, rel=1e-13, abs=0)


def test_left_tail_at_the_largest_power_alpha_is_zero():
    # log u*_2 of power:1.7e308 is about -3.4e296, finite, so the exponent
    # eps^2 / (2 u*_2) is +inf for eps > 0 and the bound is 0
    g = gf.power(1.7e308)
    assert tb.left_tail(20, g, 0.1) == 0.0
    assert tb.left_tail(20, g, 0.0) == 1.0


@pytest.mark.parametrize("g", [P1, P2, E64], ids=["power1", "power2", "entropy64"])
def test_left_tail_closed_form_never_tighter(g):
    # the closed form replaces u*_2 by an upper bound, so its tail is larger
    for n in (10, 100):
        for e in (0.02, 0.1, 0.3):
            closed = tb.corollary_left_tail(n, g, e)
            assert tb.left_tail(n, g, e) <= closed + 1e-15


def test_corollary_left_identity_alpha_one():
    n, e = 50, 0.1
    want = math.exp(-n * e * e / (2.0 * gamma_const()))
    assert tb.corollary_left_tail(n, P1, e) == pytest.approx(want, rel=1e-13, abs=0)


def test_corollary_left_entropy_oracle():
    n, k, e = 50, 64, 0.2
    want = math.exp(-n * e * e / (2.0 * gamma_const() * math.log2(k) ** 2))
    assert tb.corollary_left_tail(n, gf.entropy_log2(k), e) == pytest.approx(want, rel=1e-13, abs=0)


def test_corollary_left_regimes():
    with pytest.raises(RegimeError):
        tb.corollary_left_tail(2, gf.entropy_log2(16), 0.1)
    with pytest.raises(InvalidInputError):
        tb.corollary_left_tail(50, gf.power(0.5), 0.1)
    with pytest.raises(InvalidInputError):
        tb.corollary_left_tail(50, P1, -0.1)


def test_corollary_left_tail_underflowed_variance():
    # u2_closed_bound(10^6, power(50)) underflows to 0: the bound rounds to 0
    # for eps > 0 and stays the trivial 1 at eps = 0
    assert tb.corollary_left_tail(10**6, gf.power(50), 0.1) == 0.0
    assert tb.corollary_left_tail(10**6, gf.power(50), 0.0) == 1.0


def test_corollaries_reject_g_without_closed_form():
    for fn in (tb.corollary_left_tail, tb.corollary_right_tail):
        with pytest.raises(InvalidInputError):
            fn(50, gf.power(0.5), 0.1)


@pytest.mark.parametrize("n", [20, 100])
def test_corollary_right_m0_is_ssg_with_gamma_variance(n):
    # the printed curve coincides with the strongly-sub-gamma template at
    # v = gamma/n, c = 3/(2(n+2))
    v = gamma_const() / n
    c = 3.0 / (2.0 * (n + 2.0))
    for e in (0.01, 0.05, 0.1, 0.3, 0.6):
        assert tb.corollary_right_tail(n, P1, e) == pytest.approx(
            ssg_tail(v, c, e), rel=1e-12, abs=0
        )


def test_corollary_right_m0_closed_form_spot():
    # direct transcription evaluated with plain math calls
    n, e = 20, 0.1
    gam_n = gamma_const() * (1.0 + 2.0 / n)
    expo = (2.0 * (n + 2.0) / 3.0) * (e - (2.0 * gam_n / 3.0) * math.log(1.0 + 3.0 * e / (2.0 * gam_n)))
    assert tb.corollary_right_tail(n, P1, e) == pytest.approx(math.exp(-expo), rel=1e-12, abs=0)


def test_corollary_right_m0alpha_weaker_than_exact_ssg():
    # closed form trades sharpness for readability; the trade must go one way
    alpha, n = 2.0, 100
    g = gf.power(alpha)
    v = u_star(n, g, 2).value
    c = scale_parameter(n, g)
    for e in (1e-4, 1e-3, 1e-2):
        closed = tb.corollary_right_tail(n, g, e)
        exact = ssg_tail(v, c, e)
        assert closed >= exact - 1e-15


def test_corollary_right_m0alpha_regime():
    with pytest.raises(RegimeError):
        tb.corollary_right_tail(17, P2, 0.1)  # needs n > 17
    tb.corollary_right_tail(18, P2, 0.1)


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
    assert tb.corollary_right_exponent(n, gf.power(alpha), eps) == pytest.approx(want, rel=1e-12, abs=0)


def test_corollary_right_second_term_past_double_range():
    # alpha = 2000 at n = 6: the second term is about e^1387, so E = -inf
    g = gf.power(2000.0)
    assert tb.corollary_right_exponent(6, g, 0.1) == -math.inf
    assert tb.corollary_right_tail(6, g, 0.1) == 1.0


def test_corollary_right_entropy_clamps_and_decays():
    # deviations of the missing entropy run up to log2(k) bits, and the
    # closed form only bites once eps is an appreciable fraction of that
    n, k = 100, 1024
    g = gf.entropy_log2(k)
    small = tb.corollary_right_tail(n, g, 0.01)
    assert small == 1.0
    vals = [tb.corollary_right_tail(n, g, e) for e in (4.0, 5.0, 6.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[0] < 1.0


def test_corollary_right_entropy_far_below_zero_clamps_to_one():
    # n = 1e9, k = 1e6 at eps = 0.01: the printed form's exponent is far
    # below -709, where exp(-E) overflows; the bound is the trivial 1
    g = gf.entropy_log2(10**6)
    assert tb.corollary_right_exponent(10**9, g, 0.01) < -710.0
    assert tb.corollary_right_tail(10**9, g, 0.01) == 1.0


def test_curve_subgauss_matches_exponential_rate():
    for n in (20, 100, 1000):
        c = tb.curve("subgauss", n, P1, EPS_GRID)
        want = np.minimum(1.0, np.exp(-n * EPS_GRID**2))
        np.testing.assert_allclose(np.asarray(c.bounds), want, rtol=1e-12)


def test_curve_families_consistent():
    n = 50
    eps = EPS_GRID
    ssg = tb.curve("ssg", n, P1, eps)
    sg = tb.curve("subgamma", n, P1, eps)
    p3 = tb.curve("poly:3", n, P1, eps)
    spec3 = tb.build_spec(n, P1, 3)
    for i, e in enumerate(eps):
        assert ssg.bounds[i] <= sg.bounds[i] + 1e-15
        assert p3.bounds[i] == pytest.approx(tb.tail_bound(spec3, float(e)), rel=1e-12, abs=0)
    assert len(ssg.bounds) == len(ssg.exponents) == len(eps)


@pytest.mark.parametrize("g", [P1, P2, E64], ids=["power1", "power2", "entropy64"])
def test_curve_ssg_is_order_one_filter(g):
    for n in (20, 100, 1000):
        ssg = tb.curve("ssg", n, g, EPS_GRID)
        poly1 = tb.curve("poly:1", n, g, EPS_GRID)
        assert ssg.bounds == poly1.bounds
        assert ssg.exponents == poly1.exponents


def test_small_power_rejected_alike_by_every_spec_family():
    messages = set()
    for family in ("ssg", "subgamma", "poly:1", "poly:3"):
        with pytest.raises(InvalidInputError) as info:
            tb.curve(family, 20, gf.power(0.5), [0.1])
        messages.add(str(info.value))
    assert len(messages) == 1


def test_curve_rejects_unknown_family_and_small_power():
    with pytest.raises(InvalidInputError):
        tb.curve("cauchy", 20, P1, [0.1])
    with pytest.raises(InvalidInputError):
        tb.curve("poly:x", 20, P1, [0.1])
    with pytest.raises(InvalidInputError):
        tb.curve("ssg", 20, gf.power(0.5), [0.1])


def test_poly_filtered_validation():
    with pytest.raises(InvalidInputError):
        tb.PolyFiltered(R=3, a=(0.1,), v=0.01, c=0.1)  # needs R-1 coefficients
    with pytest.raises(InvalidInputError):
        tb.PolyFiltered(R=2, a=(-0.1,), v=0.01, c=0.1)
