import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from missingmass import gfunction as gf
from missingmass.errors import InvalidInputError


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0, 4.5])
def test_power_eval_matches_formula(alpha):
    g = gf.power(alpha)
    p = np.linspace(0.01, 1.0, 57)
    np.testing.assert_allclose(g.eval(p), p**alpha, rtol=1e-15)


def test_power_scalar_returns_float():
    g = gf.power(2.0)
    out = g.eval(0.3)
    assert isinstance(out, float)
    assert out == pytest.approx(0.09)


def test_entropy_eval_matches_formula():
    g = gf.entropy_log2(64)
    p = np.linspace(1.0 / 64.0, 1.0, 101)
    np.testing.assert_allclose(g.eval(p), p * np.log2(1.0 / p), rtol=1e-14)


def test_entropy_at_one_is_positive_zero():
    g = gf.entropy_log2(8)
    out = g.eval(1.0)
    assert out == 0.0
    assert math.copysign(1.0, out) == 1.0


@pytest.mark.parametrize("bad", [0.0, -0.1, 1.0 + 1e-9])
def test_eval_rejects_out_of_domain(bad):
    with pytest.raises(InvalidInputError):
        gf.power(1.0).eval(bad)


def test_entropy_eval_rejects_below_floor():
    g = gf.entropy_log2(64)
    with pytest.raises(InvalidInputError):
        g.eval(1.0 / 65.0)
    # floor computed a different way must not be rejected
    g.eval(1.0 - 63.0 / 64.0)


def test_entropy_eval_raw_ignores_floor():
    g = gf.entropy_log2(64)
    p = 1e-4
    assert g.eval_raw(p) == pytest.approx(p * math.log2(1.0 / p), rel=1e-14, abs=0)


def test_power_requires_positive_alpha():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InvalidInputError):
            gf.power(bad)


def test_entropy_requires_integer_floor_at_least_two():
    # int() of nan raises ValueError and of +-inf OverflowError
    for bad in (1, 0, -4, math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidInputError):
            gf.entropy_log2(bad)


@pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0, 4.0])
def test_ratio_sup_power_is_one(alpha):
    assert gf.ratio_sup(gf.power(alpha)) == 1.0


@pytest.mark.parametrize("k", [2, 64, 1024])
def test_ratio_sup_entropy_is_log2_k(k):
    assert gf.ratio_sup(gf.entropy_log2(k)) == pytest.approx(math.log2(k))


def test_ratio_sup_rejects_small_power():
    with pytest.raises(InvalidInputError):
        gf.ratio_sup(gf.power(0.5))


def test_descriptors():
    assert gf.power(1).descriptor() == "power:1"
    assert gf.power(2.5).descriptor() == "power:2.5"
    assert gf.entropy_log2(1024).descriptor() == "entropy:1024"


@given(
    alpha=st.floats(min_value=0.25, max_value=6.0),
    p=st.floats(min_value=1e-9, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_power_eval_agrees_with_math_pow(alpha, p):
    g = gf.power(alpha)
    assert g.eval(p) == pytest.approx(math.pow(p, alpha), rel=1e-12, abs=1e-300)


@given(p=st.floats(min_value=1e-12, max_value=0.999999))
@settings(max_examples=200, deadline=None)
def test_entropy_raw_is_positive_inside_unit_interval(p):
    g = gf.entropy_log2(2)
    assert g.eval_raw(p) > 0.0


def test_ratio_sup_dominates_sampled_ratio():
    # sup g(p)/p checked against the ratio on a dense grid of the domain
    for g in (gf.power(1.0), gf.power(2.0), gf.entropy_log2(64)):
        lo = g.domain_min if g.domain_min > 0.0 else 1e-9
        p = np.linspace(lo, 1.0, 20001)
        ratio = np.asarray(g.eval(p)) / p
        assert ratio.max() <= gf.ratio_sup(g) + 1e-12
