import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from missingmass import distributions as dm
from missingmass import estimators as est
from missingmass import gfunction as gf
from missingmass.empirical import profile_from_phi, profile_from_samples
from missingmass.errors import InvalidInputError, RegimeError


@pytest.mark.parametrize("n", [1, 5, 20, 100, 200])
@pytest.mark.parametrize("alpha", [1, 2, 3, 5, 8])
def test_choose_float_matches_exact_binomial(n, alpha):
    if alpha > n:
        return
    assert est.choose_float(n, alpha) == pytest.approx(math.comb(n, alpha), rel=1e-12)


def _ratio_product(n, alpha):
    """C(n, alpha) as the product of alpha ratios (n-alpha+i)/i."""
    out = 1.0
    for i in range(1, alpha + 1):
        out *= (n - alpha + i) / i
    return out


def test_choose_float_takes_the_smaller_side_and_stops_at_inf():
    assert est.choose_float(10**7 + 1, 10**7) == 10**7 + 1
    for n in (0, 1, 7, 10**9):
        assert est.choose_float(n, n) == 1.0
    assert est.choose_float(10**12, 10**6) == math.inf
    assert est.choose_float(3, 5) == 0.0
    # alpha <= n/2 keeps the alpha-ratio product, bit for bit
    for n, alpha in [(2, 1), (7, 3), (100, 50), (3000, 1000), (10**9, 3)]:
        assert est.choose_float(n, alpha).hex() == _ratio_product(n, alpha).hex()


def test_bias_bound_rejects_an_order_below_one_or_fractional():
    for alpha in (0, -2, 1.5):
        with pytest.raises(InvalidInputError, match="alpha must be an integer >= 1"):
            est.gt_bias_bound(100, alpha)


def test_good_turing_is_phi1_over_n():
    prof = profile_from_phi({1: 3, 2: 2})
    assert est.estimate(est.good_turing(), prof) == pytest.approx(3.0 / 7.0, rel=1e-15, abs=0)


def test_generalized_is_phi_alpha_over_binomial():
    prof = profile_from_phi({1: 2, 2: 1, 3: 1})
    got = est.estimate(est.generalized_good_turing(2), prof)
    assert got == pytest.approx(1.0 / math.comb(7, 2), rel=1e-15, abs=0)


def test_missing_multiplicity_gives_zero():
    prof = profile_from_phi({2: 2})
    assert est.estimate(est.good_turing(), prof) == 0.0
    assert est.estimate(est.generalized_good_turing(3), prof) == 0.0


def test_plugin_is_zero():
    prof = profile_from_phi({1: 4})
    assert est.estimate(est.plugin(), prof) == 0.0


def test_generalized_requires_integer_alpha_at_least_one():
    for bad in (0, -1):
        with pytest.raises(InvalidInputError):
            est.generalized_good_turing(bad)
    with pytest.raises((InvalidInputError, TypeError)):
        est.generalized_good_turing(1.5)


def test_estimate_out_of_regime_when_n_below_alpha():
    prof = profile_from_phi({1: 2})
    with pytest.raises(RegimeError):
        est.estimate(est.generalized_good_turing(3), prof)


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    n=st.integers(min_value=1, max_value=150),
)
@settings(max_examples=100, deadline=None)
def test_order_one_generalized_equals_good_turing(seed, n):
    d = dm.zipf(30, 1.0)
    prof = profile_from_samples(dm.sample(d, n, seed=seed))
    a = est.estimate(est.good_turing(), prof)
    b = est.estimate(est.generalized_good_turing(1), prof)
    assert a == b


@pytest.mark.parametrize("alpha,n", [(1, 10), (2, 20), (3, 50)])
def test_bias_bound_formula(alpha, n):
    assert est.gt_bias_bound(n, alpha) == pytest.approx(
        alpha ** (alpha + 1) / n**alpha, rel=1e-15, abs=0
    )


def test_bias_bound_regime():
    with pytest.raises(RegimeError):
        est.gt_bias_bound(4, 2)  # needs n > 2*alpha
    est.gt_bias_bound(5, 2)


@pytest.mark.parametrize(
    "dist",
    [dm.uniform(10), dm.zipf(25, 1.0), dm.explicit([0.85, 0.1, 0.05])],
    ids=["uniform10", "zipf25", "threepoint"],
)
@pytest.mark.parametrize("alpha,n", [(1, 9), (2, 12), (3, 14)])
def test_exact_bias_is_nonnegative_and_below_bound(dist, alpha, n):
    # E[estimator] = sum_x p^a (1-p)^(n-a) and E[G0] = sum_x p^a (1-p)^n,
    # both exact sums, so the signed bias needs no Monte Carlo
    p = dist.probs[dist.probs > 0.0]
    mean_est = float(np.sum(p**alpha * (1.0 - p) ** (n - alpha)))
    mean_missing = float(np.sum(p**alpha * (1.0 - p) ** n))
    bias = mean_est - mean_missing
    assert bias >= -1e-15
    assert bias <= est.gt_bias_bound(n, alpha) + 1e-15


def test_descriptors():
    assert est.good_turing().descriptor() == "good_turing"
    assert est.generalized_good_turing(3).descriptor() == "generalized:3"
    assert est.generalized_good_turing(1).descriptor() == "good_turing"
    assert est.plugin().descriptor() == "plugin"


def test_estimators_are_one_family_indexed_by_order():
    assert est.generalized_good_turing(1) == est.good_turing() == est.EstimatorKind(1)
    assert est.plugin() == est.EstimatorKind(0)
    kind = est.EstimatorKind(2.0)
    assert kind.alpha == 2 and type(kind.alpha) is int
    assert kind.descriptor() == "generalized:2"
    for bad in (-1, 1.5):
        with pytest.raises(InvalidInputError):
            est.EstimatorKind(bad)
    # order 0 reads the absent phi_0 and gives 0, even for the empty sample
    assert est.estimate(est.plugin(), profile_from_phi({})) == 0.0


def test_gt_value_direct():
    assert est.gt_value(4, 10, 1) == pytest.approx(0.4)
    with pytest.raises(RegimeError):
        est.gt_value(1, 2, 3)
