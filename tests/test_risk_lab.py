import math

import numpy as np
import pytest

from missingmass import distributions as dm
from missingmass import estimators as est
from missingmass import gfunction as gf
from missingmass import risk_lab as rl
from missingmass.errors import InvalidInputError

P1 = gf.power(1.0)
P2 = gf.power(2.0)


def test_block_rng_streams_are_reproducible_and_distinct():
    a = rl._block_rng(7, 20, 3).random(5)
    np.testing.assert_array_equal(a, rl._block_rng(7, 20, 3).random(5))
    for other in ((7, 20, 4), (7, 21, 3), (8, 20, 3)):
        assert not np.array_equal(a, rl._block_rng(*other).random(5))


def test_partial_block_repeats_the_leading_trials_of_a_longer_run():
    d = dm.zipf(200, 1.0)
    gvec = rl._g_vector(d, P1)
    size = rl._BLOCK_BUDGET // d.size  # trials per block at n = 20
    short = rl._occupancy(d.probs, gvec, 20, 2 * size + 5, 3, 1)
    long = rl._occupancy(d.probs, gvec, 20, 3 * size, 3, 1)
    for a, b in zip(short, long):
        np.testing.assert_array_equal(a, b[: 2 * size + 5])
    # later blocks draw fresh streams: no block repeats the first
    g0 = long[0]
    assert not np.array_equal(g0[:size], g0[size : 2 * size])
    m_short = rl._polya_unseen(1600, 40, rl._BLOCK_BUDGET // 40 + 7, 3)
    m_long = rl._polya_unseen(1600, 40, 2 * (rl._BLOCK_BUDGET // 40), 3)
    np.testing.assert_array_equal(m_short, m_long[: m_short.size])


def test_mc_tail_thread_count_does_not_change_results():
    d = dm.zipf(200, 1.0)
    a = rl.mc_tail(d, P1, 20, 1500, (0.02, 0.1), seed=5, threads=1)
    b = rl.mc_tail(d, P1, 20, 1500, (0.02, 0.1), seed=5, threads=4)
    assert a == b


def _exact_g0_moments(d, n, g):
    """E[G0] and Var(G0) by the exact single-letter and O(K^2) pair sums."""
    p = d.probs
    gv = np.asarray(g.eval(p), dtype=float)
    q = (1.0 - p) ** n
    both = np.clip(1.0 - p[:, None] - p[None, :], 0.0, None) ** n - np.outer(q, q)
    np.fill_diagonal(both, 0.0)
    var = float(gv @ both @ gv + np.sum(gv * gv * q * (1.0 - q)))
    return float(gv @ q), var


@pytest.mark.parametrize("d", [dm.uniform(50), dm.zipf(200, 1.0)], ids=lambda d: d.label)
@pytest.mark.parametrize("g", [P1, P2], ids=lambda g: g.descriptor())
def test_occupancy_moments_match_exact_oracle(d, g):
    n, trials = 20, 20000
    g0, phi = rl._occupancy(d.probs, rl._g_vector(d, g), n, trials, 17, 1)
    mean, var = _exact_g0_moments(d, n, g)
    assert mean == pytest.approx(dm.expected_missing(d, n, g), rel=1e-12)
    se_mean = np.std(g0, ddof=1) / math.sqrt(trials)
    assert abs(np.mean(g0) - mean) <= 4.0 * se_mean
    sq = (g0 - np.mean(g0)) ** 2
    se_var = np.std(sq, ddof=1) / math.sqrt(trials)
    assert abs(np.var(g0, ddof=1) - var) <= 4.0 * se_var
    # E[phi_1] = sum_x n p_x (1 - p_x)^(n-1)
    exact_phi = float(np.sum(n * d.probs * (1.0 - d.probs) ** (n - 1)))
    assert abs(np.mean(phi) - exact_phi) <= 4.0 * np.std(phi, ddof=1) / math.sqrt(trials)


def test_polya_unseen_mean_matches_exact_oracle():
    # each letter stays unseen with probability
    # Gamma(k b) Gamma(k b - b + n) / (Gamma(k b - b) Gamma(k b + n)), b = 1/n
    k, n, trials = 1600, 40, 5000
    b = 1.0 / n
    log_p = (math.lgamma(k * b) + math.lgamma(k * b - b + n)
             - math.lgamma(k * b - b) - math.lgamma(k * b + n))
    exact = k * math.exp(log_p)
    assert exact == pytest.approx(1572.26, abs=0.01)
    m = rl._polya_unseen(k, n, trials, 29)
    assert abs(np.mean(m) - exact) <= 4.0 * np.std(m, ddof=1) / math.sqrt(trials)


def test_mc_risk_plugin_two_point_exact():
    # one draw from uniform(2): the unseen letter always has mass 1/2,
    # so with g = p^2 every trial scores (0 - 1/4)^2 = 1/16
    rep = rl.mc_risk(dm.uniform(2), est.plugin(), P2, [1], trials=500, seed=1)
    assert rep.rows[0].mse == pytest.approx(1.0 / 16.0, rel=1e-15)
    assert rep.rows[0].se == 0.0


def test_mc_risk_good_turing_equals_order_one_generalized():
    d = dm.zipf(40, 1.0)
    a = rl.mc_risk(d, est.good_turing(), P1, [15, 30], trials=400, seed=3)
    b = rl.mc_risk(d, est.generalized_good_turing(1), P1, [15, 30], trials=400, seed=3)
    for ra, rb in zip(a.rows, b.rows):
        assert ra.mse == rb.mse
        assert ra.se == rb.se


def test_mc_risk_thread_count_does_not_change_results():
    d = dm.uniform(30)
    a = rl.mc_risk(d, est.good_turing(), P1, [25], trials=600, seed=9, threads=1)
    b = rl.mc_risk(d, est.good_turing(), P1, [25], trials=600, seed=9, threads=5)
    assert a.rows[0].mse == b.rows[0].mse
    assert a.rows[0].se == b.rows[0].se


def test_mc_risk_estimator_must_match_target():
    with pytest.raises(InvalidInputError):
        rl.mc_risk(dm.uniform(5), est.good_turing(), P2, [10], trials=200, seed=0)
    with pytest.raises(InvalidInputError):
        rl.mc_risk(dm.uniform(5), est.generalized_good_turing(2), P1, [10], trials=200, seed=0)


def test_mc_risk_trials_floor():
    with pytest.raises(InvalidInputError):
        rl.mc_risk(dm.uniform(5), est.plugin(), P1, [10], trials=50, seed=0)


def test_mc_risk_reports_rate_for_three_sizes():
    rep = rl.mc_risk(dm.uniform(20), est.good_turing(), P1, [10, 20, 40], trials=300, seed=2)
    assert math.isfinite(rep.slope)
    assert rep.estimator == "good_turing"
    assert rep.dist_descriptor == "uniform:20"


def test_mc_bias_matches_exact_expectation():
    # E[estimate] - E[G0] has a closed form; the simulation must agree
    d, alpha, n, trials = dm.uniform(10), 1, 9, 30000
    p = d.probs
    exact = float(np.sum(p ** alpha * (1 - p) ** (n - alpha)) - np.sum(p ** alpha * (1 - p) ** n))
    mean, se = rl.mc_bias(d, est.good_turing(), P1, n, trials, seed=11)
    assert abs(mean - exact) <= 4.0 * se


def test_mc_bias_thread_determinism():
    d = dm.uniform(8)
    a = rl.mc_bias(d, est.good_turing(), P1, 12, 500, seed=4, threads=1)
    b = rl.mc_bias(d, est.good_turing(), P1, 12, 500, seed=4, threads=3)
    assert a == b


def test_mc_tail_report_structure_and_dominance():
    d = dm.uniform(20)
    eps = (0.05, 0.15, 0.3)
    rep = rl.mc_tail(d, P1, 20, 4000, eps, seed=5)
    assert rep.eps == eps
    assert set(rep.bounds) == {
        "right_subgauss_519", "right_poly_r2", "right_corollary",
        "left_subgauss_519", "left_exact_u2", "left_corollary",
    }
    for name, col in rep.bounds.items():
        freqs = rep.right_freq if name.startswith("right") else rep.left_freq
        ses = rep.right_se if name.startswith("right") else rep.left_se
        for f, s, b in zip(freqs, ses, col):
            assert f <= b + 3.0 * s


def test_mc_tail_centers_on_analytic_mean():
    # with eps = 0 both sides fire on every draw apart from exact ties
    d = dm.uniform(15)
    rep = rl.mc_tail(d, P1, 10, 1500, (0.0,), seed=6)
    assert rep.right_freq[0] + rep.left_freq[0] >= 1.0


def test_mc_tail_trials_floor():
    with pytest.raises(InvalidInputError):
        rl.mc_tail(dm.uniform(5), P1, 10, 500, (0.1,), seed=0)


def test_mc_tail_se_floor_keeps_zero_frequencies_meaningful():
    d = dm.uniform(10)
    rep = rl.mc_tail(d, P1, 30, 2000, (0.9,), seed=7)
    assert rep.right_freq[0] == 0.0
    assert rep.right_se[0] >= 1.0 / 2000


def test_dirichlet_variance_positive_and_decreasing():
    vals = [rl.dirichlet_prior_variance(n, 1.0, 1) for n in (10, 20, 40, 80)]
    assert all(v > 0.0 for v in vals)
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_dirichlet_variance_asymptote_order_one():
    # with c = 1 the average conditional variance approaches 1/(8n)
    n = 200
    got = rl.dirichlet_prior_variance(n, 1.0, 1)
    assert got == pytest.approx(1.0 / (8.0 * n), rel=0.05)


def test_dirichlet_closed_form_matches_monte_carlo():
    for alpha, n in [(1, 10), (2, 12)]:
        closed = rl.dirichlet_prior_variance(n, 1.0, alpha)
        mc, se = rl.dirichlet_mc_variance(n, 1.0, alpha, trials=2000, seed=13)
        assert abs(mc - closed) <= max(4.0 * se, 0.02 * closed)


def test_dirichlet_mc_thread_determinism():
    a = rl.dirichlet_mc_variance(12, 1.0, 1, trials=400, seed=2, threads=1)
    b = rl.dirichlet_mc_variance(12, 1.0, 1, trials=400, seed=2, threads=4)
    assert a == b


def test_dirichlet_validation():
    with pytest.raises(InvalidInputError):
        rl.dirichlet_prior_variance(1, 1.0, 1)
    with pytest.raises(InvalidInputError):
        rl.dirichlet_prior_variance(10, -1.0, 1)
    with pytest.raises(InvalidInputError):
        rl.dirichlet_prior_variance(10, 1e-4, 1)  # k = round(c n^2) < 2
    with pytest.raises(InvalidInputError):
        rl.dirichlet_prior_variance(10, 1.0, 0)


def test_rate_fit_recovers_exact_power_law():
    pairs = [(n, 3.0 * n**-2.0) for n in (10, 20, 40, 80)]
    slope, intercept, resid = rl.rate_fit(pairs)
    assert slope == pytest.approx(-2.0, abs=1e-12)
    assert intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert resid <= 1e-12


def test_rate_fit_accepts_report():
    rep = rl.mc_risk(dm.uniform(25), est.good_turing(), P1, [10, 20, 40], trials=300, seed=8)
    slope, _, _ = rl.rate_fit(rep)
    assert slope == rep.slope


def test_rate_fit_validation():
    with pytest.raises(InvalidInputError):
        rl.rate_fit([(10, 1.0), (20, 0.5)])
    with pytest.raises(InvalidInputError):
        rl.rate_fit([(10, 1.0), (20, 0.5), (40, 0.0)])
